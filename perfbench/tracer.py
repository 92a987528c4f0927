"""Spans around the public functions of each ramcube layer, from outside.

Run as a script, this file executes one ramcube command in its own process
with the spans installed and writes them out when the command ends:

    PYTHONPATH=src python3 perfbench/tracer.py CONFIG COMMAND OUT_DIR SPANS_JSON ID

The process exits with the command's exit code, so the high-water mark of
``ru_maxrss`` taken at each span exit belongs to this invocation alone.
Importing the module installs nothing; ``install`` does, on a ``Tracer``.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

# Counters that aggregate by maximum over spans and invocations; every other
# counter is summed.
MAX_SUFFIXES = ("rss_mb", "bytes", "max_dim")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans in memory: id, parent id, name, start, end, invocation
    id and the counters the span's ``counters`` function returns."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "invocation": self.invocation,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span["counts"] = counters(args, result)
            return result
        return traced


def install(tracer: Tracer):
    """Wrap the layer functions where their callers look them up; returns
    the traced ``ramcube.cli.run``."""
    import numpy as np

    import ramcube.arithmetic as arithmetic
    import ramcube.cli as cli
    import ramcube.harmonics as harmonics
    import ramcube.quaternions as quaternions
    from ramcube.complexes import CubicalComplex

    def scan(args, result):
        return {"quaternions.scan_tuples": result.n1 ** 4}

    seen_rewrites = set()

    def rewrite_counts(args, result):
        gens, word, dst = args[0], tuple(args[1]), tuple(args[2])
        key = (id(gens), word, dst)
        if key in seen_rewrites:
            return {}
        seen_rewrites.add(key)
        cands = math.prod(len(gens.gens[d - 1]) for d in dst)
        return {"arithmetic.reorder.unique": 1, "arithmetic.reorder.candidates": cands}

    def build_counts(args, result):
        return {"arithmetic.build_complex.rss_mb": _rss_mb()}

    def dot_counts(args, result):
        obj = args[0]
        if not isinstance(obj, CubicalComplex):
            return {}
        return {"complexes.oriented_cubes": sum(t.n for t in obj.tables.values())}

    def star_counts(args, result):
        return {"harmonics.star_matrix.bytes": int(result.nbytes)}

    def spectrum_counts(args, result):
        n = len(result)
        factor = 4 if np.iscomplexobj(args[0]) else 1
        return {"harmonics.spectrum.max_dim": n,
                "harmonics.spectrum.flops": factor * 4.0 / 3.0 * n ** 3,
                "harmonics.spectrum.rss_mb": _rss_mb()}

    def cohomology_counts(args, result):
        H = args[0]
        item = np.dtype(H.dtype).itemsize
        dense = max((H.level_dim(i + 1) * H.level_dim(i) * item
                     for i in range(H.X.g)), default=0)
        return {"harmonics.cohomology_dims.dense_bytes": dense,
                "harmonics.cohomology_dims.rss_mb": _rss_mb()}

    wrap = tracer.wrap
    build = wrap("arithmetic.build_complex", arithmetic.build_complex, build_counts)
    cli.build_complex = arithmetic.build_complex = build
    cli.find_valid_level = wrap("arithmetic.find_valid_level", cli.find_valid_level)
    cli.girth = wrap("arithmetic.girth", cli.girth)
    cli.irreducibility_report = wrap("arithmetic.irreducibility_report",
                                     cli.irreducibility_report)
    arithmetic.verify_axioms = wrap("complexes.verify_axioms", arithmetic.verify_axioms)
    arithmetic.verify_parities = wrap("complexes.verify_parities", arithmetic.verify_parities)
    arithmetic.GeneratorSystem.reorder = wrap(
        "arithmetic.reorder", arithmetic.GeneratorSystem.reorder, rewrite_counts)
    quaternions.build_group = wrap("quaternions.build_group", quaternions.build_group, scan)
    cli.export_dot = wrap("complexes.export_dot", cli.export_dot, dot_counts)
    for name in ("build_symm_system", "verify_flatness", "verify_unitarity"):
        setattr(cli, name, wrap(f"localsystems.{name}", getattr(cli, name)))
    cli.spectrum_report = wrap("harmonics.spectrum_report", cli.spectrum_report)
    harmonics.spectrum = wrap("harmonics.spectrum", harmonics.spectrum, spectrum_counts)
    H = harmonics.Harmonics
    H.star_matrix = wrap("harmonics.star_matrix", H.star_matrix, star_counts)
    H.expand = wrap("harmonics.expand", H.expand)
    H.total_d = wrap("harmonics.total_d", H.total_d)
    H.cohomology_dims = wrap("harmonics.cohomology_dims", H.cohomology_dims,
                             cohomology_counts)
    return wrap("cli.run", cli.run)


def self_times(spans) -> dict[tuple, float]:
    """(invocation, span id) -> duration minus the time its child spans cover.

    The program is single-threaded, so the children of a span run one after
    another inside it and the covered time is the sum of their durations.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["invocation"], s["parent"]] += s["end"] - s["start"]
    return {(s["invocation"], s["id"]): s["end"] - s["start"] - covered[s["invocation"], s["id"]]
            for s in spans}


def aggregate(spans) -> dict[str, float]:
    """Per span name: total self time (``<name>.s``) and call count
    (``<name>.calls``); counters are summed, or maximized when their name
    ends in one of MAX_SUFFIXES."""
    out: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for s in spans:
        out[s["name"] + ".s"] += own[s["invocation"], s["id"]]
        out[s["name"] + ".calls"] += 1
        for key, val in s.get("counts", {}).items():
            if key.endswith(MAX_SUFFIXES):
                out[key] = max(out[key], val)
            else:
                out[key] += val
    return dict(out)


def main(argv) -> int:
    config, command, out_dir, spans_path, invocation = argv
    tracer = Tracer(invocation)
    run = install(tracer)
    from ramcube.cli import parse_config
    _, code = run(parse_config(config), command, out_dir)
    out = Path(out_dir)
    payload = {"invocation": invocation, "exit_code": code, "spans": tracer.spans,
               "output_bytes": sum(f.stat().st_size for f in out.iterdir() if f.is_file())}
    Path(spans_path).write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
