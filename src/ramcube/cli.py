"""Command-line pipeline: build, verify, certify, export.

Configs are strict JSON; every run writes a deterministic report.json into
the output directory (partial, with a stage marker, when a stage fails).
Exit codes: 0 success, 2 config error, 3 construction failure,
4 negative verification, 5 internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .arithmetic import _find_level, build_complex, girth, irreducibility_report
# not called here; kept importable as cli.find_valid_level, the name
# perfbench/tracer.py wraps
from .arithmetic import find_valid_level  # noqa: F401
from .complexes import dirs_of, export_dot, link_graph
from .errors import (CentralConditionError, ConfigError, ConstructionError,
                     GeneratorCountError, RamcubeError, VerificationError)
from .harmonics import Harmonics, spectrum_report
from .localsystems import (build_symm_system, central_condition_check,
                           trivial_system, verify_flatness, verify_unitarity)
from .quaternions import is_prime

COMMANDS = ("build", "verify", "spectrum", "ramanujan", "girth",
            "cohomology", "export-dot", "report")

DEFAULT_TOLERANCES = {"spectral": 1e-8, "matrix": 1e-12, "rank": 1e-8}

_ALLOWED_KEYS = {"primes", "N1", "k", "out", "tolerances", "max_dim", "max_depth"}


@dataclass
class RunConfig:
    primes: tuple[int, ...]
    n1: int | str
    k: int = 0
    out: str = "."
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    max_dim: int = 20000
    max_depth: int = 12
    raw: dict = field(default_factory=dict)


def parse_config(path) -> RunConfig:
    """Load and strictly validate a JSON run configuration."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON: {e}") from e
    return validate_config(data)


def validate_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    primes = data.get("primes")
    if (not isinstance(primes, list) or not primes
            or not all(isinstance(p, int) for p in primes)):
        raise ConfigError("primes must be a nonempty list of integers")
    if len(set(primes)) != len(primes):
        raise ConfigError(f"primes must be distinct, got {primes}")
    for p in primes:
        if p == 2 or not is_prime(p):
            raise ConfigError(f"{p} is not an odd prime")
    n1 = data.get("N1")
    if n1 != "auto":
        if not isinstance(n1, int) or n1 == 2 or not is_prime(n1):
            raise ConfigError("N1 must be an odd prime or \"auto\"")
        if any(p % n1 == 0 for p in primes):
            raise ConfigError(f"N1={n1} must be coprime to the primes")
    k = data.get("k", 0)
    if not isinstance(k, int) or k < 0:
        raise ConfigError("k must be a nonnegative integer")
    tol = dict(DEFAULT_TOLERANCES)
    user_tol = data.get("tolerances", {})
    if not isinstance(user_tol, dict) or set(user_tol) - set(tol):
        raise ConfigError(f"tolerances may only contain {sorted(tol)}")
    for key, val in user_tol.items():
        if not isinstance(val, (int, float)) or val <= 0:
            raise ConfigError(f"tolerance {key} must be positive")
        tol[key] = float(val)
    max_dim = data.get("max_dim", 20000)
    max_depth = data.get("max_depth", 12)
    if not isinstance(max_dim, int) or max_dim <= 0:
        raise ConfigError("max_dim must be a positive integer")
    if not isinstance(max_depth, int) or max_depth <= 0:
        raise ConfigError("max_depth must be a positive integer")
    return RunConfig(tuple(sorted(primes)), n1, k, data.get("out", "."),
                     tol, max_dim, max_depth, data)


def _config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.raw, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def run(cfg: RunConfig, command: str, out_dir=None, link_spec=None):
    """Execute one subcommand; returns (report dict, exit code)."""
    out = Path(out_dir if out_dir is not None else cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "tool": {"name": "ramcube", "version": __version__},
        "command": command,
        "config": cfg.raw,
        "config_sha256": _config_hash(cfg),
        "tolerances": cfg.tolerances,
        "exit_stage": None,
    }
    code = 0
    try:
        code = _pipeline(cfg, command, out, report, link_spec)
    except ConfigError:
        raise
    except (ConstructionError, CentralConditionError) as e:
        report["exit_stage"] = {"stage": "construction", "error": str(e)}
        code = 3
    except VerificationError as e:
        report["exit_stage"] = {"stage": "verification", "error": str(e)}
        code = 4
    except RamcubeError as e:
        report["exit_stage"] = {"stage": "internal", "error": str(e)}
        code = 5
    _write_json(out / "report.json", report)
    return report, code


def _pipeline(cfg: RunConfig, command: str, out: Path, report: dict, link_spec):
    # stage: build
    if cfg.n1 == "auto":
        try:
            n1, X = _find_level(cfg.primes)
        except GeneratorCountError as e:
            raise ConfigError(
                f"N1=\"auto\" needs a generator alphabet for every prime: {e}") from e
        report["auto_N1"] = True
    else:
        n1 = cfg.n1
        report["auto_N1"] = False
        X = build_complex(cfg.primes, n1)
    G = X.arith.group
    report["complex"] = {
        "primes": list(cfg.primes),
        "N1": n1,
        "g": X.g,
        "regularities": list(X.regularities),
        "n_vertices": X.n_vertices,
        "group_order": G.order,
        "group_order_predicted": G.predicted_order(),
        "fine_group_order": G.order_fine,
        "section_kernel_order": G.kernel_order,
        "parity_cover_index": X.arith.cover_index,
        "cube_counts": {",".join(map(str, dirs_of(m))) or "vertices": c
                        for m, c in X.unoriented_counts().items()},
    }
    if command == "build":
        return 0

    if command == "export-dot":
        if link_spec is None:
            export_dot(X, out / "complex.dot")
            report["dot"] = {"file": "complex.dot", "nodes": X.n_vertices,
                             "edges": sum(X.unoriented_counts()[1 << (j - 1)]
                                          for j in range(1, X.g + 1))}
        else:
            j, dirs = link_spec
            lg = link_graph(X, j, dirs)
            export_dot(lg, out / "complex.dot")
            report["dot"] = {"file": "complex.dot", "nodes": lg.n_vertices,
                             "edges": len(lg.edge_cubes) // 2}
        return 0

    # stage: local system
    if cfg.k > 0:
        central = central_condition_check(cfg.primes, n1, cfg.k)
        if not central:
            raise CentralConditionError(
                f"k={cfg.k} fails the central condition for primes={cfg.primes}, N1={n1}")
        L = build_symm_system(X, cfg.k)
    else:
        L = trivial_system(X)
    mat_tol = cfg.tolerances["matrix"]
    flat = verify_flatness(X, L)
    unit = verify_unitarity(X, L)
    report["local_system"] = {
        "kind": L.kind,
        "k": cfg.k,
        "fiber_dim": L.fiber_dim,
        "flatness_residual": flat.max_residual,
        "unitarity_residual": unit,
        "n_squares": flat.n_squares,
    }
    report["verification"] = {
        "axioms_passed": True,     # enforced during construction
        "parities_passed": True,
        "flat": flat.ok(mat_tol),
        "unitary": unit < mat_tol,
    }
    if command == "verify":
        if not (flat.ok(mat_tol) and unit < mat_tol):
            raise VerificationError("local system failed flatness/unitarity")
        return 0

    if command == "girth":
        res = girth(X, cfg.max_depth)
        report["girth"] = {
            "girth": res.girth,
            "lower_bound": res.lower_bound,
            "lower_bound_only": res.girth is None,
            "bound": res.bound,
            "satisfied": res.satisfied,
            "max_depth": res.max_depth,
        }
        return 0 if res.satisfied else 4

    if command == "cohomology":
        H = Harmonics(X, L)
        dims = H.cohomology_dims(cfg.tolerances["rank"])
        chi = H.euler_characteristic()
        report["cohomology"] = {
            "dims": dims,
            "euler_from_counts": chi,
            "euler_consistent": sum((-1) ** i * h for i, h in enumerate(dims)) == chi,
        }
        return 0

    # stage: spectra (spectrum / ramanujan / report)
    H = Harmonics(X, L)
    sp = spectrum_report(X, L, cfg.tolerances["spectral"], cfg.max_dim, workspace=H)
    report["spectra"] = [
        {
            "j": e.j,
            "dirs": list(e.dirs),
            "dim": e.dim,
            "r": e.verdict.r,
            "bound": e.verdict.bound,
            "mu": e.verdict.mu,
            "spectral_gap": e.verdict.gap,
            "trivial_plus": e.verdict.trivial_plus,
            "trivial_minus": e.verdict.trivial_minus,
            "ramanujan": e.verdict.is_ramanujan,
        }
        for e in sp.entries
    ]
    report["ramanujan_overall"] = sp.overall_ramanujan
    _write_csv(out / "spectrum.csv", sp)
    if command == "spectrum":
        return 0
    if command == "ramanujan":
        return 0 if sp.overall_ramanujan else 4

    # command == report: everything else as well
    dims = H.cohomology_dims(cfg.tolerances["rank"])
    chi = H.euler_characteristic()
    report["cohomology"] = {
        "dims": dims,
        "euler_from_counts": chi,
        "euler_consistent": sum((-1) ** i * h for i, h in enumerate(dims)) == chi,
    }
    res = girth(X, cfg.max_depth)
    report["girth"] = {
        "girth": res.girth,
        "lower_bound": res.lower_bound,
        "lower_bound_only": res.girth is None,
        "bound": res.bound,
        "satisfied": res.satisfied,
        "max_depth": res.max_depth,
    }
    report["irreducibility"] = [
        {"j": j, "dirs": list(dirs), "components": int(c)}
        for (j, dirs), c in sorted(irreducibility_report(X).items())
    ]
    export_dot(X, out / "complex.dot")
    ok = sp.overall_ramanujan and res.satisfied
    return 0 if ok else 4


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_csv(path: Path, sp) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "dirs_mask", "index", "eigenvalue", "class"])
        for row in sp.csv_rows():
            writer.writerow(row)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="ramcube",
        description="Build arithmetic cubical complexes and certify their spectra.")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--out", default=None, help="output directory (default: config)")
    ap.add_argument("--tol", type=float, default=None,
                    help="override the spectral tolerance")
    ap.add_argument("--max-dim", type=int, default=None,
                    help="override the dense eigensolver dimension cap")
    ap.add_argument("--max-depth", type=int, default=None,
                    help="override the girth search depth cap")
    ap.add_argument("--link-j", type=int, default=None,
                    help="export-dot: link direction j instead of the 1-skeleton")
    ap.add_argument("--link-dirs", default="",
                    help="export-dot: comma-separated cube directions of the link")
    args = ap.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.tol is not None:
            if args.tol <= 0:
                raise ConfigError("--tol must be positive")
            cfg.tolerances["spectral"] = args.tol
        if args.max_dim is not None:
            cfg.max_dim = args.max_dim
        if args.max_depth is not None:
            cfg.max_depth = args.max_depth
        link_spec = None
        if args.link_j is not None:
            dirs = tuple(int(x) for x in args.link_dirs.split(",") if x)
            link_spec = (args.link_j, dirs)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        report, code = run(cfg, args.command, args.out, link_spec)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # internal
        print(f"internal error: {e}", file=sys.stderr)
        return 5
    stage = report.get("exit_stage")
    if stage:
        print(f"{stage['stage']} failure: {stage['error']}", file=sys.stderr)
    else:
        _summarize(report)
    return code


def _summarize(report: dict) -> None:
    cx = report.get("complex")
    if cx:
        print(f"complex: primes={cx['primes']} N1={cx['N1']} "
              f"vertices={cx['n_vertices']} regularities={cx['regularities']}")
    if "ramanujan_overall" in report:
        for e in report.get("spectra", []):
            print(f"  (j={e['j']}, I={tuple(e['dirs'])}): mu={e['mu']:.6f} "
                  f"bound={e['bound']:.6f} ramanujan={e['ramanujan']}")
        print(f"ramanujan overall: {report['ramanujan_overall']}")
    if "cohomology" in report:
        print(f"cohomology dims: {report['cohomology']['dims']} "
              f"(euler {report['cohomology']['euler_from_counts']})")
    if "girth" in report:
        gi = report["girth"]
        shown = gi["girth"] if gi["girth"] is not None else f">= {gi['lower_bound']}"
        print(f"girth: {shown} (bound {gi['bound']}, satisfied={gi['satisfied']})")


if __name__ == "__main__":
    sys.exit(main())
