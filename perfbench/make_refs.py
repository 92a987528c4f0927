"""Regenerate perfbench/references from the source tree of this checkout.

    python3 perfbench/make_refs.py

Each workload invocation runs once through the CLI; its report.json and
gzipped spectrum.csv become the reference the benchmark checks against.
Run it only at a commit whose outputs are trusted: a change that claims
unchanged outputs is checked against the committed references instead.
"""

from __future__ import annotations

import gzip
import shutil
import sys

from run import REFS, ROOT, WORK, WORKLOADS, cli_argv, launch

TIMEOUT_S = 600.0


def main() -> int:
    tmp = WORK / "make_refs"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    for inv in (inv for invs in WORKLOADS.values() for inv in invs):
        cfg = tmp / f"{inv.id}.json"
        cfg.write_text(inv.config_json)
        out = tmp / inv.id
        child = launch(cli_argv(inv.command, cfg, out), TIMEOUT_S, tmp / f"{inv.id}.log")
        if child.code != inv.expected_code:
            print(f"{inv.id}: exit {child.code}, expected {inv.expected_code}", file=sys.stderr)
            return 1
        ref = REFS / inv.id
        shutil.rmtree(ref, ignore_errors=True)
        ref.mkdir(parents=True)
        shutil.copy(out / "report.json", ref / "report.json")
        if (out / "spectrum.csv").exists():
            with open(out / "spectrum.csv", "rb") as src, \
                    gzip.GzipFile(ref / "spectrum.csv.gz", "wb", mtime=0) as dst:
                shutil.copyfileobj(src, dst)
        print(f"{inv.id}: {child.wall:.1f} s, {child.rss_mb:.0f} MB -> {ref.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
