"""Self-tests of the benchmark on tiny configurations ([5]@3 and [5,13]@3).

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import gzip
import json
import shutil
import sys

import pytest

from check import check_outputs
from run import TRACER, Invocation, cli_argv, launch
from tracer import aggregate, self_times

TINY = (Invocation.of("report", primes=[5], N1=3),
        Invocation.of("report", primes=[5, 13], N1=3))


def _invoke(inv: Invocation, tmp, traced: bool):
    cfg = tmp / f"{inv.id}.json"
    cfg.write_text(inv.config_json)
    out = tmp / ("traced" if traced else "plain") / inv.id
    out.mkdir(parents=True)
    spans = tmp / f"{inv.id}.spans.json"
    if traced:
        argv = [sys.executable, str(TRACER), str(cfg), inv.command, str(out), str(spans), inv.id]
    else:
        argv = cli_argv(inv.command, cfg, out)
    child = launch(argv, 120.0, tmp / f"{inv.id}.{int(traced)}.log")
    assert child.code == inv.expected_code
    return out, spans


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    return {inv.id: {"plain": _invoke(inv, tmp, False)[0],
                     "traced": _invoke(inv, tmp, True)}
            for inv in TINY}


def _as_reference(out, ref):
    ref.mkdir()
    shutil.copy(out / "report.json", ref / "report.json")
    with open(out / "spectrum.csv", "rb") as src, gzip.open(ref / "spectrum.csv.gz", "wb") as dst:
        shutil.copyfileobj(src, dst)


def _edit_csv(path, row, delta):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][3] = repr(float(rows[row][3]) + delta)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _edit_report(path, edit):
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def test_checker_accepts_matching_and_rejects_changed_outputs(runs, tmp_path):
    out = runs[TINY[0].id]["plain"]
    ref = tmp_path / "ref"
    _as_reference(out, ref)
    got = tmp_path / "got"
    assert check_outputs(out, ref, 0, 0) == []
    assert check_outputs(out, ref, 4, 0) != []  # wrong exit code

    shutil.copytree(out, got)
    _edit_csv(got / "spectrum.csv", 2, 1e-12)
    assert check_outputs(got, ref, 0, 0) == []
    _edit_csv(got / "spectrum.csv", 2, 1e-9)
    assert check_outputs(got, ref, 0, 0) != []

    shutil.copy(out / "spectrum.csv", got / "spectrum.csv")
    tol = json.loads((out / "report.json").read_text())["tolerances"]["matrix"]

    def residual(r):
        r["local_system"]["flatness_residual"] = tol / 2
    _edit_report(got / "report.json", residual)
    assert check_outputs(got, ref, 0, 0) == []

    def cube_count(r):
        key = next(iter(r["complex"]["cube_counts"]))
        r["complex"]["cube_counts"][key] += 1
    _edit_report(got / "report.json", cube_count)
    assert any("cube_counts" in p for p in check_outputs(got, ref, 0, 0))


def test_self_times_of_a_span_tree_sum_to_the_root(runs):
    spans = json.loads(runs[TINY[1].id]["traced"][1].read_text())["spans"]
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.run"]
    own = self_times(spans)
    assert min(own.values()) >= -1e-9
    root = roots[0]["end"] - roots[0]["start"]
    assert sum(own.values()) == pytest.approx(root, rel=1e-9, abs=1e-9)
    agg = aggregate(spans)
    assert sum(v for k, v in agg.items() if k.endswith(".s")) == pytest.approx(root, rel=1e-9)
    assert agg["arithmetic.build_complex.calls"] == 1
    assert agg["arithmetic.reorder.unique"] <= agg["arithmetic.reorder.calls"]


def test_self_times_on_a_handmade_tree():
    spans = [{"invocation": "a", "id": 0, "parent": None, "name": "r", "start": 0.0, "end": 10.0},
             {"invocation": "a", "id": 1, "parent": 0, "name": "c", "start": 1.0, "end": 4.0},
             {"invocation": "a", "id": 2, "parent": 1, "name": "c", "start": 2.0, "end": 3.0},
             {"invocation": "b", "id": 0, "parent": None, "name": "r", "start": 0.0, "end": 2.0}]
    assert self_times(spans) == {("a", 0): 7.0, ("a", 1): 2.0, ("a", 2): 1.0, ("b", 0): 2.0}
    agg = aggregate(spans)
    assert (agg["r.s"], agg["r.calls"], agg["c.s"], agg["c.calls"]) == (9.0, 2, 3.0, 2)


@pytest.mark.parametrize("inv", TINY, ids=lambda inv: inv.id)
def test_traced_and_untraced_reports_are_field_equal(runs, inv):
    plain = json.loads((runs[inv.id]["plain"] / "report.json").read_text())
    traced_out = runs[inv.id]["traced"][0]
    assert json.loads((traced_out / "report.json").read_text()) == plain
