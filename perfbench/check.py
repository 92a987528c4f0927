"""Compare one invocation's outputs with its committed reference.

Rules:
  * the exit code must equal the expected one;
  * report.json: integers, strings, booleans and lists match exactly;
    mu, bound and spectral_gap within EIG_TOL; flatness_residual and
    unitarity_residual only need to stay below the config's matrix
    tolerance, since they are rounding noise rather than values;
  * spectrum.csv: j, dirs_mask, index and class match exactly and the
    eigenvalue is within EIG_TOL (the ROADMAP gate).

Each function returns a list of mismatch descriptions, empty when the
outputs pass.
"""

from __future__ import annotations

import csv
import gzip
import json
from pathlib import Path

EIG_TOL = 1e-10
CLOSE_KEYS = {"mu", "bound", "spectral_gap"}
RESIDUAL_KEYS = {"flatness_residual", "unitarity_residual"}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare_report(got, ref, residual_tol: float, path: str = "") -> list[str]:
    key = path.rsplit(".", 1)[-1]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path or 'report'}: keys differ"]
        out = []
        for k in sorted(ref):
            out += compare_report(got[k], ref[k], residual_tol, f"{path}.{k}" if path else k)
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: list length differs"]
        out = []
        for i, (a, b) in enumerate(zip(got, ref)):
            out += compare_report(a, b, residual_tol, f"{path}[{i}]")
        return out
    if key in RESIDUAL_KEYS:
        if not _is_number(got) or not got < residual_tol:
            return [f"{path}: {got!r} is not below the matrix tolerance {residual_tol}"]
        return []
    if key in CLOSE_KEYS and _is_number(ref):
        if not _is_number(got) or not abs(got - ref) <= EIG_TOL:
            return [f"{path}: {got!r} differs from {ref!r} by more than {EIG_TOL}"]
        return []
    if type(got) is not type(ref) or got != ref:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def read_spectrum(path: Path) -> list[list[str]]:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", newline="") as fh:
        return list(csv.reader(fh))


def compare_spectrum(got: list[list[str]], ref: list[list[str]]) -> list[str]:
    if len(got) != len(ref):
        return [f"spectrum.csv: {len(got)} rows, reference has {len(ref)}"]
    if got[:1] != ref[:1]:
        return ["spectrum.csv: header differs"]
    for n, (a, b) in enumerate(zip(got[1:], ref[1:]), start=2):
        exact = (0, 1, 2, 4)
        if len(a) != len(b) or any(a[i] != b[i] for i in exact):
            return [f"spectrum.csv line {n}: {a} != {b}"]
        if not abs(float(a[3]) - float(b[3])) <= EIG_TOL:
            return [f"spectrum.csv line {n}: eigenvalue {a[3]} differs from {b[3]} "
                    f"by more than {EIG_TOL}"]
    return []


def check_outputs(out_dir: Path, ref_dir: Path, code: int, expected_code: int) -> list[str]:
    """All mismatches of one invocation's outputs against its reference."""
    problems = []
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    try:
        got = json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError) as e:
        return problems + [f"report.json unreadable: {e}"]
    ref = json.loads((ref_dir / "report.json").read_text())
    problems += compare_report(got, ref, ref["tolerances"]["matrix"])
    ref_csv = ref_dir / "spectrum.csv.gz"
    got_csv = out_dir / "spectrum.csv"
    if ref_csv.exists() != got_csv.exists():
        problems.append("spectrum.csv present in only one of output and reference")
    elif ref_csv.exists():
        problems += compare_spectrum(read_spectrum(got_csv), read_spectrum(ref_csv))
    return problems
