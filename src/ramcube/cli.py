"""Command-line pipeline: build, verify, certify, export.

Configs are strict JSON; every run writes a deterministic report.json into
the output directory (partial, with a stage marker, when a stage fails).
Exit codes: 0 success, 2 config error, 3 construction failure,
4 negative verification, 5 internal error (re-raised under --debug),
6 not enough memory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .arithmetic import build_complex, find_valid_level, girth, irreducibility_report
from .complexes import dirs_of, export_dot, link_graph, mask_of
from .errors import (CentralConditionError, ConfigError, ConstructionError, GeneratorCountError,
                     RamcubeError, ResourceError, VerificationError)
from .quaternions import is_prime

# The names used from the modules of the later stages.  ``_pipeline`` imports the modules
# its command runs before the build: compiled after it, they would raise the peak RSS.
_LATER = {"localsystems": ("build_symm_system", "central_condition_check", "trivial_system",
                           "verify_flatness", "verify_unitarity"),
          "harmonics": ("Harmonics", "spectrum_report")}


def _load(module: str) -> None:  # a name bound already (say, a wrapper) stays
    mod = importlib.import_module(f".{module}", __package__)
    for name in _LATER[module]:
        globals().setdefault(name, getattr(mod, name))


def __getattr__(name: str):  # a name of ``_LATER`` looked up before ``_pipeline`` ran
    for module, names in _LATER.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


COMMANDS = ("build", "verify", "spectrum", "ramanujan", "girth",
            "cohomology", "export-dot", "report")

DEFAULT_TOLERANCES = {"spectral": 1e-8, "matrix": 1e-12, "rank": 1e-8}

_ALLOWED_KEYS = {"primes", "N1", "k", "out", "tolerances", "max_depth"}


@dataclass
class RunConfig:
    primes: tuple[int, ...]
    n1: int | str
    k: int = 0
    out: str = "."
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    max_depth: int = 12
    raw: dict = field(default_factory=dict)


def parse_config(path) -> RunConfig:
    """Load and strictly validate a JSON run configuration."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except ValueError as e:  # bad JSON syntax, or bytes that are not UTF-8
        raise ConfigError(f"malformed JSON: {e}") from e
    return validate_config(data)


def _is_int(x) -> bool:
    """Whether a JSON value is an integer; true and false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_positive(x) -> bool:
    """Whether a JSON value is a finite positive number."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x) and x > 0)


def validate_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    primes = data.get("primes")
    if (not isinstance(primes, list) or not primes
            or not all(_is_int(p) for p in primes)):
        raise ConfigError("primes must be a nonempty list of integers")
    if len(set(primes)) != len(primes):
        raise ConfigError(f"primes must be distinct, got {primes}")
    for p in primes:
        if p == 2 or not is_prime(p):
            raise ConfigError(f"{p} is not an odd prime")
    n1 = data.get("N1")
    if n1 != "auto":
        if not _is_int(n1) or n1 == 2 or not is_prime(n1):
            raise ConfigError("N1 must be an odd prime or \"auto\"")
        if any(p % n1 == 0 for p in primes):
            raise ConfigError(f"N1={n1} must be coprime to the primes")
    k = data.get("k", 0)
    if not _is_int(k) or k < 0:
        raise ConfigError("k must be a nonnegative integer")
    tol = dict(DEFAULT_TOLERANCES)
    user_tol = data.get("tolerances", {})
    if not isinstance(user_tol, dict) or set(user_tol) - set(tol):
        raise ConfigError(f"tolerances may only contain {sorted(tol)}")
    for key, val in user_tol.items():
        if not _is_positive(val):
            raise ConfigError(f"tolerance {key} must be positive")
        tol[key] = float(val)
    max_depth = data.get("max_depth", 12)
    if not _is_int(max_depth) or max_depth <= 0:
        raise ConfigError("max_depth must be a positive integer")
    out = data.get("out", ".")
    if not isinstance(out, str):
        raise ConfigError("out must be a string (a directory path)")
    return RunConfig(tuple(sorted(primes)), n1, k, out, tol, max_depth, data)


def _link_spec(j: int, dirs_text: str, g: int):
    """The (j, dirs) of an export-dot link, checked against the dimension
    g of the complex (the number of primes)."""
    try:
        dirs = tuple(int(x) for x in dirs_text.split(",") if x)
    except ValueError as e:
        raise ConfigError(
            f"--link-dirs must be comma-separated directions, got {dirs_text!r}") from e
    if not 1 <= j <= g:
        raise ConfigError(f"--link-j must be a direction in 1..{g}, got {j}")
    if any(not 1 <= d <= g for d in dirs) or len(set(dirs)) != len(dirs) or j in dirs:
        raise ConfigError(f"--link-dirs must be distinct directions in 1..{g} "
                          f"other than --link-j, got {dirs_text!r}")
    return j, dirs


def _config_hash(cfg: RunConfig) -> str:
    """sha256 of the canonical config, from CPython's built-in module:
    hashlib would map libcrypto, ~3.5 MB of RSS, for the same digest."""
    text = json.dumps(cfg.raw, sort_keys=True).encode()
    for module in ("_sha2", "_sha256", "hashlib"):  # 3.12+, 3.10 and 3.11, else
        with contextlib.suppress(ImportError):
            return importlib.import_module(module).sha256(text).hexdigest()


def run(cfg: RunConfig, command: str, out_dir=None, link_spec=None, debug: bool = False):
    """Execute one subcommand; returns (report dict, exit code).  With
    debug an internal error propagates once report.json is written."""
    out = Path(out_dir if out_dir is not None else cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create the output directory {out}: {e.strerror}") from e
    report = {
        "tool": {"name": "ramcube", "version": __version__},
        "command": command,
        "config": cfg.raw,
        "tolerances": cfg.tolerances,
        "exit_stage": None,
    }
    internal = None
    try:
        code = _pipeline(cfg, command, out, report, link_spec)
    except ConfigError:
        raise
    except ConstructionError as e:
        report["exit_stage"] = {"stage": "construction", "error": str(e)}
        code = 3
    except VerificationError as e:
        report["exit_stage"] = {"stage": "verification", "error": str(e)}
        code = 4
    except (ResourceError, MemoryError) as e:
        report["exit_stage"] = {"stage": "resource", "error": str(e) or "out of memory"}
        code = 6
    except RamcubeError as e:
        report["exit_stage"] = {"stage": "internal", "error": str(e)}
        code, internal = 5, e
    report["config_sha256"] = _config_hash(cfg)
    _write_json(out / "report.json", report)
    if debug and internal is not None:
        raise internal
    return report, code


def _pipeline(cfg: RunConfig, command: str, out: Path, report: dict, link_spec):
    if command not in ("build", "export-dot"):  # see _LATER
        _load("localsystems")
        if command not in ("verify", "girth"):
            _load("harmonics")
    # stage: build
    if cfg.n1 == "auto":
        try:
            n1, X = find_valid_level(cfg.primes)
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
            lg = link_graph(X, *link_spec)
            export_dot(lg, out / "complex.dot")
            report["dot"] = {"file": "complex.dot", "nodes": lg.n_vertices,
                             "edges": len(lg.edge_cubes) // 2}
        return 0

    # stage: local system
    if cfg.k > 0:
        if not central_condition_check(cfg.primes, n1, cfg.k):
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
        return 0 if _girth_report(X, cfg, report) else 4

    H = Harmonics(X, L)
    if command == "cohomology":
        _cohomology_report(H, cfg, report)
        return 0

    # stage: spectra (spectrum / ramanujan / report)
    sp = spectrum_report(X, L, cfg.tolerances["spectral"], workspace=H)
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
    _cohomology_report(H, cfg, report)
    girth_ok = _girth_report(X, cfg, report)
    report["irreducibility"] = [
        {"j": j, "dirs": list(dirs), "components": int(c)}
        for (j, dirs), c in sorted(irreducibility_report(X).items())
    ]
    export_dot(X, out / "complex.dot")
    ok = sp.overall_ramanujan and girth_ok
    return 0 if ok else 4


def _girth_report(X, cfg: RunConfig, report: dict) -> bool:
    """Fill report["girth"]; returns whether the girth bound holds."""
    res = girth(X, cfg.max_depth)
    report["girth"] = {
        "girth": res.girth,
        "lower_bound": res.lower_bound,
        "lower_bound_only": res.girth is None,
        "bound": res.bound,
        "satisfied": res.satisfied,
        "max_depth": res.max_depth,
    }
    return res.satisfied


def _cohomology_report(H: Harmonics, cfg: RunConfig, report: dict) -> None:
    """Fill report["cohomology"] with the Betti numbers and the Euler check."""
    dims = H.cohomology_dims(cfg.tolerances["rank"])
    chi = H.euler_characteristic()
    report["cohomology"] = {
        "dims": dims,
        "euler_from_counts": chi,
        "euler_consistent": sum((-1) ** i * h for i, h in enumerate(dims)) == chi,
    }


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.integer, np.floating, np.ndarray)):
        return obj.tolist()  # Python int, float or list
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_csv(path: Path, sp) -> None:
    """Rows (j, dirs-bitmask, index, eigenvalue, class) in the bytes of
    csv.writer: repr floats and \\r\\n line ends, written entry by entry,
    with the classes of the entry's classify_ramanujan verdict."""
    with open(path, "w", newline="") as fh:
        fh.write("j,dirs_mask,index,eigenvalue,class\r\n")
        for e in sp.entries:
            head = f"{e.j},{mask_of(e.dirs)},"
            fh.writelines(f"{head}{i},{lam!r},{c}\r\n" for i, (lam, c) in
                          enumerate(zip(e.eigenvalues.tolist(), e.verdict.classes.tolist())))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="ramcube",
        description="Build arithmetic cubical complexes and certify their spectra.")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--out", default=None, help="output directory (default: config)")
    ap.add_argument("--link-j", type=int, default=None,
                    help="export-dot: link direction j instead of the 1-skeleton")
    ap.add_argument("--link-dirs", default="",
                    help="export-dot: comma-separated cube directions of the link")
    ap.add_argument("--debug", action="store_true",
                    help="re-raise an internal error with its traceback")
    args = ap.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        link_spec = None
        if args.link_j is not None:
            link_spec = _link_spec(args.link_j, args.link_dirs, len(cfg.primes))
        elif args.link_dirs:
            raise ConfigError("--link-dirs needs --link-j")
        report, code = run(cfg, args.command, args.out, link_spec, args.debug)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # internal
        if args.debug:
            raise
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
