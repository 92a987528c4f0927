import csv
import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ramcube as rc
import ramcube.cli as cli
import ramcube.harmonics as harmonics
from ramcube.complexes import mask_of
from ramcube.errors import ConfigError, RamcubeError


def write_cfg(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _sha256_of(raw: dict) -> str:
    return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()


def _src_env():
    """The environment of a child Python that imports this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_parse_config_minimal(tmp_path):
    cfg = cli.parse_config(write_cfg(tmp_path, {"primes": [5], "N1": 13, "k": 0}))
    assert cfg.primes == (5,) and cfg.n1 == 13 and cfg.k == 0
    assert cfg.tolerances == cli.DEFAULT_TOLERANCES


def test_parse_config_auto_and_overrides(tmp_path):
    cfg = cli.parse_config(write_cfg(tmp_path, {
        "primes": [13, 5], "N1": "auto", "k": 2,
        "tolerances": {"spectral": 1e-6}, "max_depth": 6}))
    assert cfg.primes == (5, 13)
    assert cfg.n1 == "auto"
    assert cfg.tolerances["spectral"] == 1e-6
    assert cfg.tolerances["matrix"] == 1e-12
    assert cfg.max_depth == 6


@pytest.mark.parametrize("payload,fragment", [
    ({"primes": [5, 5], "N1": 13}, "distinct"),
    ({"primes": [5], "N1": 13, "bogus": 1}, "unknown"),
    ({"primes": [5], "N1": 15}, "odd prime"),
    ({"primes": [5], "N1": 5}, "coprime"),
    ({"primes": [4], "N1": 13}, "odd prime"),
    ({"primes": [], "N1": 13}, "nonempty"),
    ({"primes": [5], "N1": 13, "k": -1}, "nonnegative"),
    ({"primes": [5], "N1": 13, "tolerances": {"weird": 1.0}}, "tolerances"),
    ({"primes": [5], "N1": 13, "k": True}, "nonnegative integer"),
    ({"primes": [True], "N1": 13}, "list of integers"),
    ({"primes": [5], "N1": True}, "odd prime"),
    ({"primes": [5], "N1": 13, "max_dim": 100}, "max_dim"),
    ({"primes": [5], "N1": 13, "max_depth": True}, "max_depth"),
    ({"primes": [5], "N1": 13, "tolerances": {"rank": True}}, "tolerance rank"),
    ({"primes": [5], "N1": 13, "tolerances": {"matrix": float("nan")}}, "tolerance matrix"),
    ({"primes": [5], "N1": 13, "out": 5}, "out must be a string"),
])
def test_parse_config_rejects(tmp_path, payload, fragment):
    with pytest.raises(ConfigError, match=fragment):
        cli.parse_config(write_cfg(tmp_path, payload))


def test_parse_config_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        cli.parse_config(path)
    path.write_bytes(b'{"primes": [5], "N1": 3, "note": "\xff"}')  # not UTF-8
    with pytest.raises(ConfigError, match="malformed"):
        cli.parse_config(path)
    assert cli.main(["build", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    with pytest.raises(ConfigError, match="cannot read"):
        cli.parse_config(tmp_path / "missing.json")


def test_build_with_auto_level(tmp_path):
    cfg = cli.validate_config({"primes": [5, 13], "N1": "auto"})
    report, code = cli.run(cfg, "build", out_dir=tmp_path)
    assert code == 0
    assert report["auto_N1"] is True
    assert report["complex"]["N1"] == 3
    assert report["complex"]["n_vertices"] == 48
    assert (tmp_path / "report.json").exists()


def test_report_deterministic(tmp_path):
    cfg = cli.validate_config({"primes": [5], "N1": 3, "k": 0})
    a = tmp_path / "a"
    b = tmp_path / "b"
    _, code1 = cli.run(cfg, "report", out_dir=a)
    _, code2 = cli.run(cfg, "report", out_dir=b)
    assert code1 == 0 and code2 == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()
    assert (a / "complex.dot").read_bytes() == (b / "complex.dot").read_bytes()


def test_report_content(tmp_path):
    cfg = cli.validate_config({"primes": [5], "N1": 3, "k": 0})
    report, code = cli.run(cfg, "report", out_dir=tmp_path)
    assert code == 0
    assert report["ramanujan_overall"] is True
    assert report["cohomology"]["euler_consistent"] is True
    assert report["girth"]["satisfied"] is True
    assert report["config_sha256"] == _sha256_of(cfg.raw)
    written = json.loads((tmp_path / "report.json").read_text())
    assert written["config_sha256"] == _sha256_of(cfg.raw)
    lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "j,dirs_mask,index,eigenvalue,class"
    assert len(lines) == 1 + 24  # one row per eigenvalue
    dot = (tmp_path / "complex.dot").read_text()
    assert dot.count(" -- ") == 24 * 6 // 2


def test_ramanujan_command(tmp_path):
    cfg = cli.validate_config({"primes": [5], "N1": 3, "k": 2})
    report, code = cli.run(cfg, "ramanujan", out_dir=tmp_path)
    assert code == 0
    assert report["ramanujan_overall"] is True
    assert report["local_system"]["kind"] == "symm(2)"
    assert report["local_system"]["unitarity_residual"] < 1e-12


def test_girth_command(tmp_path):
    cfg = cli.validate_config({"primes": [5], "N1": 13})
    report, code = cli.run(cfg, "girth", out_dir=tmp_path)
    assert code == 0
    assert report["girth"]["girth"] == 8
    assert report["girth"]["bound"] == 5


def test_central_condition_failure_exit_code(tmp_path):
    cfg = cli.validate_config({"primes": [5], "N1": 13, "k": 1})
    report, code = cli.run(cfg, "verify", out_dir=tmp_path)
    assert code == 3
    assert report["exit_stage"]["stage"] == "construction"
    # the partial report still records the complex
    assert report["complex"]["n_vertices"] == 2184


def test_export_dot_link(tmp_path):
    cfg = cli.validate_config({"primes": [5], "N1": 3})
    report, code = cli.run(cfg, "export-dot", out_dir=tmp_path, link_spec=(1, ()))
    assert code == 0
    assert report["dot"]["nodes"] == 24
    assert report["dot"]["edges"] == 72


def test_main_end_to_end(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, {"primes": [5], "N1": 3, "k": 0})
    code = cli.main(["report", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "ramanujan overall: True" in out
    assert (tmp_path / "o" / "report.json").exists()


def test_main_resource_cap_exit_code(tmp_path, capsys, monkeypatch):
    """A star whose dense blocks do not fit in the memory left is a
    resource failure (6), not a negative verdict (4)."""
    monkeypatch.setattr(harmonics, "_memory_headroom", lambda: 100)
    cfg_path = write_cfg(tmp_path, {"primes": [5, 13], "N1": 7})
    code = cli.main(["ramanujan", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 6
    assert "resource failure" in capsys.readouterr().err
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["exit_stage"]["stage"] == "resource"


def test_main_memory_error_exit_code(tmp_path, capsys, monkeypatch):
    """A MemoryError in any stage is a resource failure (6) with a report,
    not an internal error (5)."""
    def exhausted(*args):
        raise MemoryError("Unable to allocate 7.3 GiB")

    monkeypatch.setattr(cli, "girth", exhausted)
    cfg_path = write_cfg(tmp_path, {"primes": [5], "N1": 3})
    code = cli.main(["girth", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 6
    assert "resource failure: Unable to allocate" in capsys.readouterr().err
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["exit_stage"] == {"stage": "resource", "error": "Unable to allocate 7.3 GiB"}


def test_debug_reraises_internal_errors(tmp_path, capsys, monkeypatch):
    """Without --debug an internal error is one line on stderr and exit 5,
    a package error with a report; under --debug it propagates with its
    traceback instead, after the same report."""
    cfg_path = write_cfg(tmp_path, {"primes": [5], "N1": 3})
    argv = ["girth", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    for error, line in ((ValueError("broken"), "internal error: broken\n"),
                        (RamcubeError("odd"), "internal failure: odd\n")):
        def broken(*args):
            raise error

        monkeypatch.setattr(cli, "girth", broken)
        assert cli.main(argv) == 5
        assert capsys.readouterr() == ("", line)
        report = tmp_path / "o" / "report.json"
        report.unlink(missing_ok=True)
        with pytest.raises(type(error), match=str(error)):
            cli.main(argv + ["--debug"])
        # as without the flag, a package error leaves its partial report
        if isinstance(error, RamcubeError):
            stage = json.loads(report.read_text())["exit_stage"]
            assert stage == {"stage": "internal", "error": "odd"}
        else:
            assert not report.exists()


def test_config_hash_in_reports_of_failed_runs(tmp_path, monkeypatch):
    """The config hash is taken when the report is written, so a partial
    report carries it too: construction failure (3) and resource failure (6)."""
    raw = {"primes": [7], "N1": 3}
    assert cli.main(["build", "--config", str(write_cfg(tmp_path, raw)),
                     "--out", str(tmp_path / "o3")]) == 3
    monkeypatch.setattr(harmonics, "_memory_headroom", lambda: 0)
    raw6 = {"primes": [5], "N1": 3}
    assert cli.main(["ramanujan", "--config", str(write_cfg(tmp_path, raw6, "six.json")),
                     "--out", str(tmp_path / "o6")]) == 6
    for out, payload, stage in (("o3", raw, "construction"), ("o6", raw6, "resource")):
        report = json.loads((tmp_path / out / "report.json").read_text())
        assert report["exit_stage"]["stage"] == stage
        assert report["config_sha256"] == _sha256_of(payload)


def test_main_cohomology_cap_exit_code(tmp_path, capsys, monkeypatch):
    """The memory check guards the star solves only: the cohomology holds
    no operator of the size of a cochain space, so it completes with no
    headroom at all."""
    monkeypatch.setattr(harmonics, "_memory_headroom", lambda: 0)
    cfg_path = write_cfg(tmp_path, {"primes": [5, 13], "N1": 7})
    code = cli.main(["cohomology", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["exit_stage"] is None
    assert report["cohomology"]["dims"] == [1, 0, 8063]


_NO_SCIPY_SCRIPT = """
import json, sys
from pathlib import Path
import ramcube.cli
out = Path(sys.argv[1])
for primes in ([5], [5, 13]):
    cfg = out / f"{len(primes)}.json"
    cfg.write_text(json.dumps({"primes": primes, "N1": 3}))
    for command in ("build", "ramanujan", "cohomology", "report"):
        code = ramcube.cli.main([command, "--config", str(cfg),
                                 "--out", str(out / f"{command}{len(primes)}")])
        assert code == 0, (primes, command, code)
assert "scipy" not in sys.modules, "the CLI imported scipy"
K4 = ramcube.complete_graph_complex(4)
for X in (K4, ramcube.product(K4, ramcube.cycle_complex(5))):  # no parities
    ramcube.spectrum_report(X)
    ramcube.Harmonics(X).cohomology_dims()
assert "scipy" not in sys.modules, "certification without parities imported scipy"
"""


def test_cli_path_runs_without_scipy(tmp_path):
    """build, ramanujan, cohomology and report need numpy alone: importing
    scipy would cost most of every invocation's start-up.  So do the star
    spectra and the cohomology of complexes without parities."""
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
                          env=_src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


_NUMPY_IMPORT_SPY = """
import json, os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
assert "numpy" not in sys.modules
sys.meta_path.insert(0, Spy())
import ramcube
assert "numpy" not in sys.modules, "import ramcube loaded numpy"
exec(sys.argv[1])
print(json.dumps(seen))
"""


@pytest.mark.parametrize("preset,expected", [(None, "20"), ("28", "28")])
def test_openblas_timeout_set_before_numpy_loads(preset, expected):
    """OpenBLAS reads its thread timeout when numpy first loads it, so the
    package must set the default before the first name or submodule that
    loads numpy; a preset value stays."""
    env = _src_env()
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)  # this process has set it
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    for trigger in ("ramcube.build_complex", "import ramcube.cli"):
        proc = subprocess.run([sys.executable, "-c", _NUMPY_IMPORT_SPY, trigger],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [expected], trigger


_LOADED_MODULES_SCRIPT = """
import json, sys
from pathlib import Path
import ramcube
loaded = {"import": sorted(m for m in sys.modules if m.startswith("ramcube.") or m == "numpy")}
import ramcube.cli
out = Path(sys.argv[1])
cfg = out / "run.json"
cfg.write_text(json.dumps({"primes": [5], "N1": 3}))
for command in ("build", "export-dot", "girth", "ramanujan"):
    code = ramcube.cli.main([command, "--config", str(cfg), "--out", str(out / command)])
    assert code == 0, (command, code)
    loaded[command] = sorted(m for m in sys.modules
                             if m.startswith("ramcube.") or m in ("_hashlib", "numpy.ma"))
print(json.dumps(loaded))
"""


def test_commands_load_only_the_modules_they_run(tmp_path):
    """The package namespace is lazy and the CLI imports a later stage's
    module only for the commands that run that stage: `import ramcube` loads
    neither numpy nor a submodule, build and export-dot load neither
    localsystems nor harmonics, and girth does not load harmonics.  The
    config hash of a build's report maps no libcrypto (``_hashlib``), and
    no command loads ``numpy.ma`` (``np.unique`` without indices does).  The
    commands run in one process in this order, so each list holds what the
    ones before it loaded too."""
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES_SCRIPT, str(tmp_path)],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])  # after the command summaries
    assert loaded["import"] == []
    for command in ("build", "export-dot"):
        assert "ramcube.harmonics" not in loaded[command], command
        assert "ramcube.localsystems" not in loaded[command], command
    assert "_hashlib" not in loaded["build"]
    assert "ramcube.harmonics" not in loaded["girth"]
    assert {"ramcube.harmonics", "ramcube.localsystems"} <= set(loaded["ramanujan"])
    assert "numpy.ma" not in loaded["ramanujan"]


def test_package_namespace_resolves_every_export():
    """Each of the 50 public names resolves, on first use, to the object its
    defining module holds, and dir() lists them all."""
    assert len(rc.__all__) == len(set(rc.__all__)) == 50
    for name in rc.__all__:
        obj = getattr(rc, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("ramcube.") and getattr(module, name) is obj, name
    assert set(rc.__all__) <= set(dir(rc))
    assert "__version__" in dir(rc)


def test_package_namespace_rejects_unknown_names():
    with pytest.raises(AttributeError, match="no_such_name"):
        rc.no_such_name
    assert not hasattr(rc, "spectrum_reports")


def test_main_config_error(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, {"primes": [5, 5], "N1": 13})
    code = cli.main(["build", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("below", ["", "sub"])
def test_main_output_directory_that_cannot_be_created(tmp_path, capsys, below):
    """--out naming an existing file, or a path below one, is a config
    error (exit 2) that names the path, not an internal error."""
    cfg_path = write_cfg(tmp_path, {"primes": [5], "N1": 3})
    out = tmp_path / "file" / below
    (tmp_path / "file").write_text("")
    code = cli.main(["build", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create the output directory") and str(out) in err


@pytest.mark.parametrize("payload,extra,fragment", [
    ({"k": True}, [], "k must be"),
    ({"out": 5}, [], "out must be"),
    ({}, ["--link-j", "1", "--link-dirs", "x"], "--link-dirs"),
    ({}, ["--link-j", "0"], "--link-j"),
    ({}, ["--link-j", "3"], "--link-j"),
    ({"primes": [5, 13]}, ["--link-j", "1", "--link-dirs", "1"], "--link-dirs"),
    ({"primes": [5, 13]}, ["--link-dirs", "2"], "--link-dirs needs --link-j"),
    ({"max_dim": 100}, [], "unknown config keys"),
])
def test_main_rejects_bad_input(tmp_path, capsys, payload, extra, fragment):
    """Malformed config values and command-line options are config errors
    (exit 2), reported before any work and never as a verdict."""
    cfg_path = write_cfg(tmp_path, {"primes": [5], "N1": 3, **payload})
    code = cli.main(["export-dot", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o"), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and fragment in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["--tol", "--max-depth"])
def test_settings_come_from_the_config_only(tmp_path, capsys, flag):
    """No option overrides a setting of the hashed config."""
    cfg_path = write_cfg(tmp_path, {"primes": [5], "N1": 3})
    with pytest.raises(SystemExit) as exc:
        cli.main(["girth", "--config", str(cfg_path), "--out", str(tmp_path / "o"), flag, "1"])
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_main_auto_level_without_generator_alphabet(tmp_path, capsys):
    """7 = 3 (mod 4) has no generator alphabet: the level search is refused
    at once as a config error instead of trying every level."""
    cfg_path = write_cfg(tmp_path, {"primes": [7], "N1": "auto"})
    start = time.perf_counter()
    code = cli.main(["build", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert time.perf_counter() - start < 2.0
    assert "generator alphabet" in capsys.readouterr().err


def test_main_fixed_level_without_generator_alphabet(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, {"primes": [7], "N1": 3})
    code = cli.main(["build", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "construction failure" in capsys.readouterr().err
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["exit_stage"]["stage"] == "construction"


def test_auto_level_builds_the_complex_once(tmp_path, monkeypatch):
    from ramcube import arithmetic
    calls = []
    build = arithmetic.build_complex
    monkeypatch.setattr(arithmetic, "build_complex",
                        lambda primes, n1: calls.append(n1) or build(primes, n1))
    cfg = cli.validate_config({"primes": [5, 13], "N1": "auto"})
    report, code = cli.run(cfg, "build", out_dir=tmp_path)
    assert code == 0 and report["complex"]["N1"] == 3
    assert calls == [3]


def _spectrum_csv_by_writer(path, sp):
    """The reference spectrum.csv: csv.writer over rows classified one
    eigenvalue at a time, within tol * max(r, 1) of +r or -r."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "dirs_mask", "index", "eigenvalue", "class"])
        for e in sp.entries:
            window = e.verdict.tol * max(e.verdict.r, 1)
            for idx, lam in enumerate(e.eigenvalues):
                if abs(lam - e.verdict.r) <= window:
                    cls = "trivial+"
                elif abs(lam + e.verdict.r) <= window:
                    cls = "trivial-"
                else:
                    cls = "nontrivial"
                writer.writerow((e.j, mask_of(e.dirs), idx, float(lam), cls))


def test_spectrum_csv_matches_csv_writer(tmp_path, cover513):
    """The one-pass spectrum.csv has the bytes of csv.writer, one row per
    eigenvalue, on reports with rows of all three classes."""
    reports = [rc.spectrum_report(cover513),
               rc.spectrum_report(cover513, rc.build_symm_system(cover513, 2)),
               rc.spectrum_report(rc.complete_graph_complex(4)),
               rc.spectrum_report(rc.cycle_complex(5))]
    classes = set()
    for n, sp in enumerate(reports):
        fast, ref = tmp_path / f"fast{n}.csv", tmp_path / f"ref{n}.csv"
        cli._write_csv(fast, sp)
        _spectrum_csv_by_writer(ref, sp)
        assert fast.read_bytes() == ref.read_bytes()
        rows = fast.read_bytes().decode().split("\r\n")
        assert rows[-1] == "" and len(rows) == 2 + sum(e.dim for e in sp.entries)
        classes |= {row.rsplit(",", 1)[-1] for row in rows[1:-1]}
        for e in sp.entries:  # the CSV classes are the verdict's counts
            assert [(e.verdict.classes == c).sum() for c in ("trivial+", "trivial-")] == [
                e.verdict.trivial_plus, e.verdict.trivial_minus]
    assert classes == {"trivial+", "trivial-", "nontrivial"}
