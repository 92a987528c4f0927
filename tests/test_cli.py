import json
import time

import pytest

import ramcube.cli as cli
from ramcube.errors import ConfigError


def write_cfg(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


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
])
def test_parse_config_rejects(tmp_path, payload, fragment):
    with pytest.raises(ConfigError, match=fragment):
        cli.parse_config(write_cfg(tmp_path, payload))


def test_parse_config_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        cli.parse_config(path)
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
    assert report["config_sha256"]
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


def test_main_config_error(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, {"primes": [5, 5], "N1": 13})
    code = cli.main(["build", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_main_tol_override(tmp_path):
    cfg_path = write_cfg(tmp_path, {"primes": [5], "N1": 3})
    assert cli.main(["ramanujan", "--config", str(cfg_path),
                     "--out", str(tmp_path / "r"), "--tol", "1e-6"]) == 0
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert report["tolerances"]["spectral"] == 1e-6


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
