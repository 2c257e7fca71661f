"""Command line exit codes, listing, and config-file handling.

Everything drives cli.main(argv) directly; artifacts go to tmp dirs so
the repo never collects stray CSVs.
"""

import pytest

from safefilt.cli import main
from safefilt.scenarios import BUILTINS, FILTER_MODULES

ALL_IDS = ("intro-qp-optimal", "intro-sontag", "ex1-dssf", "blowup",
           "ex3-invopt", "ex4-invopt-qp", "ex5-stoch", "ex6-nssf",
           "proj-ball", "sandwich-scalar")


def test_builtin_registry_is_the_published_set():
    assert set(BUILTINS) == set(ALL_IDS)
    for b in BUILTINS.values():
        assert b.module in ("comparison", "systems", "filters",
                            "reciprocal", "stochastic", "sim",
                            "projection", "nonovershoot", "certify")


def test_list_shows_every_builtin(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ALL_IDS:
        assert name in out
    assert out.splitlines()[0].startswith("intro-qp-optimal")


def test_list_filter_narrows_by_module(capsys):
    assert main(["list", "--filter", "stochastic"]) == 0
    out = capsys.readouterr().out
    assert "ex5-stoch" in out and "ex6-nssf" in out
    assert "intro-qp-optimal" not in out
    for module in FILTER_MODULES:
        assert main(["list", "--filter", module]) == 0
    capsys.readouterr()
    # reciprocal currently has no builtin: empty listing, clean exit
    assert main(["list", "--filter", "reciprocal"]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_list_unknown_module_is_usage_error(capsys):
    assert main(["list", "--filter", "warp"]) == 2
    assert "unknown module" in capsys.readouterr().err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_run_builtin_unknown_id(capsys):
    assert main(["run-builtin", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario" in err
    assert "blowup" in err


def test_run_builtin_blowup(tmp_path, capsys):
    rc = main(["run-builtin", "blowup", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "overall = PASS" in out
    assert "escape_time" in out
    assert (tmp_path / "blowup.csv").exists()
    report = (tmp_path / "blowup-report.txt").read_text()
    assert "overall = PASS" in report


def test_run_builtin_overrides_can_break_it(tmp_path, capsys):
    # horizon too short to reach the escape: honest failure, exit 1
    rc = main(["run-builtin", "blowup", "--T", "0.3",
               "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "overall = FAIL" in out


def test_scenario_form_config(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("# comment line\nscenario = blowup\ndt = 2e-3\n")
    rc = main(["run", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    # scenario-form configs only take the shared numeric knobs
    bad = tmp_path / "stray.cfg"
    bad.write_text("scenario = blowup\nalpha = linear:1\n")
    assert main(["run", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_custom_form_config(tmp_path, capsys):
    cfg = tmp_path / "loop.cfg"
    cfg.write_text("system = integrator\n"
                   "x0 = -1\n"
                   "u0 = const:0.5\n"
                   "alpha = linear:1\n"
                   "filter = qp\n"
                   "T = 2\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc = main(["run", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 0
    assert "overall = PASS" in capsys.readouterr().out
    assert (out_dir / "trajectory.csv").exists()
    assert (out_dir / "custom-report.txt").exists()


def test_custom_config_csv_is_deterministic(tmp_path):
    cfg = tmp_path / "loop.cfg"
    cfg.write_text("system = disturbed-gain\n"
                   "x0 = -0.5\n"
                   "u0 = const:1\n"
                   "alpha = linear:2\n"
                   "filter = sontag\n"
                   "d = sin:0.5\n"
                   "T = 1\n")
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert main(["run", str(cfg), "--out-dir", str(a)]) == 0
    assert main(["run", str(cfg), "--out-dir", str(b)]) == 0
    assert ((a / "trajectory.csv").read_bytes()
            == (b / "trajectory.csv").read_bytes())


@pytest.mark.parametrize("text,needle", [
    ("system = bogus\nx0 = 0\nu0 = const:0\nalpha = linear:1\n"
     "filter = qp\n", "unknown system"),
    ("system = integrator\nx0 = -1\nx0 = -2\n", "duplicate key"),
    ("what even\n", "line 1"),
    ("scenario = warpdrive\n", "unknown scenario"),
    ("system = integrator\nx0 = -1\nu0 = const:0\nalpha = warp:1\n"
     "filter = qp\n", "warp:1"),
    ("system = integrator\nx0 = -1\nu0 = const:0\nalpha = linear:1\n"
     "filter = qp\ncost = maximal\n", "cost"),
])
def test_config_errors_exit_2(tmp_path, capsys, text, needle):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc = main(["run", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 2
    assert needle in capsys.readouterr().err
    # a rejected config must not leave artifacts behind
    assert list(out_dir.iterdir()) == []


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_sandwich_report_overall_is_pass(capsys, tmp_path):
    assert main(["run-builtin", "sandwich-scalar", "--out-dir",
                 str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "overall = PASS"
    report = (tmp_path / "sandwich-scalar-report.txt").read_text()
    assert report.splitlines()[-1] == "overall = PASS"


@pytest.mark.parametrize("flags,needle", [
    (["--dt", "0"], "dt must be positive"),
    (["--T", "0"], "T < dt"),
    (["--paths", "0"], "paths"),
    (["--dt", "0.3", "--T", "1"], "whole number of steps"),
    (["--T", "inf"], "T must be finite"),
    (["--T", "nan"], "T must be finite"),
])
def test_run_builtin_bad_numbers_exit_2(tmp_path, capsys, flags, needle):
    rc = main(["run-builtin", "blowup", "--out-dir", str(tmp_path)] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and needle in err
    assert list(tmp_path.iterdir()) == []


CUSTOM_LOOP = ("system = integrator\nx0 = -1\nu0 = const:0.5\n"
               "alpha = linear:1\nfilter = qp\nT = 2\n")


@pytest.mark.parametrize("text", ["scenario = blowup\ndt = 0\n",
                                  CUSTOM_LOOP + "dt = 0\n",
                                  CUSTOM_LOOP + "dt = 0.3\n"],
                         ids=["scenario-dt-0", "custom-dt-0",
                              "custom-partial-step"])
def test_config_file_bad_numbers_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["run", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("flag", ["--dt", "--T"])
def test_run_zero_override_is_not_ignored(tmp_path, capsys, flag):
    # a zero override must reach SimConfig, not fall back to the file
    cfg = tmp_path / "loop.cfg"
    cfg.write_text(CUSTOM_LOOP)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["run", str(cfg), flag, "0", "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert list(out_dir.iterdir()) == []


def test_integrator_ignores_d(tmp_path, capsys):
    # the integrator has no disturbance channel, so a d line changes nothing
    base = ("system = integrator\nx0 = -1\nu0 = const:0.5\n"
            "alpha = linear:1\nfilter = qp\nT = 2\n")
    outs = []
    for name, extra in (("plain", ""), ("with-d", "d = sin:0.5\n")):
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(base + extra)
        out_dir = tmp_path / name
        out_dir.mkdir()
        assert main(["run", str(cfg), "--out-dir", str(out_dir)]) == 0
        assert "overall = PASS" in capsys.readouterr().out
        outs.append((out_dir / "trajectory.csv").read_text())
    assert outs[0] == outs[1]
