"""The run path: pure runners, one writer, one override merge.

A runner returns its report and its records and touches no file;
run_builtin and run_config write the records as CSVs, in order, then the
report, once the runner has returned. So a run that raises, or a config
that is refused, leaves nothing behind. Overrides from the built-in
defaults, a scenario-form file and a custom-form file are merged by one
rule: None is skipped, and a key other than dt, T, seed or paths is a
ConfigError. SimConfig refuses a seed or path count that is not a whole
number, and kl_solve_grid and kl_solve refuse a bad start as
decay_tube does.
"""

import math
import os

import numpy as np
import pytest

import safefilt.cli
import safefilt.scenarios
from safefilt.cli import main
from safefilt.comparison import (DomainError, ExtendedKFunction, decay_tube,
                                 kl_solve, kl_solve_grid, linear_extended)
from safefilt.scenarios import (BUILTINS, ConfigError, builtin_config,
                                ex5_spec, report_text, run_builtin,
                                run_config, run_ex5_stoch)
from safefilt.sim import SimConfig, _truncate
from safefilt.stochastic import generator_margin
from safefilt.systems import lie_data

CUSTOM = ("system = disturbed-gain\nx0 = -0.5\nu0 = const:1\n"
          "alpha = linear:2\nfilter = sontag\nd = sin:0.5\nT = 1\n")


def _short(bid):
    """A short horizon; ex5-stoch with few paths."""
    return {"T": 0.02, "paths": 20 if bid == "ex5-stoch" else None}


def _config(tmp_path, text):
    cfg = tmp_path / "loop.cfg"
    cfg.write_text(text)
    return str(cfg)


# ---- SimConfig: whole seeds and path counts ----

@pytest.mark.parametrize("key, value", [
    ("paths", 2.5), ("seed", 1.5), ("seed", -0.5), ("paths", 1e-3),
    ("seed", math.nan), ("paths", math.nan), ("seed", math.inf),
    ("paths", math.inf), ("seed", -math.inf), ("paths", np.float64(2.5)),
    ("seed", "3"),
])
def test_simconfig_refuses_a_value_that_is_not_whole(key, value):
    with pytest.raises(ValueError, match="%s must be a whole number" % key):
        SimConfig(dt=1e-3, T=0.01, **{key: value})


@pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.uint8(3),
                                   np.int32(3), np.float64(3.0)])
def test_simconfig_stores_a_whole_value_as_int(value):
    cfg = SimConfig(dt=1e-3, T=0.01, seed=value, paths=value)
    assert type(cfg.seed) is int and cfg.seed == 3
    assert type(cfg.paths) is int and cfg.paths == 3


def test_fractional_seed_draws_no_stream():
    # a fractional seed used to draw the truncated seed's streams
    with pytest.raises(ValueError, match="seed must be a whole number"):
        SimConfig(dt=1e-3, T=0.01, seed=1.5)
    assert SimConfig(dt=1e-3, T=0.01, seed=1.0).seed == 1


@pytest.mark.parametrize("key, value", [("paths", 2.5), ("seed", 1.5),
                                        ("seed", math.nan)])
def test_builtin_config_refuses_a_value_that_is_not_whole(key, value):
    with pytest.raises(ConfigError, match="%s must be a whole number" % key):
        builtin_config("ex5-stoch", {key: value})


def test_library_overrides_refuse_fractions_and_write_nothing(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="paths must be a whole number"):
        run_builtin("ex5-stoch", {"T": 0.01, "paths": 2.5}, str(out))
    cfg = _config(tmp_path, "scenario = blowup\n")
    with pytest.raises(ConfigError, match="seed must be a whole number"):
        run_config(cfg, {"seed": 1.5}, str(out))
    with pytest.raises(ConfigError, match="seed must be a whole number"):
        run_config(_config(tmp_path, CUSTOM), {"seed": 1.5}, str(out))
    assert not out.exists()


def test_cli_reports_a_fractional_override_as_config_error(
        tmp_path, capsys, monkeypatch):
    # the flags parse as int; a fractional value can only come from a
    # library caller, and it meets the same gate
    monkeypatch.setattr(safefilt.cli, "_overrides",
                        lambda args: {"T": 0.01, "seed": 1.5})
    out = tmp_path / "out"
    assert main(["run-builtin", "ex5-stoch", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: seed must be a whole number")
    assert not out.exists()


# ---- one override merge ----

def test_builtin_config_uses_simconfig_defaults():
    cfg = builtin_config("blowup")
    assert (cfg.dt, cfg.T, cfg.seed, cfg.paths) == (1e-3, 1.0, 0, 1)
    cfg = builtin_config("ex5-stoch", {"dt": None, "seed": 7})
    assert (cfg.dt, cfg.T, cfg.seed, cfg.paths) == (1e-3, 2.0, 7, 10000)


@pytest.mark.parametrize("key", ["escape_threshold", "Dt", "steps"])
def test_unknown_override_key_is_a_config_error(tmp_path, key):
    with pytest.raises(ConfigError, match="unknown override %r" % key):
        builtin_config("blowup", {key: 1.0})
    with pytest.raises(ConfigError, match="unknown override %r" % key):
        run_builtin("blowup", {key: None})
    cfg = _config(tmp_path, "scenario = blowup\n")
    with pytest.raises(ConfigError, match="unknown override %r" % key):
        run_config(cfg, {key: 1.0})
    with pytest.raises(ConfigError, match="unknown override %r" % key):
        run_config(_config(tmp_path, CUSTOM), {key: 1.0})


def test_custom_form_takes_the_paths_override(tmp_path, capsys):
    cfg = _config(tmp_path, CUSTOM)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", cfg, "--paths", "0", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: paths must be >= 1")
    assert list(out.iterdir()) == []
    # a valid count reaches SimConfig and changes nothing a custom loop
    # computes
    assert main(["run", cfg, "--out-dir", str(tmp_path / "a")]) == 0
    plain = capsys.readouterr().out
    assert main(["run", cfg, "--paths", "3",
                 "--out-dir", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == plain
    for name in ("trajectory.csv", "custom-report.txt"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_custom_form_overrides_its_file_values(tmp_path, capsys):
    cfg = _config(tmp_path, CUSTOM + "seed = 4\ndt = 1e-2\n")
    assert main(["run", cfg, "--T", "0.5", "--dt", "5e-3",
                 "--out-dir", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    rows = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + 101      # header, then T / dt + 1 samples


# ---- one unknown-id check ----

def test_unknown_builtin_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run-builtin", "nope", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown scenario 'nope' (known: ")
    assert not out.exists()
    with pytest.raises(ConfigError, match="unknown scenario 'nope'"):
        run_builtin("nope")
    with pytest.raises(ConfigError, match="unknown scenario 'nope'"):
        builtin_config("nope")


# ---- pure runners, one writer ----

@pytest.mark.parametrize("bid", list(BUILTINS))
def test_files_written_are_the_records_then_the_report(bid, tmp_path,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    pure = BUILTINS[bid].runner(builtin_config(bid, _short(bid)))
    assert os.listdir(tmp_path) == []          # the runner wrote nothing
    assert "overall" not in pure.report and pure.artifacts == []
    assert pure.records

    out = tmp_path / "out"
    res = run_builtin(bid, _short(bid), str(out))
    names = list(res.records) + ["%s-report.txt" % bid]
    assert list(res.records) == list(pure.records)
    assert res.artifacts == [os.path.join(str(out), n) for n in names]
    assert sorted(os.listdir(out)) == sorted(names)
    assert res.report["overall"] is res.passed
    assert (out / names[-1]).read_text() == report_text(res.report)


def test_custom_files_are_the_trajectory_then_the_report(tmp_path):
    res = run_config(_config(tmp_path, CUSTOM), None, str(tmp_path / "o"))
    assert list(res.records) == ["trajectory.csv"]
    assert res.artifacts == [str(tmp_path / "o" / n)
                             for n in ("trajectory.csv", "custom-report.txt")]


def test_runs_without_out_dir_write_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    res = run_builtin("blowup", {"T": 0.02})
    assert res.report["overall"] is res.passed
    assert res.artifacts == [] and os.listdir(tmp_path) == []


def test_a_runner_that_raises_leaves_out_dir_empty(tmp_path, monkeypatch):
    # proj-ball used to write its three CSVs before this check ran
    def boom(traj, cost):
        raise RuntimeError("cost pass failed")
    monkeypatch.setattr(safefilt.scenarios, "cost_invariance_check", boom)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(RuntimeError, match="cost pass failed"):
        main(["run-builtin", "proj-ball", "--T", "0.05",
              "--out-dir", str(out)])
    assert list(out.iterdir()) == []
    with pytest.raises(RuntimeError, match="cost pass failed"):
        run_builtin("proj-ball", {"T": 0.05}, str(tmp_path / "lib"))
    assert not (tmp_path / "lib").exists()


def test_stdout_is_the_report_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run-builtin", "sandwich-scalar", "--T", "0.5",
                 "--out-dir", str(out)]) == 0
    text = (out / "sandwich-scalar-report.txt").read_text()
    assert capsys.readouterr().out == text
    assert text.endswith("overall = PASS\n")


# ---- ex5's stacked generator margin ----

def _per_sample_min(spec, trajs):
    """The generator margin minimum, one lie_data call per 50th sample."""
    gen_min = math.inf
    for traj in trajs:
        for k in range(0, traj.times.size - 1, 50):
            ld = lie_data(spec.sys, spec.bf, traj.states[k])
            gen_min = min(gen_min,
                          generator_margin(spec, ld, traj.controls[k])[0])
    return gen_min


def test_ex5_stacked_margin_is_the_per_sample_loop():
    for T in (0.2, 0.05, 0.049, 0.001):
        res = run_ex5_stoch(SimConfig(dt=1e-3, T=T, paths=5))
        want = _per_sample_min(ex5_spec(), res.records.values())
        assert res.report["generator_margin_min"] == want


def test_ex5_margin_skips_paths_stopped_at_their_first_sample(monkeypatch):
    real = safefilt.scenarios.integrate_sde
    keep = {}

    def cut(*args):
        paths = real(*args)
        for i, traj in enumerate(paths):
            if i in keep:
                _truncate(traj, 1)
        return paths
    monkeypatch.setattr(safefilt.scenarios, "integrate_sde", cut)
    cfg = SimConfig(dt=1e-3, T=0.2, paths=5)

    keep.update({0: None, 2: None})
    res = run_ex5_stoch(cfg)
    sizes = [t.times.size for t in res.records.values()]
    assert sizes == [1, 201, 1]
    assert res.report["generator_margin_min"] == _per_sample_min(
        ex5_spec(), res.records.values())

    keep.update({1: None})
    res = run_ex5_stoch(cfg)
    assert res.report["generator_margin_min"] == math.inf


# ---- kl_solve_grid and kl_solve check r as decay_tube does ----

def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
def test_kl_solvers_refuse_a_non_finite_start(r):
    a = linear_extended(1.0)
    want = _raised(decay_tube, a, r, [0.0])
    assert want[0] is DomainError
    assert _raised(kl_solve, a, r, 0.0) == want
    assert _raised(kl_solve_grid, a, r, [0.0]) == want
    assert _raised(kl_solve_grid, a, r, [0.0, 1.0]) == want


def test_kl_solvers_refuse_a_start_outside_the_domain():
    a = ExtendedKFunction(lambda r: r, lo=-1, hi=1)
    want = _raised(decay_tube, a, 2.0, [0.0])
    assert want[0] is DomainError
    assert _raised(kl_solve, a, 2.0, 0.0) == want
    assert _raised(kl_solve_grid, a, 2.0, [0.0]) == want


def test_kl_solve_at_time_zero_still_returns_the_start():
    assert kl_solve(linear_extended(1.0), 0.75, 0.0) == 0.75
    a = ExtendedKFunction(lambda r: r, lo=-1, hi=1)
    assert kl_solve(a, 0.5, 0.0) == 0.5
