"""Escaped built-ins fail their rows; horizons no record holds are refused.

A built-in whose loop escapes has no certificate on its record: the
certificate's value is NaN, so its row fails, the report prints with
overall = FAIL and the command exits 1, as the custom form does. ex5's
Monte Carlo mean and standard error are NaN where a path functional
diverges, and its barrier h = ln(1-x) is a ModelBlowup past x < 1, so
its records escape there. SimConfig refuses a T/dt that is not finite
or whose n_steps + 1 samples no numpy axis can index: a config error,
exit 2, nothing written.
"""

import math

import numpy as np
import pytest

from safefilt.cli import main
from safefilt.scenarios import ConfigError, builtin_config, log_gap_barrier
from safefilt.sim import SimConfig
from safefilt.systems import ModelBlowup


def _run(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main(argv + ["--out-dir", str(out)])
    captured = capsys.readouterr()
    return rc, captured.out, out


def _report(text):
    return dict(line.split(" = ", 1) for line in text.splitlines())


@pytest.mark.parametrize("argv, nan_keys", [
    (["ex1-dssf", "--dt", "5", "--T", "20"], ["dssf_min_margin"]),
    (["ex3-invopt", "--dt", "5", "--T", "10"],
     ["cost_total", "invariance_max"]),
    (["ex5-stoch", "--dt", "0.25", "--T", "2", "--paths", "4"],
     ["mc_mean", "mc_se", "mc_gap_in_se"]),
    (["proj-ball", "--dt", "5", "--T", "200"], ["optimal_invariance_max"]),
])
def test_an_escaped_builtin_reports_fail(tmp_path, capsys, argv, nan_keys):
    rc, out, out_dir = _run(tmp_path, capsys, ["run-builtin"] + argv)
    assert rc == 1
    assert out.endswith("overall = FAIL\n")
    report = _report(out)
    for key in nan_keys:
        assert report[key] == "nan"
    assert (out_dir / ("%s-report.txt" % argv[0])).read_text() == out


def test_ex5_escaped_records_end_in_a_tombstone(tmp_path, capsys):
    rc, _, out_dir = _run(tmp_path, capsys,
                          ["run-builtin", "ex5-stoch", "--dt", "0.25",
                           "--T", "2", "--paths", "4"])
    assert rc == 1
    last = [(out_dir / ("ex5-stoch-path%d.csv" % i)).read_text()
            .splitlines()[-1].split(",") for i in range(3)]
    # path 2 steps past x = 1 at t = 0.25: u, u0, d and h are NaN there
    assert last[2][0] == "0.25" and float(last[2][1]) > 1.0
    assert all(v == "nan" for v in last[2][2:6])


def test_log_gap_barrier_refuses_x_past_its_domain():
    bf = log_gap_barrier()
    x = np.array([-0.25])
    assert bf.value(x) == math.log1p(0.25)
    assert bf.gradient(x)[0] == -1.0 / 1.25
    for bad in (1.0, 1.5, math.inf, math.nan):
        for read in (bf.value, bf.gradient, bf.hessian):
            with pytest.raises(ModelBlowup, match="not finite"):
                read(np.array([bad]))


@pytest.mark.parametrize("dt, T", [(1e-3, 1e300), (1e-320, 1.0),
                                   (1.0, 2.0 ** 63), (0.5, 2.0 ** 62)])
def test_simconfig_refuses_more_steps_than_a_record_holds(dt, T):
    with pytest.raises(ValueError, match="more than a record holds"):
        SimConfig(dt=dt, T=T)


def test_simconfig_takes_the_longest_indexable_horizon():
    # the largest double below 2**63 - 1 steps; accepted, never allocated
    # here (numpy indexes that many samples but cannot hold them)
    T = 2.0 ** 63 - 1024.0
    assert SimConfig(dt=1.0, T=T).n_steps + 1 < np.iinfo(np.intp).max
    assert SimConfig(dt=0.5, T=2.0 ** 61).n_steps == 2 ** 62


def test_builtin_config_refuses_an_unholdable_horizon():
    with pytest.raises(ConfigError, match="more than a record holds"):
        builtin_config("ex5-stoch", {"T": 1e300})


@pytest.mark.parametrize("flags", [["--T", "1e300"],
                                   ["--dt", "1e-320", "--T", "1"]])
def test_cli_refuses_an_unholdable_horizon(tmp_path, capsys, flags):
    out = tmp_path / "out"
    rc = main(["run-builtin", "blowup"] + flags + ["--out-dir", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("config error: ")
    assert "more than a record holds" in captured.err
    assert captured.out == "" and not out.exists()
