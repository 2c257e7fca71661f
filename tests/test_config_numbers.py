"""Gains, seeds and path counts a config may not carry.

An infinite gain is refused like a NaN one (u0 + inf * 0 is NaN where
the filter is inactive): by the library filters as a ValueError and by
a custom config as "bad gain", exit 2. A config file's seed and paths
must be whole finite numbers: nan, inf and fractions are a config error
naming the line (exit 2), where nan and inf used to end in a traceback
and fractions were truncated. A seed must also lie where Philox can key
a stream, [-2**63, 2**64 - 1024): SimConfig refuses the rest with a
ValueError and the command line with exit 2.
"""

import math

import numpy as np
import pytest

from safefilt.certify import CostSpec
from safefilt.cli import main
from safefilt.comparison import identity_k, linear_extended, power_pair
from safefilt.filters import (DssfCbfSpec, InverseOptimalSpec,
                              inverse_optimal_qp)
from safefilt.scenarios import integrator_system, neg_state_barrier
from safefilt.sim import SimConfig

IO_QP = ("system = integrator\nx0 = -1\nu0 = const:1\nalpha = linear:1\n"
         "filter = io-qp:%s\nT = 1\n")
QP_EXACT = ("system = integrator\nx0 = -1\nu0 = const:1\nalpha = linear:1\n"
            "filter = sontag\ncost = qp-exact:%s\nT = 1\n")


def _spec():
    return DssfCbfSpec(integrator_system(), neg_state_barrier(),
                       identity_k(), linear_extended(1.0),
                       lambda x, t: np.array([1.0]))


def _run(tmp_path, text):
    cfg = tmp_path / "loop.cfg"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc = main(["run", str(cfg), "--out-dir", str(out_dir)])
    return rc, list(out_dir.iterdir())


def test_library_filters_refuse_an_infinite_gain():
    spec = _spec()
    with pytest.raises(ValueError, match="beta_gain inf is not finite"):
        inverse_optimal_qp(spec, math.inf, np.array([-1.0]), 0.0)
    with pytest.raises(ValueError, match="beta_gain inf is not finite"):
        InverseOptimalSpec(spec, math.inf, 1.0, power_pair(2))
    with pytest.raises(ValueError, match="beta_gain inf is not finite"):
        CostSpec("qp-exact", spec=spec, beta_gain=math.inf)
    # the largest finite gain still passes the gate
    CostSpec("qp-exact", spec=spec, beta_gain=np.finfo(float).max)


@pytest.mark.parametrize("template, value, line",
                         [(IO_QP, "io-qp:inf", 5),
                          (QP_EXACT, "qp-exact:inf", 6)],
                         ids=["io-qp", "qp-exact"])
def test_config_with_an_infinite_gain_is_a_config_error(tmp_path, capsys,
                                                        template, value,
                                                        line):
    rc, files = _run(tmp_path, template % "inf")
    assert rc == 2 and files == []
    assert capsys.readouterr().err == (
        "config error: line %d: bad gain in %r: beta_gain inf is not "
        "finite\n" % (line, value))


SCENARIO = "scenario = ex5-stoch\nT = 0.01\npaths = 2\n"
CUSTOM = IO_QP.replace("io-qp:%s", "qp").replace("T = 1", "T = 0.01")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1.5", "1e-3"])
@pytest.mark.parametrize("base", ["scenario", "custom"])
def test_seed_must_be_whole_and_finite(tmp_path, capsys, value, base):
    text = ((SCENARIO if base == "scenario" else CUSTOM)
            + "seed = %s\n" % value)
    rc, files = _run(tmp_path, text)
    line = text.count("\n")
    assert rc == 2 and files == []
    assert capsys.readouterr().err == (
        "config error: line %d: seed must be a whole number, got %r\n"
        % (line, value))


@pytest.mark.parametrize("value", ["nan", "inf", "2.5"])
def test_paths_must_be_whole_and_finite(tmp_path, capsys, value):
    rc, files = _run(tmp_path, "scenario = ex5-stoch\npaths = %s\n" % value)
    assert rc == 2 and files == []
    assert capsys.readouterr().err == (
        "config error: line 2: paths must be a whole number, got %r\n"
        % value)


@pytest.mark.parametrize("seed, same", [("-3.0", "-3"), ("3.0", "3"),
                                        ("1e1", "10")])
def test_whole_seeds_run_as_their_integer(tmp_path, capsys, seed, same):
    reports = []
    for value in (seed, same):
        cfg = tmp_path / ("seed_%s.cfg" % value)
        cfg.write_text("scenario = ex5-stoch\nT = 0.01\npaths = 3\n"
                       "seed = %s\n" % value)
        assert main(["run", str(cfg), "--out-dir",
                     str(tmp_path / value)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_integer_seed_is_read_exactly(tmp_path, capsys):
    # 2**53 + 1 has no float; the seed must not be rounded to 2**53
    big = 2**53 + 1
    outs = []
    for seed in (big, big - 1):
        cfg = tmp_path / ("s%d.cfg" % seed)
        cfg.write_text("scenario = ex5-stoch\nT = 0.01\npaths = 3\n"
                       "seed = %d\n" % seed)
        main(["run", str(cfg), "--out-dir", str(tmp_path / str(seed))])
        outs.append(capsys.readouterr().out)
        assert main(["run-builtin", "ex5-stoch", "--T", "0.01", "--paths",
                     "3", "--seed", str(seed), "--out-dir",
                     str(tmp_path / "cli")]) in (0, 1)
        assert capsys.readouterr().out == outs[-1]
    assert outs[0] != outs[1]


EX5 = ["run-builtin", "ex5-stoch", "--T", "0.01", "--paths", "3"]


@pytest.mark.parametrize("seed", [2**64, 2**64 - 1, 2**64 - 1024,
                                  -2**63 - 1])
def test_seed_outside_the_philox_range_is_refused(tmp_path, capsys, seed):
    message = "seed %d outside [-2**63, 2**64 - 1024)" % seed
    with pytest.raises(ValueError) as info:
        SimConfig(dt=0.01, T=0.01, seed=seed)
    assert str(info.value) == message
    out_dir = tmp_path / "out"
    assert main(EX5 + ["--seed", str(seed), "--out-dir", str(out_dir)]) == 2
    assert not out_dir.exists()
    assert capsys.readouterr() == ("", "config error: %s\n" % message)


@pytest.mark.parametrize("seed", [-2**63, 2**63, 2**64 - 1025])
def test_seeds_at_the_edges_of_the_range_run(tmp_path, capsys, seed):
    out_dir = tmp_path / "out"
    assert main(EX5 + ["--seed", str(seed), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "ex5-stoch-report.txt").exists()
    assert capsys.readouterr().err == ""
