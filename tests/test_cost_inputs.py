"""What the certificates accept: CostSpec gains and escaped records.

A CostSpec holds the gains its cost uses: a kind whose spec carries a
gain takes it from there and rejects a different one, and a gain the
kind never reads is an error rather than silently ignored. A gain the
kind reads from the CostSpec itself passes the filters' gain gate, and
a kind that reads a spec refuses to be built without one. Every
certificate refuses a record that escaped, whose last sample is a
tombstone.
"""

import csv
import math

import numpy as np
import pytest

from safefilt.certify import (COST_KINDS, CostSpec, certify_dssf_bound,
                              evaluate_cost, ibssf_check)
from safefilt.cli import main
from safefilt.comparison import identity_k, linear_extended, power_pair
from safefilt.filters import DssfCbfSpec
from safefilt.projection import ProjectionSpec
from safefilt.reciprocal import RcbfSpec
from safefilt.scenarios import (_closed_loop, _ex3_pieces,
                                disturbed_gain_system, ex5_spec, ex6_spec,
                                neg_state_barrier, unit_ball_barrier)
from safefilt.sim import SimConfig
from safefilt.stochastic import CovarianceSchedule
from safefilt.systems import scalar_system

COV = CovarianceSchedule.constant(np.eye(1))


def dssf_spec():
    return DssfCbfSpec(disturbed_gain_system(), neg_state_barrier(),
                       identity_k(), linear_extended(1.0),
                       lambda x, t: np.array([2.0]))


def recip_spec(beta):
    return RcbfSpec(scalar_system(lambda x: 0.0, None, lambda x: 1.0),
                    lambda x: -1.0 / x[0], identity_k(),
                    lambda x, t: np.array([1.0]),
                    gradB=lambda x: np.array([1.0 / x[0] ** 2]),
                    beta_gain=beta)


# kind: (the cost's spec and cov, its beta_gain, its lam)
RESOLVED = {
    "intro-min": ({}, None, None),
    "intro-sontag": ({}, None, None),
    "disturbance-game": ({"spec": _ex3_pieces(2.0, 1.0)[3]}, 2.0, 1.0),
    "qp-weighted": ({"spec": dssf_spec()}, 2.0, 2.0),
    "qp-exact": ({"spec": dssf_spec()}, 2.0, None),
    "reciprocal-min": ({"spec": recip_spec(3.0)}, 3.0, None),
    "stochastic-value": ({"spec": ex5_spec(2.5)}, 2.5, None),
    "noise-game": ({"spec": ex6_spec(beta=3.0, lam=1.5), "cov": COV},
                   3.0, 1.5),
    "projection-min": ({"spec": ProjectionSpec(
        unit_ball_barrier(), linear_extended(1.0), beta_gain=4.0)},
        4.0, None),
}


def test_every_kind_is_covered():
    assert set(RESOLVED) == set(COST_KINDS)


@pytest.mark.parametrize("kind", COST_KINDS)
def test_cost_holds_the_gains_it_uses(kind):
    data, beta, lam = RESOLVED[kind]
    cost = CostSpec(kind, **data)
    assert (cost.beta_gain, cost.lam) == (beta, lam)
    # restating the gains in use is accepted
    again = CostSpec(kind, beta_gain=beta, lam=lam, **data)
    assert (again.beta_gain, again.lam) == (beta, lam)


# the gains a kind reads from the CostSpec itself, all others come from
# its spec or are not read at all
OWN_GAINS = {("qp-weighted", "beta_gain"), ("qp-weighted", "lam"),
             ("qp-exact", "beta_gain")}


@pytest.mark.parametrize("kind", COST_KINDS)
def test_a_gain_the_cost_does_not_use_is_rejected(kind):
    data = RESOLVED[kind][0]
    for field, value in (("beta_gain", 3.25), ("lam", 0.75)):
        if (kind, field) in OWN_GAINS:
            cost = CostSpec(kind, **data, **{field: value})
            assert getattr(cost, field) == value
        else:
            with pytest.raises(ValueError, match=field):
                CostSpec(kind, **data, **{field: value})


def test_disturbance_game_rejects_gains_it_would_ignore():
    iospec = _ex3_pieces(2.0, 1.0)[3]
    with pytest.raises(ValueError, match="beta_gain"):
        CostSpec("disturbance-game", spec=iospec, beta_gain=5.0, lam=1.0)
    with pytest.raises(ValueError, match="lam"):
        CostSpec("disturbance-game", spec=iospec, beta_gain=2.0, lam=0.5)


@pytest.mark.parametrize(
    "kind", [k for k in COST_KINDS if k not in ("intro-min", "intro-sontag")])
def test_a_cost_without_its_spec_is_rejected(kind):
    with pytest.raises(ValueError, match="%s cost needs its spec" % kind):
        CostSpec(kind)


@pytest.mark.parametrize("kind,gains,field", [
    ("qp-exact", {"beta_gain": 0.75}, "beta_gain"),
    ("qp-weighted", {"beta_gain": 1.5}, "beta_gain"),
    ("qp-weighted", {"lam": 7.0}, "lam"),
    ("qp-weighted", {"lam": 0.0}, "lam"),
])
def test_a_gain_the_cost_reads_itself_passes_the_filters_gate(kind, gains,
                                                              field):
    # beta >= 2 certifies optimality, lam in (0, 2]: as for every filter
    with pytest.raises(ValueError, match=field):
        CostSpec(kind, spec=dssf_spec(), **gains)


def test_noise_game_needs_the_schedule_at_construction():
    with pytest.raises(ValueError, match="covariance schedule"):
        CostSpec("noise-game", spec=ex6_spec(beta=2.0))


def blowup_record():
    # the blowup built-in's loop: u0 = x^3 escapes at t = 0.5
    traj = _closed_loop(lambda x: x ** 3 + min(0.0, -x ** 3 - x),
                        lambda x: x ** 3, -1.0, SimConfig(dt=1e-3, T=1.0))
    assert traj.escape_time is not None
    return traj


def test_certificates_refuse_an_escaped_record():
    traj = blowup_record()
    with pytest.raises(ValueError, match="escaped record"):
        certify_dssf_bound(traj, linear_extended(1.0), identity_k())
    with pytest.raises(ValueError, match="escaped record"):
        ibssf_check(traj, linear_extended(1.0), power_pair(2), 1.0)
    with pytest.raises(ValueError, match="escaped record"):
        evaluate_cost(traj, CostSpec("intro-min"))


def run_config(tmp_path, capsys, text):
    cfg = tmp_path / "loop.cfg"
    cfg.write_text(text)
    rc = main(["run", str(cfg), "--out-dir", str(tmp_path / "out")])
    report = dict(line.split(" = ", 1)
                  for line in capsys.readouterr().out.splitlines())
    return rc, report


ESCAPING = ("system = integrator\nx0 = -1\nu0 = const:-1e7\n"
            "alpha = linear:1\nfilter = qp\nT = 1\n")


def test_escaped_custom_loop_reports_no_margin(tmp_path, capsys):
    rc, report = run_config(tmp_path, capsys, ESCAPING)
    assert rc == 1
    assert report["escape_time"] == "0.1"
    assert report["dssf_min_margin"] == "nan"
    assert report["overall"] == "FAIL"


def test_escaped_custom_loop_reports_no_cost(tmp_path, capsys):
    rc, report = run_config(tmp_path, capsys,
                            ESCAPING + "cost = qp-exact:2\n")
    assert rc == 1
    assert report["cost_total"] == "nan"
    assert report["cost_invariance_max"] == "nan"


def test_infinite_custom_cost_reports_no_invariance(tmp_path, capsys):
    # the Sontag correction deviates where the min-norm weight is
    # infinite, so the qp-exact cost of its loop is -inf
    rc, report = run_config(tmp_path, capsys,
                            "system = integrator\nx0 = -1\nu0 = const:1\n"
                            "alpha = linear:1\nfilter = sontag\n"
                            "cost = qp-exact:2\nT = 1\n")
    assert rc == 0
    assert report["cost_total"] == "-inf"
    assert report["cost_invariance_max"] == "nan"
    assert math.isfinite(float(report["dssf_min_margin"]))


SONTAG_QP_EXACT = ("system = integrator\nx0 = -1\nu0 = const:1\n"
                   "alpha = linear:1\nfilter = sontag\ncost = qp-exact:2\n"
                   "T = 1\n")


def test_infinite_custom_cost_writes_an_infinite_running_column(tmp_path,
                                                                capsys):
    # every sample deviates against the infinite min-norm weight, so the
    # running integral is -inf from the first interval on, as the total
    rc, report = run_config(tmp_path, capsys, SONTAG_QP_EXACT)
    assert rc == 0 and report["cost_total"] == "-inf"
    with open(tmp_path / "out" / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    running = [float(row["running_cost"]) for row in rows]
    assert len(running) == 1001
    assert running[0] == 0.0
    assert all(v == -math.inf for v in running[1:])


def test_custom_cost_gain_below_two_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "loop.cfg"
    cfg.write_text(SONTAG_QP_EXACT.replace("qp-exact:2", "qp-exact:1.5"))
    rc = main(["run", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "qp-exact:1.5" in err
    assert "beta_gain 1.5 < 2" in err
