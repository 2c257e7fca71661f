"""Cost evaluation, invariance, state bounds, and optimality probes.

The frozen numbers come from loops with closed-form solutions, so the
trapezoid totals can be checked against exact values, and the tagged
infinity rules are exercised on hand-built records.
"""

import copy
import math

import numpy as np
import pytest

from safefilt.certify import (COST_DIRECTION, COST_KINDS, CostSpec,
                              ProbeSetup, certify_dssf_bound,
                              cost_invariance_check, evaluate_cost,
                              ibssf_check, mc_summary, optimality_probe,
                              standard_perturbations)
from safefilt.comparison import identity_k, linear_extended, power_pair
from safefilt.filters import DssfCbfSpec
from safefilt.scenarios import _ex3_pieces
from safefilt.sim import SimConfig, Trajectory, integrate_ode
from safefilt.systems import BarrierFunction, scalar_system


def neg_barrier():
    return BarrierFunction(lambda x: -x[0],
                           grad=lambda x: np.array([-1.0]),
                           hess=lambda x: np.zeros((1, 1)))


def intro_pieces():
    # scalar loop with nominal 1; the scaled min-norm policy settles the
    # state at -1/2 and keeps the minimized running+terminal sum at x0
    sys = scalar_system(lambda x: 0.0, None, lambda x: 1.0)
    u_star = lambda x, t: 1.0 + 2.0 * min(0.0, -(1.0 + x[0]))
    u0 = lambda x, t: 1.0
    return sys, u_star, u0


def decay_loop(d_const, T):
    sys = scalar_system(lambda x: 0.0, lambda x: 1.0, lambda x: 1.0)
    cfg = SimConfig(dt=1e-3, T=T)
    d = None if d_const is None else (lambda x, t: d_const)
    return integrate_ode(sys, neg_barrier(), lambda x, t: -x[0],
                         lambda x, t: -x[0], [-1.0], d, cfg)


def flat_record(x, u, u0, d, n=2):
    # hand-built record on the disturbed-gain plant, constant in time
    return Trajectory(times=0.1 * np.arange(n),
                      states=np.full((n, 1), x),
                      controls=np.full((n, 1), u),
                      nominal=np.full((n, 1), u0),
                      disturbances=np.full((n, 1), d),
                      h_values=np.full(n, -x),
                      running_cost=np.zeros(n))


def disturbed_gain_spec(u0_val=0.0):
    sys = scalar_system(lambda x: 0.0, lambda x: 1.0 + x * x,
                        lambda x: 1.0)
    return DssfCbfSpec(sys, neg_barrier(), identity_k(),
                       linear_extended(1.0),
                       lambda x, t: np.array([u0_val]))


def test_cost_kind_table():
    assert len(COST_KINDS) == 9
    assert set(COST_DIRECTION) == set(COST_KINDS)
    assert COST_DIRECTION["intro-min"] == +1
    assert COST_DIRECTION["projection-min"] == +1
    assert COST_DIRECTION["disturbance-game"] == -1
    assert COST_DIRECTION["stochastic-value"] == -1
    with pytest.raises(ValueError):
        CostSpec("bogus-kind")


def test_intro_min_total_pins_initial_state():
    # x(t) = -1/2 - e^{-2t}/2 makes running + terminal identically x0
    sys, u_star, u0 = intro_pieces()
    cfg = SimConfig(dt=1e-3, T=6.0)
    traj = integrate_ode(sys, neg_barrier(), u_star, u0, [-1.0], None, cfg)
    cv = evaluate_cost(traj, CostSpec("intro-min"))
    assert not cv.infinite
    assert cv.total == pytest.approx(-1.0, abs=1e-5)
    assert cost_invariance_check(traj, CostSpec("intro-min")) < 1e-5
    assert cv.running.shape == traj.times.shape


def test_single_sample_record_is_terminal_only():
    traj = flat_record(x=-0.8, u=1.0, u0=1.0, d=0.0, n=1)
    cv = evaluate_cost(traj, CostSpec("intro-min"))
    assert cv.total == -0.8
    assert np.array_equal(cv.running, np.zeros(1))
    assert cost_invariance_check(traj, CostSpec("intro-min")) == 0.0


def test_escaped_record_is_rejected():
    traj = flat_record(x=-0.8, u=1.0, u0=1.0, d=0.0)
    traj.escape_time = 0.1
    with pytest.raises(ValueError):
        evaluate_cost(traj, CostSpec("intro-min"))


def test_paired_zero_against_infinite_weight():
    # margin m = u0 + x = 0 with u == u0: the inactive sample costs 0
    traj = flat_record(x=-1.0, u=1.0, u0=1.0, d=0.0)
    cv = evaluate_cost(traj, CostSpec("intro-min"))
    assert not cv.infinite
    assert cv.total == pytest.approx(-1.0 * 0.1 + (-1.0))


def test_unpaired_deviation_is_infinite():
    traj = flat_record(x=-1.0, u=1.5, u0=1.0, d=0.0)
    cv = evaluate_cost(traj, CostSpec("intro-min"))
    assert cv.infinite
    assert cv.total == math.inf
    with pytest.raises(ValueError):
        cost_invariance_check(traj, CostSpec("intro-min"))


def test_infinite_weight_signs_follow_the_cost():
    spec = disturbed_gain_spec()
    cost = CostSpec("qp-weighted", spec=spec, beta_gain=2.0, lam=2.0)
    # x = -1 is strictly safe: control weight and disturbance weight are
    # both off the constraint set there
    deviating = flat_record(x=-1.0, u=0.5, u0=0.0, d=0.0)
    cv = evaluate_cost(deviating, cost)
    assert cv.infinite and cv.total == -math.inf
    disturbed = flat_record(x=-1.0, u=0.0, u0=0.0, d=0.3)
    cv = evaluate_cost(disturbed, cost)
    assert cv.infinite and cv.total == math.inf
    both = flat_record(x=-1.0, u=0.5, u0=0.0, d=0.3)
    with pytest.raises(ValueError):
        evaluate_cost(both, cost)


def test_evaluate_cost_leaves_the_record_alone():
    sys, u_star, u0 = intro_pieces()
    cfg = SimConfig(dt=1e-2, T=1.0)
    traj = integrate_ode(sys, neg_barrier(), u_star, u0, [-0.5], None, cfg)
    before = copy.deepcopy(traj)
    evaluate_cost(traj, CostSpec("intro-min"))
    cost_invariance_check(traj, CostSpec("intro-min"))
    for field in ("times", "states", "controls", "nominal",
                  "disturbances", "h_values", "running_cost"):
        assert np.array_equal(getattr(traj, field), getattr(before, field))


def test_dssf_bound_on_matched_decay():
    # undisturbed: h rides the comparison solution exactly, margin 0
    traj = decay_loop(None, T=2.0)
    margins, mn, ok = certify_dssf_bound(traj, identity_k(), identity_k())
    assert ok
    assert np.max(np.abs(margins)) < 5e-6
    # constant disturbance: margin = 0.3 e^{-t}, minimum at the horizon
    traj = decay_loop(0.3, T=2.0)
    margins, mn, ok = certify_dssf_bound(traj, identity_k(), identity_k())
    assert ok
    assert mn == pytest.approx(0.3 * math.exp(-2.0), abs=1e-5)
    # zeroing the credited history removes the gain term and breaks it
    margins, mn, ok = certify_dssf_bound(traj, identity_k(), identity_k(),
                                         d_history=np.zeros_like(
                                             traj.disturbances))
    assert not ok
    assert mn == pytest.approx(0.3 * (math.exp(-2.0) - 1.0), abs=1e-5)


def test_integral_safety_value():
    # alpha must be the extended gain: h crosses zero when disturbed
    traj = decay_loop(None, T=2.0)
    value, ok = ibssf_check(traj, linear_extended(1.0), power_pair(2), 2.0)
    assert ok
    assert value == pytest.approx(1.0, abs=1e-6)
    traj = decay_loop(0.3, T=2.0)
    value, ok = ibssf_check(traj, linear_extended(1.0), power_pair(2), 2.0)
    assert ok
    # h(t) = 1.3 e^{-t} - 0.3; closed-form pieces sum to 0.445
    assert value == pytest.approx(0.4 + 0.045, abs=1e-4)


def test_standard_perturbation_shapes():
    p = standard_perturbations(4.0)
    assert set(p) == {"const", "flip", "slow-sine", "fast-sine"}
    assert p["const"](0.0) == 1.0 and p["const"](3.9) == 1.0
    assert p["flip"](1.9) == 1.0 and p["flip"](2.1) == -1.0
    assert p["slow-sine"](1.0) == pytest.approx(math.sin(1.0))
    assert p["fast-sine"](1.0) == pytest.approx(math.sin(3.0))


def test_probe_zero_amplitude_is_exact():
    sys, u_star, u0 = intro_pieces()
    setup = ProbeSetup(sys=sys, bf=neg_barrier(), u_star=u_star, u0=u0,
                       d_star=None, x0=[-0.5],
                       cost=CostSpec("intro-min"), direction=+1)
    out = optimality_probe(setup, SimConfig(dt=1e-2, T=1.0),
                           amplitudes=(0.0,))
    assert out["passed"]
    assert all(v == 0.0 for v in out["margins"].values())
    assert out["j_opt"] == pytest.approx(-0.5, abs=1e-4)


def test_probe_intro_loop_never_beaten():
    sys, u_star, u0 = intro_pieces()
    setup = ProbeSetup(sys=sys, bf=neg_barrier(), u_star=u_star, u0=u0,
                       d_star=None, x0=[-0.5],
                       cost=CostSpec("intro-min"), direction=+1)
    out = optimality_probe(setup, SimConfig(dt=1e-3, T=3.0))
    assert out["passed"]
    assert out["worst"] >= -1e-6
    assert len(out["margins"]) == 16
    # strict improvement is impossible, and big pushes cost real money
    assert out["margins"]["const@+0.2"] > 1e-3


def test_probe_disturbance_game_saddle():
    u0_s, u_star, d_star, iospec = _ex3_pieces(2.0, 1.0)
    setup = ProbeSetup(
        sys=iospec.base.sys, bf=iospec.base.bf,
        u_star=lambda x, t: u_star(x[0]), u0=lambda x, t: u0_s(x[0]),
        d_star=lambda x, t: d_star(x[0]), x0=[-1.2],
        cost=CostSpec("disturbance-game", spec=iospec), direction=-1)
    out = optimality_probe(setup, SimConfig(dt=1e-3, T=1.5))
    assert out["passed"]
    assert out["j_opt"] == pytest.approx(4.8, abs=1e-4)


def test_disturbance_game_total_is_invariant():
    u0_s, u_star, d_star, iospec = _ex3_pieces(2.0, 1.0)
    sys = iospec.base.sys
    cfg = SimConfig(dt=1e-3, T=3.0)
    traj = integrate_ode(sys, iospec.base.bf,
                         lambda x, t: u_star(x[0]),
                         lambda x, t: u0_s(x[0]), [-1.2],
                         lambda x, t: d_star(x[0]), cfg)
    cost = CostSpec("disturbance-game", spec=iospec)
    cv = evaluate_cost(traj, cost)
    assert cv.total == pytest.approx(4.8, abs=1e-5)
    assert cost_invariance_check(traj, cost) < 1e-5


def test_mc_summary_frozen():
    mean, se = mc_summary([1.0, 2.0, 3.0, 4.0])
    assert mean == pytest.approx(2.5)
    assert se == pytest.approx(math.sqrt(5.0 / 3.0) / 2.0)


@pytest.mark.parametrize("kind", ["intro-min", "disturbance-game"])
def test_probe_direction_must_match_the_cost(kind):
    sys, u_star, u0 = intro_pieces()
    spec = _ex3_pieces(2.0, 1.0)[3] if kind == "disturbance-game" else None
    cost = CostSpec(kind, spec=spec)
    right = COST_DIRECTION[kind]
    ProbeSetup(sys=sys, bf=neg_barrier(), u_star=u_star, u0=u0,
               d_star=None, x0=[-0.5], cost=cost, direction=right)
    with pytest.raises(ValueError) as err:
        ProbeSetup(sys=sys, bf=neg_barrier(), u_star=u_star, u0=u0,
                   d_star=None, x0=[-0.5], cost=cost, direction=-right)
    assert "direction must be %+d" % right in str(err.value)


def test_dssf_bound_reads_a_1d_history_per_sample():
    # 101 samples under d = 0.3: a 1-D history is one scalar per sample,
    # the same history as the recorded (101, 1) column
    traj = decay_loop(0.3, T=0.1)
    want = certify_dssf_bound(traj, identity_k(), identity_k())
    got = certify_dssf_bound(traj, identity_k(), identity_k(),
                             d_history=np.full(101, 0.3))
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]
    # margin = 0.3 e^{-t}, as in test_dssf_bound_on_matched_decay
    assert got[1] == pytest.approx(0.3 * math.exp(-0.1), abs=1e-5)


@pytest.mark.parametrize("history", [
    np.full(100, 0.3), np.full((1, 1), 0.3), np.full((102, 1), 0.3),
    np.float64(0.3), np.full((101, 1, 1), 0.3)],
    ids=["short", "one-row", "long", "scalar", "3-d"])
def test_dssf_bound_rejects_a_history_off_the_record(history):
    traj = decay_loop(0.3, T=0.1)
    with pytest.raises(ValueError, match="d_history shape"):
        certify_dssf_bound(traj, identity_k(), identity_k(),
                           d_history=history)
