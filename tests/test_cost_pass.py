"""One cost pass per record and cost.

evaluate_cost returns the per-sample terminal term with the total, and
CostValue.invariance is read off that same pass: these tests pin it to
the public cost_invariance_check for every cost kind, check that the
terminal column is the one each cost defines, and count the states
lie_data, lie_data_rows and their first-order cores evaluate for the
inverse-optimal built-ins: each cost pass is one stacked call over the
record.
"""

import math

import numpy as np
import pytest

import safefilt.certify
import safefilt.filters
import safefilt.stochastic
from safefilt.certify import CostSpec, cost_invariance_check, evaluate_cost
from safefilt.comparison import identity_k, linear_extended
from safefilt.filters import DssfCbfSpec, inverse_optimal_qp
from safefilt.projection import ProjectionSpec, simulate_projection
from safefilt.reciprocal import RcbfSpec, rcbf_qp_filter
from safefilt.scenarios import (_ex3_pieces, disturbed_gain_system,
                                ex5_spec, ex6_spec, neg_state_barrier,
                                run_ex3_invopt, run_ex4_invopt_qp,
                                unit_ball_barrier)
from safefilt.sim import SimConfig, Trajectory, integrate_ode, integrate_sde
from safefilt.stochastic import (CovarianceSchedule, nssf_qp_filter,
                                 stoch_qp_filter)
from safefilt.systems import (_first_order_at, _lie_data_at,
                              first_order_lie, first_order_lie_rows,
                              lie_data_rows, scalar_system, vec_norm)

CFG = SimConfig(dt=1e-2, T=1.0)


def intro_record(u_star, x0):
    sys = scalar_system(lambda x: 0.0, None, lambda x: 1.0)
    return integrate_ode(sys, neg_state_barrier(), u_star,
                         lambda x, t: 1.0, [x0], None, CFG)


def case_intro_min():
    traj = intro_record(lambda x, t: 1.0 + 2.0 * min(0.0, -(1.0 + x[0])),
                        -1.0)
    return traj, CostSpec("intro-min"), traj.states[:, 0]


def case_intro_sontag():
    traj = intro_record(lambda x, t: -x[0] - math.hypot(1.0 + x[0], 1.0),
                        0.0)
    return traj, CostSpec("intro-sontag"), traj.states[:, 0]


def case_disturbance_game():
    u0_s, u_star, d_star, iospec = _ex3_pieces(2.0, 1.0)
    traj = integrate_ode(iospec.base.sys, iospec.base.bf,
                         lambda x, t: u_star(x[0]),
                         lambda x, t: u0_s(x[0]), [-1.2],
                         lambda x, t: d_star(x[0]), CFG)
    return (traj, CostSpec("disturbance-game", spec=iospec),
            2.0 * iospec.beta_gain * traj.h_values)


def min_norm_record():
    spec = DssfCbfSpec(disturbed_gain_system(), neg_state_barrier(),
                       identity_k(), linear_extended(1.0),
                       lambda x, t: np.array([2.0]))
    traj = integrate_ode(spec.sys, spec.bf,
                         lambda x, t: inverse_optimal_qp(spec, 2.0, x, t),
                         spec.u0, [-0.5], None, CFG)
    return spec, traj


def case_qp_exact():
    spec, traj = min_norm_record()
    return (traj, CostSpec("qp-exact", spec=spec, beta_gain=2.0),
            4.0 * traj.h_values)


def case_qp_weighted():
    spec, traj = min_norm_record()
    return (traj, CostSpec("qp-weighted", spec=spec, beta_gain=2.0, lam=1.0),
            4.0 * traj.h_values)


def case_reciprocal_min():
    sys = scalar_system(lambda x: 0.0, None, lambda x: 1.0)
    B = lambda x: -1.0 / x[0]
    spec = RcbfSpec(sys, B, identity_k(), lambda x, t: np.array([1.0]),
                    gradB=lambda x: np.array([1.0 / x[0] ** 2]))
    traj = integrate_ode(sys, neg_state_barrier(),
                         lambda x, t: rcbf_qp_filter(spec, x, t), spec.u0,
                         [-1.0], None, CFG)
    h = np.array([1.0 / B(x) for x in traj.states])
    return traj, CostSpec("reciprocal-min", spec=spec), -4.0 * h


def case_projection_min():
    spec = ProjectionSpec(unit_ball_barrier(), linear_extended(1.0),
                          beta_gain=2.0)
    traj = simulate_projection(spec, lambda th, t: np.array([1.0, 0.3]),
                               np.array([0.5, 0.0]), CFG, law="optimal")
    return (traj, CostSpec("projection-min", spec=spec),
            -4.0 * traj.h_values)


def case_stochastic_value():
    spec = ex5_spec(2.0)
    (traj,) = integrate_sde(spec.sys, spec.bf,
                            lambda x, t: stoch_qp_filter(spec, x, t),
                            spec.u0, [-1.0],
                            CovarianceSchedule.constant(np.eye(1)), CFG)
    return (traj, CostSpec("stochastic-value", spec=spec),
            4.0 * traj.h_values)


def case_noise_game():
    spec = ex6_spec(beta=2.0)
    cov = CovarianceSchedule.constant(np.eye(1))
    (traj,) = integrate_sde(spec.sys, spec.bf,
                            lambda x, t: nssf_qp_filter(spec, x, t),
                            spec.u0, [-0.5], cov, CFG)
    return (traj, CostSpec("noise-game", spec=spec, cov=cov),
            4.0 * traj.h_values)


CASES = [case_intro_min, case_intro_sontag, case_disturbance_game,
         case_qp_exact, case_qp_weighted, case_reciprocal_min,
         case_projection_min, case_stochastic_value, case_noise_game]


def test_every_cost_kind_has_a_case():
    built = {case()[1].kind for case in CASES}
    assert built == set(safefilt.certify.COST_KINDS)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__[5:])
def test_invariance_is_read_off_the_one_pass(case):
    traj, cost, terminal = case()
    assert traj.escape_time is None
    cv = evaluate_cost(traj, cost)
    assert not cv.infinite
    assert np.array_equal(cv.terminal, terminal)
    assert cv.total == float(cv.running[-1] + terminal[-1])
    want = float(np.max(np.abs(terminal + cv.running - terminal[0])))
    assert cv.invariance == want
    assert cv.invariance == cost_invariance_check(traj, cost)


def flat_record(x, u, u0, d, n=2):
    return Trajectory(times=0.1 * np.arange(n),
                      states=np.full((n, 1), x),
                      controls=np.full((n, 1), u),
                      nominal=np.full((n, 1), u0),
                      disturbances=np.full((n, 1), d),
                      h_values=np.full(n, -x),
                      running_cost=np.zeros(n))


def test_single_sample_invariance_is_zero():
    traj = flat_record(x=-0.8, u=1.0, u0=1.0, d=0.0, n=1)
    cv = evaluate_cost(traj, CostSpec("intro-min"))
    assert cv.invariance == 0.0 == cost_invariance_check(
        traj, CostSpec("intro-min"))


def test_infinite_cost_has_no_invariance():
    # intro-min: deviation against an infinite weight, +inf
    traj = flat_record(x=-1.0, u=1.5, u0=1.0, d=0.0)
    cv = evaluate_cost(traj, CostSpec("intro-min"))
    assert cv.infinite and cv.total == math.inf
    with pytest.raises(ValueError, match="invariance undefined"):
        cv.invariance
    # qp-weighted: a control deviation off the constraint set, -inf
    spec = DssfCbfSpec(disturbed_gain_system(), neg_state_barrier(),
                       identity_k(), linear_extended(1.0),
                       lambda x, t: np.array([0.0]))
    cost = CostSpec("qp-weighted", spec=spec, beta_gain=2.0, lam=2.0)
    cv = evaluate_cost(flat_record(x=-1.0, u=0.5, u0=0.0, d=0.0), cost)
    assert cv.infinite and cv.total == -math.inf
    with pytest.raises(ValueError, match="invariance undefined"):
        cv.invariance


def test_running_cost_is_infinite_from_the_first_flagged_interval():
    # intro-min: samples 3 and 4 deviate against an infinite weight
    traj = flat_record(x=-0.5, u=1.0, u0=1.0, d=0.0, n=5)
    traj.states[:, 0] = [-0.5, -0.6, -0.7, -1.0, -1.0]
    traj.controls[3:, 0] = 1.5
    traj.h_values = -traj.states[:, 0]
    cv = evaluate_cost(traj, CostSpec("intro-min"))
    assert cv.infinite and cv.total == math.inf
    head = flat_record(x=-0.5, u=1.0, u0=1.0, d=0.0, n=3)
    head.states[:, 0] = traj.states[:3, 0]
    head.h_values = -head.states[:, 0]
    assert np.array_equal(cv.running[:3],
                          evaluate_cost(head, CostSpec("intro-min")).running)
    assert np.all(cv.running[3:] == math.inf)


# every entry point the filters reach the Lie data through, at one
# state and on stacks (the Ito reads are stochastic's); certify's cost
# passes reach it through the filter families
LIE_ENTRIES = ((safefilt.filters, _first_order_at),
               (safefilt.filters, first_order_lie),
               (safefilt.filters, first_order_lie_rows),
               (safefilt.stochastic, _lie_data_at),
               (safefilt.stochastic, lie_data_rows))


def count_lie_data(monkeypatch):
    """The states lie_data, lie_data_rows and their first-order cores
    are evaluated at: a stack of N counts N."""
    calls = []

    def counted(fn):
        def wrapped(sys, bf, x):
            calls.extend(np.reshape(x, (-1, sys.n)))
            return fn(sys, bf, x)
        return wrapped
    for module, fn in LIE_ENTRIES:
        monkeypatch.setattr(module, fn.__name__, counted(fn))
    return calls


def test_ex4_makes_one_cost_pass_per_cost(monkeypatch):
    calls = count_lie_data(monkeypatch)
    res = run_ex4_invopt_qp(CFG)
    # 101 samples, once for qp-exact and once for qp-weighted
    assert len(calls) == 2 * 101
    assert res.passed


def test_ex3_makes_one_cost_pass(monkeypatch):
    calls = count_lie_data(monkeypatch)
    res = run_ex3_invopt(CFG)
    # 101 samples of the game cost, then the 61-point HJI and
    # condition grids
    assert len(calls) == 101 + 2 * 61
    assert res.passed


def test_each_cost_pass_is_one_stacked_call(monkeypatch):
    stacks = []

    def counted(fn):
        def wrapped(sys, bf, X):
            stacks.append(X.shape)
            return fn(sys, bf, X)
        return wrapped
    for module, fn in LIE_ENTRIES:
        if fn.__name__.endswith("_rows"):
            monkeypatch.setattr(module, fn.__name__, counted(fn))
    run_ex4_invopt_qp(CFG)
    # qp-exact, then qp-weighted: the whole record each time
    assert stacks == [(101, 1), (101, 1)]


@pytest.mark.parametrize("v", [
    np.zeros(0), np.array([3.0]), np.array([-0.3, 1e-170]),
    np.array([1e200, 1e200]), np.array([5e-324, -0.0]),
    np.array([np.nan, 1.0]), np.array([np.inf, -1.0]),
    np.array([[0.1, -2.0], [2.0, 0.7]]),
    np.asfortranarray([[0.1, -2.0, 1e-9], [2.0, 0.7, 3.3]]),
])
def test_vec_norm_is_numpys_norm_bit_for_bit(v):
    with np.errstate(over="ignore"):
        want = float(np.linalg.norm(v, "fro" if v.ndim == 2 else None))
        got = vec_norm(v)
    assert type(got) is float
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_vec_norm_on_random_tiny_vectors():
    rng = np.random.default_rng(3)
    for size in (1, 2, 3):
        for v in rng.normal(size=(500, size)) * 10.0 ** rng.integers(
                -8, 8, size=(500, 1)):
            assert vec_norm(v) == float(np.linalg.norm(v))
