"""One certificate for every correction rule, and the intro kinds on it.

filters.rule_certificate gives (R, l) for u = u0 + beta correct(omega,
a, rule) under MIN_NORM, SONTAG and HALF_SONTAG, with

    l - R|u - u0|^2 = -2 beta (omega - alpha(h) + a.(u - u0))

along that u. At random states of four scenario specs the identity holds
on both branches of each rule (omega < 0 and omega >= 0), an infinite R
pairing with a zero deviation, and the certificate at one state is the
row of its stacked value, bit for bit.

The intro cost kinds are instances of certify's one min-norm evaluator.
Their former closed forms are kept here as oracles: on random flat
records (constant columns, as test_certify builds them), random varying
records and the intro built-ins' records, each intro kind's integrand
stays within 4 ulps of the oracle's term scale, with equal terminals and
infinite flags. The term scale is the sum of the magnitudes the oracle's
rounding acts on; the intro-sontag oracle divides by u0 + x + Q, which
cancels where u0 + x < 0, so its quotient's scale carries that
cancellation's factor (|u0 + x| + Q) / (u0 + x + Q). Against a 60-digit
reference the evaluator stays within 4 ulps of the plain term scale.
"""

import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import safefilt as sf
from safefilt.certify import _KINDS, COST_DIRECTION, PAIR_TOL, CostSpec
from safefilt.comparison import elementwise
from safefilt.filters import (HALF_SONTAG, MIN_NORM, SONTAG, CbfViolation,
                              _filtered, _lie1, dssf_margin, rule_certificate)
from safefilt.projection import _projection_min_data
from safefilt.reciprocal import _reciprocal_min_data
from safefilt.scenarios import (disturbed_gain_system, ex5_spec,
                                integrator_system, neg_state_barrier,
                                unit_ball_barrier)
from safefilt.sim import Trajectory
from safefilt.stochastic import _lie, generator_margin
from safefilt.systems import row_dot

RULES = (MIN_NORM, SONTAG, HALF_SONTAG)
EPS = np.finfo(float).eps


def _zero_u0(x, t):
    return np.zeros(1)


EX1 = sf.DssfCbfSpec(disturbed_gain_system(), neg_state_barrier(),
                     sf.identity_k(), sf.linear_extended(1.0), _zero_u0)
RECIP = sf.RcbfSpec(integrator_system(), lambda x: -1.0 / x[0],
                    sf.identity_k(), _zero_u0,
                    gradB=lambda x: np.array([1.0 / x[0] ** 2]))
BALL = sf.ProjectionSpec(unit_ball_barrier(), sf.linear_extended(1.0))
EX5 = ex5_spec()


def ex1_data(x, u0v):
    ld = _lie1(EX1.sys, EX1.bf, x)
    return dssf_margin(EX1, ld, u0v) + (elementwise(EX1.alpha, ld.h_val),)


def ex5_data(x, u0v):
    ld = _lie(EX5.sys, EX5.bf, x)
    return generator_margin(EX5, ld, u0v) + (elementwise(EX5.alpha,
                                                         ld.h_val),)


def scalar_states(lo, hi):
    return st.floats(lo, hi).map(lambda v: np.array([v]))


# name: (state strategy, data(x, u0v) -> (omega, a, alpha(h)) at one
# state or stacked over the rows of (N, n) states and nominal values)
SPECS = {
    "ex1-dssf": (scalar_states(-3.0, 3.0), ex1_data),
    "ex5-stoch": (scalar_states(-3.0, 0.9), ex5_data),
    "reciprocal": (scalar_states(-3.0, -0.2),
                   lambda x, u0v: _reciprocal_min_data(RECIP, x, u0v)[:3]),
    "proj-ball": (st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))
                  .map(np.array),
                  lambda x, u0v: _projection_min_data(BALL, x, u0v)[:3]),
}


def on_branch(data, x, w, target):
    """The nominal w moved along a until the margin reads about target."""
    omega, a = data(x, w)[:2]
    q = row_dot(a, a)
    assume(q > 1e-6)  # a flat barrier has no branch to land on
    return w + ((target - omega) / q) * a


def bits(R, l):
    """A certificate as the bytes of its weight, flag and penalty."""
    return (np.float64(R.value).tobytes(), bool(R.infinite),
            np.float64(l).tobytes())


@pytest.mark.parametrize("name", SPECS)
@settings(max_examples=120, deadline=None)
@given(data=st.data(), rule=st.sampled_from(RULES),
       beta=st.sampled_from([1.0, 2.0, 2.5]) | st.floats(1.0, 5.0),
       active=st.booleans(), size=st.floats(0.0, 4.0))
def test_certificate_identity_on_both_branches(name, data, rule, beta,
                                               active, size):
    state, spec_data = SPECS[name]
    states = data.draw(st.lists(state, min_size=1, max_size=4), label="x")
    nominal = []
    for x in states:
        w = np.array(data.draw(st.lists(st.floats(-3.0, 3.0),
                                        min_size=x.size, max_size=x.size)))
        # omega lands on the drawn branch, strictly off the seam
        target = -(size + 1e-3) if active else size + 1e-3
        nominal.append(on_branch(spec_data, x, w, target))
    x, u0v = states[0], nominal[0]
    omega, a, alpha_h = spec_data(x, u0v)
    assume((omega < 0.0) == active)
    try:
        u = _filtered(u0v, beta, omega, a, rule)
    except CbfViolation:  # no control authority: nothing to certify
        assume(False)
    R, l = rule_certificate(rule, beta, omega, a, alpha_h)
    dev = u - u0v
    dev_sq = row_dot(dev, dev)
    if R.infinite:
        assert dev_sq <= PAIR_TOL ** 2
        ctrl = 0.0
    else:
        ctrl = R.value * dev_sq
    want = -2.0 * beta * (omega - alpha_h + row_dot(a, dev))
    scale = (abs(l) + ctrl + 2.0 * beta * (abs(omega) + abs(alpha_h)
                                           + abs(row_dot(a, dev)))
             + beta * abs(beta - 2.0) * abs(omega))
    assert abs(l - ctrl - want) <= 64.0 * EPS * scale
    if rule == MIN_NORM:
        assert R.infinite == (omega >= 0.0)
    else:
        assert not R.infinite and R.value > 0.0

    # the stacked certificate's rows are the one-state certificates
    X, U = np.array(states), np.array(nominal)
    stacked = rule_certificate(rule, beta, *spec_data(X, U))
    for i in range(len(states)):
        one = rule_certificate(rule, beta, *spec_data(X[i], U[i]))
        row = (sf.Weight(stacked[0].value[i], bool(stacked[0].infinite[i])),
               stacked[1][i])
        assert bits(*one) == bits(*row)


# ---------------------------------------------------------------------------
# the intro kinds against their former closed forms
# ---------------------------------------------------------------------------

def intro_min_oracle(x, u0, u):
    """The former intro-min closed form: (integrand, +inf flags,
    terminal, term scale)."""
    m = np.maximum(0.0, u0 + x)
    num = (u - u0) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = num / (4.0 * m)
    zero_m = m == 0.0
    pos_inf = zero_m & ~(num <= PAIR_TOL ** 2)
    quot[zero_m] = 0.0
    return (np.maximum(x, -u0) + quot, pos_inf, x.copy(),
            np.abs(x) + np.abs(u0) + quot)


def intro_sontag_oracle(x, u0, u):
    """The former intro-sontag closed form, as intro_min_oracle; its
    quotient's scale carries the cancellation of u0 + x + Q."""
    Q = np.hypot(u0 + x, 1.0)
    den = u0 + x + Q
    quot = (u - u0) ** 2 / (2.0 * den)
    return (0.5 * (-u0 + x + Q) + quot, np.zeros(x.size, dtype=bool),
            x.copy(), 0.5 * (np.abs(u0) + np.abs(x) + Q)
            + quot * (np.abs(u0 + x) + Q) / den)


ORACLES = {"intro-min": intro_min_oracle,
           "intro-sontag": intro_sontag_oracle}


def record(x, u0, u):
    """A record of the introduction plant dx = u dt, h = -x."""
    n = x.size
    return Trajectory(times=0.1 * np.arange(n), states=x[:, None],
                      controls=u[:, None], nominal=u0[:, None],
                      disturbances=np.zeros((n, 0)), h_values=-x,
                      running_cost=np.zeros(n))


def assert_matches_oracle(kind, traj):
    x, u0 = traj.states[:, 0], traj.nominal[:, 0]
    vals, pos_inf, neg_inf, terminal = _KINDS[kind][1](traj, CostSpec(kind))
    want, want_inf, want_terminal, scale = ORACLES[kind](
        x, u0, traj.controls[:, 0])
    assert np.array_equal(pos_inf, want_inf)
    assert not neg_inf.any()
    assert np.array_equal(terminal, want_terminal)
    assert np.all(np.abs(vals - want) <= 4.0 * np.spacing(scale))


def random_record(rng, n, flat):
    """States and nominal values in [-3, 3], constant in time if flat;
    about a third of the samples on intro-min's seam u0 + x = 0, and
    deviations of zero (paired there), 1e-3 or about 1."""
    shape = 1 if flat else n
    x = np.broadcast_to(rng.uniform(-3.0, 3.0, shape), n).copy()
    u0 = np.broadcast_to(rng.uniform(-3.0, 3.0, shape), n).copy()
    seam = np.broadcast_to(rng.random(shape) < 0.3, n)
    u0[seam] = -x[seam]
    dev = np.broadcast_to(rng.normal(size=shape)
                          * rng.choice([0.0, 1e-3, 1.0], shape), n)
    return record(x, u0, u0 + dev)


@pytest.mark.parametrize("kind", ORACLES)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
       flat=st.booleans())
def test_intro_kinds_match_their_closed_forms(kind, seed, n, flat):
    assert_matches_oracle(kind, random_record(np.random.default_rng(seed),
                                              n, flat))


@pytest.mark.parametrize("bid,kind", [("intro-qp-optimal", "intro-min"),
                                      ("intro-sontag", "intro-sontag")])
def test_intro_built_in_records_match_the_closed_forms(bid, kind):
    for overrides in ({"T": 2.0}, {"dt": 1e-2, "T": 10.0}):
        (traj,) = sf.run_builtin(bid, overrides).records.values()
        assert_matches_oracle(kind, traj)


def _sontag_reference(x, u0, u):
    """intro-sontag's integrand in 60-digit decimal arithmetic."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        y = D(u0) + D(x)
        Q = (y * y + 1).sqrt()
        return float(D("0.5") * (Q - D(u0) + D(x))
                     + (D(u) - D(u0)) ** 2 / (2 * (y + Q)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_intro_sontag_integrand_is_accurate(seed):
    traj = random_record(np.random.default_rng(seed), 30, flat=False)
    x, u0, u = (traj.states[:, 0], traj.nominal[:, 0], traj.controls[:, 0])
    vals = _KINDS["intro-sontag"][1](traj, CostSpec("intro-sontag"))[0]
    want = np.array([_sontag_reference(*v) for v in zip(x.tolist(),
                                                        u0.tolist(),
                                                        u.tolist())])
    quot = (u - u0) ** 2 / (2.0 * (u0 + x + np.hypot(u0 + x, 1.0)))
    scale = 0.5 * (np.abs(u0) + np.abs(x) + np.hypot(u0 + x, 1.0)) + quot
    assert np.all(np.abs(vals - want) <= 4.0 * np.spacing(scale))


def test_intro_kinds_read_no_gain_and_no_spec():
    for kind in ORACLES:
        cost = CostSpec(kind)
        assert (cost.spec, cost.beta_gain, cost.lam) == (None, None, None)
        assert COST_DIRECTION[kind] == +1
    # the value is x0 on a record that stands still at the seam
    traj = record(np.full(3, -1.0), np.ones(3), np.ones(3))
    cv = sf.evaluate_cost(traj, CostSpec("intro-min"))
    assert cv.total == pytest.approx(-1.0 * 0.2 + (-1.0))
    assert math.isfinite(cv.invariance)
