"""A correction rule is its factor k, and its certificate is one formula
of k.

filters._K holds the factor k(omega, q), q = |a|^2, of MIN_NORM,
SONTAG and HALF_SONTAG, with k = 0 wherever q = 0 and k = NaN at a NaN
margin (where q > 0). filters._certificate turns any factor into

    R = 1/k (inf where k = 0),  l = 2 beta (alpha(h) - omega) - beta^2 k q.

On the degenerate table (the three rules, a in {0, 1e-200, -1}, omega in
{-1, 0, 1, NaN, +inf, -inf}) rule_certificate raises nothing under
warnings as errors, a one-row stack is its row bit for bit, and the
rules give the same (R, infinite flag, l) wherever their factors agree.

The paper's family claim: every safety-ensuring factor is certified.
At random states of four scenario specs, a factor k = max{0, -omega}/q
+ c with c >= 0 satisfies, along u = u0 + beta k a,

    l - R|u - u0|^2 = -2 beta (omega - alpha(h) + a.(u - u0))

within 64 ulps of the term scale (the sum of the magnitudes the
rounding acts on), plus what underflow drops: R times the least normal
number where |u - u0|^2 underflows, and beta^2 k q where 1/k overflows
and an infinite R pairs with a zero deviation; and 8 u, u =
math.ulp(0.0), for the roundings of subnormal terms, which ex1 meets
near x = 0 (a test of its own draws such states, two of them pinned).
The factor ensures safety, omega + beta k q >= 0 for beta >= 1, within
4 ulps of |omega| + beta k q.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import safefilt as sf
from safefilt.certify import PAIR_TOL
from safefilt.comparison import elementwise
from safefilt.filters import (HALF_SONTAG, MIN_NORM, SONTAG, _K, _certificate,
                              _lie1, dssf_margin, rule_certificate)
from safefilt.projection import _projection_min_data
from safefilt.reciprocal import _reciprocal_min_data
from safefilt.scenarios import (disturbed_gain_system, ex5_spec,
                                integrator_system, neg_state_barrier,
                                unit_ball_barrier)
from safefilt.stochastic import _lie, generator_margin
from safefilt.systems import row_dot

RULES = (MIN_NORM, SONTAG, HALF_SONTAG)
DIRECTIONS = (0.0, 1e-200, -1.0)  # 1e-200 squares to 0
MARGINS = (-1.0, 0.0, 1.0, math.nan, math.inf, -math.inf)
EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny  # the least normal number


def cell(rule, omega, a, beta=2.0, alpha_h=0.5):
    """rule_certificate at one state and as a one-row stack, under
    warnings as errors, each as (R, infinite flag, l)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R, l = rule_certificate(rule, beta, omega, np.array([a]), alpha_h)
        Rs, ls = rule_certificate(rule, beta, np.array([omega]),
                                  np.array([[a]]), np.array([alpha_h]))
    return ((float(R.value), bool(R.infinite), float(l)),
            (float(Rs.value[0]), bool(Rs.infinite[0]), float(ls[0])))


def bits(c):
    return (np.float64(c[0]).tobytes(), c[1], np.float64(c[2]).tobytes())


def same(x, y):
    """Equal numbers, or both NaN (the sign of a NaN is not compared)."""
    return x == y or (math.isnan(x) and math.isnan(y))


@pytest.mark.parametrize("a", DIRECTIONS)
@pytest.mark.parametrize("omega", MARGINS)
def test_degenerate_table(omega, a):
    q = row_dot(np.array([a]), np.array([a]))
    ks, certs = {}, {}
    for rule in RULES:
        one, row = cell(rule, omega, a)
        assert bits(one) == bits(row)
        ks[rule] = _K[rule](omega, q)
        stacked = _K[rule](np.array([omega]), np.array([q]))
        assert np.float64(ks[rule]).tobytes() == stacked[0].tobytes()
        certs[rule] = one
    if q == 0.0 or math.isnan(omega):
        assert all(ks[r] == 0.0 if q == 0.0 else math.isnan(ks[r])
                   for r in RULES)
    for r1, r2 in itertools.combinations(RULES, 2):
        if same(ks[r1], ks[r2]):
            assert all(map(same, certs[r1], certs[r2])), (r1, r2)


def test_degenerate_cells_agree_across_rules():
    # no authority: k = 0, so R = inf and l = 2 beta (alpha(h) - omega)
    for rule in RULES:
        one, _ = cell(rule, -1.0, 0.0)
        assert one == (math.inf, True, 6.0)
    # a NaN margin along a = -1: an unflagged NaN weight and penalty
    for rule in RULES:
        R, infinite, l = cell(rule, math.nan, -1.0)[0]
        assert math.isnan(R) and not infinite and math.isnan(l)


# ---------------------------------------------------------------------------
# the family claim at random states
# ---------------------------------------------------------------------------

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


# name: (state strategy, data(x, u0v) -> (omega, a, alpha(h))), the specs
# of test_rule_certificate
SPECS = {
    "ex1-dssf": (scalar_states(-3.0, 3.0), ex1_data),
    "ex5-stoch": (scalar_states(-3.0, 0.9), ex5_data),
    "reciprocal": (scalar_states(-3.0, -0.2),
                   lambda x, u0v: _reciprocal_min_data(RECIP, x, u0v)[:3]),
    "proj-ball": (st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))
                  .map(np.array),
                  lambda x, u0v: _projection_min_data(BALL, x, u0v)[:3]),
}


# Below the normal range a product rounds to a multiple of u =
# math.ulp(0.0), off by up to u/2 whatever its size, so no multiple of
# the term scale covers it; sums of subnormals are exact. omega,
# alpha(h) and k are subnormal together only on ex1 near x = 0 (a = -1,
# q = 1); every other spec's margin stays normal there, and its scale
# term dwarfs u. The checked sum then meets five roundings: 2 beta
# (alpha(h) - omega) and the factor -2 beta of want, once each; beta^2
# k, in l and again in lost (the same bits), each time times q; its
# product with q; and beta k in the deviation, times a twice and 2 beta.
# So the residual exceeds lost by at most (3 + 2 q + 2 beta q) u/2, or
# 7.5 u at q = 1, beta <= 5.
SUBNORMAL = 8.0 * math.ulp(0.0)


def assert_factor_is_certified(spec_data, x, u0v, beta, c):
    """The identity and the safety of k = max{0, -omega}/q + c at x."""
    omega, a, alpha_h = spec_data(x, u0v)
    q = row_dot(a, a)
    assume(q > 0.0)  # a flat barrier has no direction to move along
    k = max(0.0, -omega) / q + c
    R, l = _certificate(beta, k, q, omega, alpha_h)
    dev = beta * k * a  # u - u0
    dev_sq = row_dot(dev, dev)
    if R.infinite:  # k = 0, or 1/k overflows: a zero deviation pairs it
        assert dev_sq <= PAIR_TOL ** 2
        ctrl, lost = 0.0, beta * beta * k * q
    else:
        ctrl = R.value * dev_sq
        lost = R.value * TINY  # where |u - u0|^2 underflows
    want = -2.0 * beta * (omega - alpha_h + row_dot(a, dev))
    scale = (abs(l) + ctrl + 2.0 * beta * (abs(omega) + abs(alpha_h))
             + 2.0 * abs(row_dot(a, dev)) * beta + beta * beta * k * q)
    assert abs(l - ctrl - want) <= 64.0 * EPS * scale + lost + SUBNORMAL
    assert omega + beta * k * q >= -4.0 * EPS * (abs(omega) + beta * k * q)

    # the stacked certificate of the factor is its row, bit for bit
    Rs, ls = _certificate(beta, np.array([k]), np.array([q]),
                          np.array([omega]), np.array([alpha_h]))
    assert bits((R.value, R.infinite, l)) == bits(
        (Rs.value[0], bool(Rs.infinite[0]), ls[0]))


@pytest.mark.parametrize("name", SPECS)
@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       beta=st.sampled_from([1.0, 2.0, 2.5]) | st.floats(1.0, 5.0),
       c=st.sampled_from([0.0]) | st.floats(0.0, 10.0))
def test_every_safety_ensuring_factor_is_certified(name, data, beta, c):
    state, spec_data = SPECS[name]
    x = data.draw(state, label="x")
    u0v = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=x.size,
                                      max_size=x.size), label="u0"))
    assert_factor_is_certified(spec_data, x, u0v, beta, c)


def ulps(lo, hi):
    """Whole multiples of math.ulp(0.0) from lo to hi: subnormals."""
    return st.integers(lo, hi).map(lambda i: i * math.ulp(0.0))


@settings(max_examples=150, deadline=None)
@given(x=ulps(-64, 512), u0=st.sampled_from([0.0]) | ulps(-64, 64),
       beta=st.sampled_from([1.0, 2.5, 5.0]) | st.floats(1.0, 5.0),
       c=st.sampled_from([0.0]) | ulps(0, 64))
# without SUBNORMAL the first fails the check (residual 13 u against
# lost 12 u) and the second meets it with no slack (25 u against 25 u)
@example(x=5e-324, u0=0.0, beta=2.5, c=0.0)
@example(x=1e-323, u0=0.0, beta=2.5, c=0.0)
def test_ex1_factors_are_certified_at_subnormal_states(x, u0, beta, c):
    assert_factor_is_certified(ex1_data, np.array([x]), np.array([u0]),
                               beta, c)
