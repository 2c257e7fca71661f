"""The optimal filters are conservative relative to the standard QP.

The paper's abstract calls its optimal filters "conservative ...
relative to the standard QP". Every library filter here is u0 + beta k a
on one family's margin (omega, a), with k = k(omega, q) its rule's
factor (filters._K) and q = |a|^2; the standard QP is the min-norm rule
at beta = 1, whose factor is k0 = max{0, -omega}/q. The claim is checked
at two levels.

Factor level. For SONTAG and HALF_SONTAG, k(omega, q) >= max{0,
-omega}/q, both sides in floats, with no allowance, for |omega| over 12
decades and q over 16, at one margin and per row of a stack. Where
omega >= 0 the right side is 0 <= k. Where omega < 0 Sontag's factor is
(-omega + r)/q with r = hypot(omega, q) >= |omega|: rounding is
monotone and 2|omega| is a float, so the float sum -omega + r is at
least 2|omega|, k >= fl(2|omega|/q) = 2 fl(|omega|/q), and half of it,
halved exactly, is at least fl(|omega|/q) = k0.

Filter level. At random states of the scenario specs, at one state and
on stacks, for every margin family (the sandwich floors included), every
rule and beta in {1, 2, 2.5}:

  * the correction beta k a is at least the QP's k0 a in norm, with no
    allowance: k >= k0 >= 0 and beta >= 1 make each component at least
    the QP's in magnitude, and every rounding on the way to the norm is
    monotone;
  * the corrected margin omega + beta k q is at least max{omega, 0} -
    2 eps |omega|. Where omega >= 0 it is at least omega, as beta k q
    >= 0. Where omega < 0, monotone rounding bounds it below by the QP's
    float-corrected margin omega + fl(k0 q), k0 = fl(-omega/q). With
    unit roundoff u = eps/2, fl(k0 q) = -omega (1 + d1)(1 + d2), |di| <=
    u, lies within a factor 2 of -omega, so the sum is exact (Sterbenz)
    and equals -omega (d1 + d2 + d1 d2) >= -(2u + u^2)|omega| >
    -2 eps |omega|. Below the normal range a rounding is absolute, at
    most eta/2 with eta = math.ulp(0.0): k0's times q and the product's
    add at most (1 + q) eta/2, which the bound allows too.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import safefilt as sf
from safefilt.filters import (CBF, DSSF, HALF_SONTAG, MIN_NORM, SONTAG, _K,
                              correct)
from safefilt.projection import PROJECTION
from safefilt.reciprocal import RECIPROCAL
from safefilt.scenarios import (disturbed_gain_system, ex5_spec, ex6_spec,
                                integrator_system, neg_state_barrier,
                                sandwich_testbed, unit_ball_barrier)
from safefilt.stochastic import GENERATOR, NSSF
from safefilt.systems import row_dot

EPS = np.finfo(float).eps
ETA = math.ulp(0.0)
RULES = (MIN_NORM, SONTAG, HALF_SONTAG)


@given(rule=st.sampled_from((SONTAG, HALF_SONTAG)),
       draws=st.lists(st.tuples(st.sampled_from((-1.0, 1.0)),
                                st.floats(-6.0, 6.0), st.floats(-8.0, 8.0)),
                      min_size=1, max_size=5))
@settings(max_examples=1000, deadline=None)
def test_factor_is_at_least_the_min_norm_factor(rule, draws):
    omegas = [sign * 10.0 ** e for sign, e, _ in draws]
    qs = [10.0 ** f for _, _, f in draws]
    for omega, q in zip(omegas, qs):
        assert _K[rule](omega, q) >= max(0.0, -omega) / q
    k = _K[rule](np.array(omegas), np.array(qs))
    assert np.all(k >= np.maximum(0.0, -np.array(omegas)) / np.array(qs))


def scalar_states(lo, hi):
    return st.floats(lo, hi).map(lambda v: np.array([v]))


EX1 = sf.DssfCbfSpec(disturbed_gain_system(), neg_state_barrier(),
                     sf.identity_k(), sf.linear_extended(1.0), None)
RECIP = sf.RcbfSpec(integrator_system(), lambda x: -1.0 / x[0],
                    sf.identity_k(), None,
                    gradB=lambda x: np.array([1.0 / x[0] ** 2]))
BALL = sf.ProjectionSpec(unit_ball_barrier(), sf.linear_extended(1.0))
SANDWICH = sandwich_testbed()

# name: (family, spec, state strategy); the family data take nominal
# values, so no spec's u0 is read
CASES = {
    "cbf": (CBF, EX1, scalar_states(-3.0, 3.0)),
    "dssf": (DSSF, EX1, scalar_states(-3.0, 3.0)),
    "generator": (GENERATOR, ex5_spec(), scalar_states(-3.0, 0.9)),
    "nssf": (NSSF, ex6_spec(), scalar_states(-2.0, 2.0)),
    "reciprocal": (RECIPROCAL, RECIP, scalar_states(-3.0, -0.2)),
    "projection": (PROJECTION, BALL,
                   st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))
                   .map(np.array)),
    "sandwich-dssf": (DSSF, SANDWICH, scalar_states(-2.0, 2.0)),
    "sandwich-nssf": (NSSF, SANDWICH, scalar_states(-2.0, 2.0)),
    "sandwich-generator": (GENERATOR, SANDWICH, scalar_states(-2.0, 2.0)),
}


def assert_conservative(omega, a, rule, beta, error):
    """The two filter-level claims at one margin or per row of a stack;
    False where the margin has no control authority (nothing to
    compare)."""
    try:
        v = beta * correct(omega, a, rule, error)
        v0 = correct(omega, a, MIN_NORM, error)
    except error:
        return False
    assert np.all(np.linalg.norm(v, axis=-1) >= np.linalg.norm(v0, axis=-1))
    q = row_dot(a, a)
    corrected = omega + beta * _K[rule](omega, q) * q
    assert np.all(corrected >= np.maximum(omega, 0.0)
                  - 2.0 * EPS * np.abs(omega) - (1.0 + q) * ETA / 2.0)
    return True


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=150, deadline=None)
@given(data=st.data(), rule=st.sampled_from(RULES),
       beta=st.sampled_from([1.0, 2.0, 2.5]))
def test_every_filter_is_conservative_relative_to_the_qp(name, data, rule,
                                                         beta):
    family, spec, state = CASES[name]
    X = np.array(data.draw(st.lists(state, min_size=1, max_size=4),
                           label="x"))
    U = np.array(data.draw(st.lists(
        st.lists(st.floats(-3.0, 3.0), min_size=X.shape[1],
                 max_size=X.shape[1]) if family is PROJECTION else
        st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=1),
        min_size=len(X), max_size=len(X)), label="u0"))
    omega, a = family.data(spec, X, U)[:2]
    assume(assert_conservative(omega, a, rule, beta, family.error))
    for x, u0v in zip(X, U):
        assert assert_conservative(*family.data(spec, x, u0v)[:2], rule,
                                   beta, family.error)
