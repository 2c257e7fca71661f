"""The correction kernel, and filter paths built on it that no other
test reaches: the NSSF damping and inverse-optimal filters, and the
no-authority guard of every module."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from safefilt.comparison import identity_k, linear_extended
from safefilt.filters import (GRAD_ZERO_TOL, HALF_SONTAG, MIN_NORM, SONTAG,
                              correct, sontag_kappa)
from safefilt.nonovershoot import (SandwichSpec, sandwich_filter,
                                   stoch_sandwich_filter)
from safefilt.projection import (ProjectionError, ProjectionSpec,
                                 qp_projection)
from safefilt.reciprocal import RcbfSpec, RcbfViolation, rcbf_qp_filter
from safefilt.scenarios import ex6_spec, neg_state_barrier
from safefilt.stochastic import (NssfSpec, ScbfViolation, StochSpec,
                                 nssf_inverse_optimal, nssf_margin,
                                 nssf_qp_filter, nssf_sontag_filter,
                                 omega_nssf, stoch_qp_filter)
from safefilt.systems import BarrierFunction, lie_data, scalar_system

KKT_TOL = 1e-9
EX6_GRID = [x for x in np.linspace(-1.5, 1.5, 121) if abs(x) > 1e-6]

omegas = st.floats(-1e3, 1e3)
directions = st.integers(1, 3).flatmap(
    lambda m: st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m))


class Marker(RuntimeError):
    """Stand-in violation class: the kernel must raise what it is given."""


def _with_authority(a):
    a = np.array(a)
    assume(float(np.linalg.norm(a)) >= 1e-3)
    return a


# ---- the kernel's pointwise claims at random margins and directions ----

@given(omega=omegas, a=directions)
@settings(max_examples=200, deadline=None)
def test_min_norm_meets_kkt(omega, a):
    a = _with_authority(a)
    v = correct(omega, a, MIN_NORM)
    q = float(a @ a)
    slack = omega + float(a @ v)
    scale = 1.0 + abs(omega)
    assert slack >= -KKT_TOL * scale
    if omega >= 0.0:
        assert np.all(v == 0.0)
        return
    # active: the margin is restored exactly, along a, with a
    # nonnegative multiplier
    assert abs(slack) <= KKT_TOL * scale
    mu = float(a @ v) / q
    assert mu >= 0.0
    assert np.allclose(v, mu * a, atol=KKT_TOL * (1.0 + abs(mu)))


@given(omega=omegas, a=directions)
@settings(max_examples=200, deadline=None)
def test_half_sontag_meets_its_constraint(omega, a):
    a = _with_authority(a)
    v = correct(omega, a, HALF_SONTAG)
    q = float(a @ a)
    lhs = 0.5 * (omega - math.hypot(omega, q)) + float(a @ v)
    assert abs(lhs) <= KKT_TOL * (1.0 + abs(omega) + q)


@given(omega=omegas, a=directions)
@settings(max_examples=100, deadline=None)
def test_sontag_lifts_the_margin(omega, a):
    a = _with_authority(a)
    v = correct(omega, a, SONTAG)
    q = float(a @ a)
    assert omega + float(a @ v) == pytest.approx(math.hypot(omega, q),
                                                 rel=1e-9, abs=1e-9)


@given(q=st.floats(1e-3, 1e3), eps=st.floats(0.0, 1e-6))
@settings(max_examples=200, deadline=None)
def test_sontag_kappa_continuous_across_zero(q, eps):
    # both branches give 1 at omega = 0; the slope there is -1/q
    assert sontag_kappa(0.0, q) == pytest.approx(1.0, abs=1e-15)
    gap = abs(sontag_kappa(eps, q) - sontag_kappa(-eps, q))
    assert gap <= 4.0 * eps / q + 1e-15


@given(omega=st.floats(-1e3, -1e-9), a=directions,
       shrink=st.floats(0.0, 0.99),
       rule=st.sampled_from([MIN_NORM, SONTAG, HALF_SONTAG]))
@settings(max_examples=100, deadline=None)
def test_no_authority_raises_the_given_class(omega, a, shrink, rule):
    a = np.array(a)
    nrm = float(np.linalg.norm(a))
    if nrm > 0.0:
        a = a * (shrink * GRAD_ZERO_TOL / nrm)
    with pytest.raises(Marker):
        correct(omega, a, rule, Marker)


# ---- noise-to-state filters ----

def test_nssf_sontag_is_nominal_plus_universal_correction():
    spec = dataclasses.replace(ex6_spec(),
                               u0=lambda x, t: np.array([0.3 - x[0]]))
    for x0 in EX6_GRID:
        x = np.array([x0])
        ld = lie_data(spec.sys, spec.bf, x)
        q = float(ld.Lg2h @ ld.Lg2h)
        want = (spec.u0(x, 0.0)
                + sontag_kappa(omega_nssf(spec, x, 0.0), q) * ld.Lg2h)
        assert np.array_equal(nssf_sontag_filter(spec, x, 0.0), want)


def test_nssf_inverse_optimal_reproduces_qp_where_active():
    # gamma2(r) = r^2/4 with the pointwise min-norm weight turns the
    # weighted step into the min-norm one
    qp = ex6_spec(beta=2.0)

    def r2_min_norm(x, u0v):
        omega, a = nssf_margin(qp, lie_data(qp.sys, qp.bf, x), u0v)
        return np.array([[float(a @ a) / -omega]])

    io = dataclasses.replace(qp, R2=r2_min_norm)
    gap, active = 0.0, 0
    for x0 in EX6_GRID:
        x = np.array([x0])
        if omega_nssf(qp, x, 0.0) >= 0.0:
            continue
        active += 1
        gap = max(gap, abs(nssf_inverse_optimal(io, x, 0.0)[0]
                           - nssf_qp_filter(qp, x, 0.0)[0]))
    assert active == 60
    assert gap <= 1e-12


# ---- the no-authority guard in every module ----
# h = -x with f = 1 and g2 = 0: the margin at x = 0 is -1 and the
# control cannot move it

def _blind_system(m1=0):
    return scalar_system(lambda x: 1.0, (lambda x: 1.0) if m1 else None,
                         lambda x: 0.0)


def _zero_u0(x, t=None):
    return np.array([0.0])


def test_guard_stoch_qp_filter():
    spec = StochSpec(_blind_system(), neg_state_barrier(),
                     linear_extended(1.0), _zero_u0)
    with pytest.raises(ScbfViolation):
        stoch_qp_filter(spec, np.zeros(1), 0.0)


def test_guard_nssf_qp_filter():
    spec = NssfSpec(_blind_system(m1=1), neg_state_barrier(),
                    linear_extended(1.0), identity_k(), _zero_u0)
    with pytest.raises(ScbfViolation):
        nssf_qp_filter(spec, np.zeros(1), 0.0)


def test_guard_rcbf_qp_filter():
    # B = 1/h = -1/x; at x = -1 the excess is L_f B - alpha_bar(1) = 1
    spec = RcbfSpec(scalar_system(lambda x: 2.0, None, lambda x: 0.0),
                    lambda x: -1.0 / x[0], identity_k(), _zero_u0,
                    gradB=lambda x: np.array([1.0 / x[0] ** 2]))
    with pytest.raises(RcbfViolation):
        rcbf_qp_filter(spec, np.array([-1.0]), 0.0)


@pytest.mark.parametrize("filt", [
    sandwich_filter,
    lambda spec, x: stoch_sandwich_filter(spec, x, exact_trace=False),
    lambda spec, x: stoch_sandwich_filter(spec, x, exact_trace=True),
])
def test_guard_sandwich_filters(filt):
    spec = SandwichSpec(_blind_system(m1=1), neg_state_barrier(), _zero_u0,
                        identity_k(), identity_k(), linear_extended(1.0),
                        linear_extended(2.0))
    with pytest.raises(RuntimeError) as err:
        filt(spec, np.zeros(1))
    assert err.type is RuntimeError


def test_guard_qp_projection():
    # a flat barrier below zero: the constraint binds, grad h = 0
    bf = BarrierFunction(lambda th: -1.0, grad=lambda th: np.zeros(2))
    spec = ProjectionSpec(bf, linear_extended(1.0))
    with pytest.raises(ProjectionError):
        qp_projection(spec, np.zeros(2), np.array([1.0, 0.0]))
