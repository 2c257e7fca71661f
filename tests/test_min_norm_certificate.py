"""The one min-norm certificate at random states of four plants.

filters.min_norm_certificate gives (R, l) for the scaled min-norm law
u = u0 + beta * correct(omega, a). With each cost kind's factor c
(qp-exact 1, reciprocal-min -h^2, projection-min -1) the value identity

    c (l - R|u - u0|^2) + 2 beta sign(c) dh/dt = 0

holds on both branches. dh/dt comes from each plant's closed form, not
from the margin; an infinite R pairs with a zero deviation.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from safefilt.comparison import identity_k, linear_extended
from safefilt.filters import (DssfCbfSpec, cbf_margin, correct,
                              min_norm_certificate)
from safefilt.projection import (ProjectionSpec, projection_margin,
                                 projection_penalty_l)
from safefilt.reciprocal import RcbfSpec, reciprocal_margin, reciprocal_weights
from safefilt.scenarios import (disturbed_gain_system, neg_state_barrier,
                                unit_ball_barrier)
from safefilt.systems import ControlAffineSystem, lie_data, scalar_system

IDENTITY_TOL = 1e-9
ALPHA = linear_extended(1.0)
G_PLANAR = np.array([[1.0, 0.2], [0.0, 1.0]])


def _cbf_plant(sys, bf):
    """qp-exact on a disturbance-free loop: data(x, u0v, beta) ->
    (omega, a, alpha(h), c)."""
    spec = DssfCbfSpec(sys, bf, identity_k(), ALPHA,
                       lambda x, t: np.zeros(sys.m2))

    def data(x, u0v, beta):
        ld = lie_data(sys, bf, x)
        return cbf_margin(spec, ld, u0v) + (ALPHA(ld.h_val), 1.0)
    return data


def _planar_f(x):
    return np.array([x[1], -x[0]])


ex4_data = _cbf_plant(disturbed_gain_system(), neg_state_barrier())
planar_data = _cbf_plant(
    ControlAffineSystem(2, 0, 2, _planar_f, None, lambda x: G_PLANAR),
    unit_ball_barrier())


def ball_spec(beta):
    return ProjectionSpec(unit_ball_barrier(), ALPHA, beta_gain=beta)


def ball_data(theta, u0v, beta):
    h = 1.0 - float(theta @ theta)
    return projection_margin(ball_spec(beta), theta, u0v) + (ALPHA(h), -1.0)


def recip_spec(beta):
    # the reciprocal plant of test_reciprocal.py: dx = u, B = -1/x
    return RcbfSpec(scalar_system(lambda x: 0.0, None, lambda x: 1.0),
                    lambda x: -1.0 / x[0], identity_k(),
                    lambda x, t: np.array([0.0]),
                    gradB=lambda x: np.array([1.0 / x[0] ** 2]),
                    beta_gain=beta)


def recip_data(x, u0v, beta):
    bdata = (-1.0 / x[0], 0.0, np.array([1.0 / x[0] ** 2]))
    h = -x[0]
    return reciprocal_margin(recip_spec(beta), bdata, u0v) + (
        identity_k()(h), -(h * h))


# name: (state, data, dh/dt from the plant's closed form)
PLANTS = {
    "ex4": (st.floats(-3.0, 3.0).map(lambda v: np.array([v])), ex4_data,
            lambda x, u: -u[0]),
    "planar": (st.tuples(st.floats(-1.3, 1.3), st.floats(-1.3, 1.3))
               .map(np.array), planar_data,
               lambda x, u: float(-2.0 * x @ (_planar_f(x) + G_PLANAR @ u))),
    "unit-ball": (st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
                  .map(np.array), ball_data,
                  lambda x, u: float(-2.0 * x @ u)),
    "reciprocal": (st.floats(-3.0, -0.2).map(lambda v: np.array([v])),
                   recip_data, lambda x, u: -u[0]),
}


def _on_branch(data, x, w, target, beta):
    """The nominal w moved along a until the margin reads target."""
    omega, a = data(x, w, beta)[:2]
    return w + ((target - omega) / float(a @ a)) * a


@pytest.mark.parametrize("plant", PLANTS)
@settings(max_examples=150, deadline=None)
@given(data=st.data(), beta=st.floats(2.0, 5.0), active=st.booleans(),
       size=st.floats(0.0, 5.0))
def test_value_identity_on_both_branches(plant, data, beta, active, size):
    state, certificate_data, hdot = PLANTS[plant]
    x = data.draw(state, label="x")
    assume(0.05 <= math.sqrt(float(x @ x)) <= (1.0 if plant == "unit-ball"
                                                else math.inf))
    w = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=x.size,
                                    max_size=x.size), label="w"))
    target = -(size + 1e-3) if active else size
    u0v = _on_branch(certificate_data, x, w, target, beta)
    omega, a, alpha_h, c = certificate_data(x, u0v, beta)
    u = u0v + beta * correct(omega, a)
    R, l = min_norm_certificate(beta, omega, a, alpha_h)
    dev = u - u0v
    assert R.infinite == (omega >= 0.0)
    if R.infinite:
        assert not dev.any()
        ctrl = 0.0
    else:
        ctrl = float(R) * float(dev @ dev)
    value = c * (l - ctrl) + 2.0 * beta * math.copysign(1.0, c) * hdot(x, u)
    assert abs(value) <= IDENTITY_TOL * (1.0 + abs(l))


@settings(max_examples=100, deadline=None)
@given(x=st.floats(-3.0, -0.2), u0=st.floats(-3.0, 3.0),
       beta=st.floats(2.0, 5.0))
def test_reciprocal_weights_are_the_h_form_certificate(x, u0, beta):
    x, u0v = np.array([x]), np.array([u0])
    omega, a, alpha_h, c = recip_data(x, u0v, beta)
    R, l = min_norm_certificate(beta, omega, a, alpha_h)
    Rbar, lbar, h = reciprocal_weights(recip_spec(beta), x, u0v)
    assert h == pytest.approx(-x[0], rel=1e-15)
    assert Rbar.infinite == R.infinite
    if not R.infinite:
        assert float(Rbar) == pytest.approx(float(R), rel=1e-12)
    assert lbar == pytest.approx(c * l, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(t0=st.floats(-1.0, 1.0), t1=st.floats(-1.0, 1.0),
       u0=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       beta=st.floats(2.0, 5.0))
def test_projection_penalty_is_the_negated_certificate(t0, t1, u0, beta):
    theta, u0v = np.array([t0, t1]), np.array(u0)
    assume(float(theta @ theta) <= 1.0)
    omega, a, alpha_h, c = ball_data(theta, u0v, beta)
    l = min_norm_certificate(beta, omega, a, alpha_h)[1]
    # the closed form of projection_penalty_l's docstring
    shown = (2.0 * beta * float(a @ u0v)
             + beta * beta * max(0.0, -omega))
    got = projection_penalty_l(ball_spec(beta), theta, u0v)
    assert got == c * l
    assert got == pytest.approx(shown, rel=1e-12, abs=1e-12)
