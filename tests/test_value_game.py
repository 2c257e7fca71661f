"""The one value equation behind the three inverse-optimal games: its
gain gate, and its residual at random states and gains."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safefilt.comparison import identity_k, linear_extended, power_pair
from safefilt.filters import DssfCbfSpec, InverseOptimalSpec, hji_residual
from safefilt.scenarios import _ex3_pieces, ex5_spec, ex6_spec
from safefilt.stochastic import (NssfSpec, StochSpec, hjb_residual,
                                 nssf_condition, nssf_hji_residual,
                                 nssf_inverse_optimal, nssf_state_penalty_l,
                                 nssf_weights, stoch_inverse_optimal,
                                 stoch_io_condition, stoch_state_penalty_l,
                                 stoch_weights)
from safefilt.systems import BarrierFunction, ControlAffineSystem

RESIDUAL_TOL = 1e-9


# ---- the optimality gate, beta >= 2 unless allow_safety_only ----

def _certificates(weights, inverse_optimal, condition, penalty, residual):
    return [
        pytest.param(lambda spec, x: weights(spec, x, spec.u0(x, 0.0)),
                     id=weights.__name__),
        pytest.param(lambda spec, x: inverse_optimal(spec, x, 0.0),
                     id=inverse_optimal.__name__),
        pytest.param(lambda spec, x: condition(spec, x, 0.0),
                     id=condition.__name__),
        pytest.param(lambda spec, x: penalty(spec, x, 0.0),
                     id=penalty.__name__),
        pytest.param(lambda spec, x: residual(spec, x, 0.0),
                     id=residual.__name__),
    ]


@pytest.mark.parametrize("cert", _certificates(
    stoch_weights, stoch_inverse_optimal, stoch_io_condition,
    stoch_state_penalty_l, hjb_residual))
def test_ito_certificates_gate_beta(cert):
    spec = ex5_spec(beta=1.5)
    x = np.array([-0.5])
    with pytest.raises(ValueError, match="beta_gain 1.5 < 2"):
        cert(spec, x)
    cert(dataclasses.replace(spec, allow_safety_only=True), x)


@pytest.mark.parametrize("cert", _certificates(
    nssf_weights, nssf_inverse_optimal, nssf_condition,
    nssf_state_penalty_l, nssf_hji_residual))
def test_nssf_certificates_gate_beta(cert):
    spec = ex6_spec(beta=1.5)
    x = np.array([-0.5])
    with pytest.raises(ValueError, match="beta_gain 1.5 < 2"):
        cert(spec, x)
    cert(dataclasses.replace(spec, allow_safety_only=True), x)


# ---- residuals vanish at random states and gains ----

@given(beta=st.floats(2.0, 5.0), lam=st.floats(0.05, 2.0),
       x=st.floats(-2.0, 0.5))
@settings(max_examples=60, deadline=None)
def test_hji_residual_vanishes_on_ex3(beta, lam, x):
    iospec = _ex3_pieces(beta, lam)[3]
    assert abs(hji_residual(iospec, np.array([x]), 0.0)) <= RESIDUAL_TOL


@given(beta=st.floats(2.0, 5.0), x=st.floats(-3.0, 0.9))
@settings(max_examples=60, deadline=None)
def test_hjb_residual_vanishes_on_ex5(beta, x):
    spec = ex5_spec(beta)
    assert abs(hjb_residual(spec, np.array([x]), 0.0)) <= RESIDUAL_TOL


@given(beta=st.floats(2.0, 5.0), lam=st.floats(0.05, 2.0),
       r=st.floats(0.1, 1.5), sign=st.sampled_from([-1.0, 1.0]))
@settings(max_examples=60, deadline=None)
def test_nssf_hji_residual_vanishes_on_ex6(beta, lam, r, sign):
    spec = ex6_spec(beta, lam)
    assert abs(nssf_hji_residual(spec, np.array([sign * r]), 0.0)) \
        <= RESIDUAL_TOL


def _planar_games(beta, lam):
    """The three games on one planar plant with two disturbance inputs,
    a state-dependent control weight and a nonzero nominal."""
    sys = ControlAffineSystem(
        2, 2, 1, f=lambda x: np.array([x[1], -x[0] + 0.3 * x[1] ** 2]),
        g1=lambda x: np.array([[1.0, 0.3], [0.0, 1.0 + x[0] ** 2]]),
        g2=lambda x: np.array([[1.0], [0.5 + x[1]]]))
    bf = BarrierFunction(lambda x: 1.0 - float(x @ x),
                         grad=lambda x: -2.0 * x,
                         hess=lambda x: -2.0 * np.eye(2))
    u0 = lambda x, t: np.array([0.2 * x[0] - 0.1])
    R2 = lambda x, u0v: np.array([[1.0 + x[0] ** 2]])
    base = DssfCbfSpec(sys, bf, identity_k(), linear_extended(1.0), u0)
    game = InverseOptimalSpec(base, beta, lam, power_pair(2), R2=R2)
    ito = StochSpec(sys, bf, linear_extended(1.0), u0, beta_gain=beta,
                    gamma2=power_pair(2, 0.25), R2=R2)
    noise = NssfSpec(sys, bf, linear_extended(1.0), identity_k(), u0,
                     beta_gain=beta, lam=lam, gamma1=power_pair(2),
                     gamma2=power_pair(2, 0.25), R2=R2)
    return game, ito, noise


@given(beta=st.floats(2.0, 5.0), lam=st.floats(0.05, 2.0),
       x0=st.floats(-1.5, 1.5), x1=st.floats(-1.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_residuals_vanish_on_a_planar_plant(beta, lam, x0, x1):
    game, ito, noise = _planar_games(beta, lam)
    x = np.array([x0, x1])
    assert abs(hji_residual(game, x, 0.0)) <= RESIDUAL_TOL
    assert abs(hjb_residual(ito, x, 0.0)) <= RESIDUAL_TOL
    assert abs(nssf_hji_residual(noise, x, 0.0)) <= RESIDUAL_TOL
