"""Generator-based filters, worst-case covariance, and value residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safefilt.comparison import identity_k, linear_extended, power_k, \
    power_pair
from safefilt.filters import DssfCbfSpec, qp_filter
from safefilt.scenarios import ex5_spec, ex6_spec, _ex6_display, \
    neg_state_barrier
from safefilt.sim import SimConfig, integrate_sde
from safefilt.stochastic import (CovarianceSchedule, NssfSpec, StochSpec,
                                 generator_h, hjb_residual, min_eigenvalue,
                                 nsbf_premise, nssf_condition,
                                 nssf_hji_residual, nssf_qp_filter,
                                 nssf_state_penalty_l, nssf_weights,
                                 omega_nssf, omega_sbfc, stoch_inverse_optimal,
                                 stoch_io_condition, stoch_qp_filter,
                                 stoch_sontag_filter, stoch_state_penalty_l,
                                 stoch_weights, worst_case_covariance)
from safefilt.systems import BarrierFunction, ControlAffineSystem, \
    lie_data, scalar_system

ACTIVATION = 1.0 - math.sqrt(math.e)
GEN_TOL = 1e-8


# ---- generator margin and filters on the shrinking-noise plant ----

def test_activation_boundary_is_sharp():
    spec = ex5_spec()
    for x0 in (-2.0, -1.0, ACTIVATION - 1e-9):
        assert stoch_qp_filter(spec, np.array([x0]), 0.0)[0] == 0.0
    for x0 in (ACTIVATION + 1e-9, -0.3, 0.5):
        assert stoch_qp_filter(spec, np.array([x0]), 0.0)[0] < 0.0


def test_margin_sign_flips_at_activation():
    spec = ex5_spec()
    assert omega_sbfc(spec, np.array([ACTIVATION]), 0.0) == pytest.approx(
        0.0, abs=1e-12)
    assert omega_sbfc(spec, np.array([-1.0]), 0.0) > 0.0
    assert omega_sbfc(spec, np.array([0.0]), 0.0) < 0.0


def test_qp_filter_matches_closed_form():
    spec = ex5_spec(beta=2.0)
    for x0 in np.linspace(-2.0, 0.9, 30):
        want = 2.0 * (x0 - 1.0) * max(0.0, 0.5 - math.log1p(-x0))
        assert stoch_qp_filter(spec, np.array([x0]), 0.0)[0] == \
            pytest.approx(want, abs=1e-12)


def test_damping_filter_frozen_point():
    spec = ex5_spec(beta=1.0)
    v = stoch_sontag_filter(spec, np.zeros(1), 0.0)
    assert v[0] == pytest.approx(-(0.5 + math.sqrt(5.0) / 2.0), abs=1e-12)


def test_weighted_form_reduces_to_min_norm_on_its_weight():
    # with the quarter-square transform and the pointwise min-norm
    # weight, the weighted update is the min-norm update
    def r2_qp(x, u0v):
        m = max(0.0, 0.5 - math.log1p(-x[0]))
        q = 1.0 / (1.0 - x[0]) ** 2
        return np.array([[q / m]])

    spec = StochSpec(ex5_spec().sys, ex5_spec().bf, linear_extended(1.0),
                     lambda x, t: np.array([0.0]), beta_gain=2.0,
                     gamma2=power_pair(2, 0.25), R2=r2_qp)
    qp = ex5_spec(beta=2.0)
    for x0 in np.linspace(ACTIVATION + 0.05, 0.9, 19):
        x = np.array([x0])
        assert stoch_inverse_optimal(spec, x, 0.0)[0] == pytest.approx(
            stoch_qp_filter(qp, x, 0.0)[0], abs=1e-10)


def test_optimal_gain_floor():
    spec = ex5_spec(beta=1.5)      # fine for safety alone
    with pytest.raises(ValueError):
        stoch_inverse_optimal(spec, np.zeros(1), 0.0)
    with pytest.raises(ValueError):
        StochSpec(ex5_spec().sys, ex5_spec().bf, linear_extended(1.0),
                  lambda x, t: np.array([0.0]), beta_gain=0.5)


def test_vanishing_noise_recovers_deterministic_filter():
    sys0 = scalar_system(lambda x: 0.1 * x, lambda x: 0.0, lambda x: 1.0)
    bf = neg_state_barrier()
    u0 = lambda x, t: np.array([1.0])
    sspec = StochSpec(sys0, bf, linear_extended(1.0), u0, beta_gain=1.0)
    dspec = DssfCbfSpec(sys0, bf, identity_k(), linear_extended(1.0), u0)
    for x0 in np.linspace(-2.0, 2.0, 41):
        x = np.array([x0])
        want = u0(x, 0.0) + qp_filter(dspec, x, 0.0)
        assert stoch_qp_filter(sspec, x, 0.0)[0] == pytest.approx(
            want[0], abs=1e-12)


def test_generator_inequality_along_paths():
    spec = ex5_spec(beta=2.0)
    cfg = SimConfig(dt=1e-3, T=1.0, seed=4, paths=3)
    paths = integrate_sde(spec.sys, spec.bf,
                          lambda x, t: stoch_qp_filter(spec, x, t),
                          spec.u0, np.array([-1.0]),
                          CovarianceSchedule.constant(np.eye(1)), cfg)
    for traj in paths:
        for k in range(0, traj.times.size - 1, 25):
            g = generator_h(spec.sys, spec.bf, traj.states[k],
                            traj.controls[k])
            assert g + spec.alpha(traj.h_values[k]) >= -GEN_TOL


def test_hjb_residual_vanishes():
    for beta in (2.0, 3.0, 5.0):
        spec = ex5_spec(beta=beta)
        for x0 in np.linspace(-2.0, 0.9, 40):
            assert abs(hjb_residual(spec, np.array([x0]), 0.0)) <= 1e-9


# ---- covariance-adversarial margin ----

def test_nssf_margin_and_filter_frozen():
    spec = ex6_spec(beta=1.0)
    assert omega_nssf(spec, np.array([1.0]), 0.0) == pytest.approx(
        -15.0, abs=1e-10)
    u = nssf_qp_filter(spec, np.array([1.0]), 0.0)
    assert u[0] == pytest.approx(-5.0, abs=1e-10)
    # inactive inside the safe set
    assert nssf_qp_filter(spec, np.array([-0.5]), 0.0)[0] == 0.0


def test_worst_covariance_frozen_negative_definite():
    spec = ex6_spec()
    M = worst_case_covariance(spec, np.array([-1.0]))
    assert M.shape == (1, 1)
    assert M[0, 0] == pytest.approx(-24.0, abs=1e-9)
    assert min_eigenvalue(M) == pytest.approx(-24.0, abs=1e-9)


def planar_nssf_spec():
    g1 = lambda x: np.array([[1.0, 0.3], [0.0, 1.0]])
    sys = ControlAffineSystem(2, 2, 1, f=lambda x: np.zeros(2), g1=g1,
                              g2=lambda x: np.array([[1.0], [0.5]]))
    bf = BarrierFunction(lambda x: 1.0 - float(x @ x),
                         grad=lambda x: -2.0 * x,
                         hess=lambda x: -2.0 * np.eye(2))
    return NssfSpec(sys, bf, linear_extended(1.0), identity_k(),
                    lambda x, t: np.array([0.0]), beta_gain=1.0, lam=2.0,
                    gamma1=power_pair(2), gamma2=power_pair(2, 0.25))


def test_worst_covariance_symmetric_and_scaled():
    spec = planar_nssf_spec()
    x = np.array([0.4, -0.2])
    M = worst_case_covariance(spec, x)
    assert np.allclose(M, M.T, atol=0.0)
    g1 = spec.sys.g1_at(x)
    G = g1.T @ (-2.0 * np.eye(2)) @ g1
    frob = np.linalg.norm(G, "fro")
    want = -2.0 * (frob / 2.0) * G / frob        # -lam (g')^{-1}(frob) G/|G|
    assert np.allclose(M, want, atol=1e-10)
    assert min_eigenvalue(M) > 0.0               # -G is positive definite


def test_premise_slacks_imply_generator_bound():
    spec = ex6_spec()
    for x0 in (0.5, 1.0, 1.5):
        x = np.array([x0])
        gen_slack, bud_slack = nsbf_premise(spec, x, 0.1 * np.eye(1))
        assert bud_slack > 0.0
        assert gen_slack >= -1e-12


def test_nssf_hji_residual_vanishes():
    spec = ex6_spec(beta=2.0)
    for x0 in np.linspace(-1.5, 1.5, 41):
        if abs(x0) < 1e-6:
            continue
        assert abs(nssf_hji_residual(spec, np.array([x0]), 0.0)) <= 1e-9


def test_display_form_matches_only_for_linear_gain():
    spec_id = ex6_spec()
    spec_sq = ex6_spec(rho=power_k(2))
    for x0 in (0.3, 0.8, 1.4):
        x = np.array([x0])
        assert nssf_qp_filter(spec_id, x, 0.0)[0] == pytest.approx(
            _ex6_display(x0, 0.0, lambda y: y), abs=1e-10)
    gaps = [abs(nssf_qp_filter(spec_sq, np.array([x0]), 0.0)[0]
                - _ex6_display(x0, 0.0, math.sqrt))
            for x0 in (0.3, 0.8, 1.4)]
    assert max(gaps) > 0.1


def test_covariance_schedule_shapes():
    sched = CovarianceSchedule.constant(np.eye(2))
    assert sched.at(3.0).shape == (2, 2)
    with pytest.raises(ValueError):
        CovarianceSchedule(lambda t: np.eye(3), 2).at(0.0)


# ---- premise margins and state penalties against closed forms ----

def _close(value, terms):
    """value equals sum(terms) up to rounding on the largest term."""
    scale = 1.0 + sum(abs(v) for v in terms)
    return abs(value - sum(terms)) <= 1e-13 * scale


@given(x=st.floats(-3.0, 0.9), t=st.floats(0.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_stoch_io_condition_and_penalty_at_random_states(x, t):
    # ex5: R2 = I and gamma2(r) = r^2/4, so ell_gamma2(|Lg2h|) = |Lg2h|^2
    spec = ex5_spec(2.0)
    xv = np.array([x])
    ld = lie_data(spec.sys, spec.bf, xv)
    assert _close(stoch_io_condition(spec, xv, t),
                  [omega_sbfc(spec, xv, t), float(ld.Lg2h @ ld.Lg2h)])
    assert (stoch_state_penalty_l(spec, xv, t)
            == stoch_weights(spec, xv, spec.u0(xv, t))[1])


@given(x=st.floats(-2.0, 2.0), t=st.floats(0.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_nssf_condition_and_penalty_at_random_states(x, t):
    # ex6: gamma1(r) = r^2 gives ell_gamma1(frob) = frob^2/4; R2 and
    # gamma2 as in ex5
    spec = ex6_spec(beta=2.0)
    xv = np.array([x])
    u0v = spec.u0(xv, t)
    ld = lie_data(spec.sys, spec.bf, xv)
    assert _close(nssf_condition(spec, xv, t),
                  [ld.Lfh, float(ld.Lg2h @ u0v), spec.alpha(ld.h_val),
                   -0.25 * ld.frob_term ** 2, float(ld.Lg2h @ ld.Lg2h)])
    assert (nssf_state_penalty_l(spec, xv, t)
            == nssf_weights(spec, xv, u0v)[1])


def test_generator_h_reads_u_as_a_control():
    spec = ex5_spec()
    x = np.array([-0.5])
    want = generator_h(spec.sys, spec.bf, x, np.array([0.5]))
    assert generator_h(spec.sys, spec.bf, x, 0.5) == want
    assert generator_h(spec.sys, spec.bf, x, [0.5]) == want
    for bad in ([[0.5]], [0.5, 0.1]):
        with pytest.raises(ValueError, match="u shape"):
            generator_h(spec.sys, spec.bf, x, bad)
