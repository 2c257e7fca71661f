"""Min-norm and damping corrections, weights, and game residuals."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from safefilt.comparison import (identity_k, linear_extended, power_pair)
from safefilt.filters import (CbfViolation, DssfCbfSpec, InverseOptimalSpec,
                              Weight, half_sontag_filter, hji_residual,
                              inverse_optimal_condition,
                              inverse_optimal_general, inverse_optimal_qp,
                              omega_dssf, pi_gap, qp_filter,
                              qp_filter_affine_form, qp_weights,
                              qp_worst_case_disturbance, scp_diagnostic,
                              sontag_filter, sontag_kappa, state_penalty_l,
                              worst_case_disturbance)
from safefilt.scenarios import (_ex3_pieces, disturbed_gain_system,
                                neg_state_barrier)
from safefilt.systems import BarrierFunction, lie_data, scalar_system

QP_ORACLE_TOL = 1e-6
EXACT_TOL = 1e-12


def dg_spec(u0=0.0, alpha=1.0):
    return DssfCbfSpec(disturbed_gain_system(), neg_state_barrier(),
                       identity_k(), linear_extended(alpha),
                       lambda x, t: np.array([u0]))


def intro_spec(u0=1.0):
    sys = scalar_system(lambda x: 0.0, None, lambda x: 1.0)
    return DssfCbfSpec(sys, neg_state_barrier(), identity_k(),
                       linear_extended(1.0), lambda x, t: np.array([u0]))


# ---- min-norm correction, frozen points ----

def test_qp_correction_inactive_inside():
    spec = dg_spec(u0=2.0)
    # omega(-1, 2) = -2 + 1 = -1: active, correction -1
    assert omega_dssf(spec, np.array([-1.0]), 0.0) == pytest.approx(-1.0)
    assert qp_filter(spec, np.array([-1.0]), 0.0)[0] == pytest.approx(
        -1.0, abs=EXACT_TOL)


def test_qp_correction_outside_safe_set():
    spec = dg_spec(u0=0.0)
    # at x = 1 the robust term bites: omega = -1 - 2 = -3, u = -3
    assert omega_dssf(spec, np.array([1.0]), 0.0) == pytest.approx(-3.0)
    u = spec.u0(np.array([1.0]), 0.0) + qp_filter(spec, np.array([1.0]), 0.0)
    assert u[0] == pytest.approx(-3.0, abs=EXACT_TOL)


def test_qp_zero_when_margin_nonnegative():
    spec = dg_spec(u0=0.0)
    assert qp_filter(spec, np.array([-0.5]), 0.0)[0] == 0.0


def test_qp_raises_on_flat_control_direction():
    sys = scalar_system(lambda x: 0.0, None, lambda x: x)
    bf = BarrierFunction(lambda x: -1.0 - x[0],
                         grad=lambda x: np.array([-1.0]),
                         hess=lambda x: np.array([[0.0]]))
    spec = DssfCbfSpec(sys, bf, identity_k(), linear_extended(1.0),
                       lambda x, t: np.array([0.0]))
    with pytest.raises(CbfViolation):
        qp_filter(spec, np.array([0.0]), 0.0)


# ---- damping corrections ----

def test_sontag_frozen_points():
    spec = intro_spec(u0=0.0)
    v = sontag_filter(spec, np.zeros(1), 0.0)
    assert v[0] == pytest.approx(-1.0, abs=1e-12)

    spec1 = intro_spec(u0=1.0)
    v1 = sontag_filter(spec1, np.array([-2.0]), 0.0)
    assert v1[0] == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-12)
    u_half = half_sontag_filter(spec1, np.array([-2.0]), 0.0)
    assert u_half[0] == pytest.approx((3.0 - math.sqrt(2.0)) / 2.0,
                                      abs=1e-12)


@pytest.mark.parametrize("omega", [-3.0, -0.5, 0.0, 0.5, 3.0])
def test_half_sontag_constraint_identity(omega):
    # half the damping gain meets the shifted constraint with equality
    q = 1.7
    kappa = sontag_kappa(omega, q)
    lhs = 0.5 * (omega - math.hypot(omega, q)) + 0.5 * kappa * q
    assert abs(lhs) <= 1e-10


def test_sontag_kappa_zero_gain():
    assert sontag_kappa(1.0, 0.0) == 0.0


# ---- the min-norm property against an independent solver ----

def two_control_spec():
    sys_f = lambda x: np.array([0.1 * x[1], -0.2 * x[0]])
    g2 = lambda x: np.array([[1.0, x[1]], [-0.5, 1.0]])
    from safefilt.systems import ControlAffineSystem
    sys = ControlAffineSystem(2, 0, 2, f=sys_f, g1=None, g2=g2)
    bf = BarrierFunction(lambda x: 1.0 - float(x @ x),
                         grad=lambda x: -2.0 * x,
                         hess=lambda x: -2.0 * np.eye(2))
    return DssfCbfSpec(sys, bf, identity_k(), linear_extended(1.0),
                       lambda x, t: np.array([math.sin(x[0]), x[1] ** 2]))


def _oracle_correction(omega, Lg2h):
    if omega >= 0.0:
        return np.zeros_like(Lg2h)
    res = minimize(lambda v: float(v @ v), np.zeros(Lg2h.size),
                   method="SLSQP",
                   constraints=[{"type": "ineq",
                                 "fun": lambda v: omega + float(Lg2h @ v)}],
                   options={"ftol": 1e-12, "maxiter": 400})
    # status 8 is a stalled line search at the optimum; accept it when
    # the iterate is feasible
    assert res.success or res.status == 8
    assert omega + float(Lg2h @ res.x) >= -1e-6
    return res.x


@pytest.mark.parametrize("make_spec,ptsfn", [
    (lambda: dg_spec(u0=1.5), lambda rng: rng.uniform(-2, 2, size=(150, 1))),
    (two_control_spec, lambda rng: rng.uniform(-1.6, 1.6, size=(150, 2))),
])
def test_qp_matches_independent_minimizer(make_spec, ptsfn):
    spec = make_spec()
    rng = np.random.default_rng(3)
    for x in ptsfn(rng):
        ld = lie_data(spec.sys, spec.bf, x)
        omega = omega_dssf(spec, x, 0.0)
        mine = qp_filter(spec, x, 0.0)
        ref = _oracle_correction(omega, ld.Lg2h)
        assert np.allclose(mine, ref, atol=QP_ORACLE_TOL * (1 + np.linalg.norm(ref)))
        # feasibility of the corrected margin
        assert omega + float(ld.Lg2h @ mine) >= -1e-12
        # KKT: the correction lies along the constraint normal with a
        # nonnegative multiplier and complementary slackness
        if omega < 0.0:
            q = float(ld.Lg2h @ ld.Lg2h)
            mu = float(ld.Lg2h @ mine) / q
            assert mu >= 0.0
            assert np.allclose(mine, mu * ld.Lg2h, atol=1e-10)
            assert abs(omega + float(ld.Lg2h @ mine)) <= 1e-10


def test_qp_grid_minimality_two_controls():
    spec = two_control_spec()
    x = np.array([0.9, 0.7])
    omega = omega_dssf(spec, x, 0.0)
    assert omega < 0.0
    ld = lie_data(spec.sys, spec.bf, x)
    v_star = qp_filter(spec, x, 0.0)
    best = float(v_star @ v_star)
    grid = np.linspace(-3.0, 3.0, 121)
    for a in grid:
        for b in grid:
            v = np.array([a, b])
            if omega + float(ld.Lg2h @ v) >= 0.0:
                assert float(v @ v) >= best - 1e-8


def test_correction_dominance_where_active():
    spec = dg_spec(u0=1.5)
    rng = np.random.default_rng(5)
    seen = 0
    for x0 in rng.uniform(-2.0, 2.0, size=200):
        x = np.array([x0])
        if omega_dssf(spec, x, 0.0) > 0.0:
            continue
        seen += 1
        v_qp = np.linalg.norm(qp_filter(spec, x, 0.0))
        v_s = np.linalg.norm(sontag_filter(spec, x, 0.0))
        assert v_qp <= 0.5 * v_s + 1e-12
    assert seen > 20


def test_affine_form_consistent_with_filter():
    for spec, xs in ((dg_spec(u0=1.5), np.linspace(-2, 2, 41)[:, None]),
                     (two_control_spec(),
                      np.random.default_rng(9).uniform(-1.5, 1.5, (40, 2)))):
        for x in xs:
            chi0, chi1, active = qp_filter_affine_form(spec, x, 0.0)
            u0v = spec.u0(x, 0.0)
            total = chi0 @ u0v + chi1
            direct = u0v + qp_filter(spec, x, 0.0)
            assert np.allclose(total, direct, atol=EXACT_TOL)
            if active:
                # the control-direction component is replaced, so the
                # map is a projector plus a constant
                assert np.allclose(chi0 @ chi0, chi0, atol=1e-12)


# ---- scaled corrections and the game certificates ----

def ex3_iospec(beta=2.0, lam=1.0):
    return _ex3_pieces(beta, lam)[3]


def test_weighted_update_frozen_points():
    base = dg_spec(u0=0.0)
    io = InverseOptimalSpec(
        base, 2.0, 2.0, power_pair(2),
        R2=lambda x, u0v: np.array(
            [[1.0 / (max(0.0, u0v[0] - (-x[0])) + (1.0 + x[0] ** 2) ** 2)]]))
    assert inverse_optimal_general(io, np.zeros(1), 0.0)[0] == pytest.approx(
        -2.0, abs=1e-12)

    base1 = dg_spec(u0=1.0)
    io1 = InverseOptimalSpec(
        base1, 2.0, 2.0, power_pair(2),
        R2=lambda x, u0v: np.array(
            [[1.0 / (max(0.0, u0v[0] - (-x[0])) + (1.0 + x[0] ** 2) ** 2)]]))
    assert inverse_optimal_general(io1, np.zeros(1), 0.0)[0] == pytest.approx(
        -3.0, abs=1e-12)


def test_gain_floor_enforced():
    base = dg_spec()
    with pytest.raises(ValueError):
        InverseOptimalSpec(base, 1.5, 2.0, power_pair(2))
    with pytest.raises(ValueError):
        InverseOptimalSpec(base, 2.0, 2.5, power_pair(2))
    # the safety-only regime admits gains down to 1
    InverseOptimalSpec(base, 1.2, 2.0, power_pair(2),
                       allow_safety_only=True)
    with pytest.raises(ValueError):
        inverse_optimal_qp(dg_spec(), 1.5, np.zeros(1), 0.0)


def test_worst_case_disturbance_frozen():
    io = ex3_iospec(beta=2.0, lam=2.0)
    d0 = worst_case_disturbance(io, np.zeros(1))
    assert d0[0] == pytest.approx(2.0, abs=1e-12)
    io1 = ex3_iospec(beta=2.0, lam=1.0)
    d1 = worst_case_disturbance(io1, np.array([1.0]))
    assert d1[0] == pytest.approx(2.0, abs=1e-12)


def test_qp_worst_case_disturbance_vanishes_inside():
    spec = dg_spec(u0=2.0)
    assert qp_worst_case_disturbance(spec, 1.0, np.array([-0.5]))[0] == 0.0
    d = qp_worst_case_disturbance(spec, 1.0, np.array([1.0]))
    assert d[0] == pytest.approx(1.0, abs=1e-12)


def test_state_penalty_vanishes_at_balance_point():
    base = dg_spec(u0=0.0)
    io = InverseOptimalSpec(
        base, 2.0, 2.0, power_pair(2),
        R2=lambda x, u0v: np.array(
            [[1.0 / (max(0.0, u0v[0] - (-x[0])) + (1.0 + x[0] ** 2) ** 2)]]))
    # drift 0, transform value 1, weighted direction term 1: exact zero
    assert state_penalty_l(io, np.zeros(1), 0.0) == pytest.approx(
        0.0, abs=1e-12)


def test_condition_nonnegative_on_operating_range():
    io = ex3_iospec(2.0, 1.0)
    for x in np.linspace(-1.5, -0.6, 31):
        assert inverse_optimal_condition(io, np.array([x]), 0.0) >= 0.0


def test_hji_residual_zero_on_grids():
    rng = np.random.default_rng(11)
    for beta in (2.0, 3.0, 5.0):
        for lam in (0.5, 1.0, 2.0):
            io = ex3_iospec(beta, lam)
            for x0 in rng.uniform(-1.5, -0.6, size=40):
                assert abs(hji_residual(io, np.array([x0]), 0.0)) <= 1e-9


def test_hji_residual_zero_default_weight():
    # unweighted control channel, steeper transform
    base = DssfCbfSpec(disturbed_gain_system(), neg_state_barrier(),
                       identity_k(), linear_extended(2.0),
                       lambda x, t: np.array([math.sin(x[0])]))
    io = InverseOptimalSpec(base, 3.0, 1.0, power_pair(4, scale=0.25))
    for x0 in np.linspace(-2.0, 2.0, 41):
        assert abs(hji_residual(io, np.array([x0]), 0.0)) <= 1e-9


def test_penalty_gap_zero_only_at_worst_disturbance():
    io = ex3_iospec(2.0, 1.0)
    x = np.array([-1.0])
    d_star = worst_case_disturbance(io, x)
    assert abs(pi_gap(io, x, d_star)) <= 1e-9
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = d_star + rng.normal() * 0.7
        assert pi_gap(io, x, d) >= -1e-10
    assert pi_gap(io, x, d_star + 0.5) > 1e-6


def test_scaled_margin_monotone_in_gain():
    spec = dg_spec(u0=1.5)
    x = np.array([-0.25])
    assert omega_dssf(spec, x, 0.0) < 0.0

    def hdot(beta):
        u = inverse_optimal_qp(spec, beta, x, 0.0)
        ld = lie_data(spec.sys, spec.bf, x)
        return ld.Lfh + float(ld.Lg2h @ u)

    assert hdot(3.0) > hdot(2.0) - 1e-12
    assert hdot(5.0) > hdot(3.0) - 1e-12


# ---- pointwise weights ----

def test_qp_weights_frozen():
    spec = dg_spec(u0=0.0)
    r1, r2, l = qp_weights(spec, np.array([1.0]), 0.0,
                           beta_gain=2.0, lam=2.0)
    assert float(r1) == pytest.approx(1.0, abs=1e-12)
    assert float(r2) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_qp_weights_infinite_when_inactive():
    spec = dg_spec(u0=2.0)
    r1, r2, _ = qp_weights(spec, np.array([-3.0]), 0.0)
    assert r2.infinite
    assert r1.infinite          # interior: no disturbance penalty either
    with pytest.raises(ValueError):
        float(r2)
    assert float(Weight(2.5)) == 2.5


# ---- coverage sweep ----

def test_scp_diagnostic_counts_flat_directions():
    sys = scalar_system(lambda x: 0.0, None, lambda x: x)
    bf = BarrierFunction(lambda x: -1.0 - x[0],
                         grad=lambda x: np.array([-1.0]),
                         hess=lambda x: np.array([[0.0]]))
    spec = DssfCbfSpec(sys, bf, identity_k(), linear_extended(1.0),
                       lambda x, t: np.array([0.0]))
    out = scp_diagnostic(spec, [np.array([0.0]), np.array([1.0]),
                                np.array([-2.0])])
    assert out["violations"] == 1
    assert out["max_correction"] == pytest.approx(2.0, abs=1e-12)
