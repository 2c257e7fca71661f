"""Estimate-projection laws on convex barrier sets."""

import warnings

import numpy as np
import pytest

from safefilt.comparison import eps_power_extended, linear_extended
from safefilt.projection import (ProjectionError, ProjectionSpec,
                                 classic_projection, inverse_optimal_update,
                                 projection_penalty_l, qp_projection,
                                 simulate_projection)
from safefilt.scenarios import unit_ball_barrier
from safefilt.sim import SimConfig, SimulationError, integrate_ode
from safefilt.systems import BarrierFunction, ControlAffineSystem

BOUNDARY_TOL = 1e-12


def ball_spec(alpha=None, beta=2.0):
    return ProjectionSpec(unit_ball_barrier(),
                          alpha if alpha is not None
                          else linear_extended(1.0), beta_gain=beta)


def test_classic_tangential_projection_frozen():
    spec = ball_spec()
    u = np.array([1.0, 1.0]) + classic_projection(
        spec, np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert np.allclose(u, [0.0, 1.0], atol=1e-14)


def test_classic_identity_when_pointing_inward():
    spec = ball_spec()
    corr = classic_projection(spec, np.array([1.0, 0.0]),
                              np.array([-1.0, 0.2]))
    assert np.allclose(corr, 0.0, atol=0.0)


def test_classic_rejects_outside_estimate():
    with pytest.raises(ProjectionError):
        classic_projection(ball_spec(), np.array([1.5, 0.0]),
                           np.array([1.0, 0.0]))


def test_continuous_law_frozen_interior_point():
    spec = ball_spec()
    th = np.array([0.9, 0.0])
    corr = qp_projection(spec, th, np.array([1.0, 0.0]))
    # excess = 1.8 - h = 1.61 against |g|^2 = 3.24
    want = (1.61 / 3.24) * np.array([-1.8, 0.0])
    assert np.allclose(corr, want, atol=1e-12)


def test_weighted_update_frozen_boundary_point():
    spec = ball_spec(beta=2.0)
    u = inverse_optimal_update(spec, np.array([1.0, 0.0]),
                               np.array([1.0, 1.0]))
    assert np.allclose(u, [-1.0, 1.0], atol=1e-12)


def test_gain_floor():
    with pytest.raises(ValueError):
        ball_spec(beta=1.0)


def test_boundary_agreement_of_the_two_laws():
    spec = ball_spec()
    for phi in np.linspace(0.0, 2.0 * np.pi, 29):
        th = np.array([np.cos(phi), np.sin(phi)])
        for u0v in ([2.0, -0.5], [0.3, 0.9], [-1.0, -1.0]):
            u0v = np.array(u0v)
            gap = np.linalg.norm(classic_projection(spec, th, u0v)
                                 - qp_projection(spec, th, u0v))
            assert gap <= BOUNDARY_TOL


def test_classic_law_is_discontinuous_at_the_boundary():
    spec = ball_spec()
    u0v = np.array([1.0, 0.0])
    inside = classic_projection(spec, np.array([0.999, 0.0]), u0v)
    at = classic_projection(spec, np.array([1.0, 0.0]), u0v)
    assert np.linalg.norm(inside) == 0.0
    assert np.linalg.norm(at - inside) > 0.5


def test_steepening_family_converges_to_classic():
    sups = []
    radii = np.linspace(0.05, 0.95, 46)
    big = np.array([100.0, 0.0])
    for eps in (1.0, 0.5, 0.1, 0.01):
        spec = ball_spec(alpha=eps_power_extended(eps))
        sups.append(max(np.linalg.norm(qp_projection(
            spec, np.array([r, 0.0]), big)) for r in radii))
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert sups[0] == pytest.approx(99.9487, abs=1e-3)
    assert sups[-1] == pytest.approx(48.579, abs=1e-2)


def test_penalty_frozen_value():
    spec = ball_spec(beta=2.0)
    l = projection_penalty_l(spec, np.array([0.9, 0.0]),
                             np.array([1.0, 0.0]))
    assert l == pytest.approx(-0.76, abs=1e-12)


@pytest.mark.parametrize("law,tol", [("classic", 1e-6), ("qp", 1e-8),
                                     ("optimal", 1e-8)])
def test_invariance_of_the_ball(law, tol):
    spec = ball_spec()
    cfg = SimConfig(dt=1e-3, T=2.0)
    traj = simulate_projection(spec, lambda th, t: np.array([1.0, 0.3]),
                               np.array([0.5, 0.0]), cfg, law=law)
    assert float(np.min(traj.h_values)) >= -tol


def test_classic_sliding_preserves_the_radius():
    spec = ball_spec()
    cfg = SimConfig(dt=1e-3, T=2.0)
    traj = simulate_projection(spec, lambda th, t: np.array([1.0, 0.3]),
                               np.array([0.5, 0.0]), cfg, law="classic")
    radii = np.linalg.norm(traj.states, axis=1)
    assert float(np.max(radii)) <= 1.0 + 1e-9
    # it does reach and ride the boundary
    assert float(np.max(radii)) >= 1.0 - 1e-9


def diverging_spec():
    # h = 1 - theta_1 under the nominal -theta_1^2 e1 from theta_1 = -1:
    # theta_1 = 1 / (t - 1) leaves every compact at t = 1, inside the set
    bf = BarrierFunction(lambda th: 1.0 - th[0],
                         grad=lambda th: np.array([-1.0, 0.0]))
    return ProjectionSpec(bf, linear_extended(1.0))


@pytest.mark.parametrize("law", ["classic", "qp", "optimal"])
def test_diverging_estimate_escapes_under_every_law(law):
    cfg = SimConfig(dt=1e-3, T=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = simulate_projection(diverging_spec(),
                                   lambda th, t: np.array([-th[0] ** 2, 0.0]),
                                   np.array([-1.0, 0.0]), cfg, law=law)
    assert traj.escape_time == pytest.approx(1.0, abs=2e-3)
    assert traj.n_samples == round(traj.escape_time / cfg.dt) + 1
    assert traj.times[-1] == traj.escape_time
    assert np.all(np.isfinite(traj.states))
    assert np.all(np.isnan(traj.controls[-1]))
    assert np.all(np.isfinite(traj.controls[:-1]))


@pytest.mark.parametrize("law", ["qp", "optimal"])
def test_projection_error_in_a_continuous_law_is_wrapped(law):
    # a flat gradient where the margin is negative: no correction exists
    bf = BarrierFunction(lambda th: -1.0, grad=lambda th: np.zeros(2))
    spec = ProjectionSpec(bf, linear_extended(1.0))
    with pytest.raises(SimulationError) as err:
        simulate_projection(spec, lambda th, t: np.array([1.0, 0.0]),
                            np.array([0.0, 0.0]), SimConfig(dt=0.1, T=1.0),
                            law=law)
    assert isinstance(err.value.__cause__, ProjectionError)


@pytest.mark.parametrize("law", ["qp", "optimal"])
def test_continuous_laws_are_integrate_ode_on_the_integrator(law):
    spec = ball_spec()
    u0_law = lambda th, t: np.array([1.0, 0.3])
    cfg = SimConfig(dt=1e-2, T=2.0)
    if law == "qp":
        control = lambda th, t: u0_law(th, t) + qp_projection(
            spec, th, u0_law(th, t))
    else:
        control = lambda th, t: inverse_optimal_update(spec, th,
                                                       u0_law(th, t))
    plant = ControlAffineSystem(2, 0, 2, lambda th: np.zeros(2), None,
                                lambda th: np.eye(2))
    want = integrate_ode(plant, spec.bf, control, u0_law,
                         np.array([0.5, 0.0]), None, cfg)
    got = simulate_projection(spec, u0_law, np.array([0.5, 0.0]), cfg,
                              law=law)
    for name in ("times", "states", "controls", "nominal", "h_values"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.escape_time is None
