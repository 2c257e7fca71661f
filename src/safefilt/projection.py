"""Safe parameter-estimate updates: keep theta_hat in {h >= 0}.

Three laws for the update direction, given a nominal u0:

  * classic_projection: discontinuous, acts only on the boundary and
    only against outward nominals, removing the normal component;
  * qp_projection: a continuous min-norm variant that also acts in a
    boundary layer where -grad.u0 exceeds alpha(h);
  * inverse_optimal_update: nominal plus beta times the qp fix,
    minimizing a meaningful cost (beta >= 2).

The continuous laws, projection_margin and projection_penalty_l keep
the one convention of `filters`: one estimate and nominal, or (N, p)
stacks of them, and on stacks one entry per row, equal bit for bit to
the calls at each row. classic_projection, an event law, takes one
estimate only.

simulate_projection integrates d theta_hat/dt = u: the continuous laws
are integrate_ode on that integrator plant (f = 0, g2 = I) with u0 as
the nominal. The classic law locates the boundary by bisection and
then slides tangentially until the nominal points inward again, as a
(sample, step) pair on sim's one loop.
"""

from dataclasses import dataclass

import numpy as np

from .comparison import elementwise
from .filters import (MIN_NORM, _check_gains, correct, margin,
                      min_norm_certificate)
from .sim import _alloc, _record, _rk4, _run, integrate_ode
from .systems import ControlAffineSystem, SafefiltError, _as_state, at_rows

PROJ_BOUNDARY_TOL = 1e-12


class ProjectionError(SafefiltError, RuntimeError):
    """Projection undefined: estimate outside the set, or a flat
    gradient where the constraint is active."""


@dataclass(frozen=True)
class ProjectionSpec:
    bf: object
    alpha: object
    beta_gain: float = 2.0

    def __post_init__(self):
        _check_gains(self.beta_gain)


def _parts(theta_hat, u0_val):
    theta = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    u0v = np.atleast_1d(np.asarray(u0_val, dtype=float))
    if u0v.shape != theta.shape:
        raise ValueError("u0 shape %s, estimate shape %s"
                         % (u0v.shape, theta.shape))
    return theta, u0v


def _projection_min_data(spec, theta_hat, u0_val):
    """projection-min's certificate data (omega, grad h, alpha(h), h, -1),
    stacked over the rows of (N, p) estimates and nominal values."""
    theta, u0v = _parts(theta_hat, u0_val)
    g, h = at_rows(lambda th: (spec.bf.gradient(th), spec.bf.value(th)),
                   theta)
    alpha_h = elementwise(spec.alpha, h)
    # drift -0.0 adds exactly nothing: omega = grad h.u0 + alpha(h)
    return margin(-0.0, g, u0v, alpha_h) + (alpha_h, h, -1.0)


def projection_margin(spec, theta_hat, u0_val):
    """(omega, grad h) with omega = grad h . u0 + alpha(h); the
    continuous laws correct where omega < 0."""
    return _projection_min_data(spec, theta_hat, u0_val)[:2]


def classic_projection(spec, theta_hat, u0_val):
    """Correction of the discontinuous law; zero strictly inside. At one
    estimate only: the boundary test is an event, not a formula."""
    theta, u0v = _parts(theta_hat, u0_val)
    h = spec.bf.value(theta)
    act = spec.alpha(h)
    if act > PROJ_BOUNDARY_TOL:
        return np.zeros(u0v.shape)
    if act < -PROJ_BOUNDARY_TOL:
        raise ProjectionError("estimate outside the constraint set, h=%g" % h)
    # on the boundary the margin is the normal component grad h . u0
    g = spec.bf.gradient(theta)
    return correct(float(g @ u0v), g, MIN_NORM, ProjectionError)


def qp_projection(spec, theta_hat, u0_val):
    """Min-norm correction toward grad h, active where
    -grad.u0 > alpha(h); continuous in theta_hat."""
    return correct(*projection_margin(spec, theta_hat, u0_val), MIN_NORM,
                   ProjectionError)


def inverse_optimal_update(spec, theta_hat, u0_val):
    """Full update u0 + beta * qp_projection."""
    u0v = np.atleast_1d(np.asarray(u0_val, dtype=float))
    return u0v + spec.beta_gain * qp_projection(spec, theta_hat, u0_val)


def projection_penalty_l(spec, theta_hat, u0_val):
    """State penalty -l certified by the optimal update, with l of
    filters.min_norm_certificate; -l = 2 beta grad.u0 + beta^2
    max{0, -grad.u0 - alpha(h)}, and along that update the certified
    cost stays pinned at -2 beta h(theta_hat(0))."""
    omega, g, alpha_h, _, c = _projection_min_data(spec, theta_hat, u0_val)
    return c * min_norm_certificate(spec.beta_gain, omega, g, alpha_h)[1]


def simulate_projection(spec, u0_law, theta0, cfg, law="qp"):
    """Integrate d theta_hat/dt = u(theta_hat, t) under one of the laws
    ("classic", "qp", "optimal"), recording the applied u as the control
    and u0 as the nominal; every law records and escapes by sim's rules.
    """
    if law not in ("classic", "qp", "optimal"):
        raise ValueError("unknown law %r" % law)
    p = np.size(theta0)
    zero, eye = np.zeros(p), np.eye(p)
    plant = ControlAffineSystem(p, 0, p, lambda th: zero, None,
                                lambda th: eye)
    if law == "classic":
        return _simulate_classic(spec, u0_law, plant, theta0, cfg)
    if law == "qp":
        def control(th, t):
            u0v = u0_law(th, t)
            return u0v + qp_projection(spec, th, u0v)
    else:
        def control(th, t):
            return inverse_optimal_update(spec, th, u0_law(th, t))
    return integrate_ode(plant, spec.bf, control, u0_law, theta0, None, cfg)


def _simulate_classic(spec, u0_law, plant, theta0, cfg):
    """The classic law: the nominal field until a step would leave the
    set, that step bisected onto h = 0, then the sliding (tangential)
    field while the nominal points outward."""
    bf, dt, p = spec.bf, cfg.dt, plant.n

    def nominal(x, t):
        return _as_state(u0_law(x, t), p, "u0")

    def sliding(x, t):
        u0v = nominal(x, t)
        g = bf.gradient(x)
        return u0v + correct(float(g @ u0v), g, MIN_NORM, ProjectionError)

    def step(k, t, th, s):
        nonlocal pinned
        u0v, uv = traj.nominal[k], s[0]
        if pinned and float(bf.gradient(th) @ u0v) >= 0.0:
            pinned = False
        if pinned:
            return _rk4(sliding, th, t, dt, uv)
        cand = _rk4(nominal, th, t, dt, u0v)
        if bf.value(cand) >= 0.0:
            return cand
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if bf.value(_rk4(nominal, th, t, mid * dt, u0v)) >= 0.0:
                lo = mid
            else:
                hi = mid
        pinned = True
        return _rk4(nominal, th, t, lo * dt, u0v)

    traj = _alloc(cfg.n_steps + 1, p, p, 0)
    th = _as_state(theta0, p, "theta0").copy()
    pinned = abs(bf.value(th)) <= PROJ_BOUNDARY_TOL
    return _run(traj, cfg, th,
                lambda k, t, th: _record(traj, k, t, th, plant, bf,
                                         sliding if pinned else nominal,
                                         nominal, None, cfg.escape_threshold),
                step)
