"""Safe parameter-estimate updates: keep theta_hat in {h >= 0}.

Three laws for the update direction, given a nominal u0:

  * classic_projection: discontinuous, acts only on the boundary and
    only against outward nominals, removing the normal component;
  * qp_projection: a continuous min-norm variant that also acts in a
    boundary layer where -grad.u0 exceeds alpha(h);
  * inverse_optimal_update: nominal plus beta times the qp fix,
    minimizing a meaningful cost (beta >= 2).

simulate_projection integrates d theta_hat/dt = u; for the classic law
the boundary is located by bisection and the update then slides
tangentially until the nominal points inward again.
"""

from dataclasses import dataclass

import numpy as np

from .filters import MIN_NORM, Weight, _check_gains, correct
from .sim import _alloc, _rk4

PROJ_BOUNDARY_TOL = 1e-12


class ProjectionError(RuntimeError):
    """Projection undefined: estimate outside the set, or a flat
    gradient where the constraint is active."""


@dataclass(frozen=True)
class ProjectionSpec:
    bf: object
    alpha: object
    beta_gain: float = 2.0

    def __post_init__(self):
        _check_gains(self.beta_gain, 2.0)


def _parts(theta_hat, u0_val):
    theta = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    u0v = np.atleast_1d(np.asarray(u0_val, dtype=float))
    if u0v.shape != theta.shape:
        raise ValueError("u0 shape %s, estimate shape %s"
                         % (u0v.shape, theta.shape))
    return theta, u0v


def projection_margin(spec, theta_hat, u0_val):
    """(omega, grad h) with omega = grad h . u0 + alpha(h); the
    continuous laws correct where omega < 0."""
    theta, u0v = _parts(theta_hat, u0_val)
    g = spec.bf.gradient(theta)
    return float(g @ u0v) + spec.alpha(spec.bf.value(theta)), g


def classic_projection(spec, theta_hat, u0_val):
    """Correction of the discontinuous law; zero strictly inside."""
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


def projection_weights(spec, theta_hat, u0_val):
    """(R, l): the min-norm certificate weight |grad h|^2 / max{0,-omega}
    (infinite where omega >= 0) and the state penalty l."""
    beta = spec.beta_gain
    theta, u0v = _parts(theta_hat, u0_val)
    omega, g = projection_margin(spec, theta, u0v)
    m = max(0.0, -omega)
    return (Weight.ratio(float(g @ g), m),
            2.0 * beta * float(g @ u0v) + beta * beta * m)


def projection_penalty_l(spec, theta_hat, u0_val):
    """State penalty certified by the optimal update:

        l = 2 beta grad.u0 + beta^2 max{0, -grad.u0 - alpha(h)}

    Along the optimal update the certified cost stays pinned at
    -2 beta h(theta_hat(0)).
    """
    return projection_weights(spec, theta_hat, u0_val)[1]


def simulate_projection(spec, u0_law, theta0, cfg, law="qp"):
    """Integrate d theta_hat/dt = u(theta_hat, t) under one of the laws
    ("classic", "qp", "optimal").

    The continuous laws run plain RK4 with the law at every stage. The
    classic law integrates the nominal field, bisects any boundary
    crossing onto h = 0, then slides along the projected (tangential)
    field while the nominal points outward.
    """
    if law not in ("classic", "qp", "optimal"):
        raise ValueError("unknown law %r" % law)
    p = np.atleast_1d(np.asarray(theta0, dtype=float)).size

    def u_qp(th, t):
        return u0_law(th, t) + qp_projection(spec, th, u0_law(th, t))

    def u_opt(th, t):
        return inverse_optimal_update(spec, th, u0_law(th, t))

    n_steps = cfg.n_steps
    dt = cfg.dt
    traj = _alloc(n_steps + 1, p, p, 0)
    th = np.atleast_1d(np.asarray(theta0, dtype=float)).copy()

    if law in ("qp", "optimal"):
        u_fn = u_qp if law == "qp" else u_opt
        for k in range(n_steps + 1):
            t = k * dt
            traj.times[k] = t
            traj.states[k] = th
            traj.nominal[k] = u0_law(th, t)
            traj.controls[k] = u_fn(th, t)
            traj.h_values[k] = spec.bf.value(th)
            if k < n_steps:
                th = _rk4(u_fn, th, t, dt)
        return traj

    # classic: nominal field off the boundary, located crossing, sliding
    def nominal_field(x, t):
        return np.atleast_1d(np.asarray(u0_law(x, t), dtype=float))

    def sliding_field(x, t):
        u0v = nominal_field(x, t)
        g = spec.bf.gradient(x)
        return u0v + correct(float(g @ u0v), g, MIN_NORM, ProjectionError)

    on_boundary = abs(spec.bf.value(th)) <= PROJ_BOUNDARY_TOL
    for k in range(n_steps + 1):
        t = k * dt
        traj.times[k] = t
        traj.states[k] = th
        traj.nominal[k] = nominal_field(th, t)
        # the applied field: sliding while pinned, nominal otherwise
        traj.controls[k] = (sliding_field(th, t) if on_boundary
                            else traj.nominal[k])
        traj.h_values[k] = spec.bf.value(th)
        if k == n_steps:
            break
        if on_boundary:
            g = spec.bf.gradient(th)
            if float(g @ nominal_field(th, t)) >= 0.0:
                on_boundary = False
        if on_boundary:
            th = _rk4(sliding_field, th, t, dt)
        else:
            cand = _rk4(nominal_field, th, t, dt)
            if spec.bf.value(cand) >= 0.0:
                th = cand
            else:
                # bisect the step fraction onto the boundary
                lo, hi = 0.0, 1.0
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if spec.bf.value(_rk4(nominal_field, th, t, mid * dt)) >= 0.0:
                        lo = mid
                    else:
                        hi = mid
                th = _rk4(nominal_field, th, t, lo * dt)
                on_boundary = True
    return traj
