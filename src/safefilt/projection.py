"""Safe parameter-estimate updates: keep theta_hat in {h >= 0}.

Three laws for the update direction, given a nominal u0:

  * classic_projection: discontinuous, acts only on the boundary and
    only against outward nominals, removing the normal component;
  * qp_projection: a continuous min-norm variant that also acts in a
    boundary layer where -grad.u0 exceeds alpha(h);
  * inverse_optimal_update: nominal plus beta times the qp fix,
    minimizing a meaningful cost (beta >= 2).

The continuous laws read the PROJECTION family of `filters` (Family):
its data (omega, grad h, alpha(h), h, -1) at an estimate and a nominal
value, written once (_projection_min_data), of which projection_margin
is the first two fields; its violation class is ProjectionError.
qp_projection is its min-norm correction and inverse_optimal_update the
family step at spec.beta_gain, both on the nominal value they are given
in place of u0(x, t). They, projection_margin and projection_penalty_l
keep the one convention of `filters`: one estimate and nominal, or (N, p)
stacks of them, and on stacks one entry per row, equal bit for bit to
the calls at each row. classic_projection, an event law, takes one
estimate only. Every barrier read here is checked: where h or grad h
is not finite, at one estimate or at the first such row of a stack, the
laws raise ModelBlowup("non-finite model data at x=...").

simulate_projection integrates d theta_hat/dt = u: the continuous laws
are integrate_ode on that integrator plant (f = 0, g2 = I) with u0 as
the nominal. The classic law locates the boundary by bisection and
then slides tangentially until the nominal points inward again, as a
(sample, step) pair on sim's one loop.
"""

from dataclasses import dataclass

import numpy as np

from .comparison import elementwise
from .filters import (MIN_NORM, Family, _check_gains, _filtered, correct,
                      margin, min_norm_certificate)
from .sim import _alloc, _record, _rk4, _run, integrate_ode
from .systems import (_F64, ControlAffineSystem, SafefiltError, _as_state,
                      _check_finite, _h_value, at_rows, row_dot)

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


def _checked(v):
    """v as a float array of at least one dimension; one that already
    is passes unchanged."""
    if type(v) is np.ndarray and v.dtype == _F64 and v.ndim:
        return v
    return np.atleast_1d(np.asarray(v, dtype=float))


def _parts(theta_hat, u0_val):
    """The estimate and the nominal value, checked once: the barrier is
    then read through bf._h and bf._gradient_of, which convert nothing."""
    theta, u0v = _checked(theta_hat), _checked(u0_val)
    if u0v.shape != theta.shape:
        raise ValueError("u0 shape %s, estimate shape %s"
                         % (u0v.shape, theta.shape))
    return theta, u0v


def _projection_min_data(spec, theta_hat, u0_val):
    """projection-min's certificate data (omega, grad h, alpha(h), h, -1),
    stacked over the rows of (N, p) estimates and nominal values."""
    theta, u0v = _parts(theta_hat, u0_val)
    g, h = at_rows(lambda th: _barrier_at(spec.bf, th), theta)
    alpha_h = elementwise(spec.alpha, h)
    # drift -0.0 adds exactly nothing: omega = grad h.u0 + alpha(h)
    return margin(-0.0, g, u0v, alpha_h) + (alpha_h, h, -1.0)


def _barrier_at(bf, theta):
    """(grad h, h) at one checked estimate, the gradient read first;
    ModelBlowup where one of them is not finite."""
    g, h = bf._gradient_of(theta), _h_value(bf._h(theta))
    _check_finite([h, *g.tolist()], theta)
    return g, h


# the projection family reads the estimate in its formula, once the
# estimate is checked against the nominal value
PROJECTION = Family(lambda spec, x: x, _projection_min_data, ProjectionError)


def projection_margin(spec, theta_hat, u0_val):
    """(omega, grad h) with omega = grad h . u0 + alpha(h); the
    continuous laws correct where omega < 0."""
    return _projection_min_data(spec, theta_hat, u0_val)[:2]


def classic_projection(spec, theta_hat, u0_val):
    """Correction of the discontinuous law; zero strictly inside. At one
    estimate only: the boundary test is an event, not a formula."""
    theta, u0v = _parts(theta_hat, u0_val)
    h = _h_value(spec.bf._h(theta))
    _check_finite([h], theta)
    act = spec.alpha(h)
    if act > PROJ_BOUNDARY_TOL:
        return np.zeros(u0v.shape)
    if act < -PROJ_BOUNDARY_TOL:
        raise ProjectionError("estimate outside the constraint set, h=%g" % h)
    # on the boundary the margin is the normal component grad h . u0
    g = spec.bf._gradient_of(theta)
    _check_finite(g.tolist(), theta)
    return correct(row_dot(g, u0v), g, MIN_NORM, ProjectionError)


def qp_projection(spec, theta_hat, u0_val):
    """Min-norm correction toward grad h, active where
    -grad.u0 > alpha(h); continuous in theta_hat."""
    return correct(*projection_margin(spec, theta_hat, u0_val), MIN_NORM,
                   ProjectionError)


def inverse_optimal_update(spec, theta_hat, u0_val):
    """Full update u0 + beta * qp_projection, by filters'
    filtered-control step."""
    return _filtered(_checked(u0_val), spec.beta_gain,
                     *projection_margin(spec, theta_hat, u0_val), MIN_NORM,
                     ProjectionError)


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
    beta = 1.0 if law == "qp" else spec.beta_gain

    def control(th, t):
        u0v = _checked(u0_law(th, t))
        return _filtered(u0v, beta, *projection_margin(spec, th, u0v),
                         MIN_NORM, ProjectionError)
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
        g = bf._gradient_of(x)
        return _filtered(u0v, 1.0, row_dot(g, u0v), g, MIN_NORM,
                         ProjectionError)

    def step(k, t, th, s):
        nonlocal pinned
        u0v, uv = traj.nominal[k], s[0]
        if pinned and row_dot(bf._gradient_of(th), u0v) >= 0.0:
            pinned = False
        if pinned:
            return _rk4(sliding, th, t, dt, uv)
        cand = _rk4(nominal, th, t, dt, u0v)
        if _h_value(bf._h(cand)) >= 0.0:
            return cand
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            cut = _rk4(nominal, th, t, mid * dt, u0v)
            if _h_value(bf._h(cut)) >= 0.0:
                lo = mid
            else:
                hi = mid
        pinned = True
        return _rk4(nominal, th, t, lo * dt, u0v)

    traj = _alloc(cfg.n_steps + 1, p, p, 0)
    th = _as_state(theta0, p, "theta0").copy()
    pinned = abs(_h_value(bf._h(th))) <= PROJ_BOUNDARY_TOL
    return _run(traj, cfg, th,
                lambda k, t, th: _record(traj, k, t, th, plant, bf,
                                         sliding if pinned else nominal,
                                         nominal, None, cfg.escape_threshold),
                step)
