"""Filters phrased through a reciprocal barrier B, finite and positive
inside the safe set and unbounded at its boundary (B = 1/h for the
running example). Disturbance-free plants only: dx = (f + g u) dt.

Safety keeps dB/dt <= alpha_bar(1/B); the margin

    omega_tilde = L_{f+g u0} B - alpha_bar(1/B)

is positive where the nominal pushes toward the boundary, and the
filters cancel exactly that excess. Everything dualizes to the h-form
with omega = -h^2 * omega_tilde, which the tests exploit.
reciprocal_margin hands filters.correct the sign-flipped pair
(-omega_tilde, -LgB), so the min-norm rule applies unchanged.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .filters import (MIN_NORM, Weight, _check_gains, _spd_weight, _u0_at,
                      correct)
from .systems import BarrierFunction, _as_state


class RcbfViolation(RuntimeError):
    """Boundary contact, or positive margin with no control authority."""


@dataclass(frozen=True)
class RcbfSpec:
    sys: object
    B: Callable
    alpha_bar: object
    u0: Callable
    gradB: Optional[Callable] = None
    Rbar: Optional[Callable] = None
    beta_gain: float = 2.0

    def __post_init__(self):
        if self.sys.m1 != 0:
            raise ValueError("reciprocal filters assume no disturbance "
                             "channel (m1 = 0), got m1 = %d" % self.sys.m1)
        _check_gains(self.beta_gain, 2.0)


def _b_data(spec, x):
    x = _as_state(x, spec.sys.n)
    Bv = float(spec.B(x))
    if not (Bv > 0.0 and math.isfinite(Bv)):
        raise RcbfViolation("boundary contact: B = %g at x = %s" % (Bv, x))
    grad = BarrierFunction(spec.B, spec.gradB).gradient(x)
    LfB = float(grad @ spec.sys.f_at(x))
    LgB = np.atleast_1d(grad @ spec.sys.g2_at(x))
    return Bv, LfB, LgB


def reciprocal_margin(spec, bdata, u0v):
    """(omega, a) = (-omega_tilde, -LgB) from bdata = (B, LfB, LgB), so
    that omega_tilde + LgB.v <= 0 reads omega + a.v >= 0."""
    Bv, LfB, LgB = bdata
    return -(LfB + float(LgB @ u0v) - spec.alpha_bar(1.0 / Bv)), -LgB


def _margin_at(spec, x, t):
    bdata = _b_data(spec, x)
    u0v = _u0_at(spec, x, t)
    return bdata, u0v, reciprocal_margin(spec, bdata, u0v)


def omega_tilde(spec, x, t):
    return -_margin_at(spec, x, t)[2][0]


def rcbf_qp_filter(spec, x, t):
    """Full control: nominal minus beta times the min-norm excess."""
    _, u0v, (omega, a) = _margin_at(spec, x, t)
    return u0v + spec.beta_gain * correct(omega, a, MIN_NORM, RcbfViolation)


def rcbf_inverse_optimal(spec, x, t):
    """u = u0 - beta * Rbar^{-1} LgB'."""
    LgB = _b_data(spec, x)[2]
    u0v = _u0_at(spec, x, t)
    R = _spd_weight(spec.Rbar, x, u0v, spec.sys.m2)
    return u0v - spec.beta_gain * np.linalg.solve(R, LgB)


def rcbf_condition(spec, x, t):
    """Margin alpha_bar(1/B) - L_{f+g u0}B + Sbar; >= 0 certifies the
    scaled correction keeps B finite."""
    (_, _, LgB), u0v, (omega, _) = _margin_at(spec, x, t)
    R = _spd_weight(spec.Rbar, x, u0v, spec.sys.m2)
    return omega + float(LgB @ np.linalg.solve(R, LgB))


def reciprocal_weights(spec, x, u0v):
    """(Rbar, lbar, B) at state x and nominal value u0v: the min-norm
    certificate weight, its state penalty (see rcbf_penalty_l) and the
    barrier value."""
    beta = spec.beta_gain
    bdata = _b_data(spec, x)
    omega, a = reciprocal_margin(spec, bdata, u0v)
    om = -omega
    h = 1.0 / bdata[0]
    lbar = h * h * (-2.0 * beta * spec.alpha_bar(h)
                    + beta * max((beta - 2.0) * om, -2.0 * om))
    return Weight.ratio(float(a @ a), max(0.0, om)), lbar, bdata[0]


def rcbf_weights(spec, x, t):
    """Min-norm certificate weight Rbar = ||LgB||^2 / max{0, omega_tilde}
    (infinite off the constraint) and the matching state penalty."""
    return reciprocal_weights(spec, x, _u0_at(spec, x, t))[:2]


def rcbf_penalty_l(spec, x, t):
    """State penalty of the cost the min-norm filter minimizes.

    In h = 1/B coordinates:

        lbar = h^2 (-2 beta alpha_bar(h)
                    + beta max{(beta-2) omega_tilde, -2 omega_tilde})

    so lbar >= -(2 beta / B^2) alpha_bar(1/B), tight on the constraint.
    """
    return rcbf_weights(spec, x, t)[1]


def rcbf_penalty_bound_gap(spec, x, t):
    """lbar minus its floor -(2 beta/B^2) alpha_bar(1/B); nonnegative."""
    _, lbar, Bv = reciprocal_weights(spec, x, _u0_at(spec, x, t))
    floor = -(2.0 * spec.beta_gain / (Bv * Bv)) * spec.alpha_bar(1.0 / Bv)
    return lbar - floor
