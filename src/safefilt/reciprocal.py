"""Filters phrased through a reciprocal barrier B, finite and positive
inside the safe set and unbounded at its boundary (B = 1/h for the
running example). Disturbance-free plants only: dx = (f + g u) dt.

Safety keeps dB/dt <= alpha_bar(1/B); the margin

    omega_tilde = L_{f+g u0} B - alpha_bar(1/B)

is positive where the nominal pushes toward the boundary, and the
filters cancel exactly that excess. Everything dualizes to the h-form
with omega = -h^2 * omega_tilde, which the tests exploit.
reciprocal_margin hands filters.correct the sign-flipped pair
(-omega_tilde, -LgB), so the min-norm rule and its certificate apply
unchanged; the reciprocal cost is the h-form one times -h^2. Every
entry keeps the one convention of `filters`: one state or an (N, n)
stack of them, and on a stack one entry per row, equal bit for bit to
the calls at each row.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .comparison import elementwise
from .filters import (MIN_NORM, _check_gains, _u0_at, _weighted, correct,
                      margin, min_norm_certificate)
from .systems import (BarrierFunction, SafefiltError, _as_state, at_rows,
                      first_order_lie_rows)


class RcbfViolation(SafefiltError, RuntimeError):
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
        _check_gains(self.beta_gain)


def _b_data(spec, x):
    """(B, LfB, LgB) at state x, or stacked over the rows of an (N, n) x:
    there the first-order lie data of B (m1 = 0, so the same model
    calls), and where that fails or B leaves (0, inf), _b_data row by
    row, which raises its own error at the first bad row."""
    if type(x) is np.ndarray and x.ndim == 2:
        try:
            ld = first_order_lie_rows(
                spec.sys, BarrierFunction(spec.B, spec.gradB), x)
        except Exception:
            # whatever failed, the row-by-row pass below meets it first
            # as _b_data does, and raises _b_data's own error
            ld = None
        if ld is not None and (ld.h_val > 0.0).all():
            return ld.h_val, ld.Lfh, ld.Lg2h
        return at_rows(partial(_b_data, spec), x)
    x = _as_state(x, spec.sys.n)
    Bv = float(spec.B(x))
    if not (Bv > 0.0 and math.isfinite(Bv)):
        raise RcbfViolation("boundary contact: B = %g at x = %s" % (Bv, x))
    grad = BarrierFunction(spec.B, spec.gradB)._gradient_of(x)
    LfB = float(grad @ spec.sys._f_of(x))
    return Bv, LfB, grad @ spec.sys._g2_of(x)


def reciprocal_margin(spec, bdata, u0v):
    """(omega, a) = (-omega_tilde, -LgB) from bdata = (B, LfB, LgB), so
    that omega_tilde + LgB.v <= 0 reads omega + a.v >= 0: the margin
    with drift -LfB and alpha_bar(1/B)."""
    Bv, LfB, LgB = bdata
    return margin(-LfB, -LgB, u0v, elementwise(spec.alpha_bar, 1.0 / Bv))


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
    return u0v - spec.beta_gain * _weighted(spec.Rbar, x, u0v, LgB)[1]


def rcbf_condition(spec, x, t):
    """Margin alpha_bar(1/B) - L_{f+g u0}B + Sbar; >= 0 certifies the
    scaled correction keeps B finite."""
    (_, _, LgB), u0v, (omega, _) = _margin_at(spec, x, t)
    return omega + _weighted(spec.Rbar, x, u0v, LgB)[2]


def _reciprocal_min_data(spec, x, u0v):
    """reciprocal-min's certificate data (omega, a, alpha_bar(h), h, -h^2)
    in h = 1/B coordinates; stacked over the rows of stacked x, u0v."""
    Bv, LfB, LgB = _b_data(spec, x)
    h = 1.0 / Bv
    alpha_h = elementwise(spec.alpha_bar, h)
    return margin(-LfB, -LgB, u0v, alpha_h) + (alpha_h, h, -h * h)


def reciprocal_weights(spec, x, u0v):
    """(Rbar, lbar = -h^2 l, h) of filters.min_norm_certificate at state
    x and nominal value u0v."""
    omega, a, alpha_h, h, c = _reciprocal_min_data(spec, x, u0v)
    R, l = min_norm_certificate(spec.beta_gain, omega, a, alpha_h)
    return R, c * l, h


def rcbf_weights(spec, x, t):
    """Min-norm certificate weight Rbar (infinite off the constraint)
    and the matching state penalty lbar."""
    return reciprocal_weights(spec, x, _u0_at(spec, x, t))[:2]


def rcbf_penalty_l(spec, x, t):
    """State penalty lbar = -h^2 l (h = 1/B, l of min_norm_certificate)
    of the cost the min-norm filter minimizes; lbar >= -(2 beta / B^2)
    alpha_bar(1/B), tight on the constraint."""
    return rcbf_weights(spec, x, t)[1]


def rcbf_penalty_bound_gap(spec, x, t):
    """lbar minus its floor -(2 beta/B^2) alpha_bar(1/B); nonnegative."""
    _, lbar, h = reciprocal_weights(spec, x, _u0_at(spec, x, t))
    return lbar + 2.0 * spec.beta_gain * h * h * elementwise(spec.alpha_bar, h)
