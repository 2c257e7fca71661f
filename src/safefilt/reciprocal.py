"""Filters phrased through a reciprocal barrier B, finite and positive
inside the safe set and unbounded at its boundary (B = 1/h for the
running example). Disturbance-free plants only: dx = (f + g u) dt.

Safety keeps dB/dt <= alpha_bar(1/B); the margin

    omega_tilde = L_{f+g u0} B - alpha_bar(1/B)

is positive where the nominal pushes toward the boundary, and the
filters cancel exactly that excess. Everything dualizes to the h-form
with omega = -h^2 * omega_tilde, which the tests exploit. The
RECIPROCAL family of `filters` (Family) reads (B, LfB, LgB) (_b_data)
and writes its data once: the sign-flipped pair (-omega_tilde, -LgB),
alpha_bar(h), h = 1/B and the cost factor c = -h^2, so the min-norm
rule and its certificate apply unchanged and the reciprocal cost is the
h-form one times -h^2; reciprocal_margin is its first two fields and
rcbf_qp_filter is Filter(RECIPROCAL, spec, MIN_NORM, spec.beta_gain),
raising RcbfViolation. Every entry keeps the one convention of
`filters`: one state or an (N, n) stack of them, and on a stack one
entry per row, equal bit for bit to the calls at each row.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .comparison import elementwise
from .filters import (MIN_NORM, Family, _apply, _at, _check_gains, _u0_at,
                      _weighted, margin, min_norm_certificate)
from .systems import (BarrierFunction, SafefiltError, _as_state, _guard,
                      _h_value, _products, at_rows, first_order_lie_rows)


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
    row, which raises its own error at the first bad row. At one state
    B, its gradient and the model run with numpy's warnings silenced, as
    in first_order_lie, and LgB is an (m2,) vector on every plant."""
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
    with _guard():  # the model, as first_order_lie
        Bv = _h_value(spec.B(x))
        if not (Bv > 0.0 and math.isfinite(Bv)):
            raise RcbfViolation("boundary contact: B = %g at x = %s" % (Bv, x))
        grad = BarrierFunction(spec.B, spec.gradB)._gradient_of(x)
        LfB, LgB = _products(spec.sys, x, grad)[:2]
    return Bv, LfB, np.array((LgB,)) if type(LgB) is float else LgB


def _reciprocal(spec, bdata, u0v):
    """The reciprocal family's data (omega, a, alpha_bar(h), h, -h^2) from
    bdata = (B, LfB, LgB), in h = 1/B coordinates: (omega, a) =
    (-omega_tilde, -LgB), so that omega_tilde + LgB.v <= 0 reads omega +
    a.v >= 0, the margin with drift -LfB and alpha_bar(1/B)."""
    Bv, LfB, LgB = bdata
    h = 1.0 / Bv
    alpha_h = elementwise(spec.alpha_bar, h)
    # -h^2 in floats, row by row on a stack: an overflow is -inf there
    # as at one state, with no warning
    c = -h * h if type(h) is float else elementwise(lambda v: -v * v, h)
    return margin(-LfB, -LgB, u0v, alpha_h) + (alpha_h, h, c)


RECIPROCAL = Family(_b_data, _reciprocal, RcbfViolation)
# reciprocal-min's certificate data, stacked over the rows of x and u0v
_reciprocal_min_data = RECIPROCAL.data


def reciprocal_margin(spec, bdata, u0v):
    """(omega, a) = (-omega_tilde, -LgB) of the reciprocal family."""
    return _reciprocal(spec, bdata, u0v)[:2]


def omega_tilde(spec, x, t):
    return -reciprocal_margin(spec, *_at(RECIPROCAL, spec, x, t))[0]


def rcbf_qp_filter(spec, x, t):
    """Full control: nominal minus beta times the min-norm excess."""
    return _apply(RECIPROCAL, spec, MIN_NORM, spec.beta_gain, x, t)


def rcbf_inverse_optimal(spec, x, t):
    """u = u0 - beta * Rbar^{-1} LgB'."""
    bdata, u0v = _at(RECIPROCAL, spec, x, t)
    return u0v - spec.beta_gain * _weighted(spec.Rbar, x, u0v, bdata[2])[1]


def rcbf_condition(spec, x, t):
    """Margin alpha_bar(1/B) - L_{f+g u0}B + Sbar; >= 0 certifies the
    scaled correction keeps B finite."""
    bdata, u0v = _at(RECIPROCAL, spec, x, t)
    return (reciprocal_margin(spec, bdata, u0v)[0]
            + _weighted(spec.Rbar, x, u0v, bdata[2])[2])


def _weights(spec, x, u0v):
    """(Rbar, lbar = -h^2 l, h, alpha_bar(h)): filters.min_norm_certificate
    at state x and nominal value u0v, with the family data's
    alpha_bar(h)."""
    omega, a, alpha_h, h, c = RECIPROCAL.data(spec, x, u0v)
    R, l = min_norm_certificate(spec.beta_gain, omega, a, alpha_h)
    return R, c * l, h, alpha_h


def reciprocal_weights(spec, x, u0v):
    """(Rbar, lbar = -h^2 l, h) of filters.min_norm_certificate at state
    x and nominal value u0v."""
    return _weights(spec, x, u0v)[:3]


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
    """lbar minus its floor -(2 beta/B^2) alpha_bar(1/B); nonnegative.
    The floor reads alpha_bar(1/B) off the family data."""
    _, lbar, h, alpha_h = _weights(spec, x, _u0_at(spec, x, t))
    return lbar + 2.0 * spec.beta_gain * h * h * alpha_h
