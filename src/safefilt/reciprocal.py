"""Filters phrased through a reciprocal barrier B, finite and positive
inside the safe set and unbounded at its boundary (B = 1/h for the
running example). Disturbance-free plants only: dx = (f + g u) dt.

Safety keeps dB/dt <= alpha_bar(1/B); the margin

    omega_tilde = L_{f+g u0} B - alpha_bar(1/B)

is positive where the nominal pushes toward the boundary, and the
filters cancel exactly that excess. Everything dualizes to the h-form
with omega = -h^2 * omega_tilde, which the tests exploit.

An RcbfSpec builds its barrier once, as spec.bf: its h is B, read
through a boundary-contact check that raises RcbfViolation("boundary
contact: B = ... at x = ...") where B is not in (0, inf), before the
gradient is called, and its gradient is gradB, or the central
difference of B itself. The RECIPROCAL family of `filters` (Family)
reads the first-order Lie data of that barrier by the state read of CBF
and DSSF (filters._first_order_read), so (B, LfB, Lg1h, LgB) shares the
loop memo, the float route at one state of a scalar plant and the
finiteness check: a non-finite LfB or LgB is ModelBlowup.
RECIPROCAL.read (also _b_data) gives that FirstOrderLie with its public
arrays. The family writes its data once: the sign-flipped pair
(-omega_tilde, -LgB), alpha_bar(h), h = 1/B and the cost factor
c = -h^2, so the min-norm rule and its certificate apply unchanged and
the reciprocal cost is the h-form one times -h^2; reciprocal_margin is
its first two fields and rcbf_qp_filter is Filter(RECIPROCAL, spec,
MIN_NORM, spec.beta_gain), raising RcbfViolation. Every entry keeps the
one convention of `filters`: one state or an (N, n) stack of them, and
on a stack one entry per row, equal bit for bit to the calls at each
row; a stack raises what its lowest bad row raises alone.
"""

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from .comparison import elementwise
from .filters import (MIN_NORM, Family, _apply, _at, _check_gains,
                      _first_order_read, _plus, _u0_at, _weighted, margin,
                      min_norm_certificate)
from .systems import BarrierFunction, SafefiltError, _h_value


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
    # the barrier of the state read: h = B, checked for boundary contact
    bf: BarrierFunction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sys.m1 != 0:
            raise ValueError("reciprocal filters assume no disturbance "
                             "channel (m1 = 0), got m1 = %d" % self.sys.m1)
        _check_gains(self.beta_gain)
        grad = (BarrierFunction(self.B)._gradient_of if self.gradB is None
                else self.gradB)
        object.__setattr__(self, "bf", BarrierFunction(
            partial(_contact_checked, self.B), grad))


def _contact_checked(B, x):
    """B(x) as a float, RcbfViolation unless it lies in (0, inf): the h
    of the spec's barrier, read before its gradient."""
    Bv = _h_value(B(x))
    if not (Bv > 0.0 and math.isfinite(Bv)):
        raise RcbfViolation("boundary contact: B = %g at x = %s" % (Bv, x))
    return Bv


def _reciprocal(spec, bdata, u0v):
    """The reciprocal family's data (omega, a, alpha_bar(h), h, -h^2) from
    B's first-order Lie data bdata, whose first, second and last fields
    are B, LfB and LgB, in h = 1/B coordinates: (omega, a) =
    (-omega_tilde, -LgB), so that omega_tilde + LgB.v <= 0 reads omega +
    a.v >= 0, the margin with drift -LfB and alpha_bar(1/B)."""
    Bv, LfB, LgB = bdata[0], bdata[1], bdata[-1]
    h = 1.0 / Bv
    alpha_h = elementwise(spec.alpha_bar, h)
    # -h^2 in floats, row by row on a stack: an overflow is -inf there
    # as at one state, with no warning
    c = -h * h if type(h) is float else elementwise(lambda v: -v * v, h)
    return margin(-LfB, -LgB, u0v, alpha_h) + (alpha_h, h, c)


RECIPROCAL = Family(_first_order_read, _reciprocal, RcbfViolation)
# the family's public read and data; certify's reciprocal-min reads the
# data through _min_norm(RECIPROCAL)
_b_data, _reciprocal_min_data = RECIPROCAL.read, RECIPROCAL.data


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
    return _plus(u0v, -spec.beta_gain,
                 _weighted(spec.Rbar, x, u0v, bdata[-1])[1])


def rcbf_condition(spec, x, t):
    """Margin alpha_bar(1/B) - L_{f+g u0}B + Sbar; >= 0 certifies the
    scaled correction keeps B finite."""
    bdata, u0v = _at(RECIPROCAL, spec, x, t)
    return (reciprocal_margin(spec, bdata, u0v)[0]
            + _weighted(spec.Rbar, x, u0v, bdata[-1])[2])


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
