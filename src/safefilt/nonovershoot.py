"""Non-overshooting regulation toward the boundary of the safe set.

The nominal is assumed to already push h down fast enough
(omega0 <= 0, sampled, not enforced); the filter only guards the floor.
The result is a two-sided sandwich on the h-dynamics: decay at least
as fast as alpha0, never faster than alpha, both sides degraded by the
disturbance through rho0/rho. With the correction active the lower
edge is attained exactly, which the tests lean on.

Policies here are time-invariant: u0 takes the state only. The floor
margins are the families of `filters`: DSSF for the deterministic
sandwich and NSSF, or GENERATOR with the exact trace, for the Ito one.
Each filter is the family step at unit gain under the min-norm rule on
the nominal u0(x), and raises the family's violation class
(CbfViolation, or ScbfViolation for the Ito floors). The upper margins
are the same margin on the Lie data with alpha0 and a rho0 side term,
and belong to no family: no filter corrects them.
Every margin and filter keeps the one convention of `filters`: one
state or an (N, n) stack of them, and on a stack one entry per row,
equal bit for bit to the calls at each row (u0 is still called row by
row).
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .comparison import elementwise
from .filters import (DSSF, MIN_NORM, _apply, _at, _on_lie, budget,
                      dssf_margin)
from .stochastic import GENERATOR, NSSF, generator_margin, nssf_margin
from .systems import _as_state, call_rows, row_norm


@dataclass(frozen=True)
class SandwichSpec:
    sys: object
    bf: object
    u0: Callable          # x -> (m2,)
    rho0: object
    rho: object
    alpha0: object
    alpha: object


def _u0(spec, x, t=None):
    """u0(x) at a state, or at each row of an (N, n) stack of them,
    called and checked row by row: the time-invariant nominal, read as
    filters._u0_at reads u0(x, t)."""
    m2 = spec.sys.m2
    if type(x) is np.ndarray and x.ndim == 2:
        return call_rows(lambda row, t: spec.u0(row), x, None, m2, "u0")
    return _as_state(spec.u0(x), m2, "u0")


# (Lie data, u0) at a state, or their stacks at each row of an (N, n)
# stack of states, by filters._at: the Lie data read first, by NSSF's
# (GENERATOR's) state read, with the Ito terms, for the Ito entries, and
# by DSSF's, the first-order data, for the deterministic sandwich, which
# reads no Hessian
_parts = partial(_at, NSSF, t=None, nominal=_u0)
_first_order_parts = partial(_at, DSSF, t=None, nominal=_u0)


def omega0(spec, x):
    """Upper-side margin of the nominal, side ||Lg1h|| budget(rho0, h);
    <= 0 means the nominal already drives h down at rate alpha0 whenever
    h sits above its rho0-ball."""
    ld, u0v = _first_order_parts(spec, x)
    side = row_norm(ld.Lg1h) * budget(spec.rho0, ld.h_val)
    return _on_lie(spec, ld, u0v, side, spec.alpha0)[0]


def omega_no(spec, x):
    """Floor-side margin; negative where the filter must act."""
    return dssf_margin(spec, *_first_order_parts(spec, x))[0]


def sandwich_filter(spec, x):
    """Full control guarding only the floor (unit corrective gain)."""
    return _apply(DSSF, spec, MIN_NORM, 1.0, x, None, _u0)


def nominal_decay_margin(spec, x):
    """-omega0; sample-check >= 0 over the operating set."""
    return -omega0(spec, x)


def gain_separation_margin(spec, x):
    """alpha(h) - alpha0(h)
       - ||Lg1h|| (rho^{-1}(max{0,-h}) + rho0^{-1}(max{0,h}));
    sample-check >= 0 so the two tube edges cannot cross."""
    ld = DSSF.state(spec, x)
    return _separation(spec, ld.h_val, row_norm(ld.Lg1h))


def _separation(spec, h, weight):
    return (elementwise(spec.alpha, h) - elementwise(spec.alpha0, h)
            - weight * (budget(spec.rho, -h) + budget(spec.rho0, h)))


# ---------------------------------------------------------------------------
# Ito version: the disturbance channel carries noise instead, and the
# curvature term enters either at its Frobenius worst (unknown
# covariance) or exactly (identity covariance).
# ---------------------------------------------------------------------------

def stoch_omega0(spec, x):
    """Upper margin with side 0.5 ||g1' H g1||_F budget(rho0, h)."""
    ld, u0v = _parts(spec, x)
    side = 0.5 * ld.frob_term * budget(spec.rho0, ld.h_val)
    return _on_lie(spec, ld, u0v, side, spec.alpha0)[0]


def stoch_omega(spec, x):
    """Floor margin against an unknown covariance (the NSSF margin)."""
    return nssf_margin(spec, *_parts(spec, x))[0]


def omega0_exact(spec, x):
    """Upper margin with the true identity-covariance trace term."""
    ld, u0v = _parts(spec, x)
    return _on_lie(spec, ld, u0v, ld.trace_term, spec.alpha0)[0]


def omega_exact(spec, x):
    return generator_margin(spec, *_parts(spec, x))[0]


def stoch_sandwich_filter(spec, x, exact_trace=False):
    """Floor-guarding control for the Ito loop.

    exact_trace selects the identity-covariance margin; then, wherever
    the correction is active, the generator of h equals -alpha(h)
    exactly, and under omega0_exact <= 0 it stays below -alpha0(h)
    everywhere the output is still above the floor (h >= 0).
    """
    return _apply(GENERATOR if exact_trace else NSSF, spec, MIN_NORM, 1.0,
                  x, None, _u0)


def stoch_gain_separation_margin(spec, x):
    ld = NSSF.state(spec, x)
    return _separation(spec, ld.h_val, 0.5 * ld.frob_term)
