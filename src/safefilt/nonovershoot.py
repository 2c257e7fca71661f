"""Non-overshooting regulation toward the boundary of the safe set.

The nominal is assumed to already push h down fast enough
(omega0 <= 0, sampled, not enforced); the filter only guards the floor.
The result is a two-sided sandwich on the h-dynamics: decay at least
as fast as alpha0, never faster than alpha, both sides degraded by the
disturbance through rho0/rho. With the correction active the lower
edge is attained exactly, which the tests lean on.

Policies here are time-invariant: u0 takes the state only. Every margin
is filters.margin; the upper ones take alpha0 and rho0. Each filter
returns u0 plus the unit-gain min-norm correction of one floor margin.
Every margin and filter keeps the one convention of `filters`: one
state or an (N, n) stack of them, and on a stack one entry per row,
equal bit for bit to the calls at each row (u0 is still called row by
row).
"""

from dataclasses import dataclass
from typing import Callable

from .comparison import elementwise
from .filters import (MIN_NORM, _filtered, _lie, _lie1, budget, dssf_margin,
                      margin)
from .stochastic import generator_margin, nssf_margin
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


def _parts(spec, x, lie=_lie):
    """(Lie data, u0) at a state, or their stacks at each row of an
    (N, n) stack of states, u0 called and checked row by row. lie reads
    the Lie data: filters._lie, with the Ito terms, for the Ito entries,
    and filters._lie1, the first-order data, for the deterministic
    sandwich, which reads no Hessian."""
    ld, m2 = lie(spec.sys, spec.bf, x), spec.sys.m2
    if ld.Lg2h.ndim == 2:  # a stack
        return ld, call_rows(lambda row, t: spec.u0(row), x, None, m2, "u0")
    return ld, _as_state(spec.u0(x), m2, "u0")


def omega0(spec, x):
    """Upper-side margin of the nominal, side ||Lg1h|| budget(rho0, h);
    <= 0 means the nominal already drives h down at rate alpha0 whenever
    h sits above its rho0-ball."""
    ld, u0v = _parts(spec, x, _lie1)
    side = row_norm(ld.Lg1h) * budget(spec.rho0, ld.h_val)
    return margin(ld.Lfh, ld.Lg2h, u0v, elementwise(spec.alpha0, ld.h_val),
                  side)[0]


def omega_no(spec, x):
    """Floor-side margin; negative where the filter must act."""
    return dssf_margin(spec, *_parts(spec, x, _lie1))[0]


def sandwich_filter(spec, x):
    """Full control guarding only the floor (unit corrective gain)."""
    ld, u0v = _parts(spec, x, _lie1)
    return _filtered(u0v, 1.0, *dssf_margin(spec, ld, u0v), MIN_NORM,
                     RuntimeError)


def nominal_decay_margin(spec, x):
    """-omega0; sample-check >= 0 over the operating set."""
    return -omega0(spec, x)


def gain_separation_margin(spec, x):
    """alpha(h) - alpha0(h)
       - ||Lg1h|| (rho^{-1}(max{0,-h}) + rho0^{-1}(max{0,h}));
    sample-check >= 0 so the two tube edges cannot cross."""
    ld = _parts(spec, x, _lie1)[0]
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
    return margin(ld.Lfh, ld.Lg2h, u0v, elementwise(spec.alpha0, ld.h_val),
                  side)[0]


def stoch_omega(spec, x):
    """Floor margin against an unknown covariance (the NSSF margin)."""
    return nssf_margin(spec, *_parts(spec, x))[0]


def omega0_exact(spec, x):
    """Upper margin with the true identity-covariance trace term."""
    ld, u0v = _parts(spec, x)
    return margin(ld.Lfh, ld.Lg2h, u0v, elementwise(spec.alpha0, ld.h_val),
                  ld.trace_term)[0]


def omega_exact(spec, x):
    return generator_margin(spec, *_parts(spec, x))[0]


def stoch_sandwich_filter(spec, x, exact_trace=False):
    """Floor-guarding control for the Ito loop.

    exact_trace selects the identity-covariance margin; then, wherever
    the correction is active, the generator of h equals -alpha(h)
    exactly, and under omega0_exact <= 0 it stays below -alpha0(h)
    everywhere the output is still above the floor (h >= 0).
    """
    ld, u0v = _parts(spec, x)
    floor = generator_margin if exact_trace else nssf_margin
    return _filtered(u0v, 1.0, *floor(spec, ld, u0v), MIN_NORM, RuntimeError)


def stoch_gain_separation_margin(spec, x):
    ld = _parts(spec, x)[0]
    return _separation(spec, ld.h_val, 0.5 * ld.frob_term)
