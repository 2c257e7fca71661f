"""Non-overshooting regulation toward the boundary of the safe set.

The nominal is assumed to already push h down fast enough
(omega0 <= 0, sampled, not enforced); the filter only guards the floor.
The result is a two-sided sandwich on the h-dynamics: decay at least
as fast as alpha0, never faster than alpha, both sides degraded by the
disturbance through rho0/rho. With the correction active the lower
edge is attained exactly, which the tests lean on.

Policies here are time-invariant: u0 takes the state only. Each filter
returns u0 plus the unit-gain min-norm correction of one floor margin.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .filters import MIN_NORM, correct, dssf_margin
from .stochastic import generator_margin, nssf_margin
from .systems import lie_data


@dataclass(frozen=True)
class SandwichSpec:
    sys: object
    bf: object
    u0: Callable          # x -> (m2,)
    rho0: object
    rho: object
    alpha0: object
    alpha: object


def _parts(spec, x):
    ld = lie_data(spec.sys, spec.bf, x)
    u0v = np.atleast_1d(np.asarray(spec.u0(x), dtype=float))
    drift = ld.Lfh + float(ld.Lg2h @ u0v)
    return ld, u0v, drift


def omega0(spec, x):
    """Upper-side margin of the nominal; <= 0 means the nominal already
    drives h down at rate alpha0 whenever h sits above its rho0-ball."""
    ld, _, drift = _parts(spec, x)
    nrm = float(np.linalg.norm(ld.Lg1h))
    return (drift + nrm * spec.rho0.inverse(max(0.0, ld.h_val))
            + spec.alpha0(ld.h_val))


def omega_no(spec, x):
    """Floor-side margin; negative where the filter must act."""
    ld, u0v, _ = _parts(spec, x)
    return dssf_margin(spec, ld, u0v)[0]


def sandwich_filter(spec, x):
    """Full control guarding only the floor (unit corrective gain)."""
    ld, u0v, _ = _parts(spec, x)
    return u0v + correct(*dssf_margin(spec, ld, u0v), MIN_NORM, RuntimeError)


def nominal_decay_margin(spec, x):
    """-omega0; sample-check >= 0 over the operating set."""
    return -omega0(spec, x)


def gain_separation_margin(spec, x):
    """alpha(h) - alpha0(h)
       - ||Lg1h|| (rho^{-1}(max{0,-h}) + rho0^{-1}(max{0,h}));
    sample-check >= 0 so the two tube edges cannot cross."""
    ld = _parts(spec, x)[0]
    return _separation(spec, ld.h_val, float(np.linalg.norm(ld.Lg1h)))


def _separation(spec, h, weight):
    return (spec.alpha(h) - spec.alpha0(h)
            - weight * (spec.rho.inverse(max(0.0, -h))
                        + spec.rho0.inverse(max(0.0, h))))


# ---------------------------------------------------------------------------
# Ito version: the disturbance channel carries noise instead, and the
# curvature term enters either at its Frobenius worst (unknown
# covariance) or exactly (identity covariance).
# ---------------------------------------------------------------------------

def stoch_omega0(spec, x):
    ld, _, drift = _parts(spec, x)
    return (drift + 0.5 * ld.frob_term * spec.rho0.inverse(max(0.0, ld.h_val))
            + spec.alpha0(ld.h_val))


def stoch_omega(spec, x):
    """Floor margin against an unknown covariance (the NSSF margin)."""
    ld, u0v, _ = _parts(spec, x)
    return nssf_margin(spec, ld, u0v)[0]


def omega0_exact(spec, x):
    """Upper margin with the true identity-covariance trace term."""
    ld, _, drift = _parts(spec, x)
    return drift + ld.trace_term + spec.alpha0(ld.h_val)


def omega_exact(spec, x):
    ld, u0v, _ = _parts(spec, x)
    return generator_margin(spec, ld, u0v)[0]


def stoch_sandwich_filter(spec, x, exact_trace=False):
    """Floor-guarding control for the Ito loop.

    exact_trace selects the identity-covariance margin; then, wherever
    the correction is active, the generator of h equals -alpha(h)
    exactly, and under omega0_exact <= 0 it stays below -alpha0(h)
    everywhere the output is still above the floor (h >= 0).
    """
    ld, u0v, _ = _parts(spec, x)
    margin = generator_margin if exact_trace else nssf_margin
    return u0v + correct(*margin(spec, ld, u0v), MIN_NORM, RuntimeError)


def stoch_gain_separation_margin(spec, x):
    ld = _parts(spec, x)[0]
    return _separation(spec, ld.h_val, 0.5 * ld.frob_term)
