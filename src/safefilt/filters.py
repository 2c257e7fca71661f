"""Deterministic safety filters and their optimality certificates.

Every filter in the package is one margin, one direction and one rule.
A margin function takes the nominal value u0 and returns (omega, a):
omega >= 0 where u0 is already safe, and a correction v moves the
margin to omega + a.v (a = Lg2h; -LgB for reciprocal barriers; grad h
for projection). `correct` turns (omega, a) into v by one rule:

    MIN_NORM     -(omega/|a|^2) a where omega < 0, else 0 (the QP)
    SONTAG       kappa(omega, |a|^2) a, Sontag's universal formula
    HALF_SONTAG  half of it: 0.5*(omega - sqrt(omega^2 + |a|^4)) + a.v = 0

and raises the caller's violation class where omega < 0 but
|a| < GRAD_ZERO_TOL. Here the plant is dx = (f + g1 d + g2 u) dt with
barrier h, safe set {h >= 0}, and dssf_margin is

    omega(x, u0) = Lfh + Lg2h.u0 - ||Lg1h|| rho^{-1}(max{0,-h}) + alpha(h)

  * qp_filter          min-norm correction
  * sontag_filter      universal-formula correction term
  * half_sontag_filter nominal plus half the universal correction
  * inverse_optimal_*  scaled corrections that minimize a meaningful cost

The inverse-optimal layer carries its own certificates: the pointwise
penalty l, the worst-case disturbance, the value-function residual of
the underlying game (identically zero up to roundoff), and the gap in
the disturbance-side Young inequality.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .comparison import LegendreFenchelPair, legendre_fenchel
from .systems import lie_data

GRAD_ZERO_TOL = 1e-12       # |a| below this means no control authority

MIN_NORM = "min-norm"
SONTAG = "sontag"
HALF_SONTAG = "half-sontag"


class CbfViolation(RuntimeError):
    """Safety constraint violated where the control has no authority."""


def sontag_kappa(omega, q):
    """Scalar gain of the universal formula, rationalized on each branch.

    q = ||a||^2. Zero when the control has no authority; the two
    branches are algebraically equal but avoid cancellation.
    """
    if q == 0.0:
        return 0.0
    root = math.hypot(omega, q)
    if omega < 0.0:
        return (-omega + root) / q
    return q / (omega + root)


def correct(omega, a, rule=MIN_NORM, error=CbfViolation):
    """Correction v of the nominal for margin omega along direction a.

    rule is MIN_NORM, SONTAG or HALF_SONTAG (see the module docstring).
    Raises `error` where omega < 0 and ||a|| < GRAD_ZERO_TOL: no
    correction can restore the margin there.
    """
    if rule == MIN_NORM and omega >= 0.0:
        return np.zeros(a.shape)
    q = float(a @ a)
    if omega < 0.0 and math.sqrt(q) < GRAD_ZERO_TOL:
        raise error("margin %g < 0 with no control authority (|a| = %g)"
                    % (omega, math.sqrt(q)))
    if rule == MIN_NORM:
        return -(omega / q) * a
    kappa = sontag_kappa(omega, q)
    if rule == HALF_SONTAG:
        kappa *= 0.5
    return kappa * a


def _u0_at(spec, x, t):
    u = np.atleast_1d(np.asarray(spec.u0(x, t), dtype=float))
    if u.shape != (spec.sys.m2,):
        raise ValueError("u0 shape %s, expected (%d,)" % (u.shape, spec.sys.m2))
    return u


def _check_gains(beta_gain, floor, lam=None):
    """ValueError unless beta_gain >= floor and lam, if given, in (0, 2]."""
    if beta_gain < floor:
        raise ValueError("beta_gain %g < %g" % (beta_gain, floor))
    if lam is not None and not (0.0 < lam <= 2.0):
        raise ValueError("lam must lie in (0, 2], got %g" % lam)


def _spd_weight(weight, x, u0v, m):
    """weight(x, u0v) as an (m, m) matrix, identity when weight is None."""
    if weight is None:
        return np.eye(m)
    W = np.asarray(weight(x, u0v), dtype=float).reshape(m, m)
    np.linalg.cholesky(W)  # raises unless symmetric positive definite
    return W


@dataclass(frozen=True)
class DssfCbfSpec:
    """Disturbance-robust barrier problem: system, barrier, gains, nominal.

    rho is the class-K disturbance gain (its inverse enters the margin),
    alpha the extended class-K barrier gain, u0 the nominal policy
    u0(x, t) -> (m2,).
    """
    sys: object
    bf: object
    rho: object
    alpha: object
    u0: Callable


def dssf_margin(spec, ld, u0v):
    """(omega, Lg2h) with the robust margin of the module docstring; any
    spec with rho and alpha, so also the deterministic sandwich floor."""
    robust = (float(np.linalg.norm(ld.Lg1h))
              * spec.rho.inverse(max(0.0, -ld.h_val)))
    omega = ld.Lfh + float(ld.Lg2h @ u0v) - robust + spec.alpha(ld.h_val)
    return omega, ld.Lg2h


def cbf_margin(spec, ld, u0v):
    """(omega, Lg2h) with the disturbance-free margin
    omega = Lfh + Lg2h.u0 + alpha(h)."""
    return ld.Lfh + float(ld.Lg2h @ u0v) + spec.alpha(ld.h_val), ld.Lg2h


def _dssf_at(spec, x, t):
    ld = lie_data(spec.sys, spec.bf, x)
    u0v = _u0_at(spec, x, t)
    return (u0v,) + dssf_margin(spec, ld, u0v)


def omega_dssf(spec, x, t):
    """The robust safety margin omega(x, u0(x,t))."""
    return _dssf_at(spec, x, t)[1]


def qp_filter(spec, x, t):
    """Min-norm safety correction ubar; apply u = u0 + ubar.

    Zero when the margin is already nonnegative, otherwise the unique
    minimizer of |ubar|^2 subject to omega + Lg2h.ubar >= 0.
    """
    _, omega, a = _dssf_at(spec, x, t)
    return correct(omega, a)


def qp_filter_affine_form(spec, x, t):
    """The filtered control as an affine map of the nominal value.

    Returns (chi0, chi1, active) with u = chi0 @ u0 + chi1. Off the
    constraint chi0 = I, chi1 = 0; on it chi0 projects out the Lg2h
    direction, so for m2 = 1 the nominal is overridden entirely.
    """
    u0v, omega, a = _dssf_at(spec, x, t)
    correct(omega, a)  # the authority guard
    m2 = spec.sys.m2
    if omega >= 0.0:
        return np.eye(m2), np.zeros(m2), False
    q = float(a @ a)
    chi0 = np.eye(m2) - np.outer(a, a) / q
    return chi0, -((omega - float(a @ u0v)) / q) * a, True


def sontag_filter(spec, x, t, include_u0=True):
    """Universal-formula correction term kappa(omega, q) * Lg2h.

    include_u0 picks whether omega is evaluated with the nominal drift
    (filter acts as a correction on top of u0) or without it (filter is
    the whole control). Either way only the correction is returned.
    """
    u0v, omega, a = _dssf_at(spec, x, t)
    if not include_u0:
        omega -= float(a @ u0v)
    return correct(omega, a, SONTAG)


def half_sontag_filter(spec, x, t):
    """u0 plus half the universal correction.

    Solves the conservative pointwise constraint
    0.5*(omega - sqrt(omega^2 + q^2)) + Lg2h.v = 0 with minimum norm.
    """
    u0v, omega, a = _dssf_at(spec, x, t)
    return u0v + correct(omega, a, HALF_SONTAG)


def inverse_optimal_qp(spec, beta_gain, x, t, allow_safety_only=False):
    """Full control u0 + beta * qp_filter.

    beta_gain >= 2 certifies optimality of a meaningful cost; the
    escape hatch allows beta_gain >= 1, which still certifies safety.
    """
    _check_gains(beta_gain, 1.0 if allow_safety_only else 2.0)
    u0v, omega, a = _dssf_at(spec, x, t)
    return u0v + beta_gain * correct(omega, a)


@dataclass(frozen=True)
class InverseOptimalSpec:
    """Inverse-optimal problem data on top of a DssfCbfSpec.

    gamma bounds the disturbance penalty (a class-Kinf pair with
    class-Kinf derivative), R2 the control weight as a callable
    (x, u0_val) -> SPD (m2, m2) matrix, identity when omitted.
    lam in (0, 2] scales the worst-case disturbance.
    """
    base: DssfCbfSpec
    beta_gain: float
    lam: float
    gamma: LegendreFenchelPair
    R2: Optional[Callable] = None
    allow_safety_only: bool = False

    def __post_init__(self):
        _check_gains(self.beta_gain, 1.0 if self.allow_safety_only else 2.0,
                     self.lam)


def _io_parts(iospec, x, u0v):
    """(ld, drift, R2, r2inv_l2h, S, ell, l) at state x and nominal
    value u0v; l is the state penalty."""
    base = iospec.base
    beta, lam = iospec.beta_gain, iospec.lam
    ld = lie_data(base.sys, base.bf, x)
    drift = ld.Lfh + float(ld.Lg2h @ u0v)
    R2 = _spd_weight(iospec.R2, x, u0v, base.sys.m2)
    r2inv_l2h = np.linalg.solve(R2, ld.Lg2h)
    S = float(ld.Lg2h @ r2inv_l2h)
    ell = legendre_fenchel(iospec.gamma, 2.0 * float(np.linalg.norm(ld.Lg1h)))
    l = (-2.0 * beta * (drift - ell + S)
         - beta * (2.0 - lam) * ell
         - beta * (beta - 2.0) * S)
    return ld, drift, R2, r2inv_l2h, S, ell, l


def inverse_optimal_general(iospec, x, t):
    """u = u0 + beta * R2^{-1} Lg2h'."""
    u0v = _u0_at(iospec.base, x, t)
    r2inv_l2h = _io_parts(iospec, x, u0v)[3]
    return u0v + iospec.beta_gain * r2inv_l2h


def inverse_optimal_condition(iospec, x, t):
    """Margin of the premise making the scaled correction safe:

        drift - ell_gamma(2||Lg1h||) + S + alpha(h) >= 0.

    Returned as-is so the caller decides whether to enforce or report.
    """
    ld, drift, _, _, S, ell, _ = _io_parts(iospec, x,
                                           _u0_at(iospec.base, x, t))
    return drift - ell + S + iospec.base.alpha(ld.h_val)


def worst_case_disturbance(iospec, x):
    """Maximizing disturbance of the softened game, feedback in x only."""
    ld = lie_data(iospec.base.sys, iospec.base.bf, x)
    nrm = float(np.linalg.norm(ld.Lg1h))
    if nrm < GRAD_ZERO_TOL:
        return np.zeros(iospec.base.sys.m1)
    v = iospec.gamma.gamma_prime_inv(2.0 * nrm)
    return -iospec.lam * v * ld.Lg1h / nrm


def qp_worst_case_disturbance(spec, lam, x):
    """Worst disturbance for the min-norm weights (rho-shaped penalty)."""
    ld = lie_data(spec.sys, spec.bf, x)
    nrm = float(np.linalg.norm(ld.Lg1h))
    if nrm < GRAD_ZERO_TOL:
        return np.zeros(spec.sys.m1)
    return -lam * spec.rho.inverse(max(0.0, -ld.h_val)) * ld.Lg1h / nrm


def game_weights(iospec, x, u0v):
    """Control weight R2 (matrix) and state penalty l of the disturbance
    game at state x and nominal value u0v."""
    terms = _io_parts(iospec, x, u0v)
    return terms[2], terms[-1]


def state_penalty_l(iospec, x, t):
    """Pointwise state penalty of the certified cost.

    Bounded above by 2*beta*alpha(h): large exactly where the barrier
    says motion is dangerous, possibly negative deep inside the safe set.
    """
    return game_weights(iospec, x, _u0_at(iospec.base, x, t))[1]


def hji_residual(iospec, x, t):
    """Residual of the game's value equation at one state.

    Identically zero by construction; evaluating it checks the wiring
    of l, S, and the transform against each other.
    """
    beta, lam = iospec.beta_gain, iospec.lam
    _, drift, _, _, S, ell, l = _io_parts(iospec, x,
                                          _u0_at(iospec.base, x, t))
    return drift + 0.5 * beta * S - 0.5 * lam * ell + l / (2.0 * beta)


def pi_gap(iospec, x, d):
    """Disturbance-side Young gap at the softened penalty.

        gamma(|d|/lam) + ell_gamma(2||Lg1h||) + (2/lam) Lg1h.d

    Nonnegative, zero exactly at the worst-case disturbance.
    """
    ld = lie_data(iospec.base.sys, iospec.base.bf, x)
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if d.shape != (iospec.base.sys.m1,):
        raise ValueError("disturbance shape %s, expected (%d,)"
                         % (d.shape, iospec.base.sys.m1))
    lam = iospec.lam
    ell = legendre_fenchel(iospec.gamma, 2.0 * float(np.linalg.norm(ld.Lg1h)))
    return (iospec.gamma.gamma(float(np.linalg.norm(d)) / lam)
            + ell + (2.0 / lam) * float(ld.Lg1h @ d))


@dataclass(frozen=True)
class Weight:
    """A cost weight that may be +inf off the constraint set.

    Infinite weights never enter float arithmetic here; whoever
    integrates the cost must pair them with a zero deviation.
    """
    value: float
    infinite: bool = False

    def __post_init__(self):
        if self.infinite:
            object.__setattr__(self, "value", math.inf)

    def __float__(self):
        if self.infinite:
            raise ValueError("infinite weight has no float value")
        return self.value

    @classmethod
    def ratio(cls, num, den):
        """num / den, infinite where den == 0."""
        return cls(math.inf, True) if den == 0.0 else cls(num / den)


def min_norm_weights(spec, x, u0v, beta_gain, lam):
    """qp_weights at state x and nominal value u0v."""
    ld = lie_data(spec.sys, spec.bf, x)
    omega, a = dssf_margin(spec, ld, u0v)
    rinv = spec.rho.inverse(max(0.0, -ld.h_val))
    l = (2.0 * beta_gain * spec.alpha(ld.h_val)
         + beta_gain * min(beta_gain * omega, -2.0 * omega)
         - beta_gain * (2.0 - lam) * float(np.linalg.norm(ld.Lg1h)) * rinv)
    return (Weight.ratio(1.0, rinv),
            Weight.ratio(float(a @ a), max(0.0, -omega)), l)


def qp_weights(spec, x, t, beta_gain=2.0, lam=2.0):
    """Weights (R1, R2, l) certifying the min-norm filter.

        R1 = 1 / rho^{-1}(max{0,-h})          (inf where h >= 0)
        R2 = ||Lg2h||^2 / max{0,-omega}       (inf where omega >= 0)
        l  = 2 beta alpha(h) + beta min{beta omega, -2 omega}
             - beta (2-lam) ||Lg1h|| rho^{-1}(max{0,-h})
    """
    return min_norm_weights(spec, x, _u0_at(spec, x, t), beta_gain, lam)


def scp_diagnostic(spec, points, t=0.0):
    """Sample the filter over points: largest correction and violations.

    A cheap continuity/feasibility sweep; a nonzero violation count
    means the barrier loses control authority somewhere it matters.
    """
    max_corr = 0.0
    violations = 0
    for x in points:
        try:
            ubar = qp_filter(spec, x, t)
        except CbfViolation:
            violations += 1
            continue
        max_corr = max(max_corr, float(np.linalg.norm(ubar)))
    return {"max_correction": max_corr, "violations": violations}
