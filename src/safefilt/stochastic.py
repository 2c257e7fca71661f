"""Safety filters for Ito diffusions.

Two problem classes share the machinery:

  * known covariance (StochSpec): dx = (f + g2 u) dt + g1 Sigma(t) dw,
    safety through the generator condition L h >= -alpha(h), where
    L h = Lfh + Lg2h.u + 0.5 Tr{Sigma' g1' H g1 Sigma}. Specs carry the
    nominal covariance Sigma = I; schedules enter through the
    simulator, the filters see the trace term of the plain g1 block.

  * unknown covariance (NssfSpec): the covariance is adversarial up to
    a Frobenius budget ||Sigma Sigma'||_F <= rho^{-1}(max{0,-h}), so
    the trace term is replaced by its worst value and the margin reads

        omega = Lfh + Lg2h.u0 + alpha(h)
                - 0.5 ||g1' H g1||_F rho^{-1}(max{0,-h}).

Each filter pairs generator_margin or nssf_margin with a rule of
filters.correct; its docstring says whether it returns the full
control or the correction alone. The inverse-optimal layer mirrors
the deterministic one: gamma2 shapes the control penalty, gamma1
(noise-to-state case) the covariance penalty, and the value-equation
residuals vanish identically.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .comparison import legendre_fenchel
from .filters import (GRAD_ZERO_TOL, MIN_NORM, SONTAG, _check_gains,
                      _spd_weight, _u0_at, correct)
from .systems import lie_data


class ScbfViolation(RuntimeError):
    """Generator condition violated with no control authority."""


@dataclass(frozen=True)
class StochSpec:
    sys: object
    bf: object
    alpha: object
    u0: Callable
    beta_gain: float = 1.0
    gamma2: Optional[object] = None
    R2: Optional[Callable] = None
    allow_safety_only: bool = False

    def __post_init__(self):
        _check_gains(self.beta_gain, 1.0)


def _at(spec, x, t):
    return lie_data(spec.sys, spec.bf, x), _u0_at(spec, x, t)


def generator_margin(spec, ld, u0v):
    """(omega, Lg2h) with omega = L h(u0) + alpha(h), Sigma = I; also the
    exact-trace floor of the stochastic sandwich filter."""
    omega = (ld.Lfh + float(ld.Lg2h @ u0v) + ld.trace_term
             + spec.alpha(ld.h_val))
    return omega, ld.Lg2h


def omega_sbfc(spec, x, t):
    """Generator margin at the nominal: Lfh + Lg2h.u0 + trace + alpha(h)."""
    return generator_margin(spec, *_at(spec, x, t))[0]


def stoch_qp_filter(spec, x, t):
    """Full control u0 + beta * min-norm fix of the generator margin."""
    ld, u0v = _at(spec, x, t)
    omega, a = generator_margin(spec, ld, u0v)
    return u0v + spec.beta_gain * correct(omega, a, MIN_NORM, ScbfViolation)


def stoch_sontag_filter(spec, x, t, include_u0=True):
    """Damping-style correction kappa * Lg2h on the generator margin;
    the correction only, not u0 + correction. include_u0 as in
    filters.sontag_filter."""
    ld, u0v = _at(spec, x, t)
    omega, a = generator_margin(spec, ld, u0v)
    if not include_u0:
        omega -= float(a @ u0v)
    return correct(omega, a, SONTAG, ScbfViolation)


# ---------------------------------------------------------------------------
# unknown covariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NssfSpec:
    sys: object
    bf: object
    alpha: object
    rho: object
    u0: Callable
    beta_gain: float = 1.0
    lam: float = 2.0
    gamma1: Optional[object] = None
    gamma2: Optional[object] = None
    R2: Optional[Callable] = None
    allow_safety_only: bool = False

    def __post_init__(self):
        _check_gains(self.beta_gain, 1.0, self.lam)


def nssf_margin(spec, ld, u0v):
    """(omega, Lg2h) with the worst-covariance margin of the module
    docstring."""
    budget = spec.rho.inverse(max(0.0, -ld.h_val))
    omega = (ld.Lfh + float(ld.Lg2h @ u0v) + spec.alpha(ld.h_val)
             - 0.5 * ld.frob_term * budget)
    return omega, ld.Lg2h


def omega_nssf(spec, x, t):
    """Margin with the covariance at its Frobenius-budget worst."""
    return nssf_margin(spec, *_at(spec, x, t))[0]


def nssf_qp_filter(spec, x, t):
    """Full control u0 + beta * min-norm fix of the NSSF margin."""
    ld, u0v = _at(spec, x, t)
    omega, a = nssf_margin(spec, ld, u0v)
    return u0v + spec.beta_gain * correct(omega, a, MIN_NORM, ScbfViolation)


def nssf_sontag_filter(spec, x, t):
    """Full control u0 + universal correction of the NSSF margin."""
    ld, u0v = _at(spec, x, t)
    omega, a = nssf_margin(spec, ld, u0v)
    return u0v + correct(omega, a, SONTAG, ScbfViolation)


def worst_case_covariance(spec, x):
    """Maximizing covariance (Sigma Sigma')* of the softened game.

    Aligned against the curvature block g1' H g1; zero where that block
    vanishes. Symmetric always, sign-definiteness is the caller's to
    inspect (min_eigenvalue) and report: the maximizer of the relaxed
    game need not be a legitimate covariance.
    """
    if spec.gamma1 is None:
        raise ValueError("worst-case covariance needs gamma1")
    ld = lie_data(spec.sys, spec.bf, x)
    if ld.frob_term < GRAD_ZERO_TOL:
        return np.zeros((spec.sys.m1, spec.sys.m1))
    v = spec.gamma1.gamma_prime_inv(ld.frob_term)
    M = -spec.lam * v * ld.g1_hess_g1 / ld.frob_term
    return 0.5 * (M + M.T)


def min_eigenvalue(M):
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(np.min(np.linalg.eigvalsh(M)))


def _value_core(spec, x, u0v):
    """(ld, drift, R2, r2inv_l2h, s, ell2), shared by both classes."""
    ld = lie_data(spec.sys, spec.bf, x)
    drift = ld.Lfh + float(ld.Lg2h @ u0v)
    R2 = _spd_weight(spec.R2, x, u0v, spec.sys.m2)
    r2inv_l2h = np.linalg.solve(R2, ld.Lg2h)
    s = math.sqrt(max(0.0, float(ld.Lg2h @ r2inv_l2h)))
    ell2 = legendre_fenchel(spec.gamma2, s)
    return ld, drift, R2, r2inv_l2h, s, ell2


def _scaled_control(spec, u0v, r2inv_l2h, s):
    """u0 + (beta/2) R2^{-1} Lg2h' (gamma2')^{-1}(s)/s; u0 where s ~ 0."""
    if s < GRAD_ZERO_TOL:
        return u0v
    gain = spec.gamma2.gamma_prime_inv(s) / s
    return u0v + 0.5 * spec.beta_gain * gain * r2inv_l2h


def _stoch_terms(spec, x, u0v):
    """_value_core plus the state penalty l of the stochastic value."""
    if spec.gamma2 is None:
        raise ValueError("inverse-optimal calls need gamma2")
    core = _value_core(spec, x, u0v)
    ld, drift, _, _, _, ell2 = core
    beta = spec.beta_gain
    l = (-2.0 * beta * (drift + ld.trace_term + ell2)
         - beta * (beta - 2.0) * ell2)
    return core + (l,)


def stoch_weights(spec, x, u0v):
    """(R2, l): control weight and state penalty of the Ito value."""
    terms = _stoch_terms(spec, x, u0v)
    return terms[2], terms[-1]


def stoch_inverse_optimal(spec, x, t):
    """u = u0 + (beta/2) R2^{-1} Lg2h' (gamma2')^{-1}(s)/s with
    s = |R2^{-1/2} Lg2h'|; just u0 where the barrier is control-blind.

    With gamma2(r) = r^2/4 and the min-norm weight for R2 this
    reproduces stoch_qp_filter wherever the constraint is active.
    """
    _check_gains(spec.beta_gain, 1.0 if spec.allow_safety_only else 2.0)
    u0v = _u0_at(spec, x, t)
    r2inv_l2h, s = _stoch_terms(spec, x, u0v)[3:5]
    return _scaled_control(spec, u0v, r2inv_l2h, s)


def stoch_io_condition(spec, x, t):
    """Premise margin drift + trace + ell_gamma2(s) + alpha(h) >= 0."""
    ld, drift, _, _, _, ell2, _ = _stoch_terms(spec, x, _u0_at(spec, x, t))
    return drift + ld.trace_term + ell2 + spec.alpha(ld.h_val)


def stoch_state_penalty_l(spec, x, t):
    return stoch_weights(spec, x, _u0_at(spec, x, t))[1]


def hjb_residual(spec, x, t):
    """Dynamic-programming residual of the certified value; zero by
    construction, evaluated as a wiring check."""
    beta = spec.beta_gain
    ld, drift, _, _, _, ell2, l = _stoch_terms(spec, x, _u0_at(spec, x, t))
    return drift + ld.trace_term + 0.5 * beta * ell2 + l / (2.0 * beta)


def _nssf_terms(spec, x, u0v):
    """_value_core plus ell1 = ell_gamma1(frob) and the state penalty l
    of the covariance game."""
    if spec.gamma1 is None or spec.gamma2 is None:
        raise ValueError("inverse-optimal calls need gamma1 and gamma2")
    _check_gains(spec.beta_gain, 1.0 if spec.allow_safety_only else 2.0)
    core = _value_core(spec, x, u0v)
    ld, drift, _, _, _, ell2 = core
    beta, lam = spec.beta_gain, spec.lam
    ell1 = legendre_fenchel(spec.gamma1, ld.frob_term)
    l = (-2.0 * beta * (drift - ell1 + ell2)
         - beta * (2.0 - lam) * ell1
         - beta * (beta - 2.0) * ell2)
    return core + (ell1, l)


def nssf_weights(spec, x, u0v):
    """(R2, l): control weight and state penalty of the covariance game."""
    terms = _nssf_terms(spec, x, u0v)
    return terms[2], terms[-1]


def nssf_inverse_optimal(spec, x, t):
    """stoch_inverse_optimal against an adversarial covariance; with
    gamma2(r) = r^2/4 and the min-norm weight for R2 it reproduces
    nssf_qp_filter wherever the constraint is active."""
    u0v = _u0_at(spec, x, t)
    r2inv_l2h, s = _nssf_terms(spec, x, u0v)[3:5]
    return _scaled_control(spec, u0v, r2inv_l2h, s)


def nssf_condition(spec, x, t):
    """Premise margin drift - ell_gamma1(frob) + ell_gamma2(s) + alpha(h)."""
    ld, drift, _, _, _, ell2, ell1, _ = _nssf_terms(spec, x,
                                                    _u0_at(spec, x, t))
    return drift - ell1 + ell2 + spec.alpha(ld.h_val)


def nssf_state_penalty_l(spec, x, t):
    return nssf_weights(spec, x, _u0_at(spec, x, t))[1]


def nssf_hji_residual(spec, x, t):
    beta, lam = spec.beta_gain, spec.lam
    _, drift, _, _, _, ell2, ell1, l = _nssf_terms(spec, x,
                                                   _u0_at(spec, x, t))
    return (drift - 0.5 * lam * ell1 + 0.5 * beta * ell2
            + l / (2.0 * beta))


# ---------------------------------------------------------------------------
# generator evaluation along simulated paths
# ---------------------------------------------------------------------------

def generator_h(sys, bf, x, u, Sigma=None):
    """L h at (x, u) under covariance factor Sigma (identity if None)."""
    ld = lie_data(sys, bf, x)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if Sigma is None:
        trace = ld.trace_term
    else:
        S = np.asarray(Sigma, dtype=float).reshape(sys.m1, sys.m1)
        trace = 0.5 * float(np.trace(S.T @ ld.g1_hess_g1 @ S))
    return ld.Lfh + float(ld.Lg2h @ u) + trace


class CovarianceSchedule:
    """Time-dependent covariance factor Sigma(t), shape (m1, m1)."""

    def __init__(self, sigma, m1):
        self._sigma = sigma
        self.m1 = m1

    @classmethod
    def constant(cls, M):
        M = np.asarray(M, dtype=float)
        return cls(lambda t: M, M.shape[0])

    def at(self, t):
        S = np.asarray(self._sigma(t), dtype=float)
        if S.shape != (self.m1, self.m1):
            raise ValueError("Sigma(t) shape %s, expected (%d, %d)"
                             % (S.shape, self.m1, self.m1))
        return S


def nsbf_premise(spec, x, Sigma):
    """Slack pair behind the worst-case margin.

    Returns (generator_slack, budget_slack): the first is the actual
    trace term minus its assumed floor, the second the Frobenius budget
    minus the actual ||Sigma Sigma'||_F. budget_slack >= 0 should force
    generator_slack >= 0.
    """
    ld = lie_data(spec.sys, spec.bf, x)
    S = np.asarray(Sigma, dtype=float).reshape(spec.sys.m1, spec.sys.m1)
    actual = 0.5 * float(np.trace(S.T @ ld.g1_hess_g1 @ S))
    budget = spec.rho.inverse(max(0.0, -ld.h_val))
    floor = -0.5 * ld.frob_term * budget
    used = float(np.linalg.norm(S @ S.T, "fro"))
    return actual - floor, budget - used
