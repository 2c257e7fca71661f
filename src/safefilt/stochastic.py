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

        omega = Lfh + Lg2h.u0 - 0.5 ||g1' H g1||_F rho^{-1}(max{0,-h})
                + alpha(h).

The two margins are two families of `filters` (Family): GENERATOR,
the margin with the trace term for its side, and NSSF, with the
Frobenius side above, each read on the full Lie data (the Ito terms
included) and raising ScbfViolation. Each writes (omega, Lg2h,
alpha(h), h, 1) once; generator_margin and nssf_margin are its first
two fields. The filters are one line each over the family step, by
the table of `filters`: stoch_qp_filter and nssf_qp_filter are
Filter(family, spec, MIN_NORM, spec.beta_gain), nssf_sontag_filter
Filter(NSSF, spec, SONTAG) and stoch_sontag_filter its GENERATOR
twin's correction alone. The inverse-optimal layer is the one
value equation of `filters`: the covariance game supplies
(drift, ell_gamma1(frob), ell_gamma2(sqrt S)) and the Ito value is
that game with no adversary, (drift + trace, 0, ell_gamma2(sqrt S)).
Every margin, filter, premise, weight and residual here keeps the one
convention of `filters`: one state or an (N, n) stack of them, and on
a stack one entry per row, equal bit for bit to the calls at each row
(a filter returns the (N, m2) stack of controls). Single-state only:
worst_case_covariance (a matrix per state), generator_h (a supplied
control and covariance) and nsbf_premise (a supplied covariance).

Decided, near a flat barrier gradient: on ex6's cubic barrier h = -x^3,
|Lg2h| = 3x^2 falls below GRAD_ZERO_TOL within about 5.8e-7 of x = 0.
There nssf_qp_filter returns u0 where x <= 0, since h >= 0 and the
margin is >= 0 (so is it where x^3 underflows to zero and h = -0.0),
and raises ScbfViolation where x > 0: the state is outside the safe
set, the margin is negative and no control has the authority to
restore it. The raise is the filter's answer, not a defect to smooth
over (tests/test_nssf_near_zero.py).
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .comparison import elementwise, legendre_fenchel
from .filters import (GRAD_ZERO_TOL, MIN_NORM, SONTAG, Family, _apply, _at,
                      _check_gains, _game_weights, _max0, _on_lie, _Plant,
                      _premise, _u0_at, _value_game, budget, correct)
from .systems import (SafefiltError, _as_state, _lie_data_at, lie_data,
                      lie_data_rows, row_dot, vec_norm)


class ScbfViolation(SafefiltError, RuntimeError):
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
        _check_gains(self.beta_gain, safety_only=True)


def _ito_read(spec, x):
    """The state read of the GENERATOR and NSSF families: the full Lie
    data, the Ito terms included, of spec's plant and barrier at a
    state (systems._lie_data_at: floats on a scalar plant), or
    lie_data_rows at an (N, n) stack of them."""
    if type(x) is np.ndarray and x.ndim == 2:
        return lie_data_rows(spec.sys, spec.bf, x)
    return _lie_data_at(spec.sys, spec.bf, x)


def _lie(sys, bf, x):
    """_ito_read on plant sys and barrier bf."""
    return _ito_read(_Plant(sys, bf), x)


def _generator(spec, ld, u0v):
    """The generator family's data: omega = L h(u0) + alpha(h), Sigma =
    I, the margin with side the trace term."""
    return _on_lie(spec, ld, u0v, ld.trace_term)


GENERATOR = Family(_ito_read, _generator, ScbfViolation)


def generator_margin(spec, ld, u0v):
    """(omega, Lg2h) of the generator family at Lie data ld; also the
    exact-trace floor of the stochastic sandwich filter."""
    return _generator(spec, ld, u0v)[:2]


def omega_sbfc(spec, x, t):
    """Generator margin at the nominal: Lfh + Lg2h.u0 + trace + alpha(h)."""
    return generator_margin(spec, *_at(GENERATOR, spec, x, t))[0]


def stoch_qp_filter(spec, x, t):
    """Full control u0 + beta * min-norm fix of the generator margin."""
    return _apply(GENERATOR, spec, MIN_NORM, spec.beta_gain, x, t)


def stoch_sontag_filter(spec, x, t):
    """Damping-style correction kappa * Lg2h on the generator margin;
    the correction only, not u0 + correction."""
    return correct(*generator_margin(spec, *_at(GENERATOR, spec, x, t)),
                   SONTAG, ScbfViolation)


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
        _check_gains(self.beta_gain, safety_only=True, lam=self.lam)


def _nssf_side(spec, ld):
    """(side, budget): the NSSF family's side term -0.5 ||g1' H g1||_F
    budget(rho, -h), the floor of the trace term, and that budget."""
    allowed = budget(spec.rho, -ld.h_val)
    return -0.5 * ld.frob_term * allowed, allowed


def _nssf(spec, ld, u0v):
    """The NSSF family's data: the worst-covariance margin of the module
    docstring, side _nssf_side."""
    return _on_lie(spec, ld, u0v, _nssf_side(spec, ld)[0])


NSSF = Family(_ito_read, _nssf, ScbfViolation)


def nssf_margin(spec, ld, u0v):
    """(omega, Lg2h) of the NSSF family at Lie data ld."""
    return _nssf(spec, ld, u0v)[:2]


def omega_nssf(spec, x, t):
    """Margin with the covariance at its Frobenius-budget worst."""
    return nssf_margin(spec, *_at(NSSF, spec, x, t))[0]


def nssf_qp_filter(spec, x, t):
    """Full control u0 + beta * min-norm fix of the NSSF margin."""
    return _apply(NSSF, spec, MIN_NORM, spec.beta_gain, x, t)


def nssf_sontag_filter(spec, x, t):
    """Full control u0 + universal correction of the NSSF margin."""
    return _apply(NSSF, spec, SONTAG, 1.0, x, t)


def worst_case_covariance(spec, x):
    """Maximizing covariance (Sigma Sigma')* of the softened game.

    Aligned against the curvature block g1' H g1; zero where that block
    vanishes. Symmetric always, sign-definiteness is the caller's to
    inspect (min_eigenvalue) and report: the maximizer of the relaxed
    game need not be a legitimate covariance. At one state.
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


def _need_gammas(spec, adversary):
    """The inverse-optimal calls' ValueError where spec lacks gamma2, or
    with an adversary gamma1."""
    if spec.gamma2 is None or (adversary and spec.gamma1 is None):
        raise ValueError("inverse-optimal calls need %s"
                         % ("gamma1 and gamma2" if adversary else "gamma2"))


def _game(spec, x, u0v, adversary=False):
    """The value game of either class at state x and nominal value u0v:
    the covariance game, or with adversary=False the Ito value."""
    _need_gammas(spec, adversary)

    def supply(ld, drift, S):
        ell2 = elementwise(lambda s: legendre_fenchel(
            spec.gamma2, math.sqrt(max(0.0, s))), S)
        if adversary:
            return drift, elementwise(spec.gamma1.ell, ld.frob_term), ell2
        return drift + ld.trace_term, 0.0, ell2
    # lam weighs only the adversary term, which the Ito value lacks
    return _value_game(spec, NSSF if adversary else GENERATOR, spec,
                       spec.lam if adversary else 2.0, x, u0v, supply)


def _inverse_optimal(spec, x, t, adversary):
    """u0 + (beta/2) R2^{-1} Lg2h' (gamma2')^{-1}(s)/s with s = sqrt(S);
    u0 itself at each row where s ~ 0."""
    u0v = _u0_at(spec, x, t)
    _need_gammas(spec, adversary)
    w = _game_weights(spec, NSSF if adversary else GENERATOR, spec, x, u0v)
    s = elementwise(math.sqrt, _max0(w.S))
    gain = elementwise(lambda r: spec.gamma2.gamma_prime_inv(r) / r
                       if r >= GRAD_ZERO_TOL else 0.0, s)
    live = np.asarray(s >= GRAD_ZERO_TOL)[..., None]
    step = 0.5 * spec.beta_gain * np.asarray(gain)[..., None] * w.ra
    return np.where(live, u0v + step, u0v)


def stoch_weights(spec, x, u0v):
    """(R2, l): control weight and state penalty of the Ito value."""
    game = _game(spec, x, u0v)
    return game.R, game.l


def stoch_inverse_optimal(spec, x, t):
    """u = u0 + (beta/2) R2^{-1} Lg2h' (gamma2')^{-1}(s)/s with
    s = |R2^{-1/2} Lg2h'|; just u0 where the barrier is control-blind.

    With gamma2(r) = r^2/4 and the min-norm weight for R2 this
    reproduces stoch_qp_filter wherever the constraint is active.
    """
    return _inverse_optimal(spec, x, t, False)


def stoch_io_condition(spec, x, t):
    """Premise margin drift + trace + ell_gamma2(s) + alpha(h) >= 0."""
    return _premise(_game(spec, x, _u0_at(spec, x, t)), spec.alpha)


def stoch_state_penalty_l(spec, x, t):
    return stoch_weights(spec, x, _u0_at(spec, x, t))[1]


def hjb_residual(spec, x, t):
    """Dynamic-programming residual of the certified value; zero by
    construction, evaluated as a wiring check."""
    return _game(spec, x, _u0_at(spec, x, t)).residual


def nssf_weights(spec, x, u0v):
    """(R2, l): control weight and state penalty of the covariance game."""
    game = _game(spec, x, u0v, True)
    return game.R, game.l


def nssf_inverse_optimal(spec, x, t):
    """stoch_inverse_optimal against an adversarial covariance; with
    gamma2(r) = r^2/4 and the min-norm weight for R2 it reproduces
    nssf_qp_filter wherever the constraint is active."""
    return _inverse_optimal(spec, x, t, True)


def nssf_condition(spec, x, t):
    """Premise margin drift - ell_gamma1(frob) + ell_gamma2(s) + alpha(h)."""
    return _premise(_game(spec, x, _u0_at(spec, x, t), True), spec.alpha)


def nssf_state_penalty_l(spec, x, t):
    return nssf_weights(spec, x, _u0_at(spec, x, t))[1]


def nssf_hji_residual(spec, x, t):
    return _game(spec, x, _u0_at(spec, x, t), True).residual


# ---------------------------------------------------------------------------
# generator evaluation along simulated paths
# ---------------------------------------------------------------------------

def generator_h(sys, bf, x, u, Sigma=None):
    """L h at (x, u) under covariance factor Sigma (identity if None);
    at one state."""
    ld = lie_data(sys, bf, x)
    u = _as_state(u, sys.m2, "u")
    if Sigma is None:
        trace = ld.trace_term
    else:
        S = np.asarray(Sigma, dtype=float).reshape(sys.m1, sys.m1)
        trace = 0.5 * float(np.trace(S.T @ ld.g1_hess_g1 @ S))
    return ld.Lfh + row_dot(ld.Lg2h, u) + trace


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
    generator_slack >= 0. At one state.
    """
    ld = lie_data(spec.sys, spec.bf, x)
    S = np.asarray(Sigma, dtype=float).reshape(spec.sys.m1, spec.sys.m1)
    actual = 0.5 * float(np.trace(S.T @ ld.g1_hess_g1 @ S))
    floor, allowed = _nssf_side(spec, ld)
    used = vec_norm(S @ S.T)
    return actual - floor, allowed - used
