"""Deterministic safety filters and their optimality certificates.

Every filter in the package is one margin, one direction and one rule.
The margin is one formula, `margin`:

    omega = drift + a.u0 [+ side] + alpha(h)

and each filter supplies only its drift, direction a and side term:
(Lfh, Lg2h, -||Lg1h|| budget(rho, -h)) here (dssf_margin), for the plant
dx = (f + g1 d + g2 u) dt with barrier h and safe set {h >= 0}, where
budget(rho, r) = rho^{-1}(max{0, r}); (-LfB, -LgB) for reciprocal
barriers; (0, grad h) for projection; the trace or Frobenius side terms
in `stochastic`. omega >= 0 where u0 is already safe; a correction v
moves the margin to omega + a.v, and `correct` turns (omega, a) into
v = k a by one rule, which is only its factor k(omega, q), q = |a|^2:

    MIN_NORM     k = max{0, -omega}/q (the QP)
    SONTAG       k = kappa(omega, q), Sontag's universal formula
    HALF_SONTAG  k = kappa/2: 0.5*(omega - sqrt(omega^2 + q^2)) + a.v = 0

with k = 0 where q = 0 and k = NaN at a NaN margin (where q > 0); v is
exactly 0 where k = 0. correct raises the caller's violation class
where omega is not >= 0 (a NaN margin included) but |a| <
GRAD_ZERO_TOL. The three factors, at one margin and per row of a stack,
are one private table (_K), and everything below reads only k. Every
rule has the one certificate, rule_certificate: a weight R and a state
penalty l with

    l - R|u - u0|^2 = -2 beta (omega - alpha(h) + a.(u - u0))

along u = u0 + beta k a, by completing the square (the inverse
optimality of Freeman and Kokotovic, which covers Sontag's formula
too): R = 1/k and l = 2 beta (alpha(h) - omega) - beta^2 k q, for any
factor k >= 0 (_certificate). Every cost kind of `certify` with a
margin of this form integrates it. Every filter that returns the full
control takes one step, _filtered:

    u = u0 + beta correct(omega, a)

with beta = 1 for the plain filters (half-Sontag, the NSSF Sontag
law, the sandwich filters, the projection's sliding and qp laws) and
the spec's beta_gain for the scaled min-norm laws (inverse_optimal_qp,
rcbf_qp_filter, stoch_qp_filter, nssf_qp_filter, the projection's
inverse_optimal_update; inverse-optimal where beta >= 2). At one state
of width one (m2 = 1) the step is float arithmetic in the array
expression's order, u0 + beta (k a) with correct's factor k, and gives
its bits; where the result is not finite it is the array expression's
own result, so a NaN keeps the array's sign and payload and numpy's
warnings stay the array's. The same width-one rule computes _weighted's
R^{-1} a for a 1x1 weight and the worst-case disturbances'
s Lg1h / ||Lg1h|| (_along). Stacks and wider controls take the array
expression.

  * qp_filter          min-norm correction
  * sontag_filter      universal-formula correction term
  * half_sontag_filter nominal plus half the universal correction
  * inverse_optimal_*  scaled corrections that minimize a meaningful cost

The inverse-optimal layer is one value equation for three games. Each
takes the value V = 2 beta h and the weighted direction R2^{-1} Lg2h',
S = Lg2h R2^{-1} Lg2h', and supplies (drift, adv, ctrl):

    disturbance game  (Lfh + Lg2h.u0, ell_gamma(2||Lg1h||), S)
    covariance game   (Lfh + Lg2h.u0, ell_gamma1(frob), ell_gamma2(sqrt S))
    Ito value         (Lfh + Lg2h.u0 + trace, 0, ell_gamma2(sqrt S))

    l        = -2 beta (drift - adv + ctrl) - beta (2-lam) adv
               - beta (beta-2) ctrl                     (state penalty)
    residual = drift + beta ctrl/2 - lam adv/2 + l/(2 beta)    (= 0)
    premise  = drift - adv + ctrl + alpha(h) >= 0

beta >= 2 certifies optimality; allow_safety_only admits beta >= 1.
The control laws (u0 + beta R2^{-1} Lg2h' here, the Ito laws in
`stochastic`) read only the weights (_game_weights: the gain gate, the
Lie data and R2^{-1} Lg2h', S); the value equation (_value_game) is
built on them for the penalties, residuals and premises.

Everything this module computes reads only h, Lfh, Lg1h and Lg2h, so
it takes first-order Lie data (systems.first_order_lie, through _lie1),
and the barrier Hessian is never called here. The Ito terms are for
`stochastic`: its games pass _lie, the full lie_data, to the one value
equation, _value_game, which evaluates whichever Lie data its game
hands it.

One convention holds for every margin, filter, premise, weight and
penalty of the package: each takes one (n,) state or an (N, n) stack of
them (and nominal values as (m2,) or (N, m2)), and on a stack returns
one entry per row, equal bit for bit to the single-state value. The
choice is made only by the helpers: _lie1 and _lie (the Lie data of a
state or of a stack), _u0_at (u0 at a state through
systems._single_state, so a stacked u0 is checked as a stack there too,
or at a stack through systems.call_rows), systems.row_dot and row_norm,
and comparison.elementwise for every class-K function. So each formula is
written once, a cost pass is one call per record, a built-in's grid
sweep is one call, and the stochastic filters step a stack of paths in
one call. Where one row is bad, the stack raises what that row raises
alone. Single-state only: qp_filter_affine_form (a matrix pair and a
flag per state), scp_diagnostic (it counts each state's raise) and the
disturbance-side worst_case_disturbance, qp_worst_case_disturbance and
pi_gap.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .comparison import LegendreFenchelPair, elementwise, legendre_fenchel
from .systems import (SafefiltError, _as_state, _guard, _single_state,
                      call_rows, first_order_lie, first_order_lie_rows,
                      lie_data, lie_data_rows, row_dot, row_norm,
                      stack_rows, vec_norm)

GRAD_ZERO_TOL = 1e-12       # |a| below this means no control authority

MIN_NORM = "min-norm"
SONTAG = "sontag"
HALF_SONTAG = "half-sontag"


class CbfViolation(SafefiltError, RuntimeError):
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


def _min_norm_k(omega, q):
    """MIN_NORM's factor: -(omega/q) where omega < 0 (or is NaN) and
    q > 0, else 0."""
    if type(omega) is np.ndarray:
        with _guard():  # the rows where omega >= 0 or q = 0
            return np.where((omega >= 0.0) | (q == 0.0), 0.0, -(omega / q))
    return 0.0 if omega >= 0.0 or q == 0.0 else -(omega / q)


def _kappa(omega, q):
    """sontag_kappa at one margin, or per row of stacked margins."""
    if type(omega) is np.ndarray:
        return np.array([sontag_kappa(w, s)
                         for w, s in zip(omega.tolist(), q.tolist())])
    return sontag_kappa(omega, q)


# rule: its factor k(omega, q), q = |a|^2, at one margin or per row of a
# stack; k = 0 where q = 0, and NaN at a NaN margin (where q > 0)
_K = {MIN_NORM: _min_norm_k,
      SONTAG: _kappa,
      HALF_SONTAG: lambda omega, q: 0.5 * _kappa(omega, q)}


def correct(omega, a, rule=MIN_NORM, error=CbfViolation):
    """Correction v = k a of the nominal for margin omega along direction
    a, with the rule's factor k (see the module docstring).

    rule is MIN_NORM, SONTAG or HALF_SONTAG. Raises `error` where
    omega < 0 (or is NaN) and ||a|| < GRAD_ZERO_TOL: no correction can
    restore the margin there. On stacks, (N,) margins and (N, m)
    directions, one correction per row, equal bit for bit to the row's
    own; where a row may raise, the rows are corrected in turn, so the
    first that raises does, with its own error.
    """
    if type(omega) is np.ndarray:
        return _correct_rows(omega, a, rule, error)
    return _times(_factor(omega, row_dot(a, a), rule, error), a)


def _factor(omega, q, rule, error):
    """The factor k of correct's v = k a at one state, q = |a|^2; raises
    as correct."""
    if not omega >= 0.0 and math.sqrt(q) < GRAD_ZERO_TOL:  # NaN too
        raise error("margin %g < 0 with no control authority (|a| = %g)"
                    % (omega, math.sqrt(q)))
    return _K[rule](omega, q)


def _times(k, a):
    """k a, at one state or per row of a stack; exactly zero where
    k = 0, whatever a holds (a zero factor leaves the nominal alone)."""
    if type(k) is np.ndarray:
        with _guard():  # 0 * inf in the rows where k = 0
            return np.where((k == 0.0)[:, None], 0.0, k[:, None] * a)
    return np.zeros(a.shape) if k == 0.0 else k * a


def _filtered(u0v, beta, omega, a, rule=MIN_NORM, error=CbfViolation):
    """The filtered control u0 + beta correct(omega, a, rule, error),
    the one step of every filter that returns the full control. At one
    state of width one (a number omega, a (1,) direction) it is float
    arithmetic in the same order, u0 + beta (k a), the bits of the
    array expression; a result that is not finite comes from the array
    expression itself, so its NaN sign and payload and numpy's warnings
    are the array's. On stacks and wider controls, the array
    expression, without the product at unit gain (1.0 v is v, bit for
    bit)."""
    if type(omega) is np.ndarray or a.size != 1:
        v = correct(omega, a, rule, error)
        return u0v + v if beta == 1.0 else u0v + beta * v
    av = a.item()
    k = _factor(omega, 0.0 + av * av, rule, error)  # row_dot at width one
    u = u0v.item() + float(beta) * (0.0 if k == 0.0 else float(k) * av)
    if math.isfinite(u):
        return np.array((u,))
    return u0v + beta * _times(k, a)


def _correct_rows(omega, a, rule, error):
    """correct on stacks: the rows that need no guard at once."""
    q = row_dot(a, a)
    weak = np.sqrt(q) < GRAD_ZERO_TOL
    if weak.any() and (weak & ~(omega >= 0.0)).any():
        return np.array([correct(w, v, rule, error)
                         for w, v in zip(omega.tolist(), a)])
    return _times(_K[rule](omega, q), a)


def _u0_at(spec, x, t):
    """u0 at a state, or at each row of an (N, n) stack of them."""
    m2 = spec.sys.m2
    if type(x) is np.ndarray and x.ndim == 2:
        return call_rows(spec.u0, x, t, m2, "u0")
    return _as_state(_single_state(spec.u0, m2, "u0")(x, t), m2, "u0")


def _lie1(sys, bf, x):
    """first_order_lie at a state, first_order_lie_rows at an (N, n)
    stack of them."""
    if type(x) is np.ndarray and x.ndim == 2:
        return first_order_lie_rows(sys, bf, x)
    return first_order_lie(sys, bf, x)


def _lie(sys, bf, x):
    """lie_data at a state, lie_data_rows at an (N, n) stack of them:
    _lie1 plus the Ito terms, for the filters that read them."""
    if type(x) is np.ndarray and x.ndim == 2:
        return lie_data_rows(sys, bf, x)
    return lie_data(sys, bf, x)


def _max0(v):
    """max{0, v}; on an array, elementwise with the same ties."""
    if type(v) is np.ndarray:
        return np.where(v > 0.0, v, 0.0)
    return max(0.0, v)


def budget(rho, r):
    """rho^{-1}(max{0, r}); on an array, at each element in turn."""
    return elementwise(rho.inverse, _max0(r))


def margin(drift, a, u0v, alpha_h, side=-0.0):
    """(omega, a) with omega = drift + a.u0 + side + alpha_h, the one
    margin of the module docstring; on stacks, one omega per row. The
    default side, -0.0, is the exact additive identity."""
    return drift + row_dot(a, u0v) + side + alpha_h, a


def _min(a, b):
    """min(a, b); on arrays, elementwise with the same ties."""
    if type(a) is np.ndarray:
        return np.where(b < a, b, a)
    return min(a, b)


def _check_gains(beta_gain, safety_only=False, lam=None):
    """The gain gate: ValueError unless beta_gain is finite and >= 2,
    which certifies optimality, or >= 1 if safety_only; and lam, if given,
    in (0, 2]."""
    floor = 1.0 if safety_only else 2.0
    if not beta_gain >= floor:  # a NaN gain fails too
        raise ValueError("beta_gain %g < %g" % (beta_gain, floor))
    if beta_gain == math.inf:  # u0 + inf * 0 is NaN where no correction
        raise ValueError("beta_gain %g is not finite" % beta_gain)
    if lam is not None and not (0.0 < lam <= 2.0):
        raise ValueError("lam must lie in (0, 2], got %g" % lam)


def _weighted(weight, x, u0v, a):
    """(R, R^{-1} a, a.R^{-1} a) for the SPD weight R = weight(x, u0v),
    the identity when weight is None; on stacks, one weight per row
    (for None a read-only (N, m, m) view of the one identity), all
    checked by one Cholesky, and a 1x1 weight by its sign alone."""
    m = a.shape[-1]
    if weight is None:
        eye = np.eye(m)
        return (eye if a.ndim == 1 else np.broadcast_to(eye, a.shape + (m,)),
                a, row_dot(a, a))
    if a.ndim == 1:
        R = np.asarray(weight(x, u0v), dtype=float).reshape(m, m)
    else:
        R = stack_rows(weight, (m, m), x, u0v)
    if m == 1:
        if not (R.item() > 0.0 if a.ndim == 1 else (R > 0.0).all()):
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        if a.ndim == 1:  # float arithmetic, as _filtered's
            ra = a.item() / R.item()
            if math.isfinite(ra):
                return R, np.array((ra,)), 0.0 + a.item() * ra
        ra = a / R[..., 0]
    else:
        np.linalg.cholesky(R)  # raises unless symmetric positive definite
        ra = np.linalg.solve(R, a[..., None])[..., 0]
    return R, ra, row_dot(a, ra)


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
    """(omega, Lg2h) with the robust margin, side -||Lg1h|| budget(rho,
    -h); any spec with rho and alpha, so also the deterministic sandwich
    floor."""
    robust = row_norm(ld.Lg1h) * budget(spec.rho, -ld.h_val)
    return margin(ld.Lfh, ld.Lg2h, u0v, elementwise(spec.alpha, ld.h_val),
                  -robust)


def cbf_margin(spec, ld, u0v):
    """(omega, Lg2h) with the disturbance-free margin
    omega = Lfh + Lg2h.u0 + alpha(h)."""
    return margin(ld.Lfh, ld.Lg2h, u0v, elementwise(spec.alpha, ld.h_val))


def _dssf_at(spec, x, t):
    ld = _lie1(spec.sys, spec.bf, x)
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
    direction, so for m2 = 1 the nominal is overridden entirely. At one
    state only.
    """
    u0v, omega, a = _dssf_at(spec, x, t)
    correct(omega, a)  # the authority guard
    m2 = spec.sys.m2
    if omega >= 0.0:
        return np.eye(m2), np.zeros(m2), False
    q = row_dot(a, a)
    chi0 = np.eye(m2) - np.outer(a, a) / q
    return chi0, -((omega - row_dot(a, u0v)) / q) * a, True


def sontag_filter(spec, x, t, include_u0=True):
    """Universal-formula correction term kappa(omega, q) * Lg2h.

    include_u0 picks whether omega is evaluated with the nominal drift
    (filter acts as a correction on top of u0) or without it (filter is
    the whole control). Either way only the correction is returned.
    """
    u0v, omega, a = _dssf_at(spec, x, t)
    if not include_u0:
        omega = omega - row_dot(a, u0v)
    return correct(omega, a, SONTAG)


def half_sontag_filter(spec, x, t):
    """u0 plus half the universal correction.

    Solves the conservative pointwise constraint
    0.5*(omega - sqrt(omega^2 + q^2)) + Lg2h.v = 0 with minimum norm.
    """
    u0v, omega, a = _dssf_at(spec, x, t)
    return _filtered(u0v, 1.0, omega, a, HALF_SONTAG)


def inverse_optimal_qp(spec, beta_gain, x, t, allow_safety_only=False):
    """Full control u0 + beta * qp_filter.

    beta_gain >= 2 certifies optimality of a meaningful cost; the
    escape hatch allows beta_gain >= 1, which still certifies safety.
    """
    _check_gains(beta_gain, allow_safety_only)
    u0v, omega, a = _dssf_at(spec, x, t)
    return _filtered(u0v, beta_gain, omega, a)


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
        _check_gains(self.beta_gain, self.allow_safety_only, self.lam)


# the weights of one inverse-optimal game at a state, all that its
# control law reads; and the game: its weights and its value equation
_Weights = namedtuple("_Weights", "ld R ra S")
_Game = namedtuple("_Game", _Weights._fields + ("drift", "adv", "ctrl", "l",
                                                "residual"))


def _game_weights(spec, lie, sys, bf, x, u0v):
    """The weights of a game at state x and nominal value u0v: the gain
    gate on spec (beta_gain, allow_safety_only), the Lie data lie(sys,
    bf, x) (_lie1 or _lie) and (R, R^{-1} Lg2h', S) of _weighted with
    spec.R2."""
    _check_gains(spec.beta_gain, spec.allow_safety_only)
    ld = lie(sys, bf, x)
    return _Weights(ld, *_weighted(spec.R2, x, u0v, ld.Lg2h))


def _value_game(spec, lie, sys, bf, lam, x, u0v, supply):
    """The game at state x and nominal value u0v: _game_weights, then
    the value equation of the module docstring; supply(ld, Lfh +
    Lg2h.u0, S) returns the game's (drift, adv, ctrl)."""
    beta = spec.beta_gain
    w = _game_weights(spec, lie, sys, bf, x, u0v)
    drift, adv, ctrl = supply(w.ld, w.ld.Lfh + row_dot(w.ld.Lg2h, u0v), w.S)
    l = (-2.0 * beta * (drift - adv + ctrl)
         - beta * (2.0 - lam) * adv
         - beta * (beta - 2.0) * ctrl)
    return _Game(*w, drift, adv, ctrl, l,
                 drift + 0.5 * beta * ctrl - 0.5 * lam * adv
                 + l / (2.0 * beta))


def _premise(game, alpha):
    return (game.drift - game.adv + game.ctrl
            + elementwise(alpha, game.ld.h_val))


def _io_game(iospec, x, u0v):
    """The disturbance game: (drift, ell_gamma(2||Lg1h||), S)."""
    base = iospec.base
    return _value_game(iospec, _lie1, base.sys, base.bf, iospec.lam, x,
                       u0v, lambda ld, drift, S: (drift, elementwise(
                           iospec.gamma.ell, 2.0 * row_norm(ld.Lg1h)), S))


def inverse_optimal_general(iospec, x, t):
    """u = u0 + beta * R2^{-1} Lg2h'."""
    base = iospec.base
    u0v = _u0_at(base, x, t)
    return u0v + iospec.beta_gain * _game_weights(
        iospec, _lie1, base.sys, base.bf, x, u0v).ra


def inverse_optimal_condition(iospec, x, t):
    """Margin of the premise making the scaled correction safe:

        drift - ell_gamma(2||Lg1h||) + S + alpha(h) >= 0.

    Returned as-is so the caller decides whether to enforce or report.
    """
    return _premise(_io_game(iospec, x, _u0_at(iospec.base, x, t)),
                    iospec.base.alpha)


def worst_case_disturbance(iospec, x):
    """Maximizing disturbance of the softened game, feedback in x only;
    at one state."""
    ld = first_order_lie(iospec.base.sys, iospec.base.bf, x)
    nrm = vec_norm(ld.Lg1h)
    if nrm < GRAD_ZERO_TOL:
        return np.zeros(iospec.base.sys.m1)
    v = iospec.gamma.gamma_prime_inv(2.0 * nrm)
    return _along(-iospec.lam * v, ld.Lg1h, nrm)


def qp_worst_case_disturbance(spec, lam, x):
    """Worst disturbance for the min-norm weights (rho-shaped penalty);
    at one state."""
    ld = first_order_lie(spec.sys, spec.bf, x)
    nrm = vec_norm(ld.Lg1h)
    if nrm < GRAD_ZERO_TOL:
        return np.zeros(spec.sys.m1)
    return _along(-lam * budget(spec.rho, -ld.h_val), ld.Lg1h, nrm)


def _along(s, g, nrm):
    """s g / nrm, a worst-case disturbance of size |s| against the
    (m1,) direction g of norm nrm; at width one float arithmetic, as
    _filtered's."""
    if g.size == 1:
        d = float(s) * g.item() / nrm
        if math.isfinite(d):
            return np.array((d,))
    return s * g / nrm


def game_weights(iospec, x, u0v):
    """Control weight R2 (matrix) and state penalty l of the disturbance
    game at state x and nominal value u0v, or at each row of their
    stacks."""
    game = _io_game(iospec, x, u0v)
    return game.R, game.l


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
    return _io_game(iospec, x, _u0_at(iospec.base, x, t)).residual


def pi_gap(iospec, x, d):
    """Disturbance-side Young gap at the softened penalty.

        gamma(|d|/lam) + ell_gamma(2||Lg1h||) + (2/lam) Lg1h.d

    Nonnegative, zero exactly at the worst-case disturbance. At one
    state and one disturbance.
    """
    ld = first_order_lie(iospec.base.sys, iospec.base.bf, x)
    d = _as_state(d, iospec.base.sys.m1, "disturbance")
    lam = iospec.lam
    ell = legendre_fenchel(iospec.gamma, 2.0 * vec_norm(ld.Lg1h))
    return (iospec.gamma.gamma(vec_norm(d) / lam)
            + ell + (2.0 / lam) * row_dot(ld.Lg1h, d))


@dataclass(frozen=True)
class Weight:
    """A cost weight that may be +inf off the constraint set.

    Infinite weights never enter float arithmetic here; whoever
    integrates the cost must pair them with a zero deviation. A stacked
    weight holds arrays: the values, +inf where `infinite` is True.
    """
    value: float
    infinite: bool = False

    def __post_init__(self):
        if self.infinite is True:
            object.__setattr__(self, "value", math.inf)

    def __float__(self):
        if self.infinite:
            raise ValueError("infinite weight has no float value")
        return self.value

    @classmethod
    def ratio(cls, num, den):
        """num / den, infinite where den == 0 or the quotient overflows
        to +inf; elementwise on arrays."""
        if type(den) is np.ndarray:
            with np.errstate(over="ignore"):  # inf, as num / den on floats
                q = np.divide(num, den, where=den != 0.0,
                              out=np.full(den.shape, math.inf))
            return cls(q, q == math.inf)
        q = math.inf if den == 0.0 else num / den
        return cls(q, bool(q == math.inf))


def rule_certificate(rule, beta, omega, a, alpha_h):
    """(R, l) certifying u = u0 + beta * correct(omega, a, rule): a weight
    R and a penalty l with

        l - R|u - u0|^2 = -2 beta (omega - alpha(h) + a.(u - u0))

    along that u, by completing the square: _certificate at the rule's
    factor k, R = 1/k (inf where k = 0) and l = 2 beta (alpha(h) -
    omega) - beta^2 k |a|^2. On stacks each row is its one-state (R, l),
    non-finite rows included."""
    q = row_dot(a, a)
    return _certificate(beta, _K[rule](omega, q), q, omega, alpha_h)


def _certificate(beta, k, q, omega, alpha_h):
    """(R, l) of u = u0 + beta k a for any factor k >= 0, q = |a|^2:
    R = 1/k and l = 2 beta (alpha(h) - omega) - beta^2 k q, under
    _guard, so that a stack's row raises no more than its one-state
    floats do."""
    with _guard():
        return (Weight.ratio(1.0, k),
                2.0 * beta * (alpha_h - omega) - beta * beta * k * q)


def min_norm_certificate(beta, omega, a, alpha_h):
    """rule_certificate under MIN_NORM, k = max{0, -omega}/|a|^2:
    R = |a|^2 / max{0, -omega} (inf where omega >= 0 or |a|^2 = 0) and
    l = 2 beta (alpha(h) - omega) - beta^2 k |a|^2."""
    return rule_certificate(MIN_NORM, beta, omega, a, alpha_h)


def min_norm_weights(spec, x, u0v, beta_gain, lam):
    """qp_weights at state x and nominal value u0v, or at each row of
    their stacks."""
    ld = _lie1(spec.sys, spec.bf, x)
    rinv = budget(spec.rho, -ld.h_val)
    nrm = row_norm(ld.Lg1h)
    alpha_h = elementwise(spec.alpha, ld.h_val)
    omega, a = margin(ld.Lfh, ld.Lg2h, u0v, alpha_h, -(nrm * rinv))
    l = (2.0 * beta_gain * alpha_h
         + beta_gain * _min(beta_gain * omega, -2.0 * omega)
         - beta_gain * (2.0 - lam) * nrm * rinv)
    return (Weight.ratio(1.0, rinv),
            min_norm_certificate(beta_gain, omega, a, alpha_h)[0], l)


def qp_weights(spec, x, t, beta_gain=2.0, lam=2.0):
    """Weights (R1, R2, l) certifying the min-norm filter.

        R1 = 1 / rho^{-1}(max{0,-h})          (inf where h >= 0)
        R2 = min_norm_certificate's weight at the dssf margin
        l  = 2 beta alpha(h) + beta min{beta omega, -2 omega}
             - beta (2-lam) ||Lg1h|| rho^{-1}(max{0,-h})
    """
    return min_norm_weights(spec, x, _u0_at(spec, x, t), beta_gain, lam)


def scp_diagnostic(spec, points, t=0.0):
    """Sample the filter over points: largest correction and violations.

    A cheap continuity/feasibility sweep; a nonzero violation count
    means the barrier loses control authority somewhere it matters.
    Each point is filtered alone, so each raise is counted.
    """
    max_corr = 0.0
    violations = 0
    for x in points:
        try:
            ubar = qp_filter(spec, x, t)
        except CbfViolation:
            violations += 1
            continue
        max_corr = max(max_corr, vec_norm(ubar))
    return {"max_correction": max_corr, "violations": violations}
