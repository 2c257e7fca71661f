"""Deterministic safety filters and their optimality certificates.

Every library filter is one margin, one direction and one rule. The
margin is one formula, `margin`:

    omega = drift + a.u0 [+ side] + alpha(h)

and a margin family (Family) writes its data once, for the plant
dx = (f + g1 d + g2 u) dt with barrier h and safe set {h >= 0}:
read(spec, x) reads the state data (the Lie data), formula(spec, ld,
u0v) gives the family data

    (omega, a, alpha(h), h, c)

from it at the nominal values u0v, and data(spec, x, u0v) is the two in
turn, at one state or per row of a stack. The package's own calls read
through the family's state(spec, x), which at one state of a
scalar_system plant gives the width-one fields as floats; read widens
them to the (1,) vectors they stand for. c is the factor of the
family's certificate cost. Its filters raise its one violation class.

    family      drift, a      side                           c     module
    CBF         Lfh, Lg2h     none                           1     here
    DSSF        Lfh, Lg2h     -||Lg1h|| budget(rho, -h)      1     here
    GENERATOR   Lfh, Lg2h     the trace term                 1     stochastic
    NSSF        Lfh, Lg2h     -0.5 ||g1'Hg1||_F budget(...)  1     stochastic
    RECIPROCAL  -LfB, -LgB    none, in h = 1/B               -h^2  reciprocal
    PROJECTION  0, grad h     none                           -1    projection

with budget(rho, r) = rho^{-1}(max{0, r}); no other code adds a side
term to a floor margin. Every family but PROJECTION reads a plant's Lie
data: RECIPROCAL the first-order Lie data (B, LfB, Lg1h, LgB) of its
spec's barrier B, read as CBF and DSSF read theirs, and PROJECTION the
estimate itself. dssf_margin, cbf_margin, generator_margin,
nssf_margin, reciprocal_margin and projection_margin are the first two
fields, and the omega_* readers the first at u0(x, t). omega >= 0
where u0 is already safe; a correction v moves the margin to
omega + a.v, and `correct` turns (omega, a) into v = k a by one rule,
which is only its factor k(omega, q), q = |a|^2:

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
factor k >= 0 (_certificate).

A library filter is one value, Filter(family, spec, rule, gain), gain
>= 1. Called at (x, t), on one state or an (N, n) stack, it takes the
one step _filtered of every filter that returns the full control,

    u = u0 + gain correct(omega, a, rule)

on the family data at u0 = spec.u0(x, t) (the state data read first),
and its certificate(x, u0v) is rule_certificate over the same data,
with h and c: the cost kinds of `certify` with a margin of this form
integrate it. The 13 public laws of this form are each one line over
the family step, _apply, or over the family data, and build no value
per call; four return the correction k a alone, at gain 1:

    law                     family      rule         gain            returns
    qp_filter               DSSF        min-norm     1               correction
    sontag_filter           DSSF        Sontag       1               correction
    half_sontag_filter      DSSF        half-Sontag  1               control
    inverse_optimal_qp      DSSF        min-norm     beta_gain       control
    stoch_qp_filter         GENERATOR   min-norm     spec.beta_gain  control
    stoch_sontag_filter     GENERATOR   Sontag       1               correction
    nssf_qp_filter          NSSF        min-norm     spec.beta_gain  control
    nssf_sontag_filter      NSSF        Sontag       1               control
    rcbf_qp_filter          RECIPROCAL  min-norm     spec.beta_gain  control
    qp_projection           PROJECTION  min-norm     1               correction
    inverse_optimal_update  PROJECTION  min-norm     spec.beta_gain  control
    sandwich_filter         DSSF        min-norm     1               control
    stoch_sandwich_filter   NSSF        min-norm     1               control

(stoch_sandwich_filter's exact_trace takes GENERATOR). The projection
laws take the nominal value itself and the sandwich laws read u0 of the
state alone, so they take the step on that nominal; a Filter over a
spec whose u0 takes (x, t) gives the same control. Beta >= 2 makes a
min-norm law inverse-optimal.

At one state of a scalar_system plant the whole family step is float
arithmetic: the family's state read (systems._first_order_at, or the
Ito read systems._lie_data_at) gives h, Lfh, Lg1h and Lg2h (and the Ito
terms) as floats, the loop memo holds those floats, and the formula and
the step read them as they are. The helpers the formulas call take a
width-one number wherever they take a (1,) vector and give the (1,)
vector's bits: row_dot, row_norm, budget, margin, _filtered, _weighted
at m = 1, and correct, whose correction is the (1,) vector. Where a
law returns an array (_filtered's u0 + beta (k a), the game laws'
u0 + beta R^{-1} a by _plus, the worst-case disturbances' s Lg1h /
||Lg1h|| by _along) the float result is the array expression's bits;
where it is not finite it is the array expression's own result, so a
NaN keeps the array's sign and payload and numpy's warnings stay the
array's. Array plants, stacks and wider controls take the array
expression. RECIPROCAL's step is this float arithmetic too: its state
read is _first_order_read on the spec's barrier B, and the reciprocal
inverse-optimal law steps by _plus.

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
Lie data that a family reads and R2^{-1} Lg2h', S); the value equation
(_value_game) is built on them for the penalties, residuals and
premises.

Everything this module computes reads only h, Lfh, Lg1h and Lg2h, so
it takes first-order Lie data (systems._first_order_at at a state,
through _first_order_read, the state read of the CBF and DSSF families,
and of RECIPROCAL on its barrier B, which the disturbance game and the
worst-case disturbances read too; _lie1 is that read on a plant and
barrier), and the barrier Hessian is never called here. The Ito terms are for
`stochastic`: its games read the full Lie data through the GENERATOR
and NSSF families, and the one value equation, _value_game, evaluates
whichever Lie data its game's family reads.

One convention holds for every margin, filter, premise, weight and
penalty of the package: each takes one (n,) state or an (N, n) stack of
them (and nominal values as (m2,) or (N, m2)), and on a stack returns
one entry per row, equal bit for bit to the single-state value. The
choice is made only by the helpers: the family reads (the Lie data of
a state or of a stack), _u0_at (u0 at a state through
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
from .systems import (FirstOrderLie, LieData, SafefiltError, _as_state,
                      _first_order_at, _guard, _single_state, _widened,
                      call_rows, first_order_lie, first_order_lie_rows,
                      row_dot, row_norm, stack_rows, vec_norm)

GRAD_ZERO_TOL = 1e-12       # |a| below this means no control authority
_LIE = (FirstOrderLie, LieData)

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
    if type(a) is float:  # a width-one number: the (1,) vector's product
        a = np.array((a,))
    return np.zeros(a.shape) if k == 0.0 else k * a


def _filtered(u0v, beta, omega, a, rule=MIN_NORM, error=CbfViolation):
    """The filtered control u0 + beta correct(omega, a, rule, error),
    the one step of every filter that returns the full control. Where
    the direction a is a width-one number (a scalar plant's one-state
    read) it is float arithmetic in the same order, u0 + beta (k a),
    the bits of the array expression; a result that is not finite comes
    from the array expression itself, so its NaN sign and payload and
    numpy's warnings are the array's. Where a is an array, the array
    expression u0 + beta v itself, at unit gain too (1.0 v is v, bit
    for bit)."""
    if type(a) is not float:
        return u0v + beta * correct(omega, a, rule, error)
    k = _factor(omega, 0.0 + a * a, rule, error)  # row_dot at width one
    return _vector(u0v.item() + float(beta) * (0.0 if k == 0.0
                                               else float(k) * a),
                   lambda: u0v + beta * _times(k, a))


def _vector(u, array):
    """The (1,) vector (u,) of a float result u where it is finite, the
    bits of the array expression; else that expression's own result,
    array(), so that a NaN keeps the array's sign and payload and
    numpy's warnings stay the array's."""
    return np.array((u,)) if math.isfinite(u) else array()


def _plus(u0v, c, v):
    """u0v + c v, the step of the weighted game laws; at one state of
    width one, where v is a number, float arithmetic in that order
    (_vector)."""
    if type(v) is float:
        return _vector(u0v.item() + float(c) * v,
                       lambda: u0v + c * np.array((v,)))
    return u0v + c * v


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
    checked by one Cholesky, and a 1x1 weight by its sign alone (R^{-1} a
    is then a / R). At a width-one number a, R^{-1} a is the float a / R
    where that is finite, else the (1,) vector's quotient."""
    one = type(a) is float
    m = 1 if one else a.shape[-1]
    if weight is None:
        eye = np.eye(m)
        return (eye if one or a.ndim == 1
                else np.broadcast_to(eye, a.shape + (m,)), a, row_dot(a, a))
    if one or a.ndim == 1:
        R = np.asarray(weight(x, u0v), dtype=float).reshape(m, m)
    else:
        R = stack_rows(weight, (m, m), x, u0v)
    if m == 1:
        if not (R.item() > 0.0 if R.size == 1 else (R > 0.0).all()):
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        if one:
            ra = a / R.item()
            if math.isfinite(ra):
                return R, ra, 0.0 + a * ra
            a = np.array((a,))
        ra = a / R[..., 0]
    else:
        np.linalg.cholesky(R)  # raises unless symmetric positive definite
        ra = np.linalg.solve(R, a[..., None])[..., 0]
    return R, ra, row_dot(a, ra)


class Family(namedtuple("Family", "state formula error")):
    """A margin family: state(spec, x) reads its state data (the Lie
    data) at a state or at each row of a stack, a scalar plant's
    width-one fields as floats at one state, formula(spec, ld, u0v)
    gives the family data (omega, a, alpha(h), h, c) from that data at
    nominal values u0v, and error is the violation class its filters
    raise."""

    def read(self, spec, x):
        """The state data at states x, width-one fields as the (1,)
        vectors they stand for (systems._widened)."""
        ld = self.state(spec, x)
        return _widened(spec.sys, ld) if type(ld) in _LIE else ld

    def data(self, spec, x, u0v):
        """(omega, a, alpha(h), h, c) at states x and nominal values u0v,
        on read's state data."""
        return self.formula(spec, self.read(spec, x), u0v)


def _at(family, spec, x, t, nominal=_u0_at):
    """(state data, u0) at (x, t), or their stacks: the family's state
    data read first, then u0 = nominal(spec, x, t), spec.u0(x, t) unless
    the caller reads its nominal otherwise."""
    return family.state(spec, x), nominal(spec, x, t)


def _apply(family, spec, rule, gain, x, t, nominal=_u0_at):
    """u0 + gain correct(omega, a, rule, family.error) on the family's
    margin at (x, t), its data read by _at: the family step, which every
    library filter that returns the full control takes."""
    ld, u0v = _at(family, spec, x, t, nominal)
    omega, a = family.formula(spec, ld, u0v)[:2]
    return _filtered(u0v, gain, omega, a, rule, family.error)


@dataclass(frozen=True)
class Filter:
    """A library safety filter as one value (family, spec, rule, gain);
    gain >= 1. Called at (x, t), one (n,) state or an (N, n) stack, it
    returns the full control u0 + gain correct(omega, a, rule) on the
    family's margin at u0 = spec.u0(x, t), one row per state, and raises
    the family's violation class. certificate gives its certificate over
    the same family data."""
    family: Family
    spec: object
    rule: str = MIN_NORM
    gain: float = 1.0

    def __post_init__(self):
        _check_gains(self.gain, safety_only=True)

    def __call__(self, x, t):
        return _apply(self.family, self.spec, self.rule, self.gain, x, t)

    def certificate(self, x, u0v):
        """(R, l, h, c): rule_certificate's weight R and penalty l at
        states x and nominal values u0v, with the family data's h and c."""
        omega, a, alpha, h, c = self.family.data(self.spec, x, u0v)
        return rule_certificate(self.rule, self.gain, omega, a, alpha) + (h, c)


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


def _first_order_read(spec, x):
    """The state read of the CBF and DSSF families: the first-order Lie
    data of spec's plant and barrier at a state (systems._first_order_at:
    floats on a scalar plant), or first_order_lie_rows at an (N, n)
    stack of them."""
    if type(x) is np.ndarray and x.ndim == 2:
        return first_order_lie_rows(spec.sys, spec.bf, x)
    return _first_order_at(spec.sys, spec.bf, x)


_Plant = namedtuple("_Plant", "sys bf")


def _lie1(sys, bf, x):
    """_first_order_read on plant sys and barrier bf."""
    return _first_order_read(_Plant(sys, bf), x)


def _on_lie(spec, ld, u0v, side=-0.0, alpha=None):
    """(omega, Lg2h, alpha(h), h, 1): the margin on Lie data ld with the
    side term side, the formula of the four Lie families; alone, the
    CBF family's, omega = Lfh + Lg2h.u0 + alpha(h). alpha defaults to
    spec.alpha (the sandwich's upper edges pass alpha0)."""
    alpha_h = elementwise(spec.alpha if alpha is None else alpha, ld.h_val)
    return margin(ld.Lfh, ld.Lg2h, u0v, alpha_h, side) + (alpha_h, ld.h_val,
                                                          1.0)


def _dssf(spec, ld, u0v, rinv=None):
    """The DSSF family's data: side -||Lg1h|| rinv, rinv = budget(rho,
    -h) unless the caller has it."""
    rinv = budget(spec.rho, -ld.h_val) if rinv is None else rinv
    return _on_lie(spec, ld, u0v, -(row_norm(ld.Lg1h) * rinv))


CBF = Family(_first_order_read, _on_lie, CbfViolation)
DSSF = Family(_first_order_read, _dssf, CbfViolation)


def dssf_margin(spec, ld, u0v):
    """(omega, Lg2h) of the DSSF family at Lie data ld; any spec with rho
    and alpha, so also the deterministic sandwich floor."""
    return _dssf(spec, ld, u0v)[:2]


def cbf_margin(spec, ld, u0v):
    """(omega, Lg2h) of the CBF family at Lie data ld."""
    return _on_lie(spec, ld, u0v)[:2]


def omega_dssf(spec, x, t):
    """The robust safety margin omega(x, u0(x,t))."""
    return dssf_margin(spec, *_at(DSSF, spec, x, t))[0]


def qp_filter(spec, x, t):
    """Min-norm safety correction ubar; apply u = u0 + ubar.

    Zero when the margin is already nonnegative, otherwise the unique
    minimizer of |ubar|^2 subject to omega + Lg2h.ubar >= 0.
    """
    return correct(*dssf_margin(spec, *_at(DSSF, spec, x, t)))


def qp_filter_affine_form(spec, x, t):
    """The filtered control as an affine map of the nominal value.

    Returns (chi0, chi1, active) with u = chi0 @ u0 + chi1. Off the
    constraint chi0 = I, chi1 = 0; on it chi0 projects out the Lg2h
    direction, so for m2 = 1 the nominal is overridden entirely. At one
    state only.
    """
    ld, u0v = _at(DSSF, spec, x, t)
    omega, a = dssf_margin(spec, ld, u0v)
    correct(omega, a)  # the authority guard
    m2 = spec.sys.m2
    if omega >= 0.0:
        return np.eye(m2), np.zeros(m2), False
    q = row_dot(a, a)
    chi0 = np.eye(m2) - np.outer(a, a) / q
    return chi0, -((omega - row_dot(a, u0v)) / q) * np.atleast_1d(a), True


def sontag_filter(spec, x, t):
    """Universal-formula correction term kappa(omega, q) * Lg2h; the
    correction only, not u0 + correction."""
    return correct(*dssf_margin(spec, *_at(DSSF, spec, x, t)), SONTAG)


def half_sontag_filter(spec, x, t):
    """u0 plus half the universal correction.

    Solves the conservative pointwise constraint
    0.5*(omega - sqrt(omega^2 + q^2)) + Lg2h.v = 0 with minimum norm.
    """
    return _apply(DSSF, spec, HALF_SONTAG, 1.0, x, t)


def inverse_optimal_qp(spec, beta_gain, x, t, allow_safety_only=False):
    """Full control u0 + beta * qp_filter.

    beta_gain >= 2 certifies optimality of a meaningful cost; the
    escape hatch allows beta_gain >= 1, which still certifies safety.
    """
    _check_gains(beta_gain, allow_safety_only)
    return _apply(DSSF, spec, MIN_NORM, beta_gain, x, t)


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


def _game_weights(spec, family, base, x, u0v):
    """The weights of a game at state x and nominal value u0v: the gain
    gate on spec (beta_gain, allow_safety_only), the Lie data that the
    family reads on base's plant and barrier (family.state(base, x)) and
    (R, R^{-1} Lg2h', S) of _weighted with spec.R2."""
    _check_gains(spec.beta_gain, spec.allow_safety_only)
    ld = family.state(base, x)
    return _Weights(ld, *_weighted(spec.R2, x, u0v, ld.Lg2h))


def _value_game(spec, family, base, lam, x, u0v, supply):
    """The game at state x and nominal value u0v: _game_weights, then
    the value equation of the module docstring; supply(ld, Lfh +
    Lg2h.u0, S) returns the game's (drift, adv, ctrl)."""
    beta = spec.beta_gain
    w = _game_weights(spec, family, base, x, u0v)
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
    return _value_game(iospec, DSSF, iospec.base, iospec.lam, x, u0v,
                       lambda ld, drift, S: (drift, elementwise(
                           iospec.gamma.ell, 2.0 * row_norm(ld.Lg1h)), S))


def inverse_optimal_general(iospec, x, t):
    """u = u0 + beta * R2^{-1} Lg2h'."""
    base = iospec.base
    u0v = _u0_at(base, x, t)
    return _plus(u0v, iospec.beta_gain,
                 _game_weights(iospec, DSSF, base, x, u0v).ra)


def inverse_optimal_condition(iospec, x, t):
    """Margin of the premise making the scaled correction safe:

        drift - ell_gamma(2||Lg1h||) + S + alpha(h) >= 0.

    Returned as-is so the caller decides whether to enforce or report.
    """
    return _premise(_io_game(iospec, x, _u0_at(iospec.base, x, t)),
                    iospec.base.alpha)


def _along(s, g, nrm):
    """s g / nrm, the worst-case disturbances' s Lg1h / ||Lg1h||; at a
    width-one number g, float arithmetic (_vector)."""
    if type(g) is float:
        return _vector(float(s) * g / nrm, lambda: s * np.array((g,)) / nrm)
    return s * g / nrm


def worst_case_disturbance(iospec, x):
    """Maximizing disturbance of the softened game, feedback in x only;
    at one state."""
    ld = _first_order_at(iospec.base.sys, iospec.base.bf, x)
    nrm = row_norm(ld.Lg1h)
    if nrm < GRAD_ZERO_TOL:
        return np.zeros(iospec.base.sys.m1)
    return _along(-iospec.lam * iospec.gamma.gamma_prime_inv(2.0 * nrm),
                  ld.Lg1h, nrm)


def qp_worst_case_disturbance(spec, lam, x):
    """Worst disturbance for the min-norm weights (rho-shaped penalty);
    at one state."""
    ld = _first_order_at(spec.sys, spec.bf, x)
    nrm = row_norm(ld.Lg1h)
    if nrm < GRAD_ZERO_TOL:
        return np.zeros(spec.sys.m1)
    return _along(-lam * budget(spec.rho, -ld.h_val), ld.Lg1h, nrm)


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
    ld = DSSF.state(spec, x)
    rinv = budget(spec.rho, -ld.h_val)
    omega, a, alpha_h = _dssf(spec, ld, u0v, rinv)[:3]
    l = (2.0 * beta_gain * alpha_h
         + beta_gain * _min(beta_gain * omega, -2.0 * omega)
         - beta_gain * (2.0 - lam) * row_norm(ld.Lg1h) * rinv)
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
    max_corr, violations = 0.0, 0
    for x in points:
        try:
            max_corr = max(max_corr, vec_norm(qp_filter(spec, x, t)))
        except CbfViolation:
            violations += 1
    return {"max_correction": max_corr, "violations": violations}
