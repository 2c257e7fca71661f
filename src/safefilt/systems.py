"""Control-affine system and barrier containers.

A system is dx = f(x) dt + g1(x) d dt + g2(x) u dt with d the
disturbance channel (width m1, possibly absent) and u the control
channel (width m2). A barrier h is safe on {h >= 0}; its gradient and
Hessian come analytically when supplied, otherwise by central finite
differences with a relative step.

The Lie data of a barrier comes in two orders, and each consumer
computes only the order it reads:

  first_order_lie   h, Lfh, Lg1h and Lg2h (a FirstOrderLie). The
                    deterministic filters, the disturbance game and its
                    weights, the worst-case disturbances and the
                    min-norm and qp-exact certificates read only these,
                    so the barrier Hessian is never called for them.
  lie_data          the same core plus the Ito terms of a disturbance
                    channel (m1 > 0): 0.5*Tr{g1' H g1}, ||g1' H g1||_F
                    and g1' H g1 (a LieData). The stochastic filters and
                    games read them, and so do nonovershoot's Ito
                    sandwich and ex5's generator margin; nonovershoot
                    calls it for its deterministic sandwich as well.

One call checks each thing once: the state's shape, each model output's
shape as it is converted, a supplied Hessian's symmetry (lie_data
only), and the finiteness of h and of every Lie product (one
math.isfinite per number). first_order_lie_rows and lie_data_rows do
the same at each row of a stack X of shape (N, n) and return one result
of stacks: the model is still called row by row (the loops that call
user callables row by row are all in this module: stack_rows, at_rows),
but its outputs are converted, and the Lie derivatives, the Hessian
symmetry and the finiteness checked, on the stacked arrays, which is
what makes a cost pass one array pass per record. The integrator's
per-stage calls keep the single-state forms, which are cheaper for one
state. Each call runs under one np.errstate that silences numpy's
warnings, the model calls and their finite differences included:
non-finite model data is its ModelBlowup, not a RuntimeWarning first.

SafefiltError is the base of every error the package raises by name;
each keeps its builtin base as well.

A policy callable u(x, t) takes one (n,) state. stacked(fn) declares
one that takes an (N, n) stack of states and returns the (N, m) stack
of its values; call_rows evaluates either kind on a stack, once for a
stacked one and row by row otherwise. Nothing guesses which kind a
callable is.
"""

import math
from typing import NamedTuple

import numpy as np

FD_STEP = 1e-6              # relative central-difference step
GRAD_CHECK_TOL = 1e-5
HESS_SYM_TOL = 1e-10


class SafefiltError(Exception):
    """Base of the errors this package raises by name. Each subclass
    also keeps a builtin base (ValueError, RuntimeError or
    ArithmeticError), so an except clause written for that base still
    catches it."""


class ModelBlowup(SafefiltError, ArithmeticError):
    """Model evaluation produced a non-finite value."""


_F64 = np.dtype(float)


def _as_state(x, n, what="state"):
    """x as an (n,) float64 array; one that already is passes unchanged.
    A scalar or a one-element sequence passes for n = 1. `what` names x
    in the shape error."""
    if type(x) is np.ndarray and x.dtype == _F64 and x.shape == (n,):
        return x
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (n,):
        raise ValueError("%s shape %s, expected (%d,)" % (what, x.shape, n))
    return x


def vec_norm(v):
    """Euclidean (Frobenius for a matrix) norm of a float array, as a
    float: numpy's own sqrt(v.v) for norm(v) and norm(v, "fro"), without
    its dispatch overhead on the tiny vectors of a single state.
    """
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def row_dot(a, b):
    """a.b as a float for vectors; for (N, m) stacks, one dot per row,
    equal bit for bit to the dot of each pair of rows."""
    if a.ndim == 1:
        return float(a @ b)
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def row_norm(v):
    """vec_norm of a vector, or of each row of an (N, m) stack."""
    if v.ndim == 1:
        return vec_norm(v)
    return np.sqrt(row_dot(v, v))


def at_rows(fn, x):
    """fn(x) at one state x; at an (N, n) stack, fn at each row, its
    tuple of outputs stacked field by field along a new leading axis."""
    if x.ndim == 1:
        return fn(x)
    return tuple(np.array(col, dtype=float) for col in zip(*map(fn, x)))


def stack_rows(fn, shape, *stacks):
    """fn at each row of the stacks, each output converted as
    np.asarray(out, dtype=float).reshape(shape), as one (N,) + shape
    array. The outputs are converted all at once; only where they do not
    stack is each converted alone, so a bad one raises its own error."""
    outs = list(map(fn, *stacks))
    try:
        return np.array(outs, dtype=float).reshape((len(outs),) + shape)
    except ValueError:
        return np.array([np.asarray(out, dtype=float).reshape(shape)
                         for out in outs])


class _Stacked:
    """A policy fn(X, t) declared to take an (N, n) stack; see stacked."""
    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, x, t):
        if type(x) is np.ndarray and x.ndim == 2:
            return self.fn(x, t)
        return np.asarray(self.fn(np.asarray(x, dtype=float).reshape(1, -1),
                                  t))[0]


def stacked(fn):
    """Mark the policy fn(X, t) as stacked: it takes an (N, n) stack of
    states and returns the (N, m) stack of its values, row i at X[i].
    Integrators and filters then call it once on a stack where they
    would call it at each row. At one (n,) state the marked callable
    calls fn on the one-row stack and returns its row, so it serves
    wherever a single-state policy does."""
    return fn if isinstance(fn, _Stacked) else _Stacked(fn)


def call_rows(fn, X, t, m, what):
    """The policy fn(x, t) at each row of the (N, n) stack X, as an
    (N, m) stack: one call when fn is stacked, its output checked as a
    whole, otherwise one call per row, each output checked by _as_state
    as at one state. `what` names fn in the shape error."""
    if isinstance(fn, _Stacked):
        out = np.asarray(fn.fn(X, t), dtype=float)
        if out.shape != (len(X), m):
            raise ValueError("%s stack shape %s, expected (%d, %d)"
                             % (what, out.shape, len(X), m))
        return out
    return np.array([_as_state(fn(x, t), m, what)
                     for x in X]).reshape(len(X), m)


def _vectors(fn, rows, n):
    """fn at each row as an (N, n) stack, where each output is an (n,)
    vector, or a number where n = 1 (what _as_state accepts); (0, n)
    where there are no rows."""
    a = np.array(list(map(fn, rows)), dtype=float)
    if a.shape[1:] != (n,) and not (a.ndim == 1 and (n == 1 or not rows)):
        raise ValueError("output stack shape %s, expected (N, %d)"
                         % (a.shape, n))
    return a.reshape(len(rows), n)


class ControlAffineSystem:
    def __init__(self, n, m1, m2, f, g1, g2):
        if n < 1 or m2 < 1 or m1 < 0:
            raise ValueError("need n >= 1, m2 >= 1, m1 >= 0")
        if m1 > 0 and g1 is None:
            raise ValueError("m1 > 0 requires a disturbance gain g1")
        self.n = n
        self.m1 = m1
        self.m2 = m2
        self._f = f
        self._g1 = g1
        self._g2 = g2

    def f_at(self, x):
        return self._f_of(_as_state(x, self.n))

    def g1_at(self, x):
        return self._g1_of(_as_state(x, self.n))

    def g2_at(self, x):
        return self._g2_of(_as_state(x, self.n))

    # the same at a state already checked by _as_state

    def _f_of(self, x):
        return _as_state(self._f(x), self.n, "f(x)")

    def _g1_of(self, x):
        if self.m1 == 0:
            return np.zeros((self.n, 0))
        return np.asarray(self._g1(x), dtype=float).reshape(self.n, self.m1)

    def _g2_of(self, x):
        return np.asarray(self._g2(x), dtype=float).reshape(self.n, self.m2)

    def _stacks_of(self, rows):
        """f, g2 and g1 at each of the states `rows`, as (N, n),
        (N, n, m2) and (N, n, m1) stacks: the model called row by row,
        its outputs converted as stacks."""
        n, m1 = self.n, self.m1
        return (_vectors(self._f, rows, n),
                stack_rows(self._g2, (n, self.m2), rows),
                stack_rows(self._g1, (n, m1), rows) if m1 > 0
                else np.zeros((len(rows), n, 0)))


def central_difference(fn, x):
    """Rows (fn(x + s e_i) - fn(x - s e_i)) / (2 s), s = FD_STEP (1 + |x_i|):
    the gradient of a scalar fn, the transposed Jacobian of a vector fn."""
    rows = []
    for i in range(x.size):
        step = FD_STEP * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        rows.append((fn(xp) - fn(xm)) / (2.0 * step))
    return np.array(rows)


class BarrierFunction:
    """h with optional analytic gradient/Hessian; safe set is {h >= 0}.

    inf_h < 0 < sup_h bound the attainable values of h. They are
    validated here, but nothing downstream reads them.
    """

    def __init__(self, h, grad=None, hess=None,
                 inf_h=-np.inf, sup_h=np.inf):
        if not (inf_h < 0.0 < sup_h):
            raise ValueError("need inf_h < 0 < sup_h")
        self._h = h
        self._grad = grad
        self._hess = hess
        self.inf_h = inf_h
        self.sup_h = sup_h

    def value(self, x):
        return float(self._h(np.asarray(x, dtype=float)))

    def gradient(self, x):
        return self._gradient_of(np.atleast_1d(np.asarray(x, dtype=float)))

    def _gradient_of(self, x):
        """The gradient at a state already checked by _as_state."""
        if self._grad is not None:
            return _as_state(self._grad(x), x.size, "gradient")
        return central_difference(self.value, x)

    def hessian(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self._symmetrized(self._raw_hessian(x))

    def _raw_hessian(self, x):
        """The Hessian at a checked state before symmetrization: the
        supplied one, or the difference of the gradient (analytic when
        available)."""
        if self._hess is not None:
            n = x.size
            return np.asarray(self._hess(x), dtype=float).reshape(n, n)
        return central_difference(self._gradient_of, x)

    def _symmetrized(self, H):
        """0.5 (H + H') of one Hessian or of a stack of them; a supplied
        one asymmetric by more than HESS_SYM_TOL is a ValueError."""
        Ht = H.swapaxes(-1, -2)
        if self._hess is not None and H.shape[-1] > 1:
            asym = np.max(np.abs(H - Ht), axis=(-2, -1)).reshape(-1)
            bad = asym > HESS_SYM_TOL
            if bad.any():
                raise ValueError("supplied Hessian asymmetric by %g"
                                 % asym[bad.argmax()])
        return 0.5 * (H + Ht)


class FirstOrderLie(NamedTuple):
    """h and its Lie derivatives at one state: what the deterministic
    filters, the disturbance game and its weights read. From a stack of
    N states every field gains a leading axis of length N (floats
    become (N,) arrays). Its fields are the first four of LieData,
    which adds the Ito terms; it has no trace_term, frob_term or
    g1_hess_g1, so reading one of them from it is an AttributeError."""
    h_val: float
    Lfh: float
    Lg1h: np.ndarray       # (m1,)
    Lg2h: np.ndarray       # (m2,)


class LieData(NamedTuple):
    """FirstOrderLie's four fields, then the Ito terms; stacked the same
    way. Immutable: a field cannot be reassigned, and the m1 = 0 Lg1h
    and g1_hess_g1 of lie_data and first_order_lie are read-only arrays
    that every such call shares."""
    h_val: float
    Lfh: float
    Lg1h: np.ndarray       # (m1,)
    Lg2h: np.ndarray       # (m2,)
    trace_term: float      # 0.5 * Tr{g1' H g1}
    frob_term: float       # ||g1' H g1||_F
    g1_hess_g1: np.ndarray  # (m1, m1)


# lie_data's Lg1h and g1_hess_g1 at m1 = 0: views of an immutable
# buffer, so no caller can write through them or make them writeable
_NO_LG1H = np.frombuffer(b"", dtype=float)
_NO_G1HG1 = _NO_LG1H.reshape(0, 0)


def _check_finite(numbers, x):
    if not all(map(math.isfinite, numbers)):
        raise ModelBlowup("non-finite model data at x=%s" % x)


def _first_order(sys, bf, x):
    """(x checked, g1, the numbers to check, then FirstOrderLie's four
    fields unchecked) at one state, under the caller's np.errstate. The model
    is called in the order h, gradient, f, g2, g1, so where two calls
    raise, the first in that order does."""
    x = _as_state(x, sys.n)
    h = float(bf._h(x))
    grad = bf._gradient_of(x)
    f, g2 = sys._f_of(x), sys._g2_of(x)
    Lfh = float(grad @ f)
    Lg2h = grad @ g2
    finite = [h, Lfh, *Lg2h.tolist()]
    if sys.m1 > 0:
        g1 = sys._g1_of(x)
        Lg1h = grad @ g1
        finite += Lg1h.tolist()
    else:
        g1, Lg1h = None, _NO_LG1H
    return x, g1, finite, h, Lfh, Lg1h, Lg2h


def first_order_lie(sys, bf, x):
    """h, Lfh, Lg1h and Lg2h at one state, each model output's shape
    and the four results' finiteness checked once (ModelBlowup if one
    is not finite). The barrier Hessian is never called."""
    # non-finite model data, a finite difference of it included, is the
    # ModelBlowup of _check_finite, not a numpy warning first
    with np.errstate(all="ignore"):
        x, _, finite, h, Lfh, Lg1h, Lg2h = _first_order(sys, bf, x)
        _check_finite(finite, x)
    return FirstOrderLie(h, Lfh, Lg1h, Lg2h)


def lie_data(sys, bf, x):
    """first_order_lie plus the Ito terms where m1 > 0: the Hessian is
    called after g1, a supplied one checked for symmetry, and then the
    finiteness of every result checked at once."""
    with np.errstate(all="ignore"):  # as in first_order_lie
        x, g1, finite, h, Lfh, Lg1h, Lg2h = _first_order(sys, bf, x)
        if sys.m1 > 0:
            G = g1.T @ bf._symmetrized(bf._raw_hessian(x)) @ g1
            trace = 0.5 * float(G.trace())
            frob = vec_norm(G)
            finite += [trace, frob]
        else:
            G, trace, frob = _NO_G1HG1, 0.0, 0.0
        _check_finite(finite, x)
    return LieData(h, Lfh, Lg1h, Lg2h, trace, frob, G)


def _state_rows(sys, X):
    """The rows of an (N, n) state stack X, as a list."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != sys.n:
        raise ValueError("state stack shape %s, expected (N, %d)"
                         % (X.shape, sys.n))
    return list(X)


def _first_order_rows(sys, bf, rows):
    """(g1, the arrays to check, FirstOrderLie's fields unchecked) at
    each of the states `rows`, as stacks, under the caller's
    np.errstate."""
    n = sys.n
    h = stack_rows(bf._h, (), rows)
    if bf._grad is None:
        grad = stack_rows(bf._gradient_of, (n,), rows)
    else:
        grad = _vectors(bf._grad, rows, n)
    fx, g2, g1 = sys._stacks_of(rows)
    Lfh = row_dot(grad, fx)
    Lg2h = np.matmul(grad[:, None, :], g2)[:, 0, :]
    if sys.m1 > 0:
        Lg1h = np.matmul(grad[:, None, :], g1)[:, 0, :]
    else:
        Lg1h = np.zeros((len(rows), 0))
    return g1, [h, Lfh, Lg1h.ravel(), Lg2h.ravel()], (h, Lfh, Lg1h, Lg2h)


def _by_row(kind, single, rows):
    """single at each row, as one `kind` (FirstOrderLie or LieData)
    whose fields are the rows' fields stacked: the fallback of the
    stacked evaluations, which raises single's own error at the first
    bad row."""
    lds = [single(x) for x in rows]
    return kind(*(np.array([getattr(ld, name) for ld in lds])
                  for name in kind._fields))


def first_order_lie_rows(sys, bf, X):
    """first_order_lie at each row of an (N, n) stack X, as one
    FirstOrderLie whose fields have a leading axis of length N, equal
    bit for bit to the single-state values. The model is called row by
    row, but its outputs are converted and checked as stacks. Where
    anything fails, first_order_lie runs again row by row: it raises
    its own error at the first bad row, or, for a model whose output
    shape varies from row to row, gives the same data."""
    rows = _state_rows(sys, X)
    with np.errstate(all="ignore"):  # as in first_order_lie
        try:
            _, terms, first = _first_order_rows(sys, bf, rows)
            if np.isfinite(np.concatenate(terms)).all():
                return FirstOrderLie(*first)
        except Exception:
            pass
    return _by_row(FirstOrderLie, lambda x: first_order_lie(sys, bf, x),
                   rows)


def lie_data_rows(sys, bf, X):
    """lie_data at each row of an (N, n) stack X, as one LieData: the
    stacks of first_order_lie_rows plus the Ito terms, from one Hessian
    stack, symmetrized and checked at once; where anything fails,
    lie_data row by row, as there."""
    rows = _state_rows(sys, X)
    n, m1, N = sys.n, sys.m1, len(rows)
    with np.errstate(all="ignore"):  # as in first_order_lie
        try:
            g1, terms, first = _first_order_rows(sys, bf, rows)
            if m1 > 0:
                H = bf._symmetrized(stack_rows(
                    bf._raw_hessian if bf._hess is None else bf._hess,
                    (n, n), rows))
                G = np.matmul(np.matmul(np.swapaxes(g1, 1, 2), H), g1)
                trace = 0.5 * np.trace(G, axis1=1, axis2=2)
                frob = row_norm(G.reshape(N, m1 * m1))
            else:
                G = np.zeros((N, 0, 0))
                trace, frob = np.zeros((2, N))
            if np.isfinite(np.concatenate(terms + [trace, frob])).all():
                return LieData(*first, trace, frob, G)
        except Exception:
            pass
    return _by_row(LieData, lambda x: lie_data(sys, bf, x), rows)


def check_gradient(bf, x):
    """Max relative disagreement between analytic and FD gradients."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    analytic = bf.gradient(x)
    fd = central_difference(bf.value, x)
    return float(np.max(np.abs(analytic - fd) / (1.0 + np.abs(analytic))))


def scalar_system(f, g1, g2):
    """1-D convenience wrapper; g1=None means no disturbance channel. The
    gains are returned as plain numbers, which ControlAffineSystem reads
    as (1, 1) matrices (a cheaper conversion than a nested array)."""
    m1 = 0 if g1 is None else 1
    return ControlAffineSystem(
        1, m1, 1,
        lambda x: np.array([f(float(x[0]))]),
        None if g1 is None else (lambda x: g1(float(x[0]))),
        lambda x: g2(float(x[0])))
