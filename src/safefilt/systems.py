"""Control-affine system and barrier containers.

A system is dx = f(x) dt + g1(x) d dt + g2(x) u dt with d the
disturbance channel (width m1, possibly absent) and u the control
channel (width m2). A barrier h is safe on {h >= 0}; its gradient and
Hessian come analytically when supplied, otherwise by central finite
differences with a relative step.

The Lie data of a barrier comes in two orders, and each consumer
computes only the order it reads:

  first_order_lie   h, Lfh, Lg1h and Lg2h (a FirstOrderLie). The
                    deterministic filters (nonovershoot's sandwich too),
                    the disturbance game and its weights, the
                    worst-case disturbances and the min-norm and
                    qp-exact certificates read only these, so the
                    barrier Hessian is never called for them.
  lie_data          the same core plus the Ito terms of a disturbance
                    channel (m1 > 0): 0.5*Tr{g1' H g1}, ||g1' H g1||_F
                    and g1' H g1 (a LieData). The stochastic filters and
                    games read them, and so do nonovershoot's Ito
                    sandwich and ex5's generator margin.

One call checks each thing once: the state's shape, each model output's
shape as it is converted, a supplied Hessian's symmetry (lie_data
only), and the finiteness of h and of every Lie product (one
math.isfinite per number). first_order_lie_rows and lie_data_rows do
the same at each row of a stack X of shape (N, n) and return one result
of stacks: the model is still called row by row, but its outputs are
converted, and the Lie derivatives, the Hessian symmetry and the
finiteness checked, on the stacked arrays, which is what makes a cost
pass one array pass per record. The integrator's per-stage calls keep
the single-state forms, which are cheaper for one state. Each call runs
with numpy's warnings silenced, the model calls and their finite
differences included: non-finite model data is its ModelBlowup, not a
RuntimeWarning first. Outside a loop each call enters its own
np.errstate(all="ignore"). Inside a loop it enters none: sim._run holds
the loop scope (_loop_scope) for its run, one np.errstate(all="ignore")
around the whole run and a one-entry memo of first_order_lie, which
returns its stored result where plant and barrier are the same objects
and the checked state has the same bytes. The loops already require
pure policies of (x, t), and the memo ends with its run, so a model
edited between runs is read afresh. A result is stored only once its
finiteness check has passed, so a model that raised is called again;
its Lg1h and Lg2h are read-only arrays, shared by every caller that
reads that state. reciprocal's B data and filters' stacked corrections
take the same guard (_guard).

This module holds the one row mapper of the package, which calls the
user's model and policy callables on the rows of a stack. stack_rows
calls a model callable (plant field, barrier, gradient, Hessian,
weight) at each row and converts the outputs with _stacked, the one
stack converter: all at once, each output as it would convert at one
state (a vector shape as _as_state takes it, any other shape as
reshape does), and one at a time only where they do not stack, so a
bad output raises its own error; a scalar plant's fields go through
_column, its float reads. at_rows stacks the tuples of a single-state
function, the row-by-row fallback of the *_rows functions among them.
call_rows maps a policy (u0, control, d) over a stack, and
_single_state turns a stacked policy into the single-state one that
the integrators call, checked as a stack. ControlAffineSystem._field
forms f + g2 u + g1 d at one state or on a stack, so sim only runs
loops.

One contraction rule serves every vector product of the package:
row_dot (vector.vector, to a float), vecmat (vector @ matrix), matvec
(matrix @ vector), each also on (N, ...) stacks, and vec_norm and
row_norm. vecmat and matvec are np.matmul at every width, single or
stacked, so their values and warnings are matmul's. row_dot and
vec_norm return floats and are called at every margin, correction and
norm, so they keep a float rule at width one: where both operands
hold a single number x and y, the product is the float 0.0 + x*y and
the norm sqrt(x*x), and an empty vector's norm is 0.0. That is the
value np.matmul gives there (its sum starts from +0.0, so a -0.0
product comes out +0.0), for a fraction of the cost of a 1x1 matmul
call. Two differences are not in the value: a float product that
overflows is inf with no warning, where matmul warns outside an
np.errstate (x**2 would raise OverflowError, so the rule writes x*x);
and a product of two NaNs is a NaN whose sign and payload are not
fixed, so need not be matmul's: CPython's float multiply can give one
operand's NaN before its adaptive interpreter specialises the multiply
and the other's after. Wider vectors go
through ndarray.dot, which gives matmul's bytes from width two on at
about half the call cost of @ (at width one it gives -0.0 where matmul
gives +0.0, which the float rule settles), and stacks through
np.matmul, one call per pass, not per row. The helpers choose from the
operands' sizes alone.

A plant built by scalar_system is scalar: its f, g1 and g2 take the
state as a Python float and return a number, and every model read takes
their outputs as floats (_floats_at, _f_value, _gain_value): the Lie
data at one state (_products, which reciprocal's B data shares) and on
stacks (ControlAffineSystem._stacks_of), and the RK4 field
(ControlAffineSystem._field). Each read calls the model in the order f,
g2, g1 and applies the contraction rule in float arithmetic, so it
gives the bits, errors and calls of the same plant built from array
callables; only this module knows the format. Barriers stay array-based.

SafefiltError is the base of every error the package raises by name;
each keeps its builtin base as well.

A policy callable u(x, t) takes one (n,) state. stacked(fn) declares
one that takes an (N, n) stack of states and returns the (N, m) stack
of its values; call_rows evaluates either kind on a stack, once for a
stacked one and row by row otherwise, and the integrators call a
stacked one at one state on its one-row stack (_single_state), as do
the filters, so its wrong width is the same "stack shape" error in
every integrator and filter. Nothing guesses which kind a callable is.

A barrier's h is read by one rule on every route: _h_value at one state
(BarrierFunction.value, the Lie data, sim's records, the projection
laws and reciprocal's B) and stack_rows(bf._h, (), rows) on a stack take
the same outputs, any one number (a float, a numpy scalar, or a 0-d,
(1,) or (1, 1) array); any other size is the ValueError "h(x) shape
..., expected one number", which a stack meets as it falls back to its
rows.
"""

import contextlib
import contextvars
import math
from typing import NamedTuple

import numpy as np

FD_STEP = 1e-6              # relative central-difference step
HESS_SYM_TOL = 1e-10


class SafefiltError(Exception):
    """Base of the errors this package raises by name. Each subclass
    also keeps a builtin base (ValueError, RuntimeError or
    ArithmeticError), so an except clause written for that base still
    catches it."""


class ModelBlowup(SafefiltError, ArithmeticError):
    """Model evaluation produced a non-finite value."""


_F64 = np.dtype(float)
_FLOAT_TYPES = (float, np.float64)
_FLOAT_TYPE_SET = frozenset(_FLOAT_TYPES)


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
    float, by the contraction rule: sqrt(x*x) for one number x, 0.0 for
    none, otherwise numpy's own sqrt(v.v) for norm(v) and norm(v, "fro")
    without its dispatch overhead."""
    size = v.size
    if size == 1:
        x = v.item()
        return math.sqrt(x * x)
    if size == 0:
        return 0.0
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def row_dot(a, b):
    """a.b as a float for vectors, by the contraction rule; for (N, m)
    stacks, one dot per row, equal bit for bit to the dot of each pair
    of rows."""
    if a.ndim == 1:
        if a.size == 1:
            return 0.0 + a.item() * b.item()
        return float(a.dot(b))
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def row_norm(v):
    """vec_norm of a vector, or of each row of an (N, m) stack."""
    if v.ndim == 1:
        return vec_norm(v)
    return np.sqrt(row_dot(v, v))


def vecmat(a, B):
    """a @ B for a vector a (k,) and a matrix B (k, m), by the
    contraction rule; for an (N, k) stack a and an (N, k, m) stack B,
    a_i @ B_i at each row, as an (N, m) stack."""
    if a.ndim == 1:
        return a @ B
    return np.matmul(a[:, None, :], B)[:, 0, :]


def matvec(A, v):
    """A @ v for a matrix A (p, k) and a vector v (k,), by the
    contraction rule; for an (N, k) stack v, A_i @ v_i at each row, as
    an (N, p) stack, where A is one (p, k) matrix or an (N, p, k) stack
    of them."""
    if v.ndim == 1:
        return A @ v
    return np.matmul(A, v[:, :, None])[:, :, 0]


def at_rows(fn, x):
    """fn(x) at one state x; at an (N, n) stack, fn at each row, its
    tuple of outputs stacked field by field along a new leading axis."""
    if x.ndim == 1:
        return fn(x)
    return tuple(np.array(col, dtype=float) for col in zip(*map(fn, x)))


def stack_rows(fn, shape, *stacks):
    """fn at each row of the stacks, its outputs as one (N,) + shape
    array (_stacked)."""
    return _stacked(list(map(fn, *stacks)), shape)


def _stacked(outs, shape):
    """The list outs, one output per row, as one (N,) + shape float
    array, each output converted as at one state: to a vector shape (k,)
    as _as_state converts it (a number passes for k = 1), to any other
    shape as np.asarray(out, dtype=float).reshape(shape). The list is
    converted at once; only where its outputs do not stack is each
    converted alone, so a bad one raises its own error."""
    N = len(outs)
    try:
        a = np.array(outs, dtype=float)
        if len(shape) != 1 or a.shape[1:] == shape or (
                a.shape == (N,) and (shape == (1,) or not N)):
            return a.reshape((N,) + shape)
    except ValueError:
        pass
    if len(shape) == 1:
        return np.array([_as_state(out, shape[0], "output")
                         for out in outs]).reshape((N,) + shape)
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
    as at one state (where m = 1 a float number passes as it is), the
    first bad row raising before later rows are called. `what` names fn
    in the shape error."""
    if isinstance(fn, _Stacked):
        out = np.asarray(fn.fn(X, t), dtype=float)
        if out.shape != (len(X), m):
            raise ValueError("%s stack shape %s, expected (%d, %d)"
                             % (what, out.shape, len(X), m))
        return out
    if m == 1:
        return np.array([_one_value(fn(x, t), what)
                         for x in X]).reshape(len(X), 1)
    return np.array([_as_state(fn(x, t), m, what)
                     for x in X]).reshape(len(X), m)


def _single_state(fn, m, what):
    """The policy fn as a single-state one, for the integrators: fn
    itself, or for a stacked fn, fn on the one-row stack of the state,
    checked by call_rows, so its error is the stack's."""
    if not isinstance(fn, _Stacked):
        return fn
    return lambda x, t: call_rows(
        fn, np.asarray(x, dtype=float).reshape(1, -1), t, m, what)[0]


def _h_value(out):
    """A barrier's output h(x) as a float, the one reader of h at one
    state (a stack's h, stack_rows(bf._h, (), rows), takes the same
    outputs): a Python or numpy float as it is; anything else through
    np.asarray, where one number of any shape (0-d, (1,), (1, 1), ...)
    is read by float(), and any other size is ValueError("h(x) shape
    (k,), expected one number")."""
    if type(out) in _FLOAT_TYPE_SET:
        return float(out)
    a = np.asarray(out)
    if a.size != 1:
        raise ValueError("h(x) shape %s, expected one number" % (a.shape,))
    return float(a.reshape(()))


def _one_value(out, what):
    """A width-one policy output as a float: a Python or numpy float64
    number as it is, anything else through _as_state's check."""
    if type(out) in _FLOAT_TYPES:
        return out
    return _as_state(out, 1, what).item()


# A scalar plant's output that is a Python or numpy float is that float;
# any other is converted and checked as an array plant's would be, with
# the same errors: f's as np.array([out]) through _as_state, a gain's
# through np.asarray(out, dtype=float).reshape(1, 1).

def _f_value(out):
    """A scalar plant's f output as a float."""
    if type(out) is float:
        return out
    if type(out) is np.float64:
        return float(out)
    return _as_state(np.array([out]), 1, "f(x)").item()


def _gain_value(out):
    """A scalar plant's g1 or g2 output as a float."""
    if type(out) is float:
        return out
    if type(out) is np.float64:
        return float(out)
    return np.asarray(out, dtype=float).reshape(1, 1).item()


def _column(outs, value):
    """A scalar plant's outputs of one field at the rows of a stack (an
    iterable, taken whole before any is read), as one (N,) float array:
    at once where each is a Python or numpy float, else each read by
    value (_f_value or _gain_value) as at one state, with its errors."""
    outs = list(outs)
    if set(map(type, outs)) <= _FLOAT_TYPE_SET:
        return np.array(outs, dtype=float)
    return np.array([value(out) for out in outs], dtype=float)


class ControlAffineSystem:
    """dx = f(x) dt + g1(x) d dt + g2(x) u dt on states of width n.

    f(x) is an (n,) vector and the gains (n, m1) and (n, m2) matrices,
    of an (n,) state. A plant built by scalar_system is scalar (_scalar
    true): n = m2 = 1, m1 is 0 or 1, and f, g1 and g2 take the state as
    a Python float and return a number, which the model reads below take
    as a float (_f_value, _gain_value); nothing else is ever scalar.
    """

    _scalar = False

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
        if self._scalar:
            return np.array((_f_value(self._f(x.item())),))
        return _as_state(self._f(x), self.n, "f(x)")

    def _g1_of(self, x):
        if self.m1 == 0:
            return np.zeros((self.n, 0))
        if self._scalar:
            return np.array(((_gain_value(self._g1(x.item())),),))
        return np.asarray(self._g1(x), dtype=float).reshape(self.n, self.m1)

    def _g2_of(self, x):
        if self._scalar:
            return np.array(((_gain_value(self._g2(x.item())),),))
        return np.asarray(self._g2(x), dtype=float).reshape(self.n, self.m2)

    def _floats_at(self, v):
        """f, g2 and g1 of a scalar plant at the float state v, as
        floats (g1 None where m1 = 0): called in that order, each output
        read before the next call."""
        f = _f_value(self._f(v))
        g2 = _gain_value(self._g2(v))
        if self.m1 == 0:
            return f, g2, None
        return f, g2, _gain_value(self._g1(v))

    def _field(self, x, u, d):
        """f + g2 u + g1 d at a checked state x, for checked controls u
        (m2,) and disturbances d (m1,), as an (n,) array; at an (N, n)
        stack x, of (N, m2) and (N, m1) stacks u and d, the (N, n)
        stack of the rows' rates, the plant read by _stacks_of. The
        products are by the contraction rule, added in that order (no
        g1 term where m1 = 0). At one state of a scalar plant it is
        float arithmetic throughout, the same bits."""
        if x.ndim == 2:
            f, g2, g1 = self._stacks_of(x)
        elif self._scalar:
            f, g2, g1 = self._floats_at(x.item())
            dx = f + (0.0 + g2 * u.item())
            if g1 is not None:
                dx = dx + (0.0 + g1 * d.item())
            return np.array((dx,))
        else:
            f, g2 = self._f_of(x), self._g2_of(x)
            g1 = self._g1_of(x) if self.m1 > 0 else None
        dx = f + matvec(g2, u)
        if self.m1 > 0:
            dx = dx + matvec(g1, d)
        return dx

    def _stacks_of(self, X):
        """f, g2 and g1 at each row of the (N, n) state stack X, as
        (N, n), (N, n, m2) and (N, n, m1) stacks: the model called row
        by row, f at every row, then g2, then g1, and each field's
        outputs converted as a stack (stack_rows; a scalar plant's by
        _column)."""
        n, m1, m2, N = self.n, self.m1, self.m2, len(X)
        if self._scalar:
            xs = X[:, 0].tolist()
            F = _column(map(self._f, xs), _f_value)
            G2 = _column(map(self._g2, xs), _gain_value)
            G1 = (_column(map(self._g1, xs), _gain_value).reshape(N, 1, 1)
                  if m1 > 0 else np.zeros((N, 1, 0)))
            return F.reshape(N, 1), G2.reshape(N, 1, 1), G1
        rows = list(X)
        return (stack_rows(self._f, (n,), rows),
                stack_rows(self._g2, (n, m2), rows),
                stack_rows(self._g1, (n, m1), rows) if m1 > 0
                else np.zeros((N, n, 0)))


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
    """h with optional analytic gradient/Hessian; safe set is {h >= 0}."""

    def __init__(self, h, grad=None, hess=None):
        self._h = h
        self._grad = grad
        self._hess = hess

    def value(self, x):
        return _h_value(self._h(np.asarray(x, dtype=float)))

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


class _Memo:
    """first_order_lie's one stored result inside a loop scope: the
    plant and barrier it was read for, the checked state's bytes and the
    FirstOrderLie."""
    __slots__ = ("sys", "bf", "key", "lie")

    def __init__(self):
        self.sys = self.bf = self.key = self.lie = None


# the loop scope: the _Memo of the sim._run now running, None outside
# every loop
_LOOP = contextvars.ContextVar("safefilt_loop", default=None)
_NO_GUARD = contextlib.nullcontext()


@contextlib.contextmanager
def _loop_scope():
    """The scope of one loop run: numpy's warnings silenced, and a fresh
    first_order_lie memo that ends with the run."""
    with np.errstate(all="ignore"):
        token = _LOOP.set(_Memo())
        try:
            yield
        finally:
            _LOOP.reset(token)


def _guard():
    """np.errstate(all="ignore") outside a loop scope; inside one, which
    holds that error state for its whole run, a context that does
    nothing."""
    if _LOOP.get() is None:
        return np.errstate(all="ignore")
    return _NO_GUARD


def _check_finite(numbers, x):
    if not all(map(math.isfinite, numbers)):
        raise ModelBlowup("non-finite model data at x=%s" % x)


def _products(sys, x, grad):
    """(Lfh, Lg2h, Lg1h, g1, numbers) at a checked state x from the
    barrier gradient grad there: the model called in the order f, g2, g1
    (g1 only where m1 > 0; else Lg1h is the shared empty one and g1
    None), each product by the contraction rule. g1 is the (n, m1) gain,
    or on a scalar plant its float: there every product is float
    arithmetic, the same bits, and numbers is the list of the product
    floats held, for the finiteness check; on other plants it is None."""
    if sys._scalar:
        f, g2, g1 = sys._floats_at(x.item())
        gr = grad.item()
        Lfh, lg2 = 0.0 + gr * f, 0.0 + gr * g2
        if g1 is None:
            return Lfh, np.array((lg2,)), _NO_LG1H, None, [Lfh, lg2]
        lg1 = 0.0 + gr * g1
        return (Lfh, np.array((lg2,)), np.array((lg1,)), g1,
                [Lfh, lg2, lg1])
    f, g2 = sys._f_of(x), sys._g2_of(x)
    Lfh = row_dot(grad, f)
    Lg2h = vecmat(grad, g2)
    if sys.m1 == 0:
        return Lfh, Lg2h, _NO_LG1H, None, None
    g1 = sys._g1_of(x)
    return Lfh, Lg2h, vecmat(grad, g1), g1, None


def _first_order(sys, bf, x):
    """(x checked, g1, the numbers to check, then FirstOrderLie's four
    fields unchecked) at one state, under the caller's np.errstate. The model
    is called in the order h, gradient, f, g2, g1, so where two calls
    raise, the first in that order does. g1 is _products' g1."""
    x = _as_state(x, sys.n)
    h = _h_value(bf._h(x))
    grad = bf._gradient_of(x)
    Lfh, Lg2h, Lg1h, g1, numbers = _products(sys, x, grad)
    if numbers is None:
        finite = [h, Lfh, *Lg2h.tolist(), *Lg1h.tolist()]
    else:
        finite = [h, *numbers]
    return x, g1, finite, h, Lfh, Lg1h, Lg2h


def first_order_lie(sys, bf, x):
    """h, Lfh, Lg1h and Lg2h at one state, each model output's shape
    and the four results' finiteness checked once (ModelBlowup if one
    is not finite). The barrier Hessian is never called. Inside a loop
    scope, the memo's result where plant, barrier and state bytes match
    it; else the new result, stored with read-only Lg1h and Lg2h."""
    memo = _LOOP.get()
    if memo is None:
        # non-finite model data, a finite difference of it included, is
        # the ModelBlowup of _check_finite, not a numpy warning first
        with np.errstate(all="ignore"):
            return _first_order_lie(sys, bf, x)
    x = _as_state(x, sys.n)
    key = x.tobytes()
    if memo.sys is sys and memo.bf is bf and memo.key == key:
        return memo.lie
    ld = _first_order_lie(sys, bf, x)
    ld.Lg1h.setflags(write=False)
    ld.Lg2h.setflags(write=False)
    memo.sys, memo.bf, memo.key, memo.lie = sys, bf, key, ld
    return ld


def _first_order_lie(sys, bf, x):
    """first_order_lie's data, read afresh under the caller's error
    state."""
    x, _, finite, h, Lfh, Lg1h, Lg2h = _first_order(sys, bf, x)
    _check_finite(finite, x)
    return FirstOrderLie(h, Lfh, Lg1h, Lg2h)


def lie_data(sys, bf, x):
    """first_order_lie plus the Ito terms where m1 > 0: the Hessian is
    called after g1, a supplied one checked for symmetry, and then the
    finiteness of every result checked at once."""
    with _guard():  # as in first_order_lie
        x, g1, finite, h, Lfh, Lg1h, Lg2h = _first_order(sys, bf, x)
        if sys.m1 > 0:
            if sys._scalar:
                g1 = np.array(((g1,),))
            G = g1.T @ bf._symmetrized(bf._raw_hessian(x)) @ g1
            trace = 0.5 * float(G.trace())
            frob = vec_norm(G)
            finite += [trace, frob]
        else:
            G, trace, frob = _NO_G1HG1, 0.0, 0.0
        _check_finite(finite, x)
    return LieData(h, Lfh, Lg1h, Lg2h, trace, frob, G)


def _state_stack(sys, X):
    """An (N, n) state stack X as a float array, checked."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != sys.n:
        raise ValueError("state stack shape %s, expected (N, %d)"
                         % (X.shape, sys.n))
    return X


def _first_order_rows(sys, bf, X, rows):
    """(g1, the arrays to check, FirstOrderLie's fields unchecked) at
    each row of the checked state stack X, whose rows are `rows`, as
    stacks, under the caller's np.errstate."""
    h = stack_rows(bf._h, (), rows)
    grad = stack_rows(bf._grad or bf._gradient_of, (sys.n,), rows)
    fx, g2, g1 = sys._stacks_of(X)
    Lfh = row_dot(grad, fx)
    Lg2h = vecmat(grad, g2)
    if sys.m1 > 0:
        Lg1h = vecmat(grad, g1)
    else:
        Lg1h = np.zeros((len(rows), 0))
    return g1, [h, Lfh, Lg1h.ravel(), Lg2h.ravel()], (h, Lfh, Lg1h, Lg2h)


def first_order_lie_rows(sys, bf, X):
    """first_order_lie at each row of an (N, n) stack X, as one
    FirstOrderLie whose fields have a leading axis of length N, equal
    bit for bit to the single-state values. The model is called row by
    row, but its outputs are converted and checked as stacks. Where
    anything fails, first_order_lie runs again row by row: it raises
    its own error at the first bad row, or, for a model whose output
    shape varies from row to row, gives the same data."""
    X = _state_stack(sys, X)
    rows = list(X)
    with _guard():  # as in first_order_lie
        try:
            _, terms, first = _first_order_rows(sys, bf, X, rows)
            if np.isfinite(np.concatenate(terms)).all():
                return FirstOrderLie(*first)
        except Exception:
            pass
    return FirstOrderLie(*at_rows(lambda x: first_order_lie(sys, bf, x), X))


def lie_data_rows(sys, bf, X):
    """lie_data at each row of an (N, n) stack X, as one LieData: the
    stacks of first_order_lie_rows plus the Ito terms, from one Hessian
    stack, symmetrized and checked at once; where anything fails,
    lie_data row by row, as there."""
    X = _state_stack(sys, X)
    rows = list(X)
    n, m1, N = sys.n, sys.m1, len(rows)
    with _guard():  # as in first_order_lie
        try:
            g1, terms, first = _first_order_rows(sys, bf, X, rows)
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
    return LieData(*at_rows(lambda x: lie_data(sys, bf, x), X))


def check_gradient(bf, x):
    """Max relative disagreement between analytic and FD gradients."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    analytic = bf.gradient(x)
    fd = central_difference(bf.value, x)
    return float(np.max(np.abs(analytic - fd) / (1.0 + np.abs(analytic))))


def scalar_system(f, g1, g2):
    """The plant dx = f(x) dt + g1(x) d dt + g2(x) u dt on a scalar
    state; g1=None means no disturbance channel. f, g1 and g2 take x as
    a Python float and return a number. The plant is scalar (see
    ControlAffineSystem): its model reads take the outputs as floats,
    where a Python or numpy float is read as it is and anything else is
    converted and checked as an array plant's f (an (n,) vector) and
    gains ((n, m) matrices) are, with the same errors."""
    plant = ControlAffineSystem(1, 0 if g1 is None else 1, 1, f, g1, g2)
    plant._scalar = True
    return plant
