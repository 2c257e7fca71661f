"""Control-affine system and barrier containers.

A system is dx = f(x) dt + g1(x) d dt + g2(x) u dt with d the
disturbance channel (width m1, possibly absent) and u the control
channel (width m2). A barrier h is safe on {h >= 0}; its gradient and
Hessian come analytically when supplied, otherwise by central finite
differences with a relative step.

lie_data evaluates everything the filters need at one state in one
call: h, the Lie derivatives along f, g1, g2, and the second-order
terms 0.5*Tr{g1' H g1} and ||g1' H g1||_F used by the stochastic
generators.
"""

import math
from dataclasses import dataclass

import numpy as np

FD_STEP = 1e-6              # relative central-difference step
GRAD_CHECK_TOL = 1e-5
HESS_SYM_TOL = 1e-10


class ModelBlowup(ArithmeticError):
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
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self._grad is not None:
            return _as_state(self._grad(x), x.size, "gradient")
        return central_difference(self.value, x)

    def hessian(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        n = x.size
        if self._hess is not None:
            H = np.asarray(self._hess(x), dtype=float).reshape(n, n)
            asym = float(np.max(np.abs(H - H.T))) if n > 1 else 0.0
            if asym > HESS_SYM_TOL:
                raise ValueError("supplied Hessian asymmetric by %g" % asym)
            return 0.5 * (H + H.T)
        # difference the gradient (analytic when available) and symmetrize
        H = central_difference(self.gradient, x)
        return 0.5 * (H + H.T)


@dataclass(frozen=True)
class LieData:
    h_val: float
    Lfh: float
    Lg1h: np.ndarray       # (m1,)
    Lg2h: np.ndarray       # (m2,)
    trace_term: float      # 0.5 * Tr{g1' H g1}
    frob_term: float       # ||g1' H g1||_F
    g1_hess_g1: np.ndarray  # (m1, m1)


def lie_data(sys, bf, x):
    x = _as_state(x, sys.n)
    h = bf.value(x)
    grad = bf.gradient(x)
    Lfh = float(grad @ sys._f_of(x))
    Lg2h = grad @ sys._g2_of(x)
    if sys.m1 > 0:
        g1 = sys._g1_of(x)
        Lg1h = grad @ g1
        H = bf.hessian(x)
        G = g1.T @ H @ g1
        trace = 0.5 * float(np.trace(G))
        frob = vec_norm(G)
    else:
        Lg1h = np.zeros(0)
        G = np.zeros((0, 0))
        trace = 0.0
        frob = 0.0
    if not (math.isfinite(h) and math.isfinite(Lfh) and math.isfinite(trace)
            and math.isfinite(frob) and np.isfinite(Lg1h).all()
            and np.isfinite(Lg2h).all()):
        raise ModelBlowup("non-finite model data at x=%s" % x)
    return LieData(h, Lfh, Lg1h, Lg2h, trace, frob, G)


def check_gradient(bf, x):
    """Max relative disagreement between analytic and FD gradients."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    analytic = bf.gradient(x)
    fd = central_difference(bf.value, x)
    return float(np.max(np.abs(analytic - fd) / (1.0 + np.abs(analytic))))


def scalar_system(f, g1, g2):
    """1-D convenience wrapper; g1=None means no disturbance channel."""
    m1 = 0 if g1 is None else 1
    return ControlAffineSystem(
        1, m1, 1,
        lambda x: np.array([f(float(x[0]))]),
        None if g1 is None else (lambda x: np.array([[g1(float(x[0]))]])),
        lambda x: np.array([[g2(float(x[0]))]]))
