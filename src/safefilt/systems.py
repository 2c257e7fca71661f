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

from dataclasses import dataclass

import numpy as np

FD_STEP = 1e-6              # relative central-difference step
GRAD_CHECK_TOL = 1e-5
HESS_SYM_TOL = 1e-10


class ModelBlowup(ArithmeticError):
    """Model evaluation produced a non-finite value."""


def _as_state(x, n):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (n,):
        raise ValueError("state shape %s, expected (%d,)" % (x.shape, n))
    return x


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
        x = _as_state(x, self.n)
        v = np.atleast_1d(np.asarray(self._f(x), dtype=float))
        if v.shape != (self.n,):
            raise ValueError("f(x) shape %s, expected (%d,)" % (v.shape, self.n))
        return v

    def g1_at(self, x):
        x = _as_state(x, self.n)
        if self.m1 == 0:
            return np.zeros((self.n, 0))
        m = np.asarray(self._g1(x), dtype=float).reshape(self.n, self.m1)
        return m

    def g2_at(self, x):
        x = _as_state(x, self.n)
        m = np.asarray(self._g2(x), dtype=float).reshape(self.n, self.m2)
        return m


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

    inf_h < 0 < sup_h bound the attainable values of h and gate the
    class-K evaluations downstream (an alpha defined on (inf_h, sup_h)).
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
            g = np.atleast_1d(np.asarray(self._grad(x), dtype=float))
            if g.shape != x.shape:
                raise ValueError("gradient shape %s, expected %s"
                                 % (g.shape, x.shape))
            return g
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
    f = sys.f_at(x)
    g1 = sys.g1_at(x)
    g2 = sys.g2_at(x)
    Lfh = float(grad @ f)
    Lg1h = grad @ g1 if sys.m1 > 0 else np.zeros(0)
    Lg2h = grad @ g2
    if sys.m1 > 0:
        H = bf.hessian(x)
        G = g1.T @ H @ g1
        trace = 0.5 * float(np.trace(G))
        frob = float(np.linalg.norm(G, "fro"))
    else:
        G = np.zeros((0, 0))
        trace = 0.0
        frob = 0.0
    out = LieData(h, Lfh, np.atleast_1d(Lg1h), np.atleast_1d(Lg2h),
                  trace, frob, G)
    vals = [out.h_val, out.Lfh, out.trace_term, out.frob_term]
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(out.Lg1h))
            and np.all(np.isfinite(out.Lg2h))):
        raise ModelBlowup("non-finite model data at x=%s" % x)
    return out


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
