"""Scalar comparison-function algebra.

Class-K and extended class-K function objects, the Legendre-Fenchel
transform of a class-Kinf function whose derivative is also class-Kinf,
Young's inequality gap, and the decay bound obtained by solving the
scalar comparison ODE dy/dt = -alpha(y).

Everything here is immutable after construction and evaluation is pure.
Numeric inverses favour total robustness over speed: the functions are
monotone by contract, so bracketing plus brentq cannot go wrong short of
an unreachable target.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

INV_XTOL = 1e-12            # absolute tolerance handed to brentq
KL_AGREE_TOL = 1e-8         # successive step-halvings must agree this well
KL_MIN_STEP = 1e-12         # refuse to halve below this step, report instead
MAX_BRACKET_DOUBLINGS = 200


class DomainError(ValueError):
    """Argument outside the declared domain of a comparison function."""


class BracketError(RuntimeError):
    """Numeric inverse could not bracket the target value."""


def numeric_inverse(fn, y, hi0=1.0):
    """Invert a continuous strictly increasing fn on [0, inf), fn(0)=0.

    Initial bracket by doubling from hi0, then brentq.
    """
    if y < 0.0:
        raise DomainError("cannot invert at %g < 0" % y)
    if y == 0.0:
        return 0.0
    hi = hi0
    for _ in range(MAX_BRACKET_DOUBLINGS):
        if fn(hi) >= y:
            break
        hi *= 2.0
    else:
        raise BracketError("no bracket found for inverse at %g" % y)
    return float(brentq(lambda r: fn(r) - y, 0.0, hi, xtol=INV_XTOL))


class KFunction:
    """Strictly increasing function on [0, inf) with eval(0) = 0.

    codomain_cap, when finite, is the supremum of attainable values;
    inverting at or beyond it is a domain error. The inverse falls back
    to numeric bracketing when no closed form is supplied.
    """

    def __init__(self, fn, inverse_fn=None, codomain_cap=math.inf, name="k"):
        self._fn = fn
        self._inverse_fn = inverse_fn
        self.codomain_cap = codomain_cap
        self.name = name

    def __call__(self, r):
        if r < 0.0:
            raise DomainError("%s: class-K argument %g < 0" % (self.name, r))
        return float(self._fn(r))

    def inverse(self, y):
        if y < 0.0:
            raise DomainError("%s: inverse target %g < 0" % (self.name, y))
        if y >= self.codomain_cap:
            raise DomainError("%s: inverse target %g at/above codomain cap %g"
                              % (self.name, y, self.codomain_cap))
        if y == 0.0:
            return 0.0
        if self._inverse_fn is not None:
            return float(self._inverse_fn(y))
        return numeric_inverse(self._fn, y)

    def __repr__(self):
        return "KFunction(%s)" % self.name


class ExtendedKFunction:
    """Strictly increasing on (lo, hi) with lo < 0 < hi and eval(0) = 0.

    Evaluation outside (lo, hi) is an error, never an extrapolation.
    """

    def __init__(self, fn, lo=-math.inf, hi=math.inf, name="alpha"):
        if not (lo < 0.0 < hi):
            raise ValueError("domain (%g, %g) must contain 0" % (lo, hi))
        self._fn = fn
        self.lo = lo
        self.hi = hi
        self.name = name

    def __call__(self, r):
        if not (self.lo < r < self.hi):
            raise DomainError("%s: argument %g outside (%g, %g)"
                              % (self.name, r, self.lo, self.hi))
        return float(self._fn(r))

    def __repr__(self):
        return "ExtendedKFunction(%s)" % self.name


class LegendreFenchelPair:
    """A class-Kinf gamma whose derivative is also class-Kinf, bundled
    with that derivative, its inverse, and the transform

        ell(r) = r*(gamma')^{-1}(r) - gamma((gamma')^{-1}(r))
               = integral_0^r (gamma')^{-1}(s) ds.
    """

    def __init__(self, gamma, gamma_prime, gamma_prime_inv=None, name="gamma"):
        self.gamma = gamma
        self._gamma_prime = gamma_prime
        self._gamma_prime_inv = gamma_prime_inv
        self.name = name

    def gamma_prime(self, r):
        if r < 0.0:
            raise DomainError("%s: derivative argument %g < 0" % (self.name, r))
        return float(self._gamma_prime(r))

    def gamma_prime_inv(self, s):
        if s < 0.0:
            raise DomainError("%s: derivative-inverse target %g < 0"
                              % (self.name, s))
        if s == 0.0:
            return 0.0
        if self._gamma_prime_inv is not None:
            return float(self._gamma_prime_inv(s))
        return numeric_inverse(self._gamma_prime, s)

    @property
    def has_closed_prime_inv(self):
        return self._gamma_prime_inv is not None

    def ell(self, r):
        return legendre_fenchel(self, r)

    def __repr__(self):
        return "LegendreFenchelPair(%s)" % self.name


def legendre_fenchel(pair, r):
    """The transform ell_gamma(r).

    Uses the closed difference form when the derivative inverse has a
    closed form, otherwise adaptive quadrature of the integral form.
    """
    if r < 0.0:
        raise DomainError("legendre_fenchel at %g < 0" % r)
    if r == 0.0:
        return 0.0
    if pair.has_closed_prime_inv:
        v = pair.gamma_prime_inv(r)
        return r * v - pair.gamma(v)
    val, _ = quad(pair.gamma_prime_inv, 0.0, r, limit=200)
    return float(val)


def young_gap(x, y, pair):
    """gamma(|x|) + ell_gamma(|y|) - x.y.

    Nonnegative for every x, y; zero exactly when y = gamma'(|x|) x/|x|.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("shape mismatch %s vs %s" % (x.shape, y.shape))
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    return pair.gamma(nx) + legendre_fenchel(pair, ny) - float(x @ y)


def _rk4_decay(alpha, r, t, n):
    dt = t / n
    y = float(r)
    for _ in range(n):
        k1 = -alpha(y)
        k2 = -alpha(y + 0.5 * dt * k1)
        k3 = -alpha(y + 0.5 * dt * k2)
        k4 = -alpha(y + dt * k3)
        y += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def kl_solve(alpha, r, t):
    """Decay bound: y(t) for dy/dt = -alpha(y), y(0) = r.

    Fixed-step RK4, steps halved until two successive passes agree
    within KL_AGREE_TOL. Reproducible by construction; underflow of the
    step size is reported, never silently clamped.
    """
    if t < 0.0:
        raise DomainError("kl_solve at negative time %g" % t)
    if t == 0.0 or r == 0.0:
        return float(r)
    n = max(8, int(math.ceil(t / 0.05)))
    prev = _rk4_decay(alpha, r, t, n)
    for _ in range(48):
        n *= 2
        if t / n < KL_MIN_STEP:
            raise RuntimeError("kl_solve: step underflow before convergence")
        cur = _rk4_decay(alpha, r, t, n)
        if abs(cur - prev) <= KL_AGREE_TOL:
            return cur
        prev = cur
    raise RuntimeError("kl_solve: refinement limit reached without agreement")


def kl_solve_grid(alpha, r, times):
    """kl_solve sampled on an increasing time grid, solved in one sweep.

    Substeps per grid interval are doubled until the whole sampled curve
    agrees within KL_AGREE_TOL with the previous pass.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-D array")
    if times[0] < 0.0 or np.any(np.diff(times) < 0.0):
        raise DomainError("times must be nonnegative and nondecreasing")

    def sweep(sub):
        out = np.empty_like(times)
        y = float(r)
        t_prev = 0.0
        for i, t in enumerate(times):
            span = t - t_prev
            if span > 0.0:
                y = _rk4_decay(alpha, y, span, sub)
            out[i] = y
            t_prev = t
        return out

    sub = 4
    prev = sweep(sub)
    for _ in range(20):
        sub *= 2
        cur = sweep(sub)
        if float(np.max(np.abs(cur - prev))) <= KL_AGREE_TOL:
            return cur
        prev = cur
    raise RuntimeError("kl_solve_grid: refinement limit reached")


# ---------------------------------------------------------------------------
# named constructors, also used by the scenario config parser
# ---------------------------------------------------------------------------

def identity_k():
    return KFunction(lambda r: r, inverse_fn=lambda y: y, name="linear:1")


def linear_k(c):
    if c <= 0.0:
        raise ValueError("linear slope must be positive, got %g" % c)
    return KFunction(lambda r: c * r, inverse_fn=lambda y: y / c,
                     name="linear:%g" % c)


def _pow(r, p):
    # libm pow can miss the last ulp even on squares; small integral
    # exponents get the exact multiply chain instead
    ip = int(p)
    if p == ip and 1 <= ip <= 4:
        out = r
        for _ in range(ip - 1):
            out = out * r
        return out
    return r ** p


def power_k(p, scale=1.0):
    if p <= 0.0 or scale <= 0.0:
        raise ValueError("power-law needs p > 0 and scale > 0")
    return KFunction(lambda r: scale * _pow(r, p),
                     inverse_fn=lambda y: (y / scale) ** (1.0 / p),
                     name="power:%g:%g" % (p, scale))


def eps_power_k(eps):
    """(1/eps) r**eps; steepens toward a hard wall as eps shrinks."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return KFunction(lambda r: (r ** eps) / eps,
                     inverse_fn=lambda y: (eps * y) ** (1.0 / eps),
                     name="eps:%g" % eps)


def linear_extended(c):
    if c <= 0.0:
        raise ValueError("linear slope must be positive, got %g" % c)
    return ExtendedKFunction(lambda r: c * r, name="linear:%g" % c)


def power_extended(p, scale=1.0):
    # odd-symmetric continuation keeps the extension strictly increasing
    if p <= 0.0 or scale <= 0.0:
        raise ValueError("power-law needs p > 0 and scale > 0")
    return ExtendedKFunction(
        lambda r: scale * math.copysign(_pow(abs(r), p), r),
        name="power:%g:%g" % (p, scale))


def eps_power_extended(eps):
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return ExtendedKFunction(
        lambda r: math.copysign(abs(r) ** eps, r) / eps,
        name="eps:%g" % eps)


def power_pair(p, scale=1.0):
    """gamma(r) = scale * r**p with p > 1, so gamma' is class-Kinf."""
    if p <= 1.0:
        raise ValueError("transform needs p > 1 so the derivative is "
                         "class-Kinf, got p=%g" % p)
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    cp = scale * p
    return LegendreFenchelPair(
        power_k(p, scale),
        lambda r: cp * _pow(r, p - 1.0),
        lambda s: (s / cp) ** (1.0 / (p - 1.0)),
        name="power:%g:%g" % (p, scale))


def _parse_tag(text):
    parts = str(text).strip().split(":")
    tag = parts[0].strip().lower()
    try:
        args = [float(a) for a in parts[1:]]
    except ValueError as exc:
        raise ValueError("bad numeric argument in %r" % text) from exc
    return tag, args


def k_from_name(text):
    """Class-K function from a tag: linear:C | power:P[:SCALE] | eps:E."""
    tag, args = _parse_tag(text)
    if tag == "linear" and len(args) == 1:
        return linear_k(args[0])
    if tag == "power" and len(args) in (1, 2):
        return power_k(*args)
    if tag == "eps" and len(args) == 1:
        return eps_power_k(args[0])
    raise ValueError("unknown class-K constructor %r" % text)


def extended_k_from_name(text):
    """Extended class-K from a tag; power laws continue odd-symmetrically."""
    tag, args = _parse_tag(text)
    if tag == "linear" and len(args) == 1:
        return linear_extended(args[0])
    if tag == "power" and len(args) in (1, 2):
        return power_extended(*args)
    if tag == "eps" and len(args) == 1:
        return eps_power_extended(args[0])
    raise ValueError("unknown extended class-K constructor %r" % text)


def lf_pair_from_name(text):
    """Transform pair from a tag: power:P[:SCALE] with P > 1."""
    tag, args = _parse_tag(text)
    if tag == "power" and len(args) in (1, 2):
        return power_pair(*args)
    raise ValueError("unknown transform-pair constructor %r" % text)
