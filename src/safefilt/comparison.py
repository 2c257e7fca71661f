"""Scalar comparison-function algebra.

Class-K and extended class-K function objects, the Legendre-Fenchel
transform of a class-Kinf function whose derivative is also class-Kinf,
Young's inequality gap, and the decay (KL) bound obtained by solving
the scalar comparison ODE dy/dt = -alpha(y), y(0) = r.

decay_tube is the one tube the certificates read. It is exact where the
constructor of alpha knows the solution: linear:C, power:P:S and eps:E
with P, E >= 1, and piecewise:A:B carry their closed-form flow. Any
other alpha, anonymous ones included, goes to kl_solve_grid, the RK4
solver that steps through sim._rk4 like every simulated loop and that
the flows are tested against; kl_solve is that solver at a single time.
A flow is attached only by the constructor that builds the function,
never read off its name, so an ExtendedKFunction wrapping an arbitrary
callable under a familiar tag is still solved numerically.

elementwise applies any of these scalar evaluations to an array one
element at a time, so a stacked certificate keeps every domain check.

Everything here is immutable after construction and evaluation is pure.
Numeric inverses favour total robustness over speed: the functions are
monotone by contract, so bracketing plus brentq cannot go wrong short of
an unreachable target.

scipy is imported at first use and nowhere else in the package: brentq
by numeric_inverse, quad by the quadrature branch of legendre_fenchel.
Closed-form functions and pairs, which every built-in uses, never load
it.
"""

import inspect
import math

import numpy as np

from .sim import _rk4
from .systems import SafefiltError, row_dot, vec_norm

INV_XTOL = 1e-12            # absolute tolerance handed to brentq
KL_AGREE_TOL = 1e-8         # two successive step-halvings must agree this well
KL_MIN_STEP = 1e-12         # no agreement at a smaller step: report, stop
MAX_BRACKET_DOUBLINGS = 200


class DomainError(SafefiltError, ValueError):
    """Argument outside the declared domain of a comparison function."""


class BracketError(SafefiltError, RuntimeError):
    """Numeric inverse could not bracket the target value."""


class TubeRefinementError(SafefiltError, RuntimeError):
    """The RK4 decay tube did not converge under step halving."""


def numeric_inverse(fn, y):
    """Invert a continuous strictly increasing fn on [0, inf), fn(0)=0.

    Initial bracket by doubling from 1.0, then brentq.
    """
    if y < 0.0:
        raise DomainError("cannot invert at %g < 0" % y)
    if y == 0.0:
        return 0.0
    hi = 1.0
    for _ in range(MAX_BRACKET_DOUBLINGS):
        if fn(hi) >= y:
            break
        hi *= 2.0
    else:
        raise BracketError("no bracket found for inverse at %g" % y)
    from scipy.optimize import brentq
    return float(brentq(lambda r: fn(r) - y, 0.0, hi, xtol=INV_XTOL))


def elementwise(fn, v):
    """fn(v) for a number v; for a 1-D array, fn at each element in turn,
    as a float array. fn is a scalar evaluation such as a class-K
    function, its inverse or a transform, so each element passes its
    domain check and the first bad one raises."""
    if type(v) is np.ndarray:
        return np.array(list(map(fn, v.tolist())), dtype=float)
    return fn(v)


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
    flow, when given, is flow(r, times): the exact solution of
    dy/dt = -fn(y), y(0) = r, at each entry of a validated time array.
    The named constructors supply it; decay_tube uses it in place of
    the RK4 solver.
    """

    def __init__(self, fn, lo=-math.inf, hi=math.inf, name="alpha",
                 flow=None):
        if not (lo < 0.0 < hi):
            raise ValueError("domain (%g, %g) must contain 0" % (lo, hi))
        self._fn = fn
        self.lo = lo
        self.hi = hi
        self.name = name
        self.flow = flow

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
    from scipy.integrate import quad
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
    return (pair.gamma(vec_norm(x)) + legendre_fenchel(pair, vec_norm(y))
            - row_dot(x, y))


def kl_solve(alpha, r, t):
    """Decay bound at one time: kl_solve_grid(alpha, r, [t])[0]. A
    negative or non-finite t, or a non-finite or out-of-domain r, is a
    DomainError."""
    if t < 0.0:
        raise DomainError("kl_solve at negative time %g" % t)
    return float(kl_solve_grid(alpha, r, [t])[0])


def _tube_grid(alpha, r, times):
    """times as a float array, refused unless it is a nonempty 1-D,
    finite, nonnegative and nondecreasing grid; then alpha(r) is
    evaluated once, so a non-finite or out-of-domain r is a DomainError."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-D array")
    if not np.isfinite(times).all():
        raise DomainError("times must be finite")
    if times[0] < 0.0 or np.any(np.diff(times) < 0.0):
        raise DomainError("times must be nonnegative and nondecreasing")
    alpha(r)
    return times


def decay_tube(alpha, r, times):
    """Decay bound y(t) of dy/dt = -alpha(y), y(0) = r, on a time grid
    that kl_solve_grid would accept: alpha.flow(r, times) when alpha's
    constructor supplied its exact flow, kl_solve_grid's RK4 sweep
    otherwise. alpha(r) is evaluated once either way, so a non-finite
    or out-of-domain r is a DomainError."""
    times = _tube_grid(alpha, r, times)
    if getattr(alpha, "flow", None) is None:
        return _rk4_tube(alpha, r, times)
    return alpha.flow(float(r), times)


def kl_solve_grid(alpha, r, times):
    """Decay bound y(t) of dy/dt = -alpha(y), y(0) = r, sampled on a
    nonnegative, nondecreasing time grid in one sweep; a non-finite
    time is a DomainError.

    Each grid interval starts at max(4, ceil(span/0.05)) RK4 steps of
    sim._rk4; every interval's step count doubles until a pass over the
    whole grid agrees within KL_AGREE_TOL with both its neighbours, the
    coarser and the finer, and that pass is returned. One agreement
    alone can be a crossing of the pre-asymptotic error rather than
    convergence: for power:2.9375:1.28125 from r = 1.96875 on
    linspace(0, 3.75, 21), the passes of 8 and 16 steps per interval
    agree, yet the 16-step pass is 2.5e-8 off the exact flow and the
    32-step pass disagrees with it. Reproducible by
    construction; underflow of the coarsest step (the one that sets how
    long the grid takes, not a near-duplicate time's) is reported, never
    silently clamped. A non-finite or out-of-domain r is a DomainError,
    as in decay_tube.
    """
    return _rk4_tube(alpha, r, _tube_grid(alpha, r, times))


def _rk4_tube(alpha, r, times):
    spans = np.diff(times, prepend=0.0).tolist()
    base = [max(4, math.ceil(span / 0.05)) for span in spans]
    coarsest = max(span / n for span, n in zip(spans, base))
    rate = lambda y, t: -alpha(y)

    def sweep(scale):
        out = np.empty(len(spans))
        y = float(r)
        for i, span in enumerate(spans):
            if span > 0.0:
                n = base[i] * scale
                dt = span / n
                for _ in range(n):
                    y = _rk4(rate, y, 0.0, dt)
            out[i] = y
        return out

    scale = 1
    prev = sweep(scale)
    agreed = False
    for _ in range(20):
        scale *= 2
        cur = sweep(scale)
        if float(np.max(np.abs(cur - prev))) <= KL_AGREE_TOL:
            if agreed:
                return prev
            agreed = True
        else:
            agreed = False
            if coarsest / scale < KL_MIN_STEP:
                raise TubeRefinementError("kl_solve_grid: step underflow "
                                          "before convergence")
        prev = cur
    raise TubeRefinementError("kl_solve_grid: refinement limit "
                              "reached")


# ---------------------------------------------------------------------------
# named constructors, and _tagged: the one reader of tag[:a[:b]] names,
# here and in the scenario config parser
# ---------------------------------------------------------------------------

def identity_k():
    return KFunction(lambda r: r, inverse_fn=lambda y: y, name="linear:1")


def linear_k(c):
    if not 0.0 < c < math.inf:  # a NaN fails too
        raise ValueError("linear slope must lie in (0, inf), got %g" % c)
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
    if not (0.0 < p < math.inf and 0.0 < scale < math.inf):
        raise ValueError("power-law needs finite p > 0 and scale > 0")
    return KFunction(lambda r: scale * _pow(r, p),
                     inverse_fn=lambda y: (y / scale) ** (1.0 / p),
                     name="power:%g:%g" % (p, scale))


def eps_power_k(eps):
    """(1/eps) r**eps; steepens toward a hard wall as eps shrinks."""
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    return KFunction(lambda r: (r ** eps) / eps,
                     inverse_fn=lambda y: (eps * y) ** (1.0 / eps),
                     name="eps:%g" % eps)


def _exp_flow(c):
    """r e^{-ct}: the decay under alpha(y) = c y."""
    return lambda r, times: r * np.exp(-c * times)


def _power_flow(p, s):
    """The decay under alpha(y) = s sign(y) |y|^p for p >= 1: r e^{-st}
    at p = 1, and r (1 + (p-1) s t |r|^{p-1})^{-1/(p-1)} above, taken
    through log1p so that p near 1 keeps its accuracy. None for p < 1:
    that decay reaches 0 in finite time, where the closed form and the
    RK4 solver part ways, so those laws keep the solver."""
    if p < 1.0:
        return None
    if p == 1.0:
        return _exp_flow(s)
    q = p - 1.0
    return lambda r, times: r * np.exp(
        np.log1p((q * s * abs(r) ** q) * times) / -q)


def linear_extended(c):
    if not 0.0 < c < math.inf:
        raise ValueError("linear slope must lie in (0, inf), got %g" % c)
    return ExtendedKFunction(lambda r: c * r, name="linear:%g" % c,
                             flow=_exp_flow(c))


def power_extended(p, scale=1.0):
    # odd-symmetric continuation keeps the extension strictly increasing
    if not (0.0 < p < math.inf and 0.0 < scale < math.inf):
        raise ValueError("power-law needs finite p > 0 and scale > 0")
    return ExtendedKFunction(
        lambda r: scale * math.copysign(_pow(abs(r), p), r),
        name="power:%g:%g" % (p, scale), flow=_power_flow(p, scale))


def eps_power_extended(eps):
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    return ExtendedKFunction(
        lambda r: math.copysign(abs(r) ** eps, r) / eps,
        name="eps:%g" % eps, flow=_power_flow(eps, 1.0 / eps))


def piecewise_extended(a, b):
    """a r for r >= 0, b r for r < 0. The decay never crosses 0, so it
    is the linear one of r's side: r e^{-at} or r e^{-bt}."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError("piecewise slopes must be positive and finite, "
                         "got %g, %g" % (a, b))
    return ExtendedKFunction(
        lambda r: a * r if r >= 0.0 else b * r,
        name="piecewise:%g:%g" % (a, b),
        flow=lambda r, times: r * np.exp(-(a if r >= 0.0 else b) * times))


def power_pair(p, scale=1.0):
    """gamma(r) = scale * r**p with p > 1, so gamma' is class-Kinf."""
    if not 1.0 < p < math.inf:
        raise ValueError("transform needs a finite p > 1 so the derivative "
                         "is class-Kinf, got p=%g" % p)
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    cp = scale * p
    return LegendreFenchelPair(
        power_k(p, scale),
        lambda r: cp * _pow(r, p - 1.0),
        lambda s: (s / cp) ** (1.0 / (p - 1.0)),
        name="power:%g:%g" % (p, scale))


def _tagged(table):
    """The one reader of tag[:a[:b]] values, for the class-K names here
    and for every tagged key of a config. table maps each tag the key
    accepts to a function of the tag's numbers, whose parameters give
    their count and the forms a refusal lists. The tag is exact (no case
    folding, no stripping) and is checked with the number of arguments
    first, then the numbers; read(key, text) refuses, as a ValueError,
    an unknown tag or arity ("unknown <key> '<text>' (<forms>)"), a
    number that does not parse ("bad numeric argument in '<text>'") and
    a number the function refuses ("bad gain in '<text>': <reason>")."""
    def read(key, text):
        tag, *args = text.split(":")
        try:
            inspect.signature(table[tag]).bind(*args)
        except (KeyError, TypeError):
            forms = ", ".join(name + "".join(
                (":<%s>" if p.default is p.empty else "[:<%s>]") % p.name
                for p in inspect.signature(fn).parameters.values())
                for name, fn in table.items())
            raise ValueError("unknown %s %r (%s)" % (key, text, forms)) \
                from None
        try:
            nums = [float(a) for a in args]
        except ValueError:
            raise ValueError("bad numeric argument in %r" % text) \
                from None
        try:
            return table[tag](*nums)
        except ValueError as exc:
            raise ValueError("bad gain in %r: %s" % (text, exc)) from None
    return read


_CLASS_K = _tagged({"linear": linear_k, "power": power_k, "eps": eps_power_k})
_EXTENDED_K = _tagged({"linear": linear_extended, "power": power_extended,
                       "eps": eps_power_extended,
                       "piecewise": piecewise_extended})
_TRANSFORM_PAIR = _tagged({"power": power_pair})


def k_from_name(text):
    """Class-K function from a tag: linear:C | power:P[:SCALE] | eps:E."""
    return _CLASS_K("class-K", text)


def extended_k_from_name(text):
    """Extended class-K from a tag: linear:C | power:P[:SCALE] | eps:E |
    piecewise:A:B. Power laws continue odd-symmetrically."""
    return _EXTENDED_K("extended class-K", text)


def lf_pair_from_name(text):
    """Transform pair from a tag: power:P[:SCALE] with P > 1."""
    return _TRANSFORM_PAIR("transform pair", text)
