"""Comparison functions, conjugate pairs, and the decay ODE solver."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safefilt.comparison import (BracketError, DomainError,
                                 ExtendedKFunction, KFunction,
                                 LegendreFenchelPair, eps_power_extended,
                                 eps_power_k, extended_k_from_name,
                                 identity_k, k_from_name, kl_solve,
                                 kl_solve_grid, legendre_fenchel,
                                 lf_pair_from_name, linear_extended,
                                 linear_k, numeric_inverse, power_k,
                                 power_pair, young_gap)

TOL = 1e-9
DOUBLE_CONJ_TOL = 1e-6

log_r = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e)


# ---- class-K wrappers ----

def test_identity_and_linear():
    k = identity_k()
    assert k(2.5) == 2.5
    assert k.inverse(2.5) == 2.5
    k3 = linear_k(3.0)
    assert k3(2.0) == 6.0
    assert k3.inverse(6.0) == pytest.approx(2.0, abs=1e-14)


def test_power_k_inverse_closed():
    k = power_k(3, scale=2.0)
    assert k(2.0) == 16.0
    assert k.inverse(16.0) == pytest.approx(2.0, abs=1e-12)


def test_k_rejects_negative_argument():
    with pytest.raises(DomainError):
        identity_k()(-1.0)
    with pytest.raises(DomainError):
        identity_k().inverse(-1.0)


def test_bounded_k_codomain_cap():
    k = KFunction(lambda r: r / (1.0 + r), codomain_cap=1.0, name="sat")
    assert k.inverse(0.5) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        k.inverse(1.0)


def test_numeric_inverse_round_trip():
    fn = lambda r: r + math.sin(r) * 0.5
    for y in (0.0, 0.3, 2.0, 1e4):
        r = numeric_inverse(fn, y)
        assert abs(fn(r) - y) <= 1e-9 * (1.0 + y)


def test_numeric_inverse_unreachable_value():
    with pytest.raises(BracketError):
        numeric_inverse(lambda r: r / (1.0 + r), 2.0)


def test_extended_k_sign_and_domain():
    a = linear_extended(2.0)
    assert a(-1.5) == -3.0
    b = ExtendedKFunction(lambda r: r, lo=-1.0, hi=1.0)
    with pytest.raises(DomainError):
        b(1.5)


@given(r=log_r)
@settings(max_examples=50)
def test_eps_power_extended_odd(r):
    a = eps_power_extended(0.5)
    assert a(-r) == pytest.approx(-a(r), rel=1e-12)


# ---- Legendre-Fenchel transform ----

def test_quadratic_transform_frozen_values():
    pair = power_pair(2)                      # gamma(r) = r^2
    assert pair.ell(2.0) == pytest.approx(1.0, abs=1e-12)
    for s in (0.5, 1.0, 3.0, 10.0):
        assert pair.ell(s) == pytest.approx(s * s / 4.0, abs=1e-12)


def test_quartic_transform_frozen_value():
    pair = power_pair(4, scale=0.25)          # gamma(r) = r^4 / 4
    assert pair.ell(1.0) == pytest.approx(0.75, abs=1e-12)


def test_transform_without_closed_inverse_matches_analytic():
    # gamma = cosh - 1 has the closed transform r*asinh(r) - sqrt(1+r^2) + 1
    pair = LegendreFenchelPair(lambda r: math.cosh(r) - 1.0,
                               lambda r: math.sinh(r), name="cosh")
    assert not pair.has_closed_prime_inv
    for r in (0.25, 1.0, 3.0):
        want = r * math.asinh(r) - math.hypot(1.0, r) + 1.0
        assert pair.ell(r) == pytest.approx(want, abs=1e-9)


def test_quadrature_route_matches_closed_difference():
    closed = power_pair(3, scale=0.5)
    opaque = LegendreFenchelPair(closed.gamma, closed.gamma_prime,
                                 name="opaque")
    for r in (0.1, 1.0, 7.0):
        assert legendre_fenchel(opaque, r) == pytest.approx(
            legendre_fenchel(closed, r), abs=1e-8 * (1.0 + r))


@given(r=log_r, p=st.sampled_from([2.0, 3.0, 4.0]))
@settings(max_examples=60, deadline=None)
def test_transform_of_gradient_image(r, p):
    # ell(gamma'(r)) = r gamma'(r) - gamma(r), the conjugacy identity
    pair = power_pair(p)
    s = pair.gamma_prime(r)
    want = r * s - pair.gamma(r)
    assert pair.ell(s) == pytest.approx(want, rel=1e-8, abs=1e-8)


@given(r=log_r, p=st.sampled_from([2.0, 3.0, 4.0]))
@settings(max_examples=40, deadline=None)
def test_double_transform_recovers_gamma(r, p):
    pair = power_pair(p)
    twice = LegendreFenchelPair(pair.ell, pair.gamma_prime_inv,
                                gamma_prime_inv=pair.gamma_prime,
                                name="conj")
    g = pair.gamma(r)
    assert abs(twice.ell(r) - g) <= DOUBLE_CONJ_TOL * (1.0 + abs(g))


# ---- Young's inequality gap ----

def test_young_gap_nonnegative_and_tight_at_alignment():
    pair = power_pair(2)
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.normal(size=3) * 2.0
        y = rng.normal(size=3) * 2.0
        assert young_gap(x, y, pair) >= -1e-10
    x = np.array([1.0, -2.0, 0.5])
    y_star = pair.gamma_prime(np.linalg.norm(x)) * x / np.linalg.norm(x)
    assert abs(young_gap(x, y_star, pair)) <= 1e-9
    assert young_gap(x, y_star + 0.3, pair) > 1e-6


@given(xv=st.floats(-5, 5), yv=st.floats(-5, 5))
@settings(max_examples=100)
def test_young_gap_scalar_property(xv, yv):
    pair = power_pair(2)
    assert young_gap(np.array([xv]), np.array([yv]), pair) >= -1e-10


# ---- decay ODE bound ----

def test_kl_linear_decay_frozen():
    a = linear_extended(1.0)
    assert kl_solve(a, 1.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-8)
    assert kl_solve(a, 0.0, 5.0) == 0.0
    assert kl_solve(a, -0.5, 1.0) == pytest.approx(-0.5 * math.exp(-1.0),
                                                   abs=1e-8)


def test_kl_grid_matches_pointwise():
    a = ExtendedKFunction(lambda r: r ** 3 if r >= 0 else r, name="cube")
    times = np.linspace(0.0, 4.0, 17)
    grid = kl_solve_grid(a, 2.0, times)
    for t, v in zip(times[::4], grid[::4]):
        assert v == pytest.approx(kl_solve(a, 2.0, float(t)), abs=1e-7)


@given(t1=st.floats(0.1, 3.0), t2=st.floats(0.1, 3.0))
@settings(max_examples=30, deadline=None)
def test_kl_decreasing_in_time(t1, t2):
    a = linear_extended(0.7)
    lo, hi = sorted((t1, t2))
    assert kl_solve(a, 1.5, hi) <= kl_solve(a, 1.5, lo) + 1e-10


def test_kl_rejects_negative_time():
    with pytest.raises(ValueError):
        kl_solve(linear_extended(1.0), 1.0, -0.1)


def test_kl_rejects_non_finite_times():
    a = linear_extended(1.0)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            kl_solve(a, 1.0, t)
    for times in ([0.0, math.nan, 1.0], [0.0, math.inf], [math.nan]):
        with pytest.raises(DomainError):
            kl_solve_grid(a, 1.0, times)


def _linear_flow(c, r, t):
    """Exact decay under alpha(y) = c y."""
    return r * math.exp(-c * t)


def _power_flow(p, s, r, t):
    """Exact decay under alpha(y) = s sign(y) |y|^p with p > 1:
    sign(r) (|r|^{1-p} - (1-p) s t)^{1/(1-p)}, with |r| factored out so
    that a tiny r does not overflow |r|^{1-p}."""
    q = p - 1.0
    return r * (1.0 + q * s * t * abs(r) ** q) ** (-1.0 / q)


flow_r = st.floats(-2.0, 2.0)
flow_t = st.floats(0.0, 5.0)


@given(c=st.floats(0.1, 4.0), r=flow_r, t=flow_t)
@settings(max_examples=40, deadline=None)
def test_kl_matches_linear_flow(c, r, t):
    a = extended_k_from_name("linear:%r" % c)
    assert abs(kl_solve(a, r, t) - _linear_flow(c, r, t)) <= 1e-7


@given(p=st.floats(1.5, 3.0), s=st.floats(0.25, 2.0), r=flow_r, t=flow_t)
@settings(max_examples=40, deadline=None)
def test_kl_matches_power_flow(p, s, r, t):
    a = extended_k_from_name("power:%r:%r" % (p, s))
    assert abs(kl_solve(a, r, t) - _power_flow(p, s, r, t)) <= 1e-7


def _reference_sweep(alpha, r, times):
    """An inline RK4 decay sweep over np.float64 spans: 4 substeps per
    interval, doubled until two passes agree within 1e-8."""
    def sweep(sub):
        out = np.empty_like(times)
        y = float(r)
        t_prev = 0.0
        for i, t in enumerate(times):
            span = t - t_prev
            if span > 0.0:
                dt = span / sub
                for _ in range(sub):
                    k1 = -alpha(y)
                    k2 = -alpha(y + 0.5 * dt * k1)
                    k3 = -alpha(y + 0.5 * dt * k2)
                    k4 = -alpha(y + dt * k3)
                    y += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[i] = y
            t_prev = t
        return out

    sub = 4
    prev = sweep(sub)
    while True:
        sub *= 2
        cur = sweep(sub)
        if float(np.max(np.abs(cur - prev))) <= 1e-8:
            return cur
        prev = cur


@pytest.mark.parametrize("name", ["linear:2", "power:3", "power:1.5:0.7",
                                  "eps:0.5"])
def test_kl_grid_equals_reference_sweep_on_uniform_grid(name):
    a = extended_k_from_name(name)
    times = np.arange(1001) * 2e-3
    for r in (0.5, -1.25):
        assert np.array_equal(kl_solve_grid(a, r, times),
                              _reference_sweep(a, r, times))


def test_kl_grid_with_near_duplicate_time():
    a = linear_extended(1.0)
    grid = kl_solve_grid(a, 1.0, [0.0, 1e-13, 1.0])
    assert grid[0] == 1.0
    assert grid[1] == pytest.approx(1.0, abs=1e-12)
    assert grid[2] == pytest.approx(math.exp(-1.0), abs=1e-8)
    assert kl_solve(a, 1.0, 1e-13) == pytest.approx(1.0, abs=1e-12)


def test_kl_grid_reports_step_underflow():
    # a rate that never repeats: no two passes agree, so the step of the
    # 1e-10 interval falls below KL_MIN_STEP after a few doublings
    calls = itertools.count()
    a = ExtendedKFunction(lambda y: 1e9 * next(calls), name="drifting")
    with pytest.raises(RuntimeError, match="underflow"):
        kl_solve_grid(a, 1.0, [0.0, 1e-10])


# ---- name tags ----

def test_k_from_name():
    assert k_from_name("linear:2")(3.0) == 6.0
    assert k_from_name("power:2")(3.0) == 9.0
    assert k_from_name("power:2:0.5")(2.0) == 2.0
    assert k_from_name("eps:0.5")(4.0) == pytest.approx(4.0, abs=1e-12)


def test_extended_k_from_name_odd():
    a = extended_k_from_name("power:3")
    assert a(-2.0) == -8.0


def test_lf_pair_from_name():
    pair = lf_pair_from_name("power:2")
    assert pair.gamma(3.0) == 9.0
    with pytest.raises(ValueError):
        lf_pair_from_name("power:1")
    with pytest.raises(ValueError, match=r"unknown class-K 'nosuch:1' "
                       r"\(linear:<c>, power:<p>\[:<scale>\], eps:<eps>\)"):
        k_from_name("nosuch:1")
