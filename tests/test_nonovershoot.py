"""Two-sided floor tracking: never lose safety, never overshoot."""

import dataclasses
import math

import numpy as np
import pytest

from safefilt.comparison import ExtendedKFunction, identity_k, \
    linear_extended
from safefilt.nonovershoot import (SandwichSpec, gain_separation_margin,
                                   nominal_decay_margin, omega0, omega_no,
                                   omega0_exact, omega_exact,
                                   sandwich_filter, stoch_omega,
                                   stoch_omega0, stoch_sandwich_filter,
                                   stoch_gain_separation_margin)
from safefilt.scenarios import (log_gap_barrier, neg_state_barrier,
                                sandwich_testbed)
from safefilt.systems import lie_data, scalar_system
from safefilt.stochastic import generator_h

EXACT_TOL = 1e-10


def clean_spec(u0_scalar, alpha0, alpha):
    sys = scalar_system(lambda x: 0.0, None, lambda x: 1.0)
    return SandwichSpec(sys, neg_state_barrier(),
                        lambda x: np.array([u0_scalar(x[0])]),
                        identity_k(), identity_k(), alpha0, alpha)


def test_matched_nominal_has_zero_upper_margin():
    spec = clean_spec(lambda x: -x, linear_extended(1.0),
                      linear_extended(2.0))
    for x0 in np.linspace(-2.0, 2.0, 21):
        assert omega0(spec, np.array([x0])) == pytest.approx(0.0,
                                                             abs=1e-14)


def test_filter_clamps_fast_decay_to_the_alpha_rate():
    # nominal decays at rate 3, the guard allows at most rate 2 toward
    # the boundary; on h > 0 the filtered loop satisfies hdot = -2h
    spec = clean_spec(lambda x: -3.0 * x, linear_extended(1.0),
                      linear_extended(2.0))
    for x0 in np.linspace(-2.0, -0.1, 15):
        x = np.array([x0])
        u = sandwich_filter(spec, x)
        assert u[0] == pytest.approx(-2.0 * x0, abs=EXACT_TOL)
        ld = lie_data(spec.sys, spec.bf, x)
        hdot = ld.Lfh + float(ld.Lg2h @ u)
        assert hdot == pytest.approx(-2.0 * ld.h_val, abs=EXACT_TOL)
    # below the floor the nominal is already inside the band
    assert sandwich_filter(spec, np.array([1.0]))[0] == pytest.approx(
        -3.0, abs=EXACT_TOL)


def test_testbed_margins_and_law():
    spec = sandwich_testbed()
    for x0 in np.linspace(-2.0, 2.0, 41):
        x = np.array([x0])
        assert nominal_decay_margin(spec, x) >= -1e-12
        assert gain_separation_margin(spec, x) >= -1e-12
        want = -2.0 * x0 if x0 <= 0.0 else -3.0 * x0
        assert sandwich_filter(spec, x)[0] == pytest.approx(want,
                                                            abs=1e-12)
    assert omega0(spec, np.array([-1.0])) == pytest.approx(0.0, abs=1e-14)
    assert omega_no(spec, np.array([-1.0])) == pytest.approx(0.0,
                                                             abs=1e-14)


def stoch_tracking_spec():
    # dx = u dt + (1 - x) dw with the log barrier; the nominal holds the
    # generator at -alpha0(h) exactly
    sys = scalar_system(lambda x: 0.0, lambda x: 1.0 - x, lambda x: 1.0)

    def u0(x):
        return np.array([(1.0 - x[0]) * (math.log1p(-x[0]) - 0.5)])

    return SandwichSpec(sys, log_gap_barrier(), u0, identity_k(),
                        identity_k(), linear_extended(1.0),
                        linear_extended(2.0))


def test_identity_covariance_generator_sandwich():
    spec = stoch_tracking_spec()
    # above the floor: the generator sits inside [-alpha(h), -alpha0(h)]
    for x0 in np.linspace(-1.5, 0.0, 16):
        x = np.array([x0])
        assert omega0_exact(spec, x) <= 1e-12
        u = stoch_sandwich_filter(spec, x, exact_trace=True)
        g = generator_h(spec.sys, spec.bf, x, u)
        h = spec.bf.value(x)
        assert g >= -spec.alpha(h) - EXACT_TOL
        assert g <= -spec.alpha0(h) + EXACT_TOL
    # below the floor the alpha0 ceiling no longer binds; the active
    # correction pins the recovery rate at -alpha(h) exactly
    for x0 in (0.2, 0.5, 0.8):
        x = np.array([x0])
        u = stoch_sandwich_filter(spec, x, exact_trace=True)
        g = generator_h(spec.sys, spec.bf, x, u)
        h = spec.bf.value(x)
        assert h < 0.0
        assert g == pytest.approx(-spec.alpha(h), abs=EXACT_TOL)


def test_frobenius_margins_bound_the_exact_ones():
    spec = stoch_tracking_spec()
    # with the unit budget the pessimistic margins bracket the exact
    # ones wherever the budget covers the true covariance
    for x0 in (0.5, 0.7):           # h < 0, budget rho^{-1}(-h) >= ...
        x = np.array([x0])
        h = spec.bf.value(x)
        if spec.rho.inverse(max(0.0, -h)) >= 1.0:
            assert stoch_omega(spec, x) <= omega_exact(spec, x) + 1e-12
    for x0 in (-1.5, -2.5):         # h > 0 side for the upper margin
        x = np.array([x0])
        h = spec.bf.value(x)
        if spec.rho0.inverse(max(0.0, h)) >= 1.0:
            assert stoch_omega0(spec, x) >= omega0_exact(spec, x) - 1e-12


def test_stoch_gain_separation_well_defined():
    spec = stoch_tracking_spec()
    v = stoch_gain_separation_margin(spec, np.array([0.3]))
    assert np.isfinite(v)


def test_nominal_takes_state_only():
    spec = sandwich_testbed()
    # the nominal law in this setting depends on the state alone
    assert spec.u0(np.array([-1.0]))[0] == pytest.approx(2.0)


def test_u0_of_the_wrong_shape_is_a_shape_error():
    spec = clean_spec(lambda x: -x, linear_extended(1.0),
                      linear_extended(2.0))
    bad = SandwichSpec(spec.sys, spec.bf, lambda x: np.array([[0.5]]),
                       spec.rho0, spec.rho, spec.alpha0, spec.alpha)
    x = np.array([0.3])
    for fn in (sandwich_filter, omega_no, omega0):
        with pytest.raises(ValueError, match=r"u0 shape \(1, 1\), "
                                             r"expected \(1,\)"):
            fn(bad, x)


def test_gain_separation_margins_never_call_u0():
    # both read h and the disturbance gain alone: the working spec's
    # bits under a u0 that raises, and under one that counts, 0 calls
    spec = sandwich_testbed()
    calls = []

    def counted(x):
        calls.append(x)
        return spec.u0(x)

    def failing(x):
        raise RuntimeError("u0 failed")

    X = np.linspace(-2.0, 2.0, 9)[:, None]
    for fn in (gain_separation_margin, stoch_gain_separation_margin):
        for u0 in (counted, failing):
            other = dataclasses.replace(spec, u0=u0)
            for x in (X[2], X):
                got, want = np.asarray(fn(other, x)), np.asarray(fn(spec, x))
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
    assert calls == []
