"""Plant wrappers, barrier derivatives, and Lie data."""

import math

import numpy as np
import pytest

from safefilt.scenarios import (disturbed_gain_system, log_gap_barrier,
                                neg_cube_barrier, neg_state_barrier)
from safefilt.systems import (BarrierFunction, ControlAffineSystem,
                              ModelBlowup, check_gradient, lie_data,
                              scalar_system)

FD_TOL = 1e-5


def shrink_noise_system():
    # dx = u dt + (1 - x) dw
    return scalar_system(lambda x: 0.0, lambda x: 1.0 - x, lambda x: 1.0)


def test_log_gap_lie_data_at_origin():
    ld = lie_data(shrink_noise_system(), log_gap_barrier(), np.zeros(1))
    assert ld.h_val == pytest.approx(0.0, abs=1e-15)
    assert ld.Lfh == pytest.approx(0.0, abs=1e-15)
    assert ld.Lg1h[0] == pytest.approx(-1.0, abs=1e-12)
    assert ld.Lg2h[0] == pytest.approx(-1.0, abs=1e-12)
    assert ld.trace_term == pytest.approx(-0.5, abs=1e-12)


def test_cubic_barrier_frobenius_term():
    sys = scalar_system(lambda x: 0.0, lambda x: 1.0 + x * x,
                        lambda x: 1.0)
    for x0, sign in ((1.0, -1.0), (-1.0, 1.0)):
        ld = lie_data(sys, neg_cube_barrier(), np.array([x0]))
        assert ld.frob_term == pytest.approx(24.0, abs=1e-10)
        assert ld.g1_hess_g1[0, 0] == pytest.approx(sign * 24.0, abs=1e-10)


def test_fd_gradient_matches_analytic():
    with_grad = log_gap_barrier()
    fd_only = BarrierFunction(lambda x: math.log1p(-x[0]))
    for x0 in (-1.0, -0.3, 0.5):
        x = np.array([x0])
        assert np.allclose(fd_only.gradient(x), with_grad.gradient(x),
                           atol=FD_TOL)
        assert np.allclose(fd_only.hessian(x), with_grad.hessian(x),
                           atol=1e-4)
        check_gradient(with_grad, x)


def test_fd_hessian_symmetrized():
    bf = BarrierFunction(lambda x: 1.0 - x[0] ** 2 * x[1] - x[1] ** 2)
    H = bf.hessian(np.array([0.7, -0.4]))
    assert np.allclose(H, H.T, atol=0.0)


def test_supplied_asymmetric_hessian_rejected():
    bf = BarrierFunction(lambda x: -x[0] * x[1],
                         hess=lambda x: np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        bf.hessian(np.zeros(2))


def test_no_disturbance_channel_shapes():
    sys = scalar_system(lambda x: 0.0, None, lambda x: 1.0)
    assert sys.m1 == 0
    assert sys.g1_at(np.zeros(1)).shape == (1, 0)
    ld = lie_data(sys, neg_state_barrier(), np.array([0.5]))
    assert ld.Lg1h.shape == (0,)
    assert ld.trace_term == 0.0


def test_wrong_field_shape_rejected():
    sys = ControlAffineSystem(2, 0, 1,
                              f=lambda x: np.zeros(3),
                              g1=None,
                              g2=lambda x: np.ones((2, 1)))
    with pytest.raises(ValueError):
        sys.f_at(np.zeros(2))


def test_nonfinite_lie_data_raises():
    sys = scalar_system(lambda x: math.inf, None, lambda x: 1.0)
    with pytest.raises(ModelBlowup):
        lie_data(sys, neg_state_barrier(), np.zeros(1))


def test_disturbed_gain_matches_hand_fields():
    sys = disturbed_gain_system()
    x = np.array([2.0])
    assert sys.f_at(x)[0] == 0.0
    assert sys.g1_at(x)[0, 0] == 5.0
    assert sys.g2_at(x)[0, 0] == 1.0
