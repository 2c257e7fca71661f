"""Cost weights: an overflowing quotient is an infinite weight, an
omitted control weight is one identity per row of a stack, and the
inverse-optimal control laws read the games' weights alone.

Weight.ratio flags +inf wherever num / den is +inf, a zero denominator
or an overflow alike, so a cost pass pairs it with the deviation and
never multiplies it as a float. _weighted with no weight gives the
games' R2 the shape of the rows, (N, m, m) on an (N, n) stack, as a
read-only view of the one identity. The laws u0 + beta R2^{-1} Lg2h'
and the Ito laws never evaluate a game's transform, state penalty or
residual.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from safefilt.certify import CostSpec, evaluate_cost
from safefilt.comparison import (LegendreFenchelPair, identity_k,
                                 linear_extended, power_pair)
from safefilt.filters import (DssfCbfSpec, InverseOptimalSpec, Weight,
                              _weighted, game_weights, hji_residual,
                              inverse_optimal_general, qp_weights)
from safefilt.scenarios import (disturbed_gain_system, ex5_spec, ex6_spec,
                                neg_state_barrier)
from safefilt.sim import Trajectory
from safefilt.stochastic import (hjb_residual, nssf_hji_residual,
                                 nssf_inverse_optimal, nssf_weights,
                                 stoch_inverse_optimal, stoch_weights)

TINY = 5e-324           # 1 / TINY overflows to inf


@pytest.mark.parametrize("num, den, value, infinite", [
    (1.0, TINY, math.inf, True),
    (1.0, 0.0, math.inf, True),
    (0.0, 0.0, math.inf, True),
    (1e308, 1e-308, math.inf, True),
    (1.0, 2.0, 0.5, False),
    (1e308, 1.0, 1e308, False),
])
def test_ratio_flags_every_infinite_quotient(num, den, value, infinite):
    w = Weight.ratio(num, den)
    assert w.value == value and w.infinite is infinite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = Weight.ratio(np.array([num, 3.0]), np.array([den, 4.0]))
    assert s.value.tolist() == [value, 0.75]
    assert s.infinite.tolist() == [infinite, False]


def ex4_like():
    # the disturbed-gain plant with h = -x and identity rho: at
    # x = TINY the weight 1 / rho^{-1}(max{0, -h}) overflows
    return DssfCbfSpec(disturbed_gain_system(), neg_state_barrier(),
                       identity_k(), linear_extended(1.0),
                       lambda x, t: np.array([2.0]))


def test_qp_weights_flag_the_overflowing_disturbance_weight():
    spec = ex4_like()
    R1 = qp_weights(spec, np.array([TINY]), 0.0)[0]
    assert R1.infinite is True and R1.value == math.inf
    R1s = qp_weights(spec, np.array([[TINY], [-1.0]]), 0.0)[0]
    assert R1s.infinite.tolist() == [True, True]
    assert R1s.value.tolist() == [math.inf, math.inf]


def test_overflowing_weight_pairs_with_a_zero_deviation():
    # two samples at x = TINY, no disturbance, u = u0: every deviation
    # is zero, so the qp-weighted total is finite (it was NaN: inf * 0)
    X = np.full((2, 1), TINY)
    traj = Trajectory(np.array([0.0, 0.1]), X, np.full((2, 1), 2.0),
                      np.full((2, 1), 2.0), np.zeros((2, 1)), -X[:, 0],
                      np.zeros(2))
    cv = evaluate_cost(traj, CostSpec("qp-weighted", spec=ex4_like()))
    assert not cv.infinite and math.isfinite(cv.total)
    assert np.isfinite(cv.running).all()


def test_overflowing_weight_with_a_deviation_is_an_infinite_cost():
    X = np.full((2, 1), TINY)
    traj = Trajectory(np.array([0.0, 0.1]), X, np.full((2, 1), 2.0),
                      np.full((2, 1), 2.0), np.full((2, 1), 0.5), -X[:, 0],
                      np.zeros(2))
    cv = evaluate_cost(traj, CostSpec("qp-weighted", spec=ex4_like()))
    assert cv.infinite and cv.total == math.inf


@pytest.mark.parametrize("m", [1, 2, 3])
def test_no_weight_is_a_read_only_identity_per_row(m):
    A = np.arange(4.0 * m).reshape(4, m)
    R, ra, S = _weighted(None, None, None, A)
    assert R.shape == (4, m, m)
    assert not R.flags.writeable
    assert all(np.array_equal(r, np.eye(m)) for r in R)
    assert ra is A
    R1 = _weighted(None, None, None, A[0])[0]
    assert R1.shape == (m, m) and np.array_equal(R1, np.eye(m))


def _io_spec():
    return InverseOptimalSpec(ex4_like(), 2.0, 1.0, power_pair(2))


@pytest.mark.parametrize("weights, spec", [
    (game_weights, _io_spec), (stoch_weights, ex5_spec),
    (nssf_weights, lambda: ex6_spec(beta=2.0))],
    ids=["game", "stoch", "nssf"])
def test_games_weight_has_the_shape_of_the_rows(weights, spec):
    spec = spec()
    X = np.array([[-0.5], [-0.3], [-0.1]])
    U0 = np.full((3, 1), 0.2)
    R, l = weights(spec, X, U0)
    assert R.shape == (3, 1, 1) and l.shape == (3,)
    for i in range(3):
        Ri, li = weights(spec, X[i], U0[i])
        assert Ri.shape == (1, 1)
        assert np.array_equal(R[i], Ri) and l[i] == li


def gamma_raising(pair):
    """pair with a gamma that raises: its transform cannot be evaluated,
    its derivative inverse is pair's."""
    def gamma(r):
        raise ArithmeticError("gamma evaluated")
    return LegendreFenchelPair(gamma, pair.gamma_prime, pair.gamma_prime_inv,
                               name="raising")


@pytest.mark.parametrize("law, residual, spec, field", [
    (inverse_optimal_general, hji_residual, _io_spec, "gamma"),
    (stoch_inverse_optimal, hjb_residual, ex5_spec, "gamma2"),
    (nssf_inverse_optimal, nssf_hji_residual, lambda: ex6_spec(beta=2.0),
     "gamma2")], ids=["game", "stoch", "nssf"])
def test_control_laws_read_only_the_weights(law, residual, spec, field):
    spec = spec()
    blind = dataclasses.replace(
        spec, **{field: gamma_raising(getattr(spec, field))})
    for x in (np.array([-0.4]), np.array([[-0.5], [-0.3], [-0.1]])):
        want = law(spec, x, 0.0)
        got = law(blind, x, 0.0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        with pytest.raises(ArithmeticError, match="gamma evaluated"):
            residual(blind, x, 0.0)
