"""The projection laws read the barrier through its unconverted
accessors (_h, _gradient_of) on an estimate checked once: the same
values as the public value and gradient, and the same error texts."""

import numpy as np
import pytest

from safefilt.comparison import linear_extended
from safefilt.projection import (ProjectionError, ProjectionSpec,
                                 classic_projection, inverse_optimal_update,
                                 projection_margin, projection_penalty_l,
                                 qp_projection)
from safefilt.scenarios import unit_ball_barrier
from safefilt.systems import BarrierFunction


class _NoPublicReads(BarrierFunction):
    """A barrier whose public value and gradient must not be called."""

    def value(self, x):
        raise AssertionError("public value called")

    def gradient(self, x):
        raise AssertionError("public gradient called")


def _ball(cls=BarrierFunction):
    ball = unit_ball_barrier()
    return cls(ball._h, grad=ball._grad, hess=ball._hess)


def _spec(cls=BarrierFunction, fd=False):
    bf = _ball(cls)
    if fd:  # finite-difference gradient through the public value
        bf = BarrierFunction(bf._h)
    return ProjectionSpec(bf, linear_extended(1.0))


ESTIMATES = [(np.array([1.0, 0.0]), np.array([1.0, 1.0])),
             (np.array([0.3, -0.2]), np.array([5.0, 0.5])),
             (np.array([[0.9, 0.1], [0.0, 0.0], [0.6, 0.8]]),
              np.array([[2.0, 0.0], [1.0, 1.0], [3.0, 4.0]])),
             ([0.9, 0.1], [2.0, 0.0])]


@pytest.mark.parametrize("theta, u0v", ESTIMATES)
def test_continuous_laws_read_no_public_accessor(theta, u0v):
    plain, private = _spec(), _spec(_NoPublicReads)
    for fn in (qp_projection, inverse_optimal_update, projection_penalty_l):
        a, b = fn(plain, theta, u0v), fn(private, theta, u0v)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    for a, b in zip(projection_margin(plain, theta, u0v),
                    projection_margin(private, theta, u0v)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_classic_law_reads_no_public_accessor():
    theta, u0v = np.array([1.0, 0.0]), np.array([1.0, 1.0])
    a = classic_projection(_spec(), theta, u0v)
    b = classic_projection(_spec(_NoPublicReads), theta, u0v)
    assert a.tobytes() == b.tobytes()


def test_finite_difference_gradient_is_unchanged():
    theta, u0v = np.array([0.6, 0.8]), np.array([1.0, 1.0])
    spec = _spec(fd=True)
    g = spec.bf.gradient(theta)
    want = u0v - (float(g @ u0v) / float(g @ g)) * g
    got = u0v + classic_projection(spec, theta, u0v)
    assert np.array_equal(got, want)


def test_error_texts_are_unchanged():
    spec = _spec(_NoPublicReads)
    with pytest.raises(ValueError, match=r"^u0 shape \(3,\), estimate "
                                         r"shape \(2,\)$"):
        qp_projection(spec, np.array([0.0, 0.0]), np.zeros(3))
    with pytest.raises(ValueError, match=r"^u0 shape \(3,\), estimate "
                                         r"shape \(2,\)$"):
        classic_projection(spec, [0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(ProjectionError, match=r"^estimate outside the "
                                              r"constraint set, h=-3$"):
        classic_projection(spec, np.array([2.0, 0.0]), np.zeros(2))
    flat = ProjectionSpec(BarrierFunction(lambda th: -1.0,
                                          grad=lambda th: np.zeros(2)),
                          linear_extended(1.0))
    with pytest.raises(ProjectionError, match=r"^margin -1 < 0 with no "
                                              r"control authority"):
        qp_projection(flat, np.zeros(2), np.array([1.0, 0.0]))

