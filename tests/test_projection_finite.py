"""The projection laws check their barrier reads.

Where h or grad h is not finite, at one estimate or at the first such
row of a stack, the continuous laws (through their family data,
projection._projection_min_data) and classic_projection's boundary read
raise ModelBlowup("non-finite model data at x=..."), as the Lie
families do, rather than return NaN.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safefilt.comparison import linear_extended
from safefilt.projection import (ProjectionSpec, classic_projection,
                                 inverse_optimal_update, projection_margin,
                                 projection_penalty_l, qp_projection)
from safefilt.systems import BarrierFunction, ModelBlowup

CONTINUOUS = [qp_projection, inverse_optimal_update, projection_margin,
              projection_penalty_l]
NON_FINITE = [math.nan, math.inf, -math.inf]


def spec_of(h=None, grad=None):
    """The unit ball's barrier, its h or gradient replaced by a constant
    where given."""
    return ProjectionSpec(BarrierFunction(
        (lambda th: 1.0 - th @ th) if h is None else (lambda th: h),
        (lambda th: -2.0 * th) if grad is None else (lambda th: grad)),
        linear_extended(1.0))


@pytest.mark.parametrize("law", CONTINUOUS)
@pytest.mark.parametrize("v", NON_FINITE)
def test_non_finite_gradient_or_h_raises_at_one_estimate(law, v):
    theta, u0v = np.array([0.5, 0.0]), np.array([1.0, 0.0])
    for spec in (spec_of(grad=np.array([v, 0.0])), spec_of(h=v)):
        with pytest.raises(ModelBlowup, match=r"non-finite model data at "
                                              r"x=\[0\.5 0\. \]"):
            law(spec, theta, u0v)


def test_qp_projection_with_nan_gradient_raises():
    """The parent returned [nan, nan] here."""
    with pytest.raises(ModelBlowup):
        qp_projection(spec_of(grad=np.array([math.nan, 0.0])),
                      np.array([0.5, 0.0]), np.array([1.0, 0.0]))


@given(rows=st.lists(st.one_of(st.floats(-0.9, 0.9),
                               st.sampled_from(NON_FINITE)),
                     min_size=1, max_size=5),
       law=st.sampled_from(CONTINUOUS))
@settings(max_examples=100, deadline=None)
def test_stack_raises_at_its_first_non_finite_row(rows, law):
    """Row i's gradient is (g_i, 0); the stack raises at the first
    non-finite g_i, with that row's text, or gives every row's value."""
    grads = {i: g for i, g in enumerate(rows)}
    spec = ProjectionSpec(BarrierFunction(
        lambda th: 1.0, lambda th: np.array([grads[int(th[1])], 0.0])),
        linear_extended(1.0))
    theta = np.array([[0.25, float(i)] for i in range(len(rows))])
    u0v = np.ones((len(rows), 2))
    bad = [i for i, g in enumerate(rows) if not math.isfinite(g)]
    if bad:
        with pytest.raises(ModelBlowup) as err:
            law(spec, theta, u0v)
        assert str(err.value) == ("non-finite model data at x=%s"
                                  % theta[bad[0]])
    else:
        out = law(spec, theta, u0v)
        assert np.isfinite(out[0] if isinstance(out, tuple) else out).all()


@pytest.mark.parametrize("v", NON_FINITE)
def test_classic_projection_checks_its_boundary_read(v):
    theta, u0v = np.array([1.0, 0.0]), np.array([1.0, 0.0])
    with pytest.raises(ModelBlowup, match=r"x=\[1\. 0\.\]"):
        classic_projection(spec_of(h=v), theta, u0v)
    with pytest.raises(ModelBlowup, match=r"x=\[1\. 0\.\]"):
        classic_projection(spec_of(grad=np.array([v, 0.0])), theta, u0v)
    # strictly inside, the gradient is not read
    assert (classic_projection(spec_of(grad=np.array([v, 0.0])),
                               np.array([0.5, 0.0]), u0v) == 0.0).all()
