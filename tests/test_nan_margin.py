"""A NaN margin with no control authority raises the caller's violation
class, at one state and on stacks, as a negative margin does; a NaN
margin along a nonzero direction still gives a NaN correction.
"""

import math

import numpy as np
import pytest

from safefilt.comparison import linear_k
from safefilt.filters import (HALF_SONTAG, MIN_NORM, SONTAG, CbfViolation,
                              correct)
from safefilt.reciprocal import RcbfSpec, RcbfViolation, rcbf_qp_filter
from safefilt.scenarios import integrator_system

RULES = [MIN_NORM, SONTAG, HALF_SONTAG]


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("a", [0.0, -0.0, 1e-13])
def test_nan_margin_with_no_authority_is_a_violation(rule, a):
    with pytest.raises(CbfViolation, match="no control authority"):
        correct(math.nan, np.array([a]), rule)
    with pytest.raises(CbfViolation, match="no control authority"):
        correct(np.array([1.0, math.nan]), np.array([[1.0], [a]]), rule)


def test_reciprocal_nan_margin_is_its_violation():
    # at x = -1e200, gradB = 1/x^2 is 0, and 0 * inf makes the margin NaN
    spec = RcbfSpec(integrator_system(), lambda x: -1.0 / x[0],
                    linear_k(1.0), lambda x, t: np.array([math.inf]),
                    gradB=lambda x: np.array([1.0 / x[0] ** 2]))
    with pytest.raises(RcbfViolation, match="no control authority"):
        rcbf_qp_filter(spec, np.array([-1e200]), 0.0)
    # a stack's margin is one matmul, which warns of 0 * inf as numpy does
    with np.errstate(invalid="ignore"), \
            pytest.raises(RcbfViolation, match="no control authority"):
        rcbf_qp_filter(spec, np.array([[-1.0], [-1e200]]), 0.0)


@pytest.mark.parametrize("rule", RULES)
def test_nan_margin_along_a_direction_is_nan(rule):
    v = correct(math.nan, np.array([2.0]), rule)
    assert v.shape == (1,) and np.isnan(v).all()
    V = correct(np.array([math.nan, -1.0]), np.array([[2.0], [1.0]]), rule)
    assert np.isnan(V[0]).all() and V[1] == correct(-1.0, np.array([1.0]),
                                                    rule)
