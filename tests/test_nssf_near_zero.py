"""The NSSF filter near x = 0 on ex6's cubic barrier h = -x^3.

grad h = -3x^2 vanishes at x = 0, so within about 5.8e-7 of it the
filter has no control authority (|Lg2h| = 3x^2 < GRAD_ZERO_TOL). The
decision, recorded in stochastic's docstring: where x <= 0 the state is
safe (h >= 0), the margin is >= 0 and nssf_qp_filter returns u0; where
x > 0 the state is outside the safe set (h < 0), the margin is
negative, and without authority the filter raises ScbfViolation. Where
x^3 underflows to zero, h is -0.0, the margin is 0 and u0 is returned.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

import safefilt as sf
from safefilt.filters import GRAD_ZERO_TOL, _at
from safefilt.scenarios import ex6_spec
from safefilt.stochastic import NSSF, ScbfViolation, nssf_margin

SPEC = ex6_spec()


@given(v=st.floats(-1e-6, 1e-6))
@example(v=5e-7)
@example(v=5.8e-7)
@example(v=0.0)
@example(v=-0.0)
@example(v=1e-300)
@settings(max_examples=400, deadline=None)
def test_nssf_filter_near_zero(v):
    x = np.array([v])
    ld, u0v = _at(NSSF, SPEC, x, 0.0)
    omega = nssf_margin(SPEC, ld, u0v)[0]
    weak = abs(ld.Lg2h) < GRAD_ZERO_TOL  # |Lg2h| = 3x^2
    assert (ld.h_val < 0.0) == (v > 0.0 and -v ** 3 < 0.0)
    assert (omega < 0.0) == (ld.h_val < 0.0)
    if ld.h_val < 0.0 and weak:
        try:
            sf.nssf_qp_filter(SPEC, x, 0.0)
        except ScbfViolation as exc:
            assert "with no control authority" in str(exc)
        else:
            raise AssertionError("no ScbfViolation at x = %r" % v)
        return
    u = sf.nssf_qp_filter(SPEC, x, 0.0)
    if omega >= 0.0:
        assert u.tobytes() == u0v.tobytes()
    else:
        assert not weak and u[0] < u0v[0]
