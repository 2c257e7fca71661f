"""The worst-case disturbances at width one give the bytes of float
arithmetic.

worst_case_disturbance and qp_worst_case_disturbance return s Lg1h /
||Lg1h|| with s = -lam gamma'^{-1}(2 ||Lg1h||) and s = -lam
rho^{-1}(max{0, -h}), as an array expression. The oracle computes that
product on a plant with one disturbance input in floats, float(s) *
Lg1h / ||Lg1h||, and takes the array expression only where that result
is not finite. At random finite states and gains, and at any value that
gamma'^{-1} and rho^{-1} return, both disturbances give its bytes, or
the same error class and text. numpy's warnings are raised as errors,
so a warning counts as its text.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

import safefilt as sf
from safefilt.filters import GRAD_ZERO_TOL, budget
from safefilt.scenarios import neg_state_barrier
from safefilt.systems import first_order_lie, vec_norm

FINITE = st.floats(allow_nan=False, allow_infinity=False)
LAM = st.floats(0.0, 2.0, exclude_min=True)


def _float_route(s, g, nrm):
    """s g / nrm at width one in float arithmetic, the array expression
    where that is not finite."""
    d = float(s) * g.item() / nrm
    if math.isfinite(d):
        return np.array((d,))
    return s * g / nrm


def _outcome(fn):
    """fn()'s dtype, shape and bytes, or its error's class and text."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn()
        return out.dtype, out.shape, out.tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def _specs(gain, value, lam):
    """The plant dx = (u + gain d) dt with h = -x, so Lg1h = -gain, and
    a disturbance game whose gamma'^{-1} and rho^{-1} return value."""
    plant = sf.scalar_system(lambda x: 0.0, lambda x: gain, lambda x: 1.0)
    base = sf.DssfCbfSpec(plant, neg_state_barrier(),
                          sf.KFunction(lambda r: r,
                                       inverse_fn=lambda y: value),
                          sf.linear_extended(1.0),
                          lambda x, t: np.array([0.0]))
    gamma = sf.LegendreFenchelPair(lambda r: r * r, lambda r: 2.0 * r,
                                   lambda s: value)
    return base, sf.InverseOptimalSpec(base, 2.0, lam, gamma)


def _oracle(base, s_of, x):
    ld = first_order_lie(base.sys, base.bf, x)
    nrm = vec_norm(ld.Lg1h)
    if nrm < GRAD_ZERO_TOL:
        return np.zeros(1)
    return _float_route(s_of(ld, nrm), ld.Lg1h, nrm)


@settings(max_examples=400, deadline=None)
@given(x=FINITE, gain=FINITE, value=st.floats(width=64), lam=LAM)
def test_worst_case_disturbances_keep_the_float_route_bytes(x, gain, value,
                                                            lam):
    base, iospec = _specs(gain, value, lam)
    x = np.array([x])
    assert _outcome(lambda: sf.worst_case_disturbance(iospec, x)) == (
        _outcome(lambda: _oracle(base, lambda ld, nrm: -lam * (
            iospec.gamma.gamma_prime_inv(2.0 * nrm)), x)))
    assert _outcome(lambda: sf.qp_worst_case_disturbance(base, lam, x)) == (
        _outcome(lambda: _oracle(base, lambda ld, nrm: -lam * budget(
            base.rho, -ld.h_val), x)))
