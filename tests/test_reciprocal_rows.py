"""RECIPROCAL reads B through the one checked first-order Lie read.

The reciprocal family's state data is the first-order Lie data of its
spec's barrier h = B, whose h read raises RcbfViolation("boundary
contact: ...") where B leaves (0, inf), before the gradient is called.
So a non-finite gradB is the ModelBlowup of every Lie family, at one
state and on a stack, and a stack of states raises what its lowest bad
row raises alone. Also here: filters._filtered's float step, which a
scalar plant's reciprocal laws now take, gives the array expression's
bytes.
"""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import safefilt as sf
from safefilt.filters import HALF_SONTAG, MIN_NORM, SONTAG, _filtered, correct
from safefilt.reciprocal import RcbfViolation
from safefilt.systems import ControlAffineSystem, ModelBlowup

LAWS = {"rcbf_qp_filter": sf.rcbf_qp_filter, "omega_tilde": sf.omega_tilde,
        "rcbf_weights": sf.rcbf_weights}
GOOD = st.tuples(st.floats(1e-3, 1e3), st.floats(-1e3, 1e3))
CONTACT = st.tuples(st.sampled_from([0.0, -0.0, -1.0, -1e300, math.inf,
                                     -math.inf, math.nan]),
                    st.floats(-1e3, 1e3))
BAD_GRAD = st.tuples(st.floats(1e-3, 1e3),
                     st.sampled_from([math.nan, math.inf, -math.inf]))


def plant(kind):
    """dx = u dt: the scalar plant, or its array twin."""
    if kind == "scalar":
        return sf.scalar_system(lambda x: 0.0, None, lambda x: 1.0)
    return ControlAffineSystem(1, 0, 1, lambda x: np.zeros(1), None,
                               lambda x: np.ones((1, 1)))


def table_spec(kind, rows, log=None):
    """An RcbfSpec whose B and gradB at the state (-1 - i,) are row i's
    pair (B, dB/dx); log, if given, records each gradB call."""
    def at(x):
        return rows[int(-1.0 - x[0])]

    def gradB(x):
        if log is not None:
            log.append(x[0])
        return np.array([at(x)[1]])
    return sf.RcbfSpec(plant(kind), lambda x: at(x)[0], sf.identity_k(),
                       lambda x, t: np.array([0.5]), gradB=gradB)


def outcome(fn):
    """fn()'s fields as (shape, dtype, bytes), or its error's class and
    text."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn()
    except Exception as exc:
        return type(exc), str(exc)
    out = out if isinstance(out, tuple) else (out,)
    out = [np.asarray(getattr(v, "value", v)) for v in out]
    return [(v.shape, v.dtype.str, v.tobytes()) for v in out]


@given(kind=st.sampled_from(["scalar", "array"]),
       law=st.sampled_from(sorted(LAWS)),
       rows=st.lists(st.one_of(GOOD, CONTACT, BAD_GRAD), min_size=1,
                     max_size=6))
@settings(max_examples=300, deadline=None)
def test_stack_raises_what_its_lowest_bad_row_raises(kind, law, rows):
    spec, fn = table_spec(kind, rows), LAWS[law]
    X = -1.0 - np.arange(len(rows), dtype=float)[:, None]
    bad = [i for i, (B, g) in enumerate(rows)
           if not (0.0 < B < math.inf and math.isfinite(g))]
    got = outcome(lambda: fn(spec, X, 0.0))
    if not bad:
        assert isinstance(got, list)
        return
    i = bad[0]
    assert got == outcome(lambda: fn(spec, X[i], 0.0))
    B, g = rows[i]
    if not 0.0 < B < math.inf:
        assert got == (RcbfViolation, "boundary contact: B = %g at x = %s"
                       % (B, X[i]))
    else:
        assert got == (ModelBlowup, "non-finite model data at x=%s" % X[i])


@pytest.mark.parametrize("kind", ["scalar", "array"])
@pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_non_finite_gradient_is_model_blowup(kind, g, law):
    spec = table_spec(kind, [(2.0, 1.0), (1.0, g)])
    with pytest.raises(ModelBlowup, match=r"non-finite model data at "
                                          r"x=\[-2\.\]"):
        LAWS[law](spec, np.array([-2.0]), 0.0)
    with pytest.raises(ModelBlowup, match=r"at x=\[-2\.\]"):
        LAWS[law](spec, np.array([[-1.0], [-2.0]]), 0.0)


@pytest.mark.parametrize("B", [0.0, -0.5, math.inf, math.nan])
def test_boundary_contact_reads_no_gradient(B):
    log = []
    spec = table_spec("scalar", [(B, 1.0)], log)
    with pytest.raises(RcbfViolation) as err:
        sf.rcbf_qp_filter(spec, np.array([-1.0]), 0.0)
    assert str(err.value) == "boundary contact: B = %g at x = [-1.]" % B
    assert log == []


def test_spec_builds_its_barrier_once():
    spec = table_spec("scalar", [(2.0, 1.0)])
    bf = spec.bf
    sf.rcbf_qp_filter(spec, np.array([-1.0]), 0.0)
    sf.rcbf_weights(spec, np.array([[-1.0]]), 0.0)
    assert spec.bf is bf
    assert spec == sf.RcbfSpec(spec.sys, spec.B, spec.alpha_bar, spec.u0,
                               gradB=spec.gradB)


def test_finite_difference_gradient_is_b_itself():
    """Without gradB the gradient is the central difference of B, read
    unchecked, so a step that crosses the boundary is not a contact."""
    sys = sf.scalar_system(lambda x: 0.0, None, lambda x: 1.0)
    spec = sf.RcbfSpec(sys, lambda x: -1.0 / x[0], sf.identity_k(),
                       lambda x, t: np.array([1.0]))
    bf = sf.BarrierFunction(lambda x: -1.0 / x[0])
    x = np.array([-5e-7])  # x + FD_STEP (1 + |x|) > 0: B < 0 there
    assert sf.RECIPROCAL.read(spec, x).Lg2h[0] == bf.gradient(x)[0]


SPECIAL = [0.0, -0.0, 1.0, -1.0, 3.7, math.inf, -math.inf, math.nan,
           -math.nan,
           struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0],
           5e-324, -5e-324, 1e-200, 1e200, -1e200]
VALUES = st.one_of(st.floats(-5.0, 5.0), st.sampled_from(SPECIAL))


@given(rule=st.sampled_from([MIN_NORM, SONTAG, HALF_SONTAG]),
       beta=st.sampled_from([1.0, 2.0, 2.5]), u=VALUES, w=VALUES, a=VALUES)
@settings(max_examples=300, deadline=None)
def test_float_step_equals_array_expression(rule, beta, u, w, a):
    u0v = np.array([u])
    assert outcome(lambda: _filtered(u0v, beta, w, a, rule)) == outcome(
        lambda: u0v + beta * correct(w, np.array([a]), rule))
