"""The contraction rule of safefilt.systems: row_dot, vecmat, matvec,
vec_norm and row_norm give the bytes of @ / np.matmul (of sqrt(v.v)
for the norms) on single vectors and on stacks, widths 0-3, and
row_dot and vec_norm compute a width-one vector in floats, so its
overflow is inf with no warning. Also call_rows's width-one route for
Python-float outputs."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilt.systems import (call_rows, matvec, row_dot, row_norm, stacked,
                              vec_norm, vecmat)

_PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0]
SPECIAL = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, -math.nan,
           _PAYLOAD_NAN, -_PAYLOAD_NAN, 5e-324, -5e-324, 1e-310,
           2.2250738585072014e-308, 1e-200, 1e200, -1e200,
           1.7976931348623157e308]

# special values, any float64, and magnitudes whose products overflow
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64),
                   st.floats(1e150, 1.7e308).map(lambda v: v * -1.0),
                   st.floats(1e150, 1.7e308))


def _same(a, b):
    """Equal shape, dtype and bytes: a NaN equals only the same NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def _array(draw, shape):
    return np.array(draw(st.lists(VALUES, min_size=math.prod(shape),
                                  max_size=math.prod(shape))),
                    dtype=float).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(0, 3), m=st.integers(1, 3), data=st.data())
def test_single_products_equal_matmul(k, m, data):
    a = _array(data.draw, (k,))
    b = _array(data.draw, (k,))
    B = _array(data.draw, (k, m))
    A = _array(data.draw, (m, k))
    with np.errstate(all="ignore"):
        assert _same(row_dot(a, b), float(a @ b))
        assert _same(vecmat(a, B), a @ B)
        assert _same(matvec(A, a), A @ a)
        assert _same(vec_norm(a), math.sqrt(a.dot(a)))
        assert _same(vec_norm(a), float(np.linalg.norm(a)))
        assert _same(vec_norm(B), float(np.linalg.norm(B, "fro")))
        assert _same(row_norm(a), float(np.linalg.norm(a)))
        assert type(row_dot(a, b)) is float
        assert type(vec_norm(a)) is float


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 4), k=st.integers(0, 3), m=st.integers(1, 3),
       data=st.data())
def test_stacked_products_equal_matmul(n, k, m, data):
    S = _array(data.draw, (n, k))
    T = _array(data.draw, (n, k))
    B = _array(data.draw, (n, k, m))
    A = _array(data.draw, (n, m, k))
    A1 = _array(data.draw, (m, k))
    with np.errstate(all="ignore"):
        assert _same(row_dot(S, T),
                     np.matmul(S[:, None, :], T[:, :, None])[:, 0, 0])
        assert _same(row_norm(S), np.sqrt(
            np.matmul(S[:, None, :], S[:, :, None])[:, 0, 0]))
        assert _same(vecmat(S, B), np.matmul(S[:, None, :], B)[:, 0, :])
        assert _same(matvec(A, S), np.matmul(A, S[:, :, None])[:, :, 0])
        assert _same(matvec(A1, S), np.matmul(A1, S[:, :, None])[:, :, 0])
        # each row of a stack is the single-state product
        for i in range(n):
            assert _same(row_dot(S, T)[i], row_dot(S[i], T[i]))
            assert _same(vecmat(S, B)[i], vecmat(S[i], B[i]))
            assert _same(matvec(A, S)[i], matvec(A[i], S[i]))


@pytest.mark.parametrize("x, y", [(0.0, -3.0), (-0.0, 2.0), (-0.0, -0.0),
                                  (math.nan, -math.nan),
                                  (-_PAYLOAD_NAN, _PAYLOAD_NAN),
                                  (math.inf, 0.0), (5e-324, 0.5)])
def test_width_one_special_pairs_keep_matmul_bits(x, y):
    # the sign of a zero product follows matmul's sum from +0.0. A
    # product of two NaNs by row_dot's float rule is a NaN whose sign
    # and payload are not fixed: CPython's float multiply can give one
    # operand's NaN before its adaptive interpreter specialises the
    # multiply and the other's after, so only the NaN is checked there;
    # vecmat and matvec are matmul at every pair
    a, b, B = np.array([x]), np.array([y]), np.array([[y]])
    with np.errstate(all="ignore"):
        if math.isnan(x) and math.isnan(y):
            assert math.isnan(row_dot(a, b))
        else:
            assert _same(row_dot(a, b), float(a @ b))
        assert _same(vecmat(a, B), a @ B)
        assert _same(matvec(B, a), B @ a)
    assert _same(row_dot(np.array([-0.0]), np.array([1.0])), 0.0)


def test_width_one_overflow_is_inf_and_raises_nothing():
    a = np.array([1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            assert row_dot(a, a) == math.inf
            assert vec_norm(a) == math.inf
            assert vec_norm(np.array([[1.7976931348623157e308]])) == math.inf
            assert math.isnan(row_dot(np.array([math.inf]), np.array([0.0])))


def test_empty_vectors_give_zero():
    e = np.zeros(0)
    assert _same(row_dot(e, e), 0.0)
    assert _same(vec_norm(e), 0.0)
    assert _same(vec_norm(np.zeros((0, 0))), 0.0)
    assert _same(vecmat(e, np.zeros((0, 2))), np.zeros(2))
    assert _same(matvec(np.zeros((2, 0)), e), np.zeros(2))


def test_width_one_results_are_fresh_arrays():
    a, B = np.array([2.0]), np.array([[3.0]])
    out = vecmat(a, B)
    out[0] = 7.0
    assert a[0] == 2.0 and B[0, 0] == 3.0
    assert matvec(B, a).flags.writeable


# ---------------------------------------------------------------------------
# call_rows at width one
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(
    st.floats(width=64),
    st.floats(width=64).map(lambda v: np.array([v])),
    st.floats(width=64).map(np.float64),
    st.integers(-5, 5),
    st.floats(width=64).map(lambda v: [v])), max_size=5))
def test_call_rows_width_one_outputs_as_at_one_state(outs):
    X = np.arange(len(outs), dtype=float).reshape(-1, 1)
    got = call_rows(lambda x, t: outs[int(x[0])], X, 0.0, 1, "control")
    want = np.array([np.atleast_1d(np.asarray(o, dtype=float))
                     for o in outs]).reshape(len(outs), 1)
    assert _same(got, want)


def test_call_rows_wrong_width_row_raises_before_later_rows():
    calls = []

    def control(x, t):
        calls.append(float(x[0]))
        if x[0] == 1.0:
            return np.array([0.0, 1.0])
        if x[0] == 2.0:
            raise RuntimeError("later row")
        return 0.5

    X = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError, match=r"control shape \(2,\), expected "
                                         r"\(1,\)"):
        call_rows(control, X, 0.0, 1, "control")
    assert calls == [0.0, 1.0]


def test_call_rows_raises_the_first_bad_rows_error():
    def control(x, t):
        if x[0] == 1.0:
            raise KeyError("first")
        return [1.0, 2.0]

    X = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match=r"u0 shape \(2,\), expected \(1,\)"):
        call_rows(control, X, 0.0, 1, "u0")
    with pytest.raises(KeyError):
        call_rows(control, X[1:], 0.0, 1, "u0")


def test_call_rows_stacked_policy_is_unchanged():
    X = np.array([[0.5], [1.5]])
    out = call_rows(stacked(lambda X, t: 2.0 * X), X, 0.0, 1, "control")
    assert _same(out, 2.0 * X)
