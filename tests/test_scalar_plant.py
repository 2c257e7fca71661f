"""scalar_system plants read their model in floats.

A scalar_system plant must give, bit for bit, what its array twin gives:
the same plant built with ControlAffineSystem from array callables that
wrap the same float f, g1 and g2 (a (1,) array for f, the gains as they
are). That holds for the Lie data at one state and on stacks, the
integrate_ode record, the lockstep rows and reciprocal's B data, and for
model outputs that are not floats: the same value where the twin
converts one, else the same exception with the same text. The model is
called with the same Python floats, in the same order, as often.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safefilt.comparison import identity_k, linear_extended
from safefilt.filters import DssfCbfSpec, qp_filter
from safefilt.reciprocal import RcbfSpec, _b_data
from safefilt.scenarios import neg_state_barrier
from safefilt.sim import SimConfig, _ode_rows, integrate_ode
from safefilt.systems import (BarrierFunction, ControlAffineSystem,
                              first_order_lie, first_order_lie_rows,
                              lie_data, lie_data_rows, scalar_system)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
           1e-200, -1e-200, 1e200, -1e200, 0.5, -1.2, 3.7]
STATES = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(-1e3, 1e3, allow_nan=False),
                   st.floats(allow_nan=False, allow_infinity=False))
COEFFS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e200]),
                   st.floats(-10.0, 10.0, allow_nan=False))


def twin(f, g1, g2):
    """The array twin of scalar_system(f, g1, g2)."""
    return ControlAffineSystem(
        1, 0 if g1 is None else 1, 1, lambda x: np.array([f(float(x[0]))]),
        None if g1 is None else (lambda x: g1(float(x[0]))),
        lambda x: g2(float(x[0])))


class Model:
    """f = a + b x, g1 = 1 + c x^2, g2 = d + e x on floats, each call
    logged with its argument's type and bits; `out` maps each output
    (to a numpy float, say) and `bad` replaces one field's output."""

    def __init__(self, coeffs, m1, out=float, bad=None):
        self.a, self.b, self.c, self.d, self.e = coeffs
        self.m1, self.out, self.bad = m1, out, bad or {}
        self.log = []

    def _value(self, name, x, v):
        self.log.append((name, type(x), struct_bits(x)))
        return self.bad[name] if name in self.bad else self.out(v)

    def fields(self):
        f = lambda x: self._value("f", x, self.a + self.b * x)
        g1 = lambda x: self._value("g1", x, 1.0 + self.c * x * x)
        g2 = lambda x: self._value("g2", x, self.d + self.e * x)
        return f, (g1 if self.m1 else None), g2

    def plants(self):
        """(scalar plant, twin), sharing the logged fields."""
        fields = self.fields()
        return scalar_system(*fields), twin(*fields)


def struct_bits(v):
    return np.float64(v).view(np.uint64).item()


def outcome(fn, *args):
    """fn's result as bytes (fields of a tuple one by one), or the class
    and text of its error and of that error's cause."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except Exception as exc:
        cause = exc.__cause__
        return (type(exc), str(exc), type(cause),
                None if cause is None else str(cause))
    if isinstance(out, tuple):
        return [outcome(lambda v=v: v) for v in out]
    if hasattr(out, "times"):     # a Trajectory
        return [np.asarray(getattr(out, k)).tobytes()
                for k in ("times", "states", "controls", "nominal",
                          "disturbances", "h_values", "running_cost")] \
            + [out.escape_time]
    out = np.asarray(out)
    return out.dtype, out.shape, out.tobytes()


def same_on_both(model, run):
    """run(plant) on the scalar plant and on its twin: the same outcome
    and the same model calls."""
    plant, array_plant = model.plants()
    got = outcome(run, plant)
    calls = list(model.log)
    model.log.clear()
    want = outcome(run, array_plant)
    assert got == want
    assert calls == model.log
    model.log.clear()
    return got, calls


def barrier(kind):
    if kind == "analytic":
        return neg_state_barrier()
    # finite-difference gradient and Hessian
    return BarrierFunction(lambda x: 0.5 - 0.1 * math.tanh(x[0]))


LIE = [first_order_lie, lie_data]
LIE_ROWS = [first_order_lie_rows, lie_data_rows]


@settings(max_examples=150, deadline=None)
@given(coeffs=st.tuples(*[COEFFS] * 5), m1=st.integers(0, 1),
       out=st.sampled_from([float, np.float64]),
       kind=st.sampled_from(["analytic", "fd"]),
       xs=st.lists(STATES, min_size=1, max_size=4))
def test_lie_data_equals_array_twin(coeffs, m1, out, kind, xs):
    model = Model(coeffs, m1, out)
    bf = barrier(kind)
    for v in xs:
        x = np.array([v])
        for lie in LIE:
            same_on_both(model, lambda p: lie(p, bf, x))
        for acc in ("f_at", "g1_at", "g2_at"):
            same_on_both(model, lambda p: getattr(p, acc)(x))
    X = np.array(xs)[:, None]
    for lie in LIE_ROWS:
        same_on_both(model, lambda p: lie(p, bf, X))
        same_on_both(model, lambda p: lie(p, bf, X[:0]))


@settings(max_examples=100, deadline=None)
@given(coeffs=st.tuples(*[COEFFS] * 5), out=st.sampled_from([float,
                                                             np.float64]),
       xs=st.lists(STATES, min_size=1, max_size=4))
def test_reciprocal_b_data_equals_array_twin(coeffs, out, xs):
    model = Model(coeffs, 0, out)

    def run(x):
        def b_data(p):
            spec = RcbfSpec(p, lambda x: 2.0 + math.tanh(x[0]),
                            identity_k(), lambda x, t: np.array([0.0]),
                            gradB=lambda x: np.array(
                                [1.0 - math.tanh(x[0]) ** 2]))
            return _b_data(spec, x)
        return b_data
    for v in xs:
        same_on_both(model, run(np.array([v])))
    same_on_both(model, run(np.array(xs)[:, None]))


def _loop(p, x0, cfg, with_d, u=None):
    """integrate_ode under the min-norm filter of u0 = 1, or under the
    constant control u where given."""
    bf = neg_state_barrier()
    spec = DssfCbfSpec(p, bf, identity_k(), linear_extended(1.0),
                       lambda x, t: np.array([1.0]))

    def control(x, t):
        if u is not None:
            return np.array([u])
        return spec.u0(x, t) + qp_filter(spec, x, t)
    d = (lambda x, t: np.array([0.5 * math.sin(3.0 * t)])) if with_d \
        else None
    return integrate_ode(p, bf, control, spec.u0, x0, d, cfg)


@settings(max_examples=80, deadline=None)
@given(coeffs=st.tuples(*[COEFFS] * 5), m1=st.integers(0, 1),
       out=st.sampled_from([float, np.float64]), x0=STATES,
       with_d=st.booleans(), u=st.one_of(st.none(), COEFFS))
def test_integrate_ode_record_equals_array_twin(coeffs, m1, out, x0, with_d,
                                                u):
    model = Model(coeffs, m1, out)
    cfg = SimConfig(dt=0.05, T=0.5, escape_threshold=1e6)
    same_on_both(model, lambda p: _loop(p, [x0], cfg, with_d, u))


def test_signed_zero_field_keeps_matmul_bits():
    # f(-0) = -0 and g2 u = 1 * -0: matmul's product sum starts from +0,
    # so the rate is -0 + +0 = +0 and the state leaves -0 for +0
    model = Model((-0.0, 1.0, 0.0, 1.0, 0.0), 0)
    cfg = SimConfig(dt=0.05, T=0.1)
    got, _ = same_on_both(model, lambda p: _loop(p, [-0.0], cfg, False,
                                                 -0.0))
    traj = _loop(model.plants()[0], [-0.0], cfg, False, -0.0)
    assert np.signbit(traj.states[:, 0]).tolist() == [True, False, False]


def _rows(p, x0, cfg, gains):
    """_ode_rows with one loop per gain k, under u = k x - x^3."""
    controls = [(lambda x, t, k=k: np.array([k * x[0] - x[0] ** 3]))
                for k in gains]

    def stack(X, t, live):
        return np.array([controls[i](x, t) for i, x in zip(live, X)])
    trajs, failure = _ode_rows(p, neg_state_barrier(), stack, len(controls),
                               lambda x, t: np.array([0.0]), x0,
                               lambda x, t: np.array([0.1 * t]), cfg)
    return tuple(trajs) + (None if failure is None
                           else (failure[0], type(failure[1]),
                                 str(failure[1])),)


@settings(max_examples=60, deadline=None)
@given(coeffs=st.tuples(*[COEFFS] * 5), m1=st.integers(0, 1),
       out=st.sampled_from([float, np.float64]), x0=STATES,
       gains=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
def test_lockstep_rows_equal_array_twin(coeffs, m1, out, x0, gains):
    model = Model(coeffs, m1, out)
    cfg = SimConfig(dt=0.05, T=0.5, escape_threshold=1e6)
    same_on_both(model, lambda p: _rows(p, [x0], cfg, gains))


# outputs that are not floats: converted as the twin converts them, or
# the twin's error
BAD = {"int": 3, "(1,)": np.array([2.0]), "(1, 1)": np.array([[2.0]]),
       "(2,)": np.array([1.0, 2.0]), "None": None, "nan": math.nan}


@pytest.mark.parametrize("name", ["f", "g1", "g2"])
@pytest.mark.parametrize("bad", sorted(BAD))
def test_non_float_outputs_as_the_array_twin(name, bad):
    model = Model((0.5, -1.0, 1.0, 1.0, 0.25), 1, bad={name: BAD[bad]})
    bf = neg_state_barrier()
    x = np.array([0.3])
    for lie in LIE:
        _, calls = same_on_both(model, lambda p: lie(p, bf, x))
        # each model callable is called at most once (later ones not at
        # all where an earlier output raises)
        names = [c[0] for c in calls]
        assert len(names) == len(set(names)) and names[0] == "f"
    X = np.array([[0.3], [-0.4], [1.5]])
    for lie in LIE_ROWS:
        same_on_both(model, lambda p: lie(p, bf, X))
    for acc in ("f_at", "g1_at", "g2_at"):
        same_on_both(model, lambda p: getattr(p, acc)(x))
    cfg = SimConfig(dt=0.05, T=0.2)
    same_on_both(model, lambda p: _loop(p, [0.3], cfg, True))
    same_on_both(model, lambda p: _rows(p, [0.3], cfg, [1.0, -1.0]))


@pytest.mark.parametrize("name, bad, error, text", [
    ("f", "(2,)", ValueError, "f(x) shape (1, 2), expected (1,)"),
    ("f", "(1,)", ValueError, "f(x) shape (1, 1), expected (1,)"),
    ("g2", "(2,)", ValueError, "cannot reshape array of size 2 into shape "
                               "(1,1)"),
    ("g1", "nan", ArithmeticError, "non-finite model data at x=[0.3]"),
])
def test_non_float_output_errors(name, bad, error, text):
    model = Model((0.5, -1.0, 1.0, 1.0, 0.25), 1, bad={name: BAD[bad]})
    with pytest.raises(error) as info:
        first_order_lie(model.plants()[0], neg_state_barrier(), [0.3])
    assert str(info.value) == text


def test_scalar_outputs_are_python_floats():
    # a numpy float output is read as a Python float, so the Lie data
    # holds the types the array route gives
    model = Model((0.5, -1.0, 1.0, 1.0, 0.25), 1, np.float64)
    plant, array_plant = model.plants()
    for p in (plant, array_plant):
        ld = first_order_lie(p, neg_state_barrier(), [0.3])
        assert type(ld.h_val) is float and type(ld.Lfh) is float
