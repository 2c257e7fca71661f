"""systems' one row mapper: user callables on a stack.

A stacked policy of the wrong width raises the same error, its stack
shape, from every integrator that calls it: integrate_ode, integrate_sde
at one path and at several, and optimality_probe's lockstep loops. A
plain policy of the wrong width keeps its single-state error. The one
stack converter, systems._stacked, converts a list of outputs as each
output converts alone, bit for bit, and raises where one of them does.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safefilt.certify import CostSpec, ProbeSetup, optimality_probe
from safefilt.scenarios import neg_state_barrier
from safefilt.sim import (SimConfig, SimulationError, integrate_ode,
                         integrate_sde)
from safefilt.stochastic import CovarianceSchedule
from safefilt.systems import _as_state, _stacked, scalar_system, stacked

CFG = SimConfig(dt=0.05, T=0.2)


def plant():
    # dx = (-x + u + d) dt: one control and one disturbance channel
    return scalar_system(lambda x: -x, lambda x: 1.0, lambda x: 1.0)


def good(x, t):
    return np.array([0.5 * x[0]])


def wide_stacked():
    return stacked(lambda X, t: np.zeros((len(X), 2)))


def wide_plain(x, t):
    return np.zeros(2)


def run_ode(fns):
    integrate_ode(plant(), neg_state_barrier(), fns["control"], fns["u0"],
                  [-0.5], fns["d"], CFG)


def run_sde(paths):
    def run(fns):
        integrate_sde(plant(), neg_state_barrier(), fns["control"],
                      fns["u0"], [-0.5], CovarianceSchedule.constant(
                          np.eye(1)), SimConfig(dt=0.05, T=0.2, paths=paths))
    return run


def run_probe(fns):
    setup = ProbeSetup(plant(), neg_state_barrier(), fns["control"],
                       fns["u0"], fns["d"], [-0.5], CostSpec("intro-min"), +1)
    optimality_probe(setup, CFG, amplitudes=(-0.1, 0.1))


RUNS = [("ode", run_ode, ("control", "u0", "d")),
        ("sde-p1", run_sde(1), ("control", "u0")),
        ("sde-p4", run_sde(4), ("control", "u0")),
        ("probe", run_probe, ("control", "u0", "d"))]
CASES = [(name, run, which) for name, run, whats in RUNS for which in whats]


def cause_of(run, which, fn):
    fns = dict(control=good, u0=good, d=good)
    fns[which] = fn
    with pytest.raises(SimulationError) as err:
        run(fns)
    assert "t=0," in str(err.value)
    assert type(err.value.__cause__) is ValueError
    return str(err.value.__cause__)


@pytest.mark.parametrize("name, run, which", CASES,
                         ids=["%s-%s" % (n, w) for n, _, w in CASES])
def test_wrong_width_stacked_policy_raises_its_stack_shape(name, run, which):
    assert cause_of(run, which, wide_stacked()) == (
        "%s stack shape (1, 2), expected (1, 1)" % which)


@pytest.mark.parametrize("name, run, which", CASES,
                         ids=["%s-%s" % (n, w) for n, _, w in CASES])
def test_wrong_width_plain_policy_keeps_its_shape_error(name, run, which):
    assert cause_of(run, which, wide_plain) == (
        "%s shape (2,), expected (1,)" % which)


# ---------------------------------------------------------------------------
# the one stack converter
# ---------------------------------------------------------------------------

SHAPES = [(1,), (2,), (), (1, 1), (2, 2)]
NUMBERS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.integers(-10, 10), st.just(float("nan")))


def arrays(shape):
    return st.lists(NUMBERS, min_size=int(np.prod(shape)),
                    max_size=int(np.prod(shape))).map(
        lambda v: np.array(v, dtype=float).reshape(shape))


# one output: a number, a vector (k,), a row (1, k) or a column (k, 1),
# as an array or a nested list; a ragged list; None
OUTPUT = st.one_of(
    NUMBERS, st.none(),
    st.integers(1, 4).flatmap(lambda k: st.one_of(
        arrays((k,)), arrays((1, k)), arrays((k, 1)),
        arrays((k,)).map(lambda a: a.tolist()),
        arrays((1, k)).map(lambda a: a.tolist()))),
    st.lists(st.lists(NUMBERS, min_size=1, max_size=3), min_size=2,
             max_size=3))


def one(out, shape):
    """One output converted alone, as at one state."""
    if len(shape) == 1:
        return _as_state(out, shape[0])
    return np.asarray(out, dtype=float).reshape(shape)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@given(outs=st.one_of(st.lists(OUTPUT, max_size=5),
                      # lists of alike outputs, which stack at once
                      OUTPUT.flatmap(lambda o: st.integers(0, 4).map(
                          lambda n: [o] * n))))
@settings(max_examples=150, deadline=None)
def test_stacked_is_each_output_alone(shape, outs):
    try:
        alone = [one(out, shape) for out in outs]
    except Exception:
        alone = None
    if alone is None:
        with pytest.raises(Exception):
            _stacked(outs, shape)
        return
    got = _stacked(outs, shape)
    want = np.array(alone, dtype=float).reshape((len(outs),) + shape)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_stacked_of_no_outputs_is_an_empty_stack(shape):
    got = _stacked([], shape)
    assert got.shape == (0,) + shape and got.dtype == np.float64


def test_stacked_raises_the_bad_outputs_own_error():
    with pytest.raises(ValueError, match=r"output shape \(2,\), expected "
                                         r"\(1,\)"):
        _stacked([1.0, [2.0, 3.0], 4.0], (1,))
    with pytest.raises(ValueError, match="cannot reshape"):
        _stacked([np.ones(4), np.ones(3)], (2, 2))
