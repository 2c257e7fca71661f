"""lie_data and lie_data_rows against the lie_data they replaced.

`reference_lie_data` below is lie_data as it was before its stage got
cheaper (fresh empties at m1 = 0, numpy finiteness reductions,
bf.value on the checked state), kept here as the oracle. On random
plants and barriers, n in {1, 2, 3}, m1 in {0, 1, 2}, m2 in {1, 2},
with analytic and finite-difference gradients and Hessians, lie_data
and every row of lie_data_rows equal it bit for bit. A NaN or inf in
any model output it reads raises ModelBlowup in both, and a supplied
asymmetric Hessian a ValueError. LieData is immutable, and the
read-only m1 = 0 arrays that lie_data shares cannot be written through.
Also here: the perturbed control of optimality_probe, which hands
u_star's value to integrate_ode's control check unconverted.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safefilt.certify import CostSpec, ProbeSetup, optimality_probe
from safefilt.comparison import identity_k, linear_extended
from safefilt.filters import DssfCbfSpec, inverse_optimal_qp
from safefilt.scenarios import integrator_system, neg_state_barrier
from safefilt.sim import SimConfig, SimulationError
from safefilt.systems import (BarrierFunction, ControlAffineSystem,
                              LieData, ModelBlowup, _as_state, lie_data,
                              lie_data_rows, vec_norm)

OUTPUTS = ("h", "grad", "hess", "f", "g1", "g2")


def reference_lie_data(sys, bf, x):
    """lie_data before this change, returning its seven fields."""
    x = _as_state(x, sys.n)
    h = bf.value(x)
    grad = bf._gradient_of(x)
    f, g2 = sys._f_of(x), sys._g2_of(x)
    if sys.m1 > 0:
        g1, H = sys._g1_of(x), bf._raw_hessian(x)
    with np.errstate(all="ignore"):
        Lfh = float(grad @ f)
        Lg2h = grad @ g2
        if sys.m1 > 0:
            Lg1h = grad @ g1
            G = g1.T @ bf._symmetrized(H) @ g1
            trace = 0.5 * float(np.trace(G))
            frob = vec_norm(G)
        else:
            Lg1h = np.zeros(0)
            G = np.zeros((0, 0))
            trace = 0.0
            frob = 0.0
    if not (math.isfinite(h) and math.isfinite(Lfh) and math.isfinite(trace)
            and math.isfinite(frob) and np.isfinite(Lg1h).all()
            and np.isfinite(Lg2h).all()):
        raise ModelBlowup("non-finite model data at x=%s" % x)
    return (h, Lfh, Lg1h, Lg2h, trace, frob, G)


def model(n, m1, m2, seed, grad, hess, bad=None, at=None, asym=False):
    """A random plant and barrier. f, g1 and g2 depend on x; h is a
    quadratic with a sine term, so its Hessian is state-dependent.
    grad and hess pick analytic (True) or finite-difference (False)
    derivatives. bad = (name, index, value) writes value into that
    model output, at the state `at` only when given; asym makes the
    supplied Hessian asymmetric by 1e-6."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    B1 = rng.normal(size=(n, m1))
    C1 = rng.normal(size=(n, m1))
    B2 = rng.normal(size=(n, m2))
    C2 = rng.normal(size=(n, m2))
    Q = rng.normal(size=(n, n))
    Q = Q + Q.T
    q = rng.normal(size=n)

    def out(name, x, value):
        if bad is not None and bad[0] == name and (
                at is None or np.array_equal(x, at)):
            value = np.array(value, dtype=float)
            if name == "hess":          # both (i, j) and (j, i)
                i, j = divmod(bad[1] % value.size, n)
                value[i, j] = value[j, i] = bad[2]
            else:
                value.reshape(-1)[bad[1] % value.size] = bad[2]
        return value

    def h(x):
        return out("h", x, 1.0 - 0.5 * x @ Q @ x + q @ x
                   + 0.1 * math.sin(x[0]))

    def dh(x):
        g = -Q @ x + q
        g[0] += 0.1 * math.cos(x[0])
        return out("grad", x, g)

    def d2h(x):
        H = -Q.copy()
        H[0, 0] -= 0.1 * math.sin(x[0])
        if asym:
            H[0, n - 1] += 1e-6
        return out("hess", x, H)

    def f(x):
        return out("f", x, np.tanh(A @ x))

    def g1(x):
        return out("g1", x, B1 + np.outer(np.sin(x), C1[0]))

    def g2(x):
        return out("g2", x, B2 + 0.5 * np.outer(x, C2[0]))

    sys = ControlAffineSystem(n, m1, m2, f, g1 if m1 else None, g2)
    bf = BarrierFunction(h, grad=dh if grad else None,
                         hess=d2h if hess else None)
    return sys, bf


def assert_fields_equal(ld, ref):
    assert isinstance(ld, LieData)
    for name, a, b in zip(LieData._fields, ld, ref):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:        # the class is compared by the caller
        return exc


dims = st.tuples(st.sampled_from((1, 2, 3)), st.sampled_from((0, 1, 2)),
                 st.sampled_from((1, 2)))
states = st.lists(st.floats(-2.0, 2.0, allow_subnormal=False),
                  min_size=9, max_size=9)


@given(dims=dims, seed=st.integers(0, 2 ** 16), grad=st.booleans(),
       hess=st.booleans(), xs=states, rows=st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_lie_data_and_rows_equal_the_reference(dims, seed, grad, hess, xs,
                                               rows):
    n, m1, m2 = dims
    sys, bf = model(n, m1, m2, seed, grad, hess)
    X = np.array(xs[:rows * n]).reshape(rows, n)
    refs = [reference_lie_data(sys, bf, x) for x in X]
    for x, ref in zip(X, refs):
        assert_fields_equal(lie_data(sys, bf, x), ref)
    stacked = lie_data_rows(sys, bf, X)
    for k, ref in enumerate(refs):
        assert_fields_equal(LieData(*(v[k] for v in stacked)), ref)


@given(dims=dims, seed=st.integers(0, 2 ** 16), grad=st.booleans(),
       hess=st.booleans(), xs=states, which=st.sampled_from(OUTPUTS),
       index=st.integers(0, 8),
       value=st.sampled_from((math.nan, math.inf, -math.inf)),
       row=st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_non_finite_model_output_is_a_blowup_in_both(dims, seed, grad, hess,
                                                     xs, which, index, value,
                                                     row):
    n, m1, m2 = dims
    read = {"h": True, "grad": grad, "hess": hess and m1 > 0, "f": True,
            "g1": m1 > 0, "g2": True}
    if not read[which]:
        which = "f"         # an output that lie_data never calls
    X = np.array(xs[:3 * n]).reshape(3, n)
    x = X[row]
    # a finite difference of a non-finite output warns (inf - inf) in
    # both, before lie_data's own error state: silenced here
    with np.errstate(all="ignore"):
        sys, bf = model(n, m1, m2, seed, grad, hess,
                        bad=(which, index, value))
        assert isinstance(outcome(reference_lie_data, sys, bf, x),
                          ModelBlowup)
        assert isinstance(outcome(lie_data, sys, bf, x), ModelBlowup)
        # on a stack, only row `row` is bad: lie_data_rows raises too
        sys, bf = model(n, m1, m2, seed, grad, hess,
                        bad=(which, index, value), at=x)
        assert isinstance(outcome(lie_data_rows, sys, bf, X), ModelBlowup)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m1", [1, 2])
def test_asymmetric_supplied_hessian_is_a_value_error(n, m1):
    sys, bf = model(n, m1, 1, 7, True, True, asym=True)
    X = np.full((2, n), 0.3)
    for fn in (reference_lie_data, lie_data):
        with pytest.raises(ValueError, match="asymmetric"):
            fn(sys, bf, X[0])
    with pytest.raises(ValueError, match="asymmetric"):
        lie_data_rows(sys, bf, X)


def test_lie_data_fields_cannot_be_assigned():
    ld = lie_data(integrator_system(), neg_state_barrier(), np.array([-0.5]))
    for name in LieData._fields:
        with pytest.raises(AttributeError):
            setattr(ld, name, 0.0)


def test_shared_m1_zero_arrays_cannot_be_written_through():
    sys, bf = integrator_system(), neg_state_barrier()
    a = lie_data(sys, bf, np.array([-0.5]))
    b = lie_data(sys, bf, np.array([-1.5]))
    assert a.Lg1h is b.Lg1h and a.g1_hess_g1 is b.g1_hess_g1
    assert a.Lg1h.shape == (0,) and a.g1_hess_g1.shape == (0, 0)
    for arr in (a.Lg1h, a.g1_hess_g1):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            arr += 1.0
        with pytest.raises(ValueError):
            arr.flags.writeable = True      # an immutable buffer's view


def probe_setup(u_star):
    sys, bf = integrator_system(), neg_state_barrier()
    return ProbeSetup(sys, bf, u_star, lambda x, t: np.array([1.0]), None,
                      [-1.0], CostSpec("intro-min"), +1)


def test_probe_u_star_of_the_wrong_width_is_a_control_error():
    cfg = SimConfig(dt=1e-2, T=0.1)
    with pytest.raises(SimulationError) as err:
        optimality_probe(probe_setup(lambda x, t: np.zeros(2)), cfg)
    assert "control" in str(err.value.__cause__)
    # right width for the certified run, too wide once perturbed
    wide = []

    def u_star(x, t):
        return np.ones(2 if wide else 1)

    def delta(t):
        wide.append(True)
        return 1.0
    with pytest.raises(SimulationError) as err:
        optimality_probe(probe_setup(u_star), cfg, {"widen": delta})
    assert "control shape (2,), expected (1,)" in str(err.value.__cause__)


def test_probe_u_star_as_a_number_or_a_vector_gives_the_same_margins():
    spec = DssfCbfSpec(integrator_system(), neg_state_barrier(),
                       identity_k(), linear_extended(1.0),
                       lambda x, t: np.array([1.0]))
    vector = lambda x, t: inverse_optimal_qp(spec, 2.0, x, t)
    number = lambda x, t: float(vector(x, t)[0])
    cfg = SimConfig(dt=1e-2, T=1.0)
    a = optimality_probe(probe_setup(vector), cfg)
    b = optimality_probe(probe_setup(number), cfg)
    assert a == b
