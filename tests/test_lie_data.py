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

The first-order core, first_order_lie(_rows), is lie_data's first four
fields, bit for bit, and raises ModelBlowup for a NaN or inf in any
output it reads. Every first-order consumer in filters and certify,
nonovershoot's deterministic sandwich, and the disturbance-game,
qp-exact and qp-weighted cost passes, give the same bits as when they
read the full LieData. A barrier Hessian that raises, is NaN, is
asymmetric or has the wrong shape changes none of them, while
lie_data, lie_data_rows and the Ito filters (the Ito sandwich among
them) still raise for it. Finite differences of non-finite model data
raise ModelBlowup under warnings-as-errors, and every named error is a
SafefiltError.
"""

import contextlib
import itertools
import math
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import safefilt
import safefilt.filters
from safefilt.certify import (CostSpec, CostValue, ProbeSetup, evaluate_cost,
                              optimality_probe)
from safefilt.comparison import (BracketError, DomainError, ExtendedKFunction,
                                 TubeRefinementError, identity_k,
                                 kl_solve_grid, linear_extended, linear_k,
                                 power_pair)
from safefilt.filters import (CBF, CbfViolation, DssfCbfSpec,
                              InverseOptimalSpec, Weight, game_weights,
                              half_sontag_filter, hji_residual,
                              inverse_optimal_condition,
                              inverse_optimal_general, inverse_optimal_qp,
                              min_norm_weights, omega_dssf, pi_gap, qp_filter,
                              qp_filter_affine_form, qp_weights,
                              qp_worst_case_disturbance, sontag_filter,
                              state_penalty_l, worst_case_disturbance)
from safefilt.nonovershoot import (SandwichSpec, gain_separation_margin,
                                   nominal_decay_margin, omega0, omega_no,
                                   sandwich_filter, stoch_sandwich_filter)
from safefilt.projection import ProjectionError
from safefilt.reciprocal import RcbfViolation
from safefilt.scenarios import (ConfigError, integrator_system,
                                neg_state_barrier)
from safefilt.sim import SimConfig, SimulationError, Trajectory
from safefilt.stochastic import (NssfSpec, ScbfViolation, StochSpec,
                                 nssf_qp_filter, stoch_qp_filter)
from safefilt.systems import (FD_STEP, BarrierFunction, ControlAffineSystem,
                              FirstOrderLie, LieData, ModelBlowup,
                              SafefiltError, _as_state, _lie_data_at,
                              first_order_lie, first_order_lie_rows,
                              lie_data, lie_data_rows, vec_norm)

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


# ---------------------------------------------------------------------------
# first-order Lie data: the deterministic consumers never read the Hessian
# ---------------------------------------------------------------------------

class HessianFault(Exception):
    """Raised by a barrier Hessian that must not be called."""


@contextlib.contextmanager
def full_lie_data():
    """The first-order entry points of filters replaced by lie_data and
    lie_data_rows, and the one-state read of the families and the
    worst-case disturbances (_first_order_at, floats on a scalar plant)
    by lie_data's (_lie_data_at): each consumer, certify's cost passes
    through the filter families included, then reads its four fields
    off the full LieData, the Hessian called and checked."""
    with mock.patch.object(safefilt.filters, "first_order_lie", lie_data), \
            mock.patch.object(safefilt.filters, "_first_order_at",
                              _lie_data_at), \
            mock.patch.object(safefilt.filters, "first_order_lie_rows",
                              lie_data_rows):
        yield


def bits(v):
    """v's type and exact bytes, recursively; an exception's class and
    text."""
    if isinstance(v, BaseException):
        return type(v), str(v)
    if isinstance(v, tuple):
        return type(v).__name__, tuple(bits(e) for e in v)
    if isinstance(v, Weight):
        return "Weight", bits(v.value), bits(v.infinite)
    if isinstance(v, CostValue):
        return ("CostValue", bits(v.total), v.infinite, bits(v.running),
                bits(v.terminal))
    a = np.asarray(v)
    return type(v).__name__, a.dtype.str, a.shape, a.tobytes()


def first_order_consumers(sys, bf, X, seed):
    """Every first-order consumer at the rows of X (and at the whole
    stack where it takes one), as thunks by name, with specs drawn from
    seed: a state-dependent u0, R2 the identity or a state-dependent SPD
    weight, and a record of the rows for the three cost passes."""
    rng = np.random.default_rng(seed)
    n, m1, m2 = sys.n, sys.m1, sys.m2
    K, k = rng.normal(size=(m2, n)), rng.normal(size=m2)
    L = rng.normal(size=(m2, m2))
    weighted = bool(rng.integers(2))
    R2 = (lambda x, u0v: L @ L.T + (1.0 + x @ x) * np.eye(m2)) \
        if weighted else None
    base = DssfCbfSpec(sys, bf, linear_k(rng.uniform(0.5, 2.0)),
                       linear_extended(rng.uniform(0.5, 3.0)),
                       lambda x, t: K @ x + k)
    beta, lam = 2.0 + 3.0 * rng.random(), rng.uniform(0.5, 2.0)
    iospec = InverseOptimalSpec(base, beta, lam, power_pair(2), R2=R2)
    U0 = X @ K.T + k
    # no disturbance at all in half the draws: qp-weighted's infinite
    # disturbance weight (h >= 0) then meets no deviation
    D = rng.normal(size=(len(X), m1)) * rng.integers(2)
    traj = Trajectory(times=np.linspace(0.0, 0.1, len(X)), states=X,
                      controls=U0 + rng.normal(size=U0.shape), nominal=U0,
                      disturbances=D, h_values=rng.normal(size=len(X)),
                      running_cost=np.zeros(len(X)))
    sandwich = SandwichSpec(sys, bf, lambda x: K @ x + k, linear_k(lam),
                            identity_k(), linear_extended(0.5),
                            linear_extended(beta))
    t = 0.3
    out = {
        "game_weights": lambda: game_weights(iospec, X, U0),
        "min_norm_weights": lambda: min_norm_weights(base, X, U0, beta,
                                                     lam),
        "qp_exact_data": lambda: CBF.data(base, X, U0),
        "cost.disturbance-game": lambda: evaluate_cost(
            traj, CostSpec("disturbance-game", spec=iospec)),
        "cost.qp-exact": lambda: evaluate_cost(
            traj, CostSpec("qp-exact", spec=base)),
        "cost.qp-weighted": lambda: evaluate_cost(
            traj, CostSpec("qp-weighted", spec=base)),
    }
    out.update({fn.__name__: partial(fn, sandwich, X) for fn in SANDWICH})
    for i, (x, d) in enumerate(zip(X, D)):
        out.update({"%s@%d" % (fn.__name__, i): partial(fn, base, x, t)
                    for fn in (omega_dssf, qp_filter, qp_filter_affine_form,
                               sontag_filter, half_sontag_filter,
                               qp_weights)})
        out.update({"%s@%d" % (fn.__name__, i): partial(fn, iospec, x, t)
                    for fn in (inverse_optimal_general, hji_residual,
                               inverse_optimal_condition, state_penalty_l)})
        out["inverse_optimal_qp@%d" % i] = partial(inverse_optimal_qp, base,
                                                   beta, x, t)
        out["worst_case_disturbance@%d" % i] = partial(
            worst_case_disturbance, iospec, x)
        out["qp_worst_case_disturbance@%d" % i] = partial(
            qp_worst_case_disturbance, base, lam, x)
        out["pi_gap@%d" % i] = partial(pi_gap, iospec, x, d)
        out["game_weights@%d" % i] = partial(game_weights, iospec, x, U0[i])
        out["min_norm_weights@%d" % i] = partial(min_norm_weights, base, x,
                                                 U0[i], beta, lam)
        out.update({"%s@%d" % (fn.__name__, i): partial(fn, sandwich, x)
                    for fn in SANDWICH})
    return out


# nonovershoot's deterministic sandwich, which reads first-order data
SANDWICH = (omega0, omega_no, sandwich_filter, nominal_decay_margin,
            gain_separation_margin)


def consumer_bits(thunks):
    return {name: bits(outcome(fn)) for name, fn in thunks.items()}


@given(dims=dims, seed=st.integers(0, 2 ** 16), grad=st.booleans(),
       hess=st.booleans(), xs=states, rows=st.sampled_from((1, 3)))
@settings(max_examples=60, deadline=None)
def test_first_order_consumers_equal_their_full_lie_data_reference(
        dims, seed, grad, hess, xs, rows):
    n, m1, m2 = dims
    sys, bf = model(n, m1, m2, seed, grad, hess)
    X = np.array(xs[:rows * n]).reshape(rows, n)
    thunks = first_order_consumers(sys, bf, X, seed)
    got = consumer_bits(thunks)
    with full_lie_data():
        want = consumer_bits(thunks)
    assert got == want
    # and the cores are lie_data's first four fields, bit for bit
    for x in X:
        full = lie_data(sys, bf, x)
        assert_first_fields_equal(first_order_lie(sys, bf, x), full)
    assert_first_fields_equal(first_order_lie_rows(sys, bf, X),
                              lie_data_rows(sys, bf, X))


def assert_first_fields_equal(first, full):
    assert type(first) is FirstOrderLie
    assert FirstOrderLie._fields == LieData._fields[:4]
    assert bits(tuple(first)) == bits(tuple(full[:4]))
    with pytest.raises(AttributeError):
        first.trace_term


@given(dims=dims, seed=st.integers(0, 2 ** 16), grad=st.booleans(),
       xs=states, which=st.sampled_from(("h", "grad", "f", "g1", "g2")),
       index=st.integers(0, 8),
       value=st.sampled_from((math.nan, math.inf, -math.inf)),
       row=st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_non_finite_first_order_output_is_a_blowup(dims, seed, grad, xs,
                                                   which, index, value, row):
    n, m1, m2 = dims
    if (which == "grad" and not grad) or (which == "g1" and m1 == 0):
        which = "f"         # an output that first_order_lie calls
    X = np.array(xs[:3 * n]).reshape(3, n)
    x = X[row]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sys, bf = model(n, m1, m2, seed, grad, True,
                        bad=(which, index, value))
        assert isinstance(outcome(first_order_lie, sys, bf, x), ModelBlowup)
        sys, bf = model(n, m1, m2, seed, grad, True,
                        bad=(which, index, value), at=x)
        assert isinstance(outcome(first_order_lie_rows, sys, bf, X),
                          ModelBlowup)


def faulty_hessian(fault, n):
    def hess(x):
        if fault == "raise":
            raise HessianFault("called")
        if fault == "shape":
            return np.zeros(n + 1)
        H = np.eye(n)
        if fault == "nan":
            H[0, 0] = math.nan
        else:                       # asymmetric by far more than the tol
            H[0, n - 1] += 1.0
        return H
    return hess


# the Hessian fault, and what the Ito consumers raise for it
FAULTS = {"raise": (HessianFault, "called"), "nan": (ModelBlowup, "non-fin"),
          "asym": (ValueError, "asymmetric"), "shape": (ValueError, "shape")}


@given(dims=dims, seed=st.integers(0, 2 ** 16), grad=st.booleans(),
       xs=states, rows=st.sampled_from((1, 3)),
       fault=st.sampled_from(sorted(FAULTS)))
@settings(max_examples=60, deadline=None)
def test_hessian_faults_reach_only_the_ito_consumers(dims, seed, grad, xs,
                                                     rows, fault):
    n, m1, m2 = dims
    m1 = max(m1, 1)                 # a disturbance channel: the Ito terms
    if fault == "asym" and n == 1:  # a 1x1 Hessian cannot be asymmetric
        fault = "nan"
    sys, good = model(n, m1, m2, seed, grad, True)
    bad = BarrierFunction(good._h, grad=good._grad,
                          hess=faulty_hessian(fault, n))
    X = np.array(xs[:rows * n]).reshape(rows, n)
    got = consumer_bits(first_order_consumers(sys, bad, X, seed))
    with full_lie_data():
        want = consumer_bits(first_order_consumers(sys, good, X, seed))
    assert got == want
    # the Ito consumers still call the Hessian, and raise for it
    u0 = lambda x, t: np.zeros(m2)
    stoch = StochSpec(sys, bad, linear_extended(1.0), u0)
    nssf = NssfSpec(sys, bad, linear_extended(1.0), identity_k(), u0)
    sandwich = SandwichSpec(sys, bad, lambda x: np.zeros(m2), identity_k(),
                            identity_k(), linear_extended(0.5),
                            linear_extended(1.0))
    error, text = FAULTS[fault]
    calls = [lambda: lie_data(sys, bad, X[0]),
             lambda: lie_data_rows(sys, bad, X),
             lambda: stoch_sandwich_filter(sandwich, X[0])]
    for filt, spec in ((stoch_qp_filter, stoch), (nssf_qp_filter, nssf)):
        calls += [partial(filt, spec, X[0], 0.0), partial(filt, spec, X, 0.0)]
    for call in calls:
        with pytest.raises(error, match=text):
            call()


# an h that is +inf just right of X_EDGE and -inf just left of it: its
# difference gradient is inf at X_EDGE and at both points the Hessian's
# difference steps to, so that difference meets inf - inf
X_EDGE = -0.5
_S = FD_STEP * (1.0 + abs(X_EDGE))


def _edge_h(x):
    if x[0] > X_EDGE + 0.5 * _S:
        return math.inf
    return -math.inf if x[0] < X_EDGE - 0.5 * _S else 0.0


@pytest.mark.parametrize("barrier", [
    BarrierFunction(_edge_h),
    BarrierFunction(lambda x: -x[0], grad=lambda x: np.array([math.inf])),
], ids=["h-without-gradient", "gradient-without-hessian"])
@pytest.mark.parametrize("call", [
    lambda s, b: lie_data(s, b, np.array([X_EDGE])),
    lambda s, b: lie_data_rows(s, b, np.full((2, 1), X_EDGE)),
    lambda s, b: first_order_lie(s, b, np.array([X_EDGE])),
    lambda s, b: first_order_lie_rows(s, b, np.full((2, 1), X_EDGE)),
], ids=["lie_data", "lie_data_rows", "first_order_lie",
        "first_order_lie_rows"])
def test_finite_differences_run_under_the_calls_error_state(barrier, call):
    sys = ControlAffineSystem(1, 1, 1, lambda x: np.array([0.0]),
                              lambda x: np.array([[1.0]]),
                              lambda x: np.array([[1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelBlowup, match="non-finite model data"):
            call(sys, barrier)


# every error the package raises by name, with the builtin base it keeps
NAMED_ERRORS = [
    (CbfViolation, RuntimeError), (ScbfViolation, RuntimeError),
    (RcbfViolation, RuntimeError), (ProjectionError, RuntimeError),
    (SimulationError, RuntimeError), (ModelBlowup, ArithmeticError),
    (DomainError, ValueError), (BracketError, RuntimeError),
    (ConfigError, ValueError), (TubeRefinementError, RuntimeError),
]


@pytest.mark.parametrize("error, builtin", NAMED_ERRORS,
                         ids=[e.__name__ for e, _ in NAMED_ERRORS])
def test_every_named_error_is_a_safefilt_error(error, builtin):
    assert safefilt.SafefiltError is SafefiltError
    assert issubclass(error, SafefiltError) and issubclass(error, builtin)
    with pytest.raises(SafefiltError):
        raise error("x")
    with pytest.raises(builtin):
        raise error("x")


def test_rk4_tube_failure_is_a_named_error():
    calls = itertools.count()
    drifting = ExtendedKFunction(lambda y: 1e9 * next(calls), name="drift")
    with pytest.raises(TubeRefinementError, match="underflow") as err:
        kl_solve_grid(drifting, 1.0, [0.0, 1e-10])
    assert isinstance(err.value, RuntimeError)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m1", [0, 1, 2])
@pytest.mark.parametrize("grad", [True, False], ids=["analytic", "fd"])
def test_empty_stack_gives_empty_stacks_of_each_width(n, m1, grad):
    # the stacked path, not the row-by-row fallback, whose stack of no
    # rows would have no width
    m2 = 2
    sys, bf = model(n, m1, m2, 0, grad, True)
    X = np.zeros((0, n))
    shapes = [(0,), (0,), (0, m1), (0, m2)]
    for ld in (first_order_lie_rows(sys, bf, X), lie_data_rows(sys, bf, X)):
        assert [np.shape(v) for v in ld[:4]] == shapes
    full = lie_data_rows(sys, bf, X)
    assert [np.shape(v) for v in full[4:]] == [(0,), (0,), (0, m1, m1)]
    assert all(np.asarray(v).dtype == np.float64 for v in full)
