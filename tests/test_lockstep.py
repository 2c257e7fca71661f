"""Euler-Maruyama paths in lockstep, and the stacks they rely on.

integrate_sde steps all its paths as one stack of live rows. Row i
must be, bit for bit, the path that the per-path loop below produces
alone (the loop integrate_sde ran before, kept here as the oracle), for
stacked and plain callables, through escapes and failures. A one-row
stack (one path, or the last live row) is stepped stacked, as any stack
is, and calls the policies and the plant as often as its per-path loop,
a stacked policy on its one-row stack; it samples by the row-alone rule
only at its tombstone. The stacked `correct` and the stochastic filters
must equal their calls at each row and raise the same class where a
row raises.
"""

import math
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import safefilt
import safefilt.sim as sim
from safefilt.filters import (CbfViolation, HALF_SONTAG, MIN_NORM, SONTAG,
                              correct)
from safefilt.scenarios import (_ex6_display, builtin_config, ex5_spec,
                                ex6_spec, run_ex6_nssf)
from safefilt.sim import (SimConfig, SimulationError, _alloc, _normals,
                          _record, _run, integrate_sde, sde_path_functionals)
from safefilt.stochastic import (CovarianceSchedule, ScbfViolation,
                                 nssf_hji_residual, nssf_qp_filter,
                                 nssf_sontag_filter, stoch_qp_filter,
                                 stoch_sontag_filter)
from safefilt.systems import (BarrierFunction, ControlAffineSystem,
                              ModelBlowup, _as_state, lie_data, stacked)
from safefilt.comparison import power_k

EYE = CovarianceSchedule.constant(np.eye(1))


def per_path(sys, bf, control, u0, x0, cov, cfg):
    """integrate_sde one path at a time: each path alone on _run."""
    x0 = _as_state(x0, sys.n, "x0")
    dt, thr = cfg.dt, cfg.escape_threshold
    sq = math.sqrt(dt)
    normals = _normals(cfg.seed)
    Z = np.empty((cfg.n_steps, sys.m1))

    def path(i):
        normals(i, Z)
        traj = _alloc(cfg.n_steps + 1, sys.n, sys.m2, sys.m1)

        def step(k, t, x, s):
            dw = sq * Z[k]
            traj.disturbances[k] = dw / dt
            return (x + dt * (sys.f_at(x) + sys.g2_at(x) @ s[0])
                    + sys.g1_at(x) @ (cov.at(t) @ dw))
        return _run(traj, cfg, x0.copy(),
                    lambda k, t, x: _record(traj, k, t, x, sys, bf, control,
                                            u0, None, thr), step)
    return [path(i) for i in range(cfg.paths)]


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


FIELDS = ("times", "states", "controls", "nominal", "disturbances",
          "h_values", "running_cost")


def assert_same_records(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.escape_time == w.escape_time, i
        for name in FIELDS:
            a, b = getattr(g, name), getattr(w, name)
            assert a.shape == b.shape, (i, name)
            assert np.array_equal(_bits(a), _bits(b)), (i, name)


def outcome(fn, *args):
    """fn's records, or (class, message, cause class) of its error."""
    try:
        return fn(*args)
    except Exception as exc:
        cause = exc.__cause__
        return type(exc), str(exc), None if cause is None else type(cause)


def assert_lockstep_is_per_path(plain, marked, sys, bf, u0, u0_marked, x0,
                                cov, cfg):
    want = outcome(per_path, sys, bf, plain, u0, x0, cov, cfg)
    got = outcome(integrate_sde, sys, bf, marked, u0_marked, x0, cov, cfg)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert_same_records(got, want)


# ---------------------------------------------------------------------------
# the plants: (system, barrier, covariance, plain and stacked policies)
# ---------------------------------------------------------------------------

def ou():
    sys = ControlAffineSystem(1, 1, 1, lambda x: np.zeros(1),
                              lambda x: np.array([[1.0]]),
                              lambda x: np.array([[1.0]]))
    bf = BarrierFunction(lambda x: 100.0 - x[0] ** 2,
                         lambda x: np.array([-2.0 * x[0]]),
                         lambda x: np.array([[-2.0]]))
    return (sys, bf, CovarianceSchedule.constant([[0.8]]),
            lambda x, t: -x, stacked(lambda X, t: -X),
            lambda x, t: 0.5 * x, stacked(lambda X, t: 0.5 * X))


def planar():
    # test_sim's planar_disturbed plant and ball barrier: n = 2, m1 = 1,
    # m2 = 2, a rotation field with a disturbance channel
    sys = ControlAffineSystem(2, 1, 2, lambda x: np.array([x[1], -x[0]]),
                              lambda x: np.array([[0.0], [1.0]]),
                              lambda x: np.eye(2))
    bf = BarrierFunction(lambda x: 1.0 - float(x @ x),
                         grad=lambda x: -2.0 * x,
                         hess=lambda x: -2.0 * np.eye(2))
    M = np.array([[-0.7, 0.3], [-0.2, -1.1]])
    return (sys, bf, CovarianceSchedule.constant([[0.6]]),
            lambda x, t: M @ x + math.sin(t),
            stacked(lambda X, t: np.matmul(M, X[:, :, None])[:, :, 0]
                    + math.sin(t)),
            lambda x, t: np.array([0.1, -0.2]),
            stacked(lambda X, t: np.tile([0.1, -0.2], (len(X), 1))))


def ex5():
    spec = ex5_spec(2.0)
    return (spec.sys, spec.bf, EYE,
            lambda x, t: stoch_qp_filter(spec, x, t),
            stacked(lambda X, t: stoch_qp_filter(spec, X, t)),
            lambda x, t: np.array([0.0]), spec.u0)


def ex6():
    spec = ex6_spec()
    return (spec.sys, spec.bf, EYE,
            lambda x, t: nssf_qp_filter(spec, x, t),
            stacked(lambda X, t: nssf_qp_filter(spec, X, t)),
            lambda x, t: np.array([0.0]), spec.u0)


def ou_failing():
    # u0 tombstones a path below -1 and fails it above 1
    sys, bf, cov, ctl, ctl_s, _, _ = ou()

    def one(x):
        if x[0] < -1.0:
            raise ModelBlowup("u0 below -1")
        if x[0] > 1.0:
            raise KeyError("u0 above 1")
        return 0.5 * x
    return (sys, bf, cov, ctl, ctl_s, lambda x, t: one(x),
            stacked(lambda X, t: np.array([one(x) for x in X])))


PLANTS = {"ou": (ou, (-2.0, 2.0)), "planar": (planar, (-1.2, 1.2)),
          "ex5": (ex5, (-1.5, 0.5)), "ex6": (ex6, (-1.0, 0.5)),
          "ou-failing": (ou_failing, (-0.9, 0.9))}
SEEDS = [0, 1, 6, -1, 2 ** 63, 977]


@given(plant=st.sampled_from(sorted(PLANTS)), mark=st.booleans(),
       paths=st.integers(1, 6), seed=st.sampled_from(SEEDS),
       u=st.floats(0.0, 1.0), thr=st.sampled_from([1e6, 1.5]))
@settings(max_examples=80, deadline=None)
def test_lockstep_rows_are_the_per_path_loop(plant, mark, paths, seed, u,
                                             thr):
    make, (lo, hi) = PLANTS[plant]
    sys, bf, cov, ctl, ctl_s, u0, u0_s = make()
    x0 = np.full(sys.n, lo + u * (hi - lo))
    cfg = SimConfig(dt=0.02, T=0.6, seed=seed, paths=paths,
                    escape_threshold=thr)
    assert_lockstep_is_per_path(ctl, ctl_s if mark else ctl, sys, bf, u0,
                                u0_s if mark else u0, x0, cov, cfg)


@pytest.mark.parametrize("seed", [1, 6])
def test_ex6_escape_seeds_match_the_per_path_loop(seed):
    # seeds whose default ex6 run escapes (path 1 at t = 1.153 for seed 1)
    sys, bf, cov, ctl, ctl_s, u0, u0_s = ex6()
    cfg = builtin_config("ex6-nssf", {"seed": seed})
    paths = integrate_sde(sys, bf, ctl_s, u0_s, [-0.5], cov, cfg)
    assert_same_records(paths, per_path(sys, bf, ctl, u0, [-0.5], cov, cfg))
    assert any(p.escape_time is not None for p in paths)
    if seed == 1:
        assert [p.escape_time for p in paths][1] == pytest.approx(1.153)


def test_stacked_policies_are_called_once_per_step_on_live_rows():
    sys, bf, cov, ctl, _, u0, _ = ou()
    shapes = []

    def ctl_s(X, t):
        shapes.append(X.shape)
        return -X
    cfg = SimConfig(dt=0.05, T=1.0, seed=3, paths=5)
    paths = integrate_sde(sys, bf, stacked(ctl_s), u0, [0.5], cov, cfg)
    assert shapes == [(5, 1)] * (cfg.n_steps + 1)
    assert_same_records(paths, per_path(sys, bf, ctl, u0, [0.5], cov, cfg))


def test_plain_policies_are_called_row_by_row():
    sys, bf, cov, ctl, _, u0, _ = ou()
    calls = []

    def counted(x, t):
        calls.append(x.shape)
        return ctl(x, t)
    cfg = SimConfig(dt=0.05, T=1.0, seed=3, paths=5)
    integrate_sde(sys, bf, counted, u0, [0.5], cov, cfg)
    assert calls == [(1,)] * (5 * (cfg.n_steps + 1))


# ---------------------------------------------------------------------------
# a one-row stack: one path, and the last live row
# ---------------------------------------------------------------------------

def counted_ou(calls):
    """ou's plant, barrier and noise, with plain policies u = -x/2 and
    u0 = 0; each call of f, g1, g2, control and u0 counted in calls."""
    def count(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped
    sys = ControlAffineSystem(1, 1, 1, count("f", lambda x: np.zeros(1)),
                              count("g1", lambda x: np.array([[1.0]])),
                              count("g2", lambda x: np.array([[1.0]])))
    return (sys, ou()[1], CovarianceSchedule.constant([[0.8]]),
            count("control", lambda x, t: -0.5 * x),
            count("u0", lambda x, t: 0.0 * x))


@pytest.mark.parametrize("paths, seed", [(1, 0), (1, 2), (4, 0), (4, 2)])
def test_a_row_alone_calls_what_its_own_loop_calls(paths, seed):
    # at threshold 0.6, seed 0's four paths escape at t = 0.98, 0.44,
    # 0.2 and 0.1 (path 0 alone from 0.44 on, and it escapes alone);
    # seed 2's at 0.24, 0.84 and 0.16, and path 3 runs on alone
    cfg = SimConfig(dt=0.02, T=1.0, seed=seed, paths=paths,
                    escape_threshold=0.6)
    got, want = Counter(), Counter()
    sys, bf, cov, ctl, u0 = counted_ou(got)
    records = integrate_sde(sys, bf, ctl, u0, [0.2], cov, cfg)
    sys, bf, cov, ctl, u0 = counted_ou(want)
    oracle = per_path(sys, bf, ctl, u0, [0.2], cov, cfg)
    assert_same_records(records, oracle)
    assert got == want and set(got) == {"f", "g1", "g2", "control", "u0"}
    assert any(p.escape_time is not None for p in oracle)


@pytest.mark.parametrize("paths", [1, 4])
def test_a_stacked_policy_gets_one_row_stacks_on_a_row_alone(paths):
    # seed 2: path 0 escapes at sample 12 (t = 0.24); of four paths, the
    # last but one escapes at sample 42 (t = 0.84), and from there the
    # survivor samples alone to sample 50
    cfg = SimConfig(dt=0.02, T=1.0, seed=2, paths=paths,
                    escape_threshold=0.6)
    sys, bf, cov, ctl, _, u0, u0_s = ou()
    shapes = []

    def ctl_s(X, t):
        shapes.append(X.shape)
        return -0.5 * X
    records = integrate_sde(sys, bf, stacked(ctl_s), u0_s, [0.2], cov, cfg)
    assert_same_records(records, per_path(sys, bf, lambda x, t: -0.5 * x,
                                          u0, [0.2], cov, cfg))
    if paths == 1:      # it escapes at sample 12, its tombstone
        assert records[0].escape_time == 0.24
        assert shapes == [(1, 1)] * 12
        return
    k = max(p.n_samples for p in records[:3]) - 1
    tail = cfg.n_steps - k + 1
    assert k == 42 and records[3].escape_time is None
    assert shapes[-tail:] == [(1, 1)] * tail
    assert shapes[-tail - 1] == (2, 1)


@pytest.mark.parametrize("thr, tombstone", [(1e6, None), (0.6, 12)])
def test_one_path_samples_alone_only_at_its_tombstone(thr, tombstone):
    # seed 2's one path: at threshold 0.6 it escapes at sample 12
    # (t = 0.24); every other sample is the one-row stack's stacked pass
    cfg = SimConfig(dt=0.02, T=1.0, seed=2, paths=1, escape_threshold=thr)
    sys, bf, cov, ctl, _, u0, _ = ou()
    with mock.patch.object(sim, "_sample", wraps=sim._sample) as spy:
        records = integrate_sde(sys, bf, ctl, u0, [0.2], cov, cfg)
    assert_same_records(records, per_path(sys, bf, ctl, u0, [0.2], cov, cfg))
    assert [c.args[1] for c in spy.call_args_list] == (
        [] if tombstone is None else [tombstone])
    assert records[0].n_samples == (cfg.n_steps if tombstone is None
                                    else tombstone) + 1


# ---------------------------------------------------------------------------
# events on one row
# ---------------------------------------------------------------------------

OU_CFG = SimConfig(dt=0.02, T=1.0, seed=21, paths=5)


def _ou_free():
    sys, bf, cov, ctl, ctl_s, u0, _ = ou()
    return sys, bf, cov, ctl, integrate_sde(sys, bf, ctl_s, u0, [0.2], cov,
                                            OU_CFG)


def _first_above(traj, c):
    above = np.flatnonzero(traj.states[:, 0] > c)
    return None if above.size == 0 else int(above[0])


def _u0_failing_above(c, exc, marked):
    def one(x):
        if x[0] > c:
            raise exc("u0 at %r" % x[0])
        return 0.0
    if marked:
        return stacked(lambda X, t: np.array([[one(x)] for x in X]))
    return lambda x, t: one(x)


@pytest.mark.parametrize("marked", [True, False])
def test_blowup_in_one_rows_u0_tombstones_that_row(marked):
    sys, bf, cov, ctl, free = _ou_free()
    c = np.sort([p.states[:, 0].max() for p in free])[2]
    u0 = _u0_failing_above(c, ModelBlowup, marked)
    paths = integrate_sde(sys, bf, stacked(lambda X, t: -X), u0, [0.2], cov,
                          OU_CFG)
    hit = 0
    for p, f in zip(paths, free):
        k = _first_above(f, c)
        if k is None:
            assert p.escape_time is None
            assert np.array_equal(_bits(p.states), _bits(f.states))
            assert np.array_equal(_bits(p.controls), _bits(f.controls))
            continue
        hit += 1
        assert p.n_samples == k + 1
        assert p.escape_time == p.times[-1] == k * OU_CFG.dt
        assert np.array_equal(_bits(p.states), _bits(f.states[:k + 1]))
        assert np.isnan(p.controls[-1]).all() and math.isnan(p.h_values[-1])
    assert hit == 2


@pytest.mark.parametrize("marked", [True, False])
def test_failure_in_one_row_is_that_rows_simulation_error(marked):
    sys, bf, cov, ctl, free = _ou_free()
    # the lowest path that crosses c fails, even where a higher one
    # crosses first in time
    maxima = [p.states[:, 0].max() for p in free]
    for c in sorted(maxima)[::-1][1:]:
        first = [_first_above(p, c) for p in free]
        crossing = [i for i, k in enumerate(first) if k is not None]
        if min(first[i] for i in crossing) < first[crossing[0]]:
            break
    else:
        pytest.fail("no threshold with a higher path failing first")
    i = crossing[0]
    with pytest.raises(SimulationError) as err:
        integrate_sde(sys, bf, stacked(lambda X, t: -X),
                      _u0_failing_above(c, KeyError, marked), [0.2], cov,
                      OU_CFG)
    assert isinstance(err.value.__cause__, KeyError)
    t = first[i] * OU_CFG.dt
    assert str(err.value) == "policy/model failure at t=%g, x=%s" % (
        t, free[i].states[first[i]])


def test_wrong_shape_from_a_stacked_policy_names_it():
    sys, bf, cov, _, _, u0, _ = ou()
    cfg = SimConfig(dt=0.05, T=0.5, paths=3)
    for what, ctl, nom in [
            ("control", stacked(lambda X, t: np.zeros((len(X), 2))), u0),
            ("u0", stacked(lambda X, t: -X), stacked(lambda X, t: X[:, 0]))]:
        with pytest.raises(SimulationError, match="t=0,") as err:
            integrate_sde(sys, bf, ctl, nom, [0.5], cov, cfg)
        assert isinstance(err.value.__cause__, ValueError)
        assert str(err.value.__cause__).startswith(what + " stack shape")


def test_a_plant_failure_in_one_row_stops_that_row():
    # the plant's drift blows up above c: that path escapes at the end of
    # its step, the others run on
    c = 0.6
    sys0, bf, cov, _, ctl_s, u0, _ = ou()

    def f(x):
        if x[0] > c:
            raise OverflowError("drift")
        return np.zeros(1)
    sys = ControlAffineSystem(1, 1, 1, f, lambda x: np.array([[1.0]]),
                              lambda x: np.array([[1.0]]))
    cfg = SimConfig(dt=0.02, T=1.0, seed=21, paths=5)
    got = integrate_sde(sys, bf, ctl_s, u0, [0.2], cov, cfg)
    want = per_path(sys, bf, ou()[3], u0, [0.2], cov, cfg)
    assert_same_records(got, want)
    stopped = [p for p in got if p.escape_time is not None]
    assert 0 < len(stopped) < len(got)


@pytest.mark.parametrize("exc", [OverflowError, KeyError])
@pytest.mark.parametrize("paths", [1, 4])
def test_every_row_stopping_in_one_step_ends_the_run(exc, paths):
    # with no noise every path is the same: all cross c in one step, and
    # all escape or fail there; no empty stack runs on
    c = 0.3
    _, bf, _, _, _, u0, u0_s = ou()

    def f(x):
        if x[0] > c:
            raise exc("drift")
        return np.zeros(1)
    sys = ControlAffineSystem(1, 1, 1, f, lambda x: np.array([[1.0]]),
                              lambda x: np.array([[1.0]]))
    cov = CovarianceSchedule.constant([[0.0]])
    cfg = SimConfig(dt=0.05, T=1.0, seed=4, paths=paths)
    want = outcome(per_path, sys, bf, lambda x, t: x, u0, [0.2], cov, cfg)
    got = outcome(integrate_sde, sys, bf, stacked(lambda X, t: X), u0_s,
                  [0.2], cov, cfg)
    if exc is KeyError:
        assert got == want
        assert want[0] is SimulationError and want[2] is KeyError
    else:
        assert_same_records(got, want)
        assert len({p.escape_time for p in got}) == 1
        assert got[0].escape_time is not None


# ---------------------------------------------------------------------------
# stacked corrections and stochastic filters
# ---------------------------------------------------------------------------

def _rows_outcome(fn, rows):
    try:
        return np.array([fn(*r) for r in rows])
    except Exception as exc:
        return type(exc)


def _stack_outcome(fn, *stacks):
    try:
        return fn(*stacks)
    except Exception as exc:
        return type(exc)


def _assert_same(got, want):
    if isinstance(want, type):
        assert got is want
    else:
        assert not isinstance(got, type), got
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))


omegas = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
                   st.floats(-5.0, 5.0))
directions = st.one_of(st.sampled_from([0.0, -0.0, 1e-13, -1e-13]),
                       st.floats(-3.0, 3.0))


@given(rows=st.lists(st.tuples(omegas, directions, directions),
                     min_size=1, max_size=7),
       rule=st.sampled_from([MIN_NORM, SONTAG, HALF_SONTAG]))
@settings(max_examples=200, deadline=None)
def test_stacked_correct_is_the_rows(rows, rule):
    omega = np.array([r[0] for r in rows])
    a = np.array([r[1:] for r in rows])
    want = _rows_outcome(lambda w, v: correct(w, v, rule),
                         list(zip(omega.tolist(), a)))
    _assert_same(_stack_outcome(correct, omega, a, rule), want)


@pytest.mark.parametrize("rule", [MIN_NORM, SONTAG, HALF_SONTAG])
def test_stacked_correct_raises_the_first_guarded_row(rule):
    omega = np.array([0.0, -0.0, 1.0, -1.0, -2.0])
    a = np.array([[0.0], [0.0], [0.0], [0.0], [1e-13]])
    with pytest.raises(ScbfViolation, match="margin -1 < 0"):
        correct(omega, a, rule, ScbfViolation)
    # +-0 margins with no authority need no correction
    for w in (0.0, -0.0):
        v = correct(np.array([w, 1.0]), np.zeros((2, 1)), rule)
        assert np.array_equal(_bits(v), _bits(np.zeros((2, 1))))
    with pytest.raises(CbfViolation):
        correct(np.array([1.0, -1.0]), np.array([[1.0], [0.0]]), rule)


FILTERS = [
    (ex5_spec, stoch_qp_filter, (-3.0, 0.9)),
    (ex5_spec, stoch_sontag_filter, (-3.0, 0.9)),
    (ex6_spec, nssf_qp_filter, (-2.0, 2.0)),
    (ex6_spec, nssf_sontag_filter, (-2.0, 2.0)),
    (ex6_spec, nssf_qp_filter, (-1e-6, 1e-6)),
    (ex6_spec, nssf_sontag_filter, (-1e-6, 1e-6)),
    (lambda: ex6_spec(beta=2.0, rho=power_k(2)), nssf_qp_filter,
     (-1e-6, 1e-6)),
]


@pytest.mark.parametrize("make,fn,box", FILTERS)
@given(us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
       t=st.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_stacked_stochastic_filters_are_the_rows(make, fn, box, us, t):
    # the cubic barrier's gradient vanishes at 0: within about 6e-7 the
    # NSSF filter raises there, and the stack must raise the same
    spec = make()
    lo, hi = box
    X = np.array([[lo + u * (hi - lo)] for u in us])
    want = _rows_outcome(lambda x: fn(spec, x, t), [(x,) for x in X])
    _assert_same(_stack_outcome(fn, spec, X, t), want)


def test_stacked_u0_serves_single_states():
    spec = ex6_spec()
    x = np.array([-0.3])
    assert np.array_equal(spec.u0(x, 0.0), np.zeros(1))
    assert spec.u0(np.zeros((4, 1)), 0.0).shape == (4, 1)
    assert stacked(spec.u0) is spec.u0


# ---------------------------------------------------------------------------
# ex6's sweeps, sde_path_functionals, the checked-state gradient
# ---------------------------------------------------------------------------

def test_ex6_sweeps_are_the_per_point_comprehensions():
    res = run_ex6_nssf(SimConfig(dt=1e-3, T=0.01, paths=1))
    grid = [x for x in np.linspace(-1.5, 1.5, 121) if abs(x) > 1e-6]
    spec, spec_sq, io = ex6_spec(), ex6_spec(rho=power_k(2)), ex6_spec(2.0)
    want = {
        "display_gap_linear_gain": max(
            abs(nssf_qp_filter(spec, np.array([x]), 0.0)[0]
                - _ex6_display(x, 0.0, lambda y: y)) for x in grid),
        "display_gap_sqrt_gain": max(
            abs(nssf_qp_filter(spec_sq, np.array([x]), 0.0)[0]
                - _ex6_display(x, 0.0, math.sqrt)) for x in grid),
        "nssf_hji_residual_max": max(
            abs(nssf_hji_residual(io, np.array([x]), 0.0)) for x in grid),
    }
    for key, value in want.items():
        assert type(res.report[key]) is float
        assert res.report[key] == value, key


def test_diverging_functionals_raise_only_simulation_error():
    cfg = SimConfig(dt=1e-2, T=1.0, paths=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError, match="path functional diverged"):
            sde_path_functionals(lambda x: x ** 3, lambda x: np.ones_like(x),
                                 10.0, cfg, lambda x: x * x, lambda x: x)


def test_functionals_check_x0_as_a_state():
    cfg = SimConfig(dt=1e-2, T=0.5, seed=5, paths=3)
    args = (lambda x: -x, lambda x: 0.3)
    rest = (cfg, lambda x: x * x, lambda x: x)
    want = sde_path_functionals(*args, 1.0, *rest)
    for x0 in ([1.0], np.array([1.0]), np.float64(1.0)):
        got = sde_path_functionals(*args, x0, *rest)
        assert np.array_equal(_bits(got), _bits(want))
    for x0 in ([1.0, 2.0], [[1.0]]):
        with pytest.raises(ValueError, match="x0 shape"):
            sde_path_functionals(*args, x0, *rest)


@given(x=st.floats(-2.0, 0.9))
@settings(max_examples=30, deadline=None)
def test_lie_data_gradient_is_the_public_gradient(x):
    spec = ex5_spec()
    xv = np.array([x])
    ld = lie_data(spec.sys, spec.bf, xv)
    g = spec.bf.gradient(x)
    assert ld.Lfh == float(g @ spec.sys.f_at(xv))
    assert np.array_equal(ld.Lg2h, g @ spec.sys.g2_at(xv))


def test_stacked_is_exported():
    assert safefilt.stacked is stacked


def test_readme_stacked_example_runs():
    # the integrate_sde block, run after the first block, which it
    # continues; its paths are the per-path loop's
    text = (Path(__file__).resolve().parent.parent
            / "README.md").read_text().split("## Library use", 1)[1]
    blocks, block = [], []
    for line in text.splitlines():
        if line.startswith("    ") or (block and not line.strip()):
            block.append(line[4:])
        elif block:
            blocks.append("\n".join(block))
            block = []
    assert "stacked" in blocks[1]
    scope = {}
    for code in blocks[:2]:
        exec(compile(code, "README.md", "exec"), scope)
    spec = scope["spec"]
    want = per_path(spec.sys, spec.bf,
                    lambda x, t: nssf_qp_filter(spec, x, t),
                    lambda x, t: np.array([0.0]), [-0.5], EYE,
                    SimConfig(dt=1e-3, T=2.0, paths=8))
    assert_same_records(scope["paths"], want)
