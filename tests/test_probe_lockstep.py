"""optimality_probe's loops in lockstep.

optimality_probe runs the certified loop and its K perturbed loops as
one lockstep RK4 stack. Its result must be, bit for bit, what the
per-loop probe below gives (the probe as it ran before, one
integrate_ode loop after another, kept here as the oracle), or the same
exception with the same text: through escapes, failures of the
certified or of a perturbed loop, and with plain or stacked policies.
A one-row stack (one loop, or the certified loop after the others
escape) is stepped stacked, as any stack is, and calls the policies and
the plant as often as its own loop, a stacked u_star on its one-row
stack.
"""

import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import safefilt.certify
import safefilt.sim
from safefilt.certify import (PROBE_TOL, CostSpec, ProbeSetup,
                              evaluate_cost, optimality_probe,
                              standard_perturbations)
from safefilt.scenarios import (_ex3_pieces, integrator_system,
                                neg_state_barrier)
from safefilt.sim import SimConfig, integrate_ode
from safefilt.systems import ModelBlowup, scalar_system, stacked


def per_loop_probe(setup, cfg, perturbations=None,
                   amplitudes=(-0.2, -0.05, 0.05, 0.2)):
    """optimality_probe one loop at a time: the oracle."""
    if perturbations is None:
        perturbations = standard_perturbations(cfg.T)
    base = integrate_ode(setup.sys, setup.bf, setup.u_star, setup.u0,
                         setup.x0, setup.d_star, cfg)
    j_opt = evaluate_cost(base, setup.cost)
    if j_opt.infinite:
        raise ValueError("certified loop produced an infinite cost")
    margins = {}
    for name, delta in perturbations.items():
        for eps in amplitudes:
            def control(x, t, _d=delta, _e=eps):
                return np.asarray(setup.u_star(x, t), dtype=float) + _e * _d(t)
            traj = integrate_ode(setup.sys, setup.bf, control, setup.u0,
                                 setup.x0, setup.d_star, cfg)
            j = evaluate_cost(traj, setup.cost)
            margins["%s@%+g" % (name, eps)] = (
                setup.direction * (j.total - j_opt.total))
    worst = min(margins.values())
    return {"j_opt": j_opt.total, "margins": margins, "worst": worst,
            "passed": worst >= -PROBE_TOL}


def _bits(v):
    """A value as its type and, for a float, its bits."""
    if isinstance(v, float):
        return type(v), np.float64(v).view(np.uint64)
    return type(v), v


def outcome(fn, *args, **kwargs):
    """fn's result dict as bits, or (class, text, cause class, cause
    text) of its error."""
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:
        cause = exc.__cause__
        return (type(exc), str(exc), type(cause),
                None if cause is None else str(cause))
    return {k: ([(name, _bits(m)) for name, m in v.items()]
                if k == "margins" else _bits(v))
            for k, v in out.items()}


def assert_probe_is_per_loop(setup, cfg, **kwargs):
    want = outcome(per_loop_probe, setup, cfg, **kwargs)
    got = outcome(optimality_probe, setup, cfg, **kwargs)
    assert got == want
    return got


# ---------------------------------------------------------------------------
# setups: (ProbeSetup builder taking x0) and an x0 range for each
# ---------------------------------------------------------------------------

def _intro_u(x, t):
    return 1.0 + 2.0 * min(0.0, -(1.0 + x[0]))


def intro(x0):
    # the certified loop settles at -1/2; no disturbance channel
    return ProbeSetup(integrator_system(), neg_state_barrier(), _intro_u,
                      lambda x, t: 1.0, None, [x0], CostSpec("intro-min"),
                      +1)


def game(x0):
    # ex3's disturbance game against its worst-case disturbance d_star
    u0_s, u_star, d_star, iospec = _ex3_pieces(2.0, 1.0)
    return ProbeSetup(iospec.base.sys, iospec.base.bf,
                      lambda x, t: u_star(x[0]), lambda x, t: u0_s(x[0]),
                      lambda x, t: d_star(x[0]), [x0],
                      CostSpec("disturbance-game", spec=iospec), -1)


def game_no_d(x0):
    # the same plant with d = None: a zero disturbance, recorded as such
    s = game(x0)
    return ProbeSetup(s.sys, s.bf, s.u_star, s.u0, None, s.x0, s.cost, -1)


def unstable(x0):
    # dx = x + u with u_star = 0: the certified loop rests at x0 = 0,
    # perturbed loops run off; the plant blows up past |x| = 0.3, so a
    # step escapes (ModelBlowup) as well as a sample (the threshold)
    def f(x):
        if abs(x) > 0.3:
            raise ModelBlowup("past 0.3")
        return x
    return ProbeSetup(scalar_system(f, None, lambda x: 1.0),
                      neg_state_barrier(), lambda x, t: np.array([0.0]),
                      lambda x, t: 1.0, None, [x0], CostSpec("intro-min"),
                      +1)


def wide_above(c):
    # the intro loop whose u_star has the wrong width (2) above x = c
    def build(x0):
        s = intro(x0)

        def u_star(x, t):
            return np.zeros(2) if x[0] > c else _intro_u(x, t)
        return ProbeSetup(s.sys, s.bf, u_star, s.u0, None, s.x0, s.cost, +1)
    return build


def infinite_base_wide(x0):
    # u_star = 3 from u0 + x = 0: the certified total is infinite, and
    # u_star has the wrong width wherever a row runs ahead of the
    # certified path x0 + 3t, which the rows pushed up do
    s = intro(x0)

    def u_star(x, t):
        return np.zeros(2) if x[0] > x0 + 3.0 * t + 1e-9 else 3.0
    return ProbeSetup(s.sys, s.bf, u_star, s.u0, None, s.x0, s.cost, +1)


def stacked_intro(x0):
    # the intro loop with u_star and u0 marked stacked
    s = intro(x0)
    return ProbeSetup(
        s.sys, s.bf,
        stacked(lambda X, t: 1.0 + 2.0 * np.minimum(0.0, -(1.0 + X))),
        stacked(lambda X, t: np.ones((len(X), 1))), None, s.x0, s.cost, +1)


SETUPS = {
    "intro": (intro, (-2.0, -0.2)),
    "game": (game, (-1.5, -0.3)),
    "game-no-d": (game_no_d, (-1.5, -0.3)),
    "unstable": (unstable, (-0.02, 0.02)),
    # the certified loop rests at -1/2: above -0.49 only perturbed rows
    # have the wrong width, below it the certified one has it too
    "wide-perturbed": (wide_above(-0.49), (-0.5, -0.5)),
    "wide-base": (wide_above(-0.6), (-0.5, -0.5)),
    "infinite-base-wide": (infinite_base_wide, (-1.0, -1.0)),
    "stacked": (stacked_intro, (-2.0, -0.2)),
}

SHAPES = {
    "const": lambda t: 1.0,
    "flip": lambda t: 1.0 if t < 0.5 else -1.0,
    "slow-sine": math.sin,
    "fast-sine": lambda t: math.sin(3.0 * t),
    "ramp": lambda t: t - 0.25,
    "zero": lambda t: 0.0,
}

amplitude = st.floats(-0.5, 0.5, allow_nan=False).map(
    lambda a: 0.0 if abs(a) < 1e-3 else a)


@given(name=st.sampled_from(sorted(SETUPS)), u=st.floats(0.0, 1.0),
       shapes=st.lists(st.sampled_from(sorted(SHAPES)), max_size=4,
                       unique=True),
       amplitudes=st.lists(amplitude, min_size=1, max_size=3),
       thr=st.sampled_from([1e6, 0.25]))
@settings(max_examples=120, deadline=None)
def test_probe_rows_are_the_per_loop_probe(name, u, shapes, amplitudes, thr):
    build, (lo, hi) = SETUPS[name]
    setup = build(lo + u * (hi - lo))
    cfg = SimConfig(dt=0.02, T=1.0, escape_threshold=thr)
    assert_probe_is_per_loop(setup, cfg,
                             perturbations={s: SHAPES[s] for s in shapes},
                             amplitudes=tuple(amplitudes))


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_standard_family_is_the_per_loop_probe(name):
    build, (lo, hi) = SETUPS[name]
    assert_probe_is_per_loop(build(0.5 * (lo + hi)),
                             SimConfig(dt=0.02, T=1.0))


def test_escaping_rows_raise_the_lowest_rows_error():
    # the perturbed rows that push up escape; the certified loop does not
    got = assert_probe_is_per_loop(unstable(0.0), SimConfig(dt=0.02, T=1.0),
                                   amplitudes=(-0.1, 0.4))
    assert got[:2] == (ValueError, "cost undefined on an escaped record")


@pytest.mark.parametrize("name, row", [("wide-perturbed", "perturbed"),
                                       ("wide-base", "certified")])
def test_wrong_width_raises_the_lowest_failing_rows_error(name, row):
    build, (x0, _) = SETUPS[name]
    got = assert_probe_is_per_loop(build(x0), SimConfig(dt=0.02, T=1.0))
    assert got[0].__name__ == "SimulationError"
    assert got[2] is ValueError
    assert got[3] == "control shape (2,), expected (1,)"
    if row == "certified":
        assert "t=0," in got[1]


def test_certified_loops_infinite_cost_wins():
    # a certified loop that pushes past u0 where u0 + x = 0 has an
    # infinite intro-min total; no perturbed row is even evaluated
    s = intro(-1.0)
    setup = ProbeSetup(s.sys, s.bf, lambda x, t: 3.0, s.u0, None, [-1.0],
                       s.cost, +1)
    got = assert_probe_is_per_loop(setup, SimConfig(dt=0.02, T=0.2))
    assert got[:2] == (ValueError, "certified loop produced an infinite cost")


def test_certified_loops_cost_wins_over_a_failing_perturbed_row():
    # the pushed-up rows fail in integration, but the certified loop
    # comes first, and its total is infinite
    got = assert_probe_is_per_loop(infinite_base_wide(-1.0),
                                   SimConfig(dt=0.02, T=0.2))
    assert got[:2] == (ValueError, "certified loop produced an infinite cost")


def per_loop_records(setup, controls, cfg):
    """Each of the loops alone: its record, or (class, text) of its
    error."""
    out = []
    for control in controls:
        try:
            out.append(integrate_ode(setup.sys, setup.bf, control, setup.u0,
                                     setup.x0, setup.d_star, cfg))
        except Exception as exc:
            out.append((type(exc), str(exc)))
    return out


FIELDS = ("times", "states", "controls", "nominal", "disturbances",
          "h_values", "running_cost")


@given(name=st.sampled_from(sorted(SETUPS)), u=st.floats(0.0, 1.0),
       shapes=st.lists(st.sampled_from(sorted(SHAPES)), min_size=1,
                       max_size=4, unique=True),
       amplitudes=st.lists(amplitude, min_size=1, max_size=3),
       thr=st.sampled_from([1e6, 0.25]))
@settings(max_examples=80, deadline=None)
def test_probe_rows_are_the_per_loop_records(name, u, shapes, amplitudes,
                                             thr):
    # the lockstep rows themselves, also those after a row that stopped,
    # whose results the probe never reaches: each row up to the lowest
    # failing one is its own loop's record, tombstone included, and
    # that row fails with its loop's error
    build, (lo, hi) = SETUPS[name]
    setup = build(lo + u * (hi - lo))
    cfg = SimConfig(dt=0.02, T=1.0, escape_threshold=thr)
    seen = []
    run = safefilt.certify._ode_rows

    def spy(*args):
        seen.append(run(*args))
        return seen[-1]
    with mock.patch.object(safefilt.certify, "_ode_rows", spy):
        outcome(optimality_probe, setup, cfg,
                perturbations={s: SHAPES[s] for s in shapes},
                amplitudes=tuple(amplitudes))
    (trajs, failure), = seen
    # the loops' own controls, as per_loop_probe builds them
    controls = [setup.u_star] + [
        (lambda x, t, _d=SHAPES[s], _e=eps:
         np.asarray(setup.u_star(x, t), dtype=float) + _e * _d(t))
        for s in shapes for eps in amplitudes]
    want = per_loop_records(setup, controls, cfg)
    last = len(trajs) if failure is None else failure[0]
    for i in range(last):
        g, w = trajs[i], want[i]
        assert not isinstance(w, tuple), (i, w)
        assert g.escape_time == w.escape_time, i
        for field in FIELDS:
            a, b = getattr(g, field), getattr(w, field)
            assert a.shape == b.shape, (i, field)
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (
                i, field)
    if failure is not None:
        err = failure[1]
        assert want[last] == (type(err), str(err))


def test_empty_family_raises_as_the_per_loop_probe():
    got = assert_probe_is_per_loop(intro(-0.5), SimConfig(dt=0.02, T=0.2),
                                   perturbations={})
    assert got[0] is ValueError


def _counted(fn, log):
    def wrapped(x, t):
        log.append(t)
        return fn(x, t)
    return wrapped


@pytest.mark.parametrize("name", ["intro", "game"])
def test_plain_u_star_makes_4n_plus_1_calls_per_row(name):
    build, (lo, hi) = SETUPS[name]
    s = build(0.5 * (lo + hi))
    cfg = SimConfig(dt=0.05, T=0.5)
    n = cfg.n_steps
    one, rows = [], []
    integrate_ode(s.sys, s.bf, _counted(s.u_star, one), s.u0, s.x0,
                  s.d_star, cfg)
    u0_calls = []
    setup = ProbeSetup(s.sys, s.bf, _counted(s.u_star, rows),
                       _counted(s.u0, u0_calls), s.d_star, s.x0, s.cost,
                       s.direction)
    out = optimality_probe(setup, cfg)
    P = 1 + len(out["margins"])
    assert len(one) == 4 * n + 1
    assert len(rows) == P * (4 * n + 1)
    # each row calls u_star where its own loop does: at every time as
    # often as one loop, times the rows
    assert Counter(rows) == Counter({t: P * c for t, c in
                                     Counter(one).items()})
    assert len(u0_calls) == P * (n + 1)


def test_stacked_u_star_is_called_once_per_stage_on_the_live_rows():
    shapes = []

    def u_star(X, t):
        shapes.append(X.shape)
        return 1.0 + 2.0 * np.minimum(0.0, -(1.0 + X))
    s = intro(-0.8)
    setup = ProbeSetup(s.sys, s.bf, stacked(u_star), s.u0, None, s.x0,
                       s.cost, +1)
    cfg = SimConfig(dt=0.05, T=0.5)
    out = optimality_probe(setup, cfg)
    P = 1 + len(out["margins"])
    assert shapes == [(P, 1)] * (4 * cfg.n_steps + 1)
    assert out == per_loop_probe(intro(-0.8), cfg)


# ---------------------------------------------------------------------------
# a one-row stack: one loop, and the certified loop after the others escape
# ---------------------------------------------------------------------------

ALONE_SHAPES = {s: SHAPES[s] for s in ("const", "ramp", "fast-sine")}
ALONE_AMPLITUDES = (-0.2, 0.3)


def counted_unstable(calls, u_star):
    """dx = x + 0 d + u from 0 with u0 = 1 and d_star = 0, u_star as
    given: the certified loop rests at 0, a perturbed one runs off. Each
    call of f, g1, g2, u0 and d_star is counted in calls."""
    def count(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped
    sys = scalar_system(count("f", lambda x: x), count("g1", lambda x: 0.0),
                        count("g2", lambda x: 1.0))
    return ProbeSetup(sys, neg_state_barrier(), u_star,
                      count("u0", lambda x, t: 1.0),
                      count("d", lambda x, t: np.array([0.0])), [0.0],
                      CostSpec("intro-min"), +1)


def probe_rows(setup, cfg, perturbations, calls):
    """optimality_probe's lockstep rows and the calls made up to their
    end."""
    seen = []
    run = safefilt.certify._ode_rows

    def spy(*args):
        seen.append((run(*args), Counter(calls)))
        return seen[-1][0]
    with mock.patch.object(safefilt.certify, "_ode_rows", spy):
        outcome(optimality_probe, setup, cfg, perturbations=perturbations,
                amplitudes=ALONE_AMPLITUDES)
    ((trajs, failure), counted), = seen
    assert failure is None
    return trajs, counted


@pytest.mark.parametrize("perturbations", [{}, ALONE_SHAPES])
def test_a_row_alone_calls_what_its_own_loop_calls(perturbations):
    # threshold 0.25: with no perturbation the certified loop is the one
    # row; else the six perturbed rows escape between t = 0.62 and 1.56,
    # and the certified loop runs on alone to T = 2
    cfg = SimConfig(dt=0.02, T=2.0, escape_threshold=0.25)
    calls, want = Counter(), Counter()

    def u_star(log):
        def u(x, t):
            log["control"] += 1
            return np.array([0.0])
        return u
    trajs, got = probe_rows(counted_unstable(calls, u_star(calls)), cfg,
                            perturbations, calls)
    setup = counted_unstable(want, u_star(want))
    controls = [setup.u_star] + [
        (lambda x, t, _d=delta, _e=eps:
         np.asarray(setup.u_star(x, t), dtype=float) + _e * _d(t))
        for delta in perturbations.values() for eps in ALONE_AMPLITUDES]
    want_trajs = per_loop_records(setup, controls, cfg)
    assert len(trajs) == len(want_trajs) == 1 + 2 * len(perturbations)
    for i, (g, w) in enumerate(zip(trajs, want_trajs)):
        assert g.escape_time == w.escape_time, i
        for field in FIELDS:
            a, b = getattr(g, field), getattr(w, field)
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (
                i, field)
    assert got == want
    assert set(got) == {"f", "g1", "g2", "control", "u0", "d"}
    assert trajs[0].escape_time is None
    assert all(w.escape_time is not None for w in want_trajs[1:])


@pytest.mark.parametrize("perturbations", [{}, ALONE_SHAPES])
def test_a_stacked_u_star_gets_one_row_stacks_on_a_row_alone(perturbations):
    cfg = SimConfig(dt=0.02, T=2.0, escape_threshold=0.25)
    shapes = []

    def u_star(X, t):
        shapes.append(X.shape)
        return np.zeros((len(X), 1))
    trajs, _ = probe_rows(counted_unstable(Counter(), stacked(u_star)), cfg,
                          perturbations, Counter())
    # each sample and the three later stages of each step: from the
    # last perturbed row's tombstone (sample 78, t = 1.56) the
    # certified row alone
    k = 0 if not perturbations else max(r.n_samples for r in trajs[1:]) - 1
    tail = 4 * (cfg.n_steps - k) + 1
    assert shapes[-tail:] == [(1, 1)] * tail
    if perturbations:
        assert k == 78 and shapes[-tail - 1] == (2, 1)
    else:
        assert len(shapes) == tail


@pytest.mark.parametrize("perturbations", [{}, ALONE_SHAPES])
def test_the_certified_row_alone_samples_stacked(perturbations):
    # the rows sample one at a time only at the perturbed rows'
    # tombstones, each live row there; from the last one (sample 78) on
    # the certified row is a one-row stack, sampled stacked to T = 2
    cfg = SimConfig(dt=0.02, T=2.0, escape_threshold=0.25)

    def u_star(x, t):
        return np.array([0.0])
    setup = counted_unstable(Counter(), u_star)
    with mock.patch.object(safefilt.sim, "_sample",
                           wraps=safefilt.sim._sample) as spy:
        trajs, _ = probe_rows(setup, cfg, perturbations, Counter())
    controls = [u_star] + [
        (lambda x, t, _d=delta, _e=eps:
         np.asarray(u_star(x, t), dtype=float) + _e * _d(t))
        for delta in perturbations.values() for eps in ALONE_AMPLITUDES]
    want = per_loop_records(setup, controls, cfg)
    for i, (g, w) in enumerate(zip(trajs, want)):
        assert g.escape_time == w.escape_time, i
        for field in FIELDS:
            a, b = getattr(g, field), getattr(w, field)
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (
                i, field)
    tombstones = sorted({r.n_samples - 1 for r in trajs[1:]})
    ks = [c.args[1] for c in spy.call_args_list]
    assert sorted(set(ks)) == tombstones
    assert all(ks.count(k) == sum(r.n_samples > k for r in trajs)
               for k in tombstones)
    assert trajs[0].n_samples == cfg.n_steps + 1
    if perturbations:
        assert tombstones[-1] == 78


def test_a_wide_perturbation_raises_its_own_loops_error():
    # delta(t) of width two: every perturbed loop fails its control
    # check at t = 0, and the lowest one's error is raised, as alone
    got = assert_probe_is_per_loop(intro(-0.5), SimConfig(dt=0.02, T=0.2),
                                   perturbations={"wide":
                                                  lambda t: np.ones(2)})
    assert got[0].__name__ == "SimulationError" and "t=0," in got[1]
    assert got[3] == "control shape (2,), expected (1,)"
