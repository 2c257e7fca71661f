"""optimality_probe's loops in lockstep.

optimality_probe runs the certified loop and its K perturbed loops as
one lockstep RK4 stack. Its result must be, bit for bit, what the
per-loop probe below gives (the probe as it ran before, one
integrate_ode loop after another, kept here as the oracle), or the same
exception with the same text: through escapes, failures of the
certified or of a perturbed loop, and with plain or stacked policies.
"""

import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import safefilt.certify
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
        seen.append((args[2], run(*args)))
        return seen[-1][1]
    with mock.patch.object(safefilt.certify, "_ode_rows", spy):
        outcome(optimality_probe, setup, cfg,
                perturbations={s: SHAPES[s] for s in shapes},
                amplitudes=tuple(amplitudes))
    (controls, (trajs, failure)), = seen
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
