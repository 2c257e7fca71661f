"""Per-layer cost of one general single-state RK4 stage, as JSON.

    python scripts/stage_cost.py [--rounds R]

Imports safefilt from the src/ of the checkout that holds this script,
so running it from two checkouts compares them. Every number is the
best of R rounds (default 5), timed with perf_counter in this process
and reported at reference machine speed, as bench/run.py reports its
times: each round's raw time is scaled by REFERENCE_KERNEL_S over the
mean of the reference kernel's times taken just before and after it,
each the median of three runs (the kernel and its constant are
imported from bench/run.py). The
kernel's median time over five runs at the end is printed as kernel_s,
beside reference_kernel_s, the time it takes on the reference machine.
A shared host's single-thread speed swings by tens of percent for
minutes, and the kernel swings with it, so scaled numbers from two runs
compare where raw ones do not.

  lie_data.m1_0.us_per_call   lie_data on the integrator plant (no
                              disturbance channel), h = -x
  first_order_lie.m1_0.us_per_call
                              first_order_lie on the same plant
  lie_data.m1_1.us_per_call   lie_data on ex3's disturbed-gain plant
                              dx = (u + (1 + x^2) d) dt, h = -x
  first_order_lie.m1_1.us_per_call
                              first_order_lie on the same plant: no
                              Hessian, no Ito terms
  first_order_lie.m1_1.array.us_per_call
                              the same on the plant's array twin: the
                              plant built with ControlAffineSystem
                              from array callables that wrap its float
                              f, g1 and g2, so the model is read
                              through (1,) arrays and (1, 1) matrices
                              where the scalar_system plant reads
                              floats
  first_order_lie_rows.m1_1.us_per_row
                              first_order_lie_rows on ex3's plant, on a
                              stack of ROWS states in [-1.2, -0.2] (the
                              length of a cost pass over ex3's record),
                              per row
  lie_data_rows.m1_1.us_per_row
                              lie_data_rows on the same stack, per row
  ode.general.us_per_step     integrate_ode on ex3's closed loop
                              (x0 = -1.2, dt = 1e-3, T = 2) with its
                              closed-form control, u0 and worst-case d
                              as array callables
  ode.scalar.us_per_step      the same loop on integrate_ode_scalar
  ode.general_over_scalar     the ratio of the two
  ode.filter.us_per_step      ex3's loop with inverse_optimal_general
                              as the control: first_order_lie at every
                              stage
  ode.game.us_per_step        the same with worst_case_disturbance as
                              d, game-cert's shape of ex3: two
                              first_order_lie calls at every stage
  ode.game.array.us_per_step  the same loop on the array twin of ex3's
                              plant
  ode.game.model_reads_per_step
                              h calls per RK4 step of ode.game's loop,
                              counted by its barrier: the recorded h
                              and each Lie data read (a count, not a
                              time)
  ode.rows.us_per_row_step    sim._ode_rows, the lockstep RK4 stack, on
                              ex3's plant: LOOPS loops from x0 = -1.2
                              (dt = 1e-3, T = 1), loop i under u* plus
                              a constant offset, with u0 and d* marked
                              systems.stacked, per row and step
  ode.io_general.us_per_call  inverse_optimal_general, the control of
                              ode.filter's loop, at one state of it
                              (x = -1.2)
  filters.io_qp.us_per_call   inverse_optimal_qp (beta = 2) at one
                              state (x = -1.1) on probe.game's plant:
                              the probe's u*
  filters.io_qp.loop.us_per_call
                              the same law inside a loop scope at
                              IO_CALLS distinct states in [-1.5, -0.5],
                              so that every call reads the Lie data
                              afresh: the probe's traffic
  filters.rcbf_qp.us_per_call rcbf_qp_filter (beta = 2) at one state
                              (x = -0.5) of the integrator plant, B =
                              -1/x, u0 = 1: the correction is active
  filters.wcd.us_per_call     worst_case_disturbance at one state of
                              ex3's game (x = -1.2)
  cost.intro_min.us_per_sample
                              evaluate_cost under intro-min on the
                              record of the intro-qp-optimal built-in
                              at its defaults (dt = 1e-4, T = 10), per
                              sample
  cost.intro_sontag.us_per_sample
                              evaluate_cost under intro-sontag on the
                              record of the intro-sontag built-in at its
                              defaults (dt = 1e-3, T = 10), per sample
  sde.p1.us_per_step          integrate_sde with one path on a scalar
                              Ornstein-Uhlenbeck plant (T = 0.5)
  mc.us_per_path_step         sde_path_functionals on ex5-stoch's
                              closed forms (its filtered drift,
                              diffusion 1 - x, running and terminal
                              cost) from x0 = -1, MC_PATHS paths (two
                              batches of the default width), dt = 1e-3,
                              T = 2, per path and step
  probe.game.s                one optimality_probe of game-cert's shape:
                              the integrator plant dx = u dt, h = -x,
                              u0 = 1, alpha(h) = h, inverse_optimal_qp
                              (beta = 2) as u*, x0 = -1.1, the four
                              standard shapes at amplitudes -0.1 and
                              0.1, dt = 2e-3, T = 1, cost intro-min;
                              timed before mc.noise_peak_mb, so no
                              tracemalloc call has run in the process
  mc.noise_peak_mb            the tracemalloc peak of mc.us_per_path_step's
                              call at ex5-stoch's defaults (10**4
                              paths), above what was held before it, in
                              MB (a size, not a time; measured once)

Six flags are checked, and any one false exits 1:

  general_equals_scalar       the two ode records are equal bit for bit
  scalar_equals_array         the scalar_system plant and its array
                              twin give the same bits: ode.game's
                              records, and first_order_lie, lie_data,
                              first_order_lie_rows and lie_data_rows
                              on ex3's plant at a fixed set of states
                              (signed zeros, subnormals, 1e+-200), or
                              the same error and text where the model
                              data is not finite; and every library
                              law's one-state call (the u0 + beta k a
                              laws, the game laws, the worst-case
                              disturbances, the reciprocal laws, and
                              first_order_lie and lie_data inside a
                              loop scope) at each SPECIAL state and
                              nominal, numpy's warnings raised as errors
  rows_equal_single           each consumer that takes a stack
                              (first_order_lie_rows, lie_data_rows,
                              call_rows with a plain and with a stacked
                              policy, game_weights, rcbf_weights,
                              projection_margin), on the same states as
                              a stack (and on its rows below 1e100 in
                              size, and its rows below -1e-300), gives the
                              bytes of its single-state form called at
                              each row, or the error and text of the
                              first row that raises
  contractions_equal_matmul   each contraction helper of
                              safefilt.systems (row_dot, vecmat, matvec,
                              vec_norm, row_norm), single and stacked,
                              gives the bytes of @ / np.matmul (of
                              sqrt(v.v) for the norms) on a fixed grid
                              of width-one special values (+-0, +-inf,
                              NaNs, subnormals, overflowing products)
                              and on a few wider shapes; a width-one
                              row_dot of two NaNs need only be a NaN:
                              CPython's float multiply gives one
                              operand's NaN or the other's, depending
                              on whether its adaptive interpreter has
                              specialised the multiply yet
  filtered_equals_array       the width-one float step of the filters
                              gives the array expression's bytes, or
                              the same error class and text (numpy's
                              warnings raised as errors, so a warning
                              counts as its text): _filtered at a
                              number a against u0 + beta correct(omega,
                              (a,)), the (1,) vector's step, for each
                              rule and beta in (1, 2, 2.5), at every
                              triple of SPECIAL values (u0, omega, a),
                              and at beta = 1 against u0 +
                              correct(omega, a) too
  functionals_equal_paths     sde_path_functionals, which draws its
                              noise in time chunks, gives the bits of
                              the whole-path loop that draws each
                              path's normals up front from a fresh
                              Generator(Philox(key=[seed, i])): for
                              1, 3 and 7 paths, batch widths 1, 2, 3
                              and the default, 1, 2, 5 and 17 steps,
                              seeds 0, -1, 2**63 and 977, chunks of
                              K = 1, 2, N - 1, N and N + 1 steps
                              (through sim._NOISE), with array and
                              with scalar-returning diffusion and
                              integrand

Compare timings of two trees only from runs taken side by side; the
scaling narrows the spread but does not remove it.
"""

import argparse
import dataclasses
import importlib.util
import itertools
import json
import math
import os
import platform
import statistics
import struct
import sys
import time
import tracemalloc
import warnings
from unittest import mock

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _bench_run():
    """bench/run.py as a module (its main() is not run); loaded before
    numpy, so its one-thread BLAS pinning holds here too."""
    spec = importlib.util.spec_from_file_location(
        "bench_run", os.path.join(ROOT, "bench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _bench_run()

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))

import safefilt as sf  # noqa: E402
from safefilt.filters import (HALF_SONTAG, MIN_NORM,  # noqa: E402
                               SONTAG, CbfViolation, Weight, _filtered,
                               correct, game_weights)
from safefilt import sim  # noqa: E402
from safefilt.projection import projection_margin  # noqa: E402
from safefilt.scenarios import (_ex3_pieces,  # noqa: E402
                                disturbed_gain_system, integrator_system,
                                neg_state_barrier, unit_ball_barrier)
from safefilt.sim import _ode_rows  # noqa: E402
import safefilt.scenarios  # noqa: E402,F401
from safefilt.systems import (_as_state, _loop_scope,  # noqa: E402
                              _single_state, call_rows, first_order_lie,
                              first_order_lie_rows, lie_data_rows, matvec,
                              row_dot, row_norm, vec_norm, vecmat)

BETA, LAM, ALPHA_GAIN = 2.0, 1.0, 12.0      # ex3-invopt's gains
LIE_CALLS = 20000
IO_CALLS = 5000
ROWS = 2001                 # states per stacked Lie data call
LOOPS = 8                   # loops of ode.rows
MC_PATHS = 4000             # paths of mc.us_per_path_step


def kernel():
    """The reference kernel's median time over three runs: a single run
    swings several-fold where the host preempts it, and would scale the
    call it brackets by as much."""
    return statistics.median(BENCH.kernel_seconds() for _ in range(3))


def best(fn, rounds):
    """The fastest of `rounds` calls of fn, in seconds at reference
    speed: each call's time scaled by REFERENCE_KERNEL_S over the mean
    of the kernel times (kernel) taken just before and after it."""
    times = []
    before = kernel()
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        seconds = time.perf_counter() - t0
        after = kernel()
        times.append(seconds * BENCH.REFERENCE_KERNEL_S
                     / (0.5 * (before + after)))
        before = after
    return min(times)


def lie_us(lie, sys_, rounds):
    bf = neg_state_barrier()
    x = np.array([-0.5])

    def calls():
        for _ in range(LIE_CALLS):
            lie(sys_, bf, x)
    return 1e6 * best(calls, rounds) / LIE_CALLS


def rows_us(lie, rounds):
    """lie (a *_rows function) on ex3's plant at ROWS states, per row."""
    plant, bf = disturbed_gain_system(), neg_state_barrier()
    X = np.linspace(-1.2, -0.2, ROWS)[:, None]
    return 1e6 * best(lambda: lie(plant, bf, X), rounds) / ROWS


def ode_rows_us(rounds):
    """sim._ode_rows on ex3's plant, LOOPS loops, per row and step."""
    u0, u_star, d_star, iospec = _ex3_pieces(BETA, LAM)
    offsets = np.linspace(-0.2, 0.2, LOOPS)

    def stack(X, t, live):
        return (np.array([u_star(v) for v in X[:, 0].tolist()])
                + offsets[live])[:, None]
    U0 = sf.stacked(lambda X, t: np.array([[u0(v)] for v in X[:, 0]]))
    D = sf.stacked(lambda X, t: LAM * (1.0 + X * X))
    cfg = sf.SimConfig(dt=1e-3, T=1.0)
    base = iospec.base

    def run():
        _, failure = _ode_rows(base.sys, base.bf, stack, LOOPS, U0, [-1.2],
                               D, cfg)
        if failure is not None:
            raise failure[1]
    return 1e6 * best(run, rounds) / (LOOPS * cfg.n_steps)


# ex3's plant dx = (u + (1 + x^2) d) dt: its f, g1 and g2 on floats, as
# scenarios.disturbed_gain_system builds it
EX3_MODEL = (lambda x: 0.0, lambda x: 1.0 + x * x, lambda x: 1.0)


def array_twin(f, g1, g2):
    """scalar_system(f, g1, g2) built with ControlAffineSystem instead,
    from array callables that wrap the float ones: the same model, read
    through arrays."""
    return sf.ControlAffineSystem(
        1, 0 if g1 is None else 1, 1, lambda x: np.array([f(float(x[0]))]),
        None if g1 is None else (lambda x: g1(float(x[0]))),
        lambda x: g2(float(x[0])))


def ex3_loop(plant=None):
    """ex3-invopt's pieces: closed forms of u0, u*, d* and its spec, on
    `plant` (ex3's plant where None)."""
    def u0(x):
        return (BETA - LAM) * (1.0 + x * x) ** 2 - (x + 1.0)

    def r2inv(x, u0v):
        return max(0.0, u0v - ALPHA_GAIN * (-x)) + (1.0 + x * x) ** 2

    def u_star(x):
        u0v = u0(x)
        return u0v - BETA * r2inv(x, u0v)

    def d_star(x):
        return LAM * (1.0 + x * x)

    base = sf.DssfCbfSpec(plant or disturbed_gain_system(),
                          neg_state_barrier(),
                          sf.identity_k(), sf.linear_extended(ALPHA_GAIN),
                          lambda x, t: np.array([u0(x[0])]))
    iospec = sf.InverseOptimalSpec(
        base, BETA, LAM, sf.power_pair(2),
        R2=lambda x, u0v: np.array([[1.0 / r2inv(x[0], u0v[0])]]))
    return u0, u_star, d_star, iospec


def ode_numbers(rounds):
    u0, u_star, d_star, iospec = ex3_loop()
    twin = ex3_loop(array_twin(*EX3_MODEL))[3]
    base = iospec.base
    cfg = sf.SimConfig(dt=1e-3, T=2.0)
    x0 = np.array([-1.2])
    d_arr = lambda x, t: np.array([d_star(x[0])])
    out = {}

    def general():
        out["general"] = sf.integrate_ode(
            base.sys, base.bf, lambda x, t: np.array([u_star(x[0])]),
            base.u0, x0, d_arr, cfg)

    def scalar():
        out["scalar"] = sf.integrate_ode_scalar(
            lambda x, t: u_star(x) + (1.0 + x * x) * d_star(x), -1.2, cfg,
            h_fn=lambda x: -x, u_fn=lambda x, t: u_star(x),
            u0_fn=lambda x, t: u0(x), d_fn=lambda x, t: d_star(x))

    control = lambda x, t: sf.inverse_optimal_general(iospec, x, t)

    def filtered():
        sf.integrate_ode(base.sys, base.bf, control, base.u0, x0, d_arr, cfg)

    def game(spec, key):
        def run():
            out[key] = sf.integrate_ode(
                spec.base.sys, spec.base.bf,
                lambda x, t: sf.inverse_optimal_general(spec, x, t),
                spec.base.u0, x0,
                lambda x, t: sf.worst_case_disturbance(spec, x), cfg)
        return run

    def io_general():
        for _ in range(IO_CALLS):
            control(x0, 0.0)

    calls = [0]

    def h(x):
        calls[0] += 1
        return -x[0]
    counted = dataclasses.replace(iospec, base=dataclasses.replace(
        base, bf=sf.BarrierFunction(h, grad=lambda x: np.array([-1.0]))))
    game(counted, "game.counted")()

    steps = cfg.n_steps
    g = 1e6 * best(general, rounds) / steps
    s = 1e6 * best(scalar, rounds) / steps
    f = 1e6 * best(filtered, rounds) / steps
    w = 1e6 * best(game(iospec, "game"), rounds) / steps
    wa = 1e6 * best(game(twin, "game.array"), rounds) / steps
    a, b = out["general"], out["scalar"]
    same = all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("times", "states", "controls", "nominal",
                         "disturbances", "h_values"))
    return {"ode.general.us_per_step": g, "ode.scalar.us_per_step": s,
            "ode.general_over_scalar": g / s,
            "ode.filter.us_per_step": f, "ode.game.us_per_step": w,
            "ode.game.array.us_per_step": wa,
            "ode.game.model_reads_per_step": calls[0] / steps,
            "ode.io_general.us_per_call":
                1e6 * best(io_general, rounds) / IO_CALLS}, same, \
        _same_record(out["game"], out["game.array"])


def _same_record(a, b):
    """Two records with the same bytes in every column and the same
    escape time."""
    return a.escape_time == b.escape_time and all(
        _same(getattr(a, k), getattr(b, k))
        for k in ("times", "states", "controls", "nominal", "disturbances",
                  "h_values", "running_cost"))


def _lie_outcome(lie, plant, x):
    """lie's fields at x as bytes, or its error's class and text."""
    try:
        with np.errstate(all="ignore"):
            ld = lie(plant, neg_state_barrier(), x)
    except Exception as exc:
        return type(exc), str(exc)
    return [np.asarray(v).tobytes() for v in ld]


# states of ex3's plant: signed zeros, subnormals, 1e+-200 (where
# 1 + x^2 overflows, so first_order_lie raises ModelBlowup)
LIE_STATES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1.2, 0.5, 3.7, 1e-200,
              -1e-200, 1e200, -1e200, 1.3e154]


def lie_equal_array():
    """ex3's scalar_system plant and its array twin: the same bytes or
    the same error from the four Lie data functions at LIE_STATES, one
    state at a time and as stacks (with and without the overflowing
    states)."""
    plant = sf.scalar_system(*EX3_MODEL)
    twin = array_twin(*EX3_MODEL)
    ok = True
    for lie in (first_order_lie, sf.lie_data):
        for v in LIE_STATES:
            x = np.array([v])
            ok &= _lie_outcome(lie, plant, x) == _lie_outcome(lie, twin, x)
    X = np.array(LIE_STATES)[:, None]
    for lie in (first_order_lie_rows, lie_data_rows):
        for S in (X, X[np.abs(X[:, 0]) < 1e100], X[:0]):
            ok &= _lie_outcome(lie, plant, S) == _lie_outcome(lie, twin, S)
    return bool(ok)


def law_specs(array, c):
    """The specs of laws_equal_array on the scalar plants (ex3's, the
    integrator and ex5's), or (array) on their array twins, with the
    constant nominal c."""
    model = {"ex3": EX3_MODEL, "int": (lambda x: 0.0, None, lambda x: 1.0),
             "ex5": (lambda x: 0.0, lambda x: 1.0 - x, lambda x: 1.0)}
    plant = {k: (array_twin if array else sf.scalar_system)(*m)
             for k, m in model.items()}
    u0 = lambda x, t: np.array([c])
    base = sf.DssfCbfSpec(plant["ex3"], neg_state_barrier(), sf.identity_k(),
                          sf.linear_extended(1.0), u0)
    r2 = lambda x, u0v: np.array([[1.0 / (1.0 + abs(float(x[0])))]])
    bf5 = sf.scenarios.log_gap_barrier()
    return {"base": base,
            "io": sf.InverseOptimalSpec(base, 2.5, LAM, sf.power_pair(2),
                                        R2=r2),
            "recip": sf.RcbfSpec(plant["int"], lambda x: -1.0 / x[0],
                                 sf.identity_k(), u0, Rbar=r2,
                                 gradB=lambda x: np.array([1.0 / x[0] ** 2])),
            "stoch": sf.StochSpec(plant["ex5"], bf5, sf.linear_extended(1.0),
                                  u0, beta_gain=2.0,
                                  gamma2=sf.power_pair(2, 0.25)),
            "nssf": sf.NssfSpec(plant["ex5"], bf5, sf.linear_extended(1.0),
                                sf.identity_k(), u0, beta_gain=2.0,
                                gamma1=sf.power_pair(2),
                                gamma2=sf.power_pair(2, 0.25)),
            "sandwich": sf.SandwichSpec(plant["ex3"], neg_state_barrier(),
                                        lambda x: np.array([c - x[0]]),
                                        sf.identity_k(), sf.identity_k(),
                                        sf.linear_extended(1.0),
                                        sf.linear_extended(2.0))}


def _in_loop(lie, spec, x):
    """lie's fields at x on spec's plant and barrier, in a loop scope."""
    with _loop_scope():
        return tuple(lie(spec.sys, spec.bf, x))


LAWS = (
    lambda S, x: sf.qp_filter(S["base"], x, 0.0),
    lambda S, x: sf.sontag_filter(S["base"], x, 0.0),
    lambda S, x: sf.half_sontag_filter(S["base"], x, 0.0),
    lambda S, x: sf.inverse_optimal_qp(S["base"], 2.5, x, 0.0),
    lambda S, x: sf.qp_weights(S["base"], x, 0.0),
    lambda S, x: sf.inverse_optimal_general(S["io"], x, 0.0),
    lambda S, x: sf.hji_residual(S["io"], x, 0.0),
    lambda S, x: sf.worst_case_disturbance(S["io"], x),
    lambda S, x: sf.qp_worst_case_disturbance(S["base"], LAM, x),
    lambda S, x: sf.rcbf_qp_filter(S["recip"], x, 0.0),
    lambda S, x: sf.rcbf_inverse_optimal(S["recip"], x, 0.0),
    lambda S, x: sf.rcbf_penalty_bound_gap(S["recip"], x, 0.0),
    lambda S, x: sf.rcbf_condition(S["recip"], x, 0.0),
    lambda S, x: sf.omega_tilde(S["recip"], x, 0.0),
    lambda S, x: sf.rcbf_weights(S["recip"], x, 0.0),
    lambda S, x: sf.stoch_qp_filter(S["stoch"], x, 0.0),
    lambda S, x: sf.stoch_inverse_optimal(S["stoch"], x, 0.0),
    lambda S, x: sf.nssf_qp_filter(S["nssf"], x, 0.0),
    lambda S, x: sf.nssf_sontag_filter(S["nssf"], x, 0.0),
    lambda S, x: sf.nssf_inverse_optimal(S["nssf"], x, 0.0),
    lambda S, x: sf.sandwich_filter(S["sandwich"], x),
    lambda S, x: sf.stoch_sandwich_filter(S["sandwich"], x, True),
    lambda S, x: _in_loop(first_order_lie, S["base"], x),
    lambda S, x: _in_loop(sf.lie_data, S["stoch"], x))


def laws_equal_array():
    """Each law of LAWS at one state on the scalar plants against the
    same call on their array twins, at every pair of SPECIAL state and
    nominal value: the same bytes, or the same error and text."""
    ok = True
    for v, c in itertools.product(SPECIAL, SPECIAL):
        x = np.array([v])
        scalar, twin = law_specs(False, c), law_specs(True, c)
        for law in LAWS:
            ok &= (_outcome(lambda: law(scalar, x))
                   == _outcome(lambda: law(twin, x)))
    return bool(ok)


def _fields(out):
    """A consumer's output (one array or a tuple of them) as a tuple of
    fields, a Weight as its value and its infinite flag."""
    fields = []
    for v in out if isinstance(out, tuple) else (out,):
        fields += [v.value, v.infinite] if isinstance(v, Weight) else [v]
    return tuple(fields)


def _parts(fields):
    """Fields as their (shape, dtype, bytes)."""
    return [(a.shape, a.dtype.str, a.tobytes())
            for a in map(np.asarray, fields)]


def _stack_outcome(fn, *stacks):
    """fn on the stacks, as _parts, or its error's class and text."""
    try:
        with np.errstate(all="ignore"):
            return _parts(_fields(fn(*stacks)))
    except Exception as exc:
        return type(exc), str(exc)


def _rows_outcome(fn, *stacks):
    """fn at each row of the stacks in turn, its fields stacked, as
    _parts; or the class and text of the first row's error."""
    rows = []
    for row in zip(*stacks):
        try:
            with np.errstate(all="ignore"):
                rows.append(_fields(fn(*row)))
        except Exception as exc:
            return type(exc), str(exc)
    return _parts(np.array(col) for col in zip(*rows))


def rows_equal_single():
    """Each stacked consumer against its single-state form at each row,
    on LIE_STATES as a stack, on its rows below 1e100 in size and on its
    rows below -1e-300, with u0 at each as the nominal: the same bytes,
    or the same first error and text."""
    plant, bf = sf.scalar_system(*EX3_MODEL), neg_state_barrier()
    u0, u_star, _, iospec = _ex3_pieces(BETA, LAM)
    recip = sf.RcbfSpec(integrator_system(), lambda x: -1.0 / x[0],
                        sf.identity_k(), lambda x, t: np.array([1.0 + x[0]]),
                        gradB=lambda x: np.array([1.0 / x[0] ** 2]))
    proj = sf.ProjectionSpec(unit_ball_barrier(), sf.linear_extended(1.0))
    plain = lambda x, t: u_star(x[0])
    marked = sf.stacked(lambda X, t: np.array([[u_star(v)] for v in X[:, 0]]))

    def policy(fn):
        # call_rows on a stack; at one state, what integrate_ode reads
        row = _single_state(fn, 1, "control")
        return (lambda X, U: call_rows(fn, X, 0.0, 1, "control"),
                lambda x, u: _as_state(row(x, 0.0), 1, "control"))
    pairs = [
        (lambda X, U: first_order_lie_rows(plant, bf, X),
         lambda x, u: tuple(first_order_lie(plant, bf, x))),
        (lambda X, U: lie_data_rows(plant, bf, X),
         lambda x, u: tuple(sf.lie_data(plant, bf, x))),
        policy(plain), policy(marked),
        (lambda X, U: game_weights(iospec, X, U),
         lambda x, u: game_weights(iospec, x, u)),
        (lambda X, U: sf.rcbf_weights(recip, X, 0.0),
         lambda x, u: sf.rcbf_weights(recip, x, 0.0)),
        (lambda X, U: projection_margin(proj, X, U),
         lambda x, u: projection_margin(proj, x, u))]
    X = np.array(LIE_STATES)[:, None]
    ok = True
    for S in (X, X[np.abs(X[:, 0]) < 1e100], X[X[:, 0] < -1e-300]):
        with np.errstate(all="ignore"):
            # numpy floats, so u0 overflows to inf, not OverflowError
            U = np.array([[u0(v)] for v in S[:, 0]])
        for stacked_fn, single in pairs:
            ok &= (_stack_outcome(stacked_fn, S, U)
                   == _rows_outcome(single, S, U))
    return bool(ok)


def intro_cost_us(rounds):
    """cost.intro_min and cost.intro_sontag: evaluate_cost of each
    intro kind on its built-in's record, per sample."""
    out = {}
    for bid, kind in (("intro-qp-optimal", "intro-min"),
                      ("intro-sontag", "intro-sontag")):
        (traj,) = sf.run_builtin(bid).records.values()
        cost = sf.CostSpec(kind)
        out["cost.%s.us_per_sample" % kind.replace("-", "_")] = (
            1e6 * best(lambda: sf.evaluate_cost(traj, cost), rounds)
            / traj.times.size)
    return out


def sde_us(rounds):
    plant = sf.scalar_system(lambda x: -x, lambda x: 0.5, lambda x: 1.0)
    bf = sf.BarrierFunction(lambda x: 1.0 - x[0],
                            grad=lambda x: np.array([-1.0]))
    cov = sf.CovarianceSchedule(lambda t: np.eye(1), 1)
    u = np.array([0.1])
    cfg = sf.SimConfig(dt=1e-3, T=0.5, seed=3)
    run = lambda: sf.integrate_sde(plant, bf, lambda x, t: u,
                                   lambda x, t: u, np.array([0.2]), cov, cfg)
    return 1e6 * best(run, rounds) / cfg.n_steps


# ex5-stoch's closed forms (beta = 2): the drift of its filtered loop,
# the certified running cost and the terminal cost
EX5_BETA = 2.0


def ex5_drift(x):
    return EX5_BETA * (x - 1.0) * np.maximum(0.0, 0.5 - np.log1p(-x))


def ex5_integrand(x):
    a = np.maximum(0.0, 0.5 - np.log1p(-x))
    return EX5_BETA - (2.0 * EX5_BETA + EX5_BETA * EX5_BETA) * a


def ex5_functionals(cfg):
    return sf.sde_path_functionals(ex5_drift, lambda x: 1.0 - x, -1.0, cfg,
                                   ex5_integrand,
                                   lambda x: 2.0 * EX5_BETA * np.log1p(-x))


def mc_us(rounds):
    cfg = sf.SimConfig(dt=1e-3, T=2.0, paths=MC_PATHS)
    return (1e6 * best(lambda: ex5_functionals(cfg), rounds)
            / (cfg.paths * cfg.n_steps))


def mc_noise_peak_mb():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ex5_functionals(sf.SimConfig(dt=1e-3, T=2.0, paths=10000))
        return (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        tracemalloc.stop()


def probe_spec():
    """probe.game's filter spec: the integrator plant dx = u dt, h = -x,
    u0 = 1, alpha(h) = h."""
    return sf.DssfCbfSpec(integrator_system(), neg_state_barrier(),
                          sf.identity_k(), sf.linear_extended(1.0),
                          lambda x, t: np.array([1.0]))


def io_qp_us(rounds):
    spec = probe_spec()
    x = np.array([-1.1])

    def calls():
        for _ in range(IO_CALLS):
            sf.inverse_optimal_qp(spec, 2.0, x, 0.0)
    return 1e6 * best(calls, rounds) / IO_CALLS


def io_qp_loop_us(rounds):
    spec = probe_spec()
    states = [np.array([v]) for v in np.linspace(-1.5, -0.5, IO_CALLS)]

    def calls():
        with _loop_scope():
            for x in states:
                sf.inverse_optimal_qp(spec, 2.0, x, 0.0)
    return 1e6 * best(calls, rounds) / IO_CALLS


def rcbf_qp_us(rounds):
    spec = sf.RcbfSpec(integrator_system(), lambda x: -1.0 / x[0],
                       sf.identity_k(), lambda x, t: np.array([1.0]),
                       gradB=lambda x: np.array([1.0 / x[0] ** 2]),
                       beta_gain=2.0)
    x = np.array([-0.5])

    def calls():
        for _ in range(IO_CALLS):
            sf.rcbf_qp_filter(spec, x, 0.0)
    return 1e6 * best(calls, rounds) / IO_CALLS


def wcd_us(rounds):
    iospec = _ex3_pieces(BETA, LAM)[3]
    x = np.array([-1.2])

    def calls():
        for _ in range(IO_CALLS):
            sf.worst_case_disturbance(iospec, x)
    return 1e6 * best(calls, rounds) / IO_CALLS


def probe_s(rounds):
    spec = probe_spec()
    setup = sf.ProbeSetup(
        spec.sys, spec.bf, lambda x, t: sf.inverse_optimal_qp(spec, 2.0, x, t),
        spec.u0, None, [-1.1], sf.CostSpec("intro-min"), +1)
    cfg = sf.SimConfig(dt=2e-3, T=1.0)
    return best(lambda: sf.optimality_probe(setup, cfg,
                                            amplitudes=(-0.1, 0.1)), rounds)


# width-one operands: signed zeros and infinities, NaNs of two payloads
# and signs, subnormals, and pairs whose product overflows or underflows
SPECIAL = [0.0, -0.0, 1.0, -1.0, 3.7, -0.3, math.inf, -math.inf, math.nan,
           -math.nan, struct.unpack("<d", struct.pack("<Q",
                                                      0x7FF8000000000123))[0],
           5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 1e200,
           -1e200, 1.7976931348623157e308]


def _same(a, b):
    """Equal bytes, shape and dtype: a NaN equals only the same NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def _pairs_equal(x, y):
    """Each helper against @ / np.matmul at each pair of float sequences
    a in x, b in y of one length k: vectors a and b, the (k, k) matrix
    B of b's cyclic shifts, and three-row stacks of each."""
    ok = True
    for a, b in zip(x, y):
        k = len(a)
        a, b = np.array(a), np.array(b)
        B = b[(np.arange(k)[:, None] + np.arange(k)) % max(k, 1)]  # (k, k)
        S, T = np.tile(a, (3, 1)), np.tile(b, (3, 1))
        TB = np.tile(B, (3, 1, 1))
        # a width-one NaN times a NaN is a NaN whose sign and payload
        # the float rule does not fix (see the module docstring)
        if k == 1 and math.isnan(a[0]) and math.isnan(b[0]):
            ok &= math.isnan(row_dot(a, b))
        else:
            ok &= _same(row_dot(a, b), float(a @ b))
        ok &= _same(vecmat(a, B), a @ B)
        ok &= _same(matvec(B, a), B @ a)
        ok &= _same(vec_norm(a), math.sqrt(a.dot(a)))
        ok &= _same(vec_norm(B), float(np.linalg.norm(B)))
        ok &= _same(row_dot(S, T),
                    np.matmul(S[:, None, :], T[:, :, None])[:, 0, 0])
        ok &= _same(row_norm(S),
                    np.sqrt(np.matmul(S[:, None, :], S[:, :, None])[:, 0, 0]))
        ok &= _same(vecmat(S, TB), np.matmul(S[:, None, :], TB)[:, 0, :])
        ok &= _same(matvec(TB, S), np.matmul(TB, S[:, :, None])[:, :, 0])
        ok &= _same(matvec(B, S), np.matmul(B, S[:, :, None])[:, :, 0])
    return bool(ok)


def contractions_equal_matmul():
    """The systems helpers against @ / np.matmul: every pair of SPECIAL
    values at width one (row_dot of two NaNs need only be a NaN),
    and seeded draws mixed with SPECIAL at widths 0, 2 and 3; numpy's
    warnings silenced, as a filter's np.errstate would."""
    grid = list(itertools.product(SPECIAL, repeat=2))
    x = [[a] for a, _ in grid]
    y = [[b] for _, b in grid]
    rng = np.random.default_rng(0)
    for k in (0, 2, 3):
        for _ in range(40):
            draw = rng.standard_normal((2, k)) * 10.0 ** rng.integers(
                -3, 4, (2, k))
            mask = rng.random((2, k)) < 0.2
            draw[mask] = rng.choice(SPECIAL, mask.sum())
            x.append(list(draw[0]))
            y.append(list(draw[1]))
    with np.errstate(all="ignore"):
        return _pairs_equal(x, y)


def _outcome(fn):
    """fn()'s fields as _parts, or its error's class and text, with
    numpy's warnings raised as errors."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _parts(_fields(fn()))
    except Exception as exc:
        return type(exc), str(exc)


def filtered_equals_array():
    """The width-one float step of the filters, _filtered, against its
    array expression at SPECIAL values; see the module docstring."""
    ok = True
    for rule, beta in itertools.product((MIN_NORM, SONTAG, HALF_SONTAG),
                                        (1.0, 2.0, 2.5)):
        for u, w, a in itertools.product(SPECIAL, repeat=3):
            u0v, av = np.array([u]), np.array([a])
            got = _outcome(lambda: _filtered(u0v, beta, w, a, rule,
                                             CbfViolation))
            ok &= got == _outcome(lambda: u0v + beta * correct(
                w, av, rule, CbfViolation))
            if beta == 1.0:
                ok &= got == _outcome(lambda: u0v + correct(
                    w, av, rule, CbfViolation))
    return bool(ok)


def whole_path_functionals(drift, diffusion, x0, cfg, integrand, terminal,
                           batch_size):
    """sde_path_functionals as a whole-path loop: each batch's (p, N)
    normals drawn up front, path i's row from a fresh
    Generator(Philox(key=[seed, i]))."""
    n_steps, dt = cfg.n_steps, cfg.dt
    sq = math.sqrt(dt)
    totals = np.empty(cfg.paths)
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(0, cfg.paths, batch_size):
            p = min(batch_size, cfg.paths - done)
            Z = np.empty((p, n_steps))
            for i in range(p):
                bits = np.random.Philox(key=[cfg.seed, done + i])
                Z[i] = np.random.Generator(bits).standard_normal(n_steps)
            x = np.full(p, float(x0))
            running = np.zeros(p)
            prev = integrand(x)
            for k in range(n_steps):
                x = x + dt * drift(x) + diffusion(x) * (sq * Z[:, k])
                cur = integrand(x)
                running += 0.5 * dt * (prev + cur)
                prev = cur
            totals[done:done + p] = running + terminal(x)
    return totals


def functionals_equal_paths():
    """The chunked sde_path_functionals against whole_path_functionals,
    bit for bit, over the grid in the module docstring."""
    default = sf.sde_path_functionals.__defaults__[0]
    drift = lambda x: -x + 0.5 * np.tanh(x)
    pieces = ((drift, lambda x: 0.4 + 0.1 * x * x, lambda x: x * x,
               lambda x: np.sin(x)),
              (drift, lambda x: 0.4, lambda x: 1.5, lambda x: x))
    ok = True
    for paths, batch, n, seed, (f, s, q, phi) in itertools.product(
            (1, 3, 7), (1, 2, 3, default), (1, 2, 5, 17),
            (0, -1, 2**63, 977), pieces):
        cfg = sf.SimConfig(dt=0.0625, T=n * 0.0625, seed=seed, paths=paths)
        want = whole_path_functionals(f, s, 0.3, cfg, q, phi, batch)
        P = min(batch, paths)
        for K in (1, 2, n - 1, n, n + 1):
            with mock.patch.object(sim, "_NOISE", P * K):
                got = sf.sde_path_functionals(f, s, 0.3, cfg, q, phi,
                                              batch_size=batch)
            ok &= _same(got, want)
    return bool(ok)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rounds", type=int, default=5)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be >= 1")
    numbers = {
        "lie_data.m1_0.us_per_call": lie_us(sf.lie_data, integrator_system(),
                                            args.rounds),
        "lie_data.m1_1.us_per_call": lie_us(
            sf.lie_data, disturbed_gain_system(), args.rounds),
        "first_order_lie.m1_0.us_per_call": lie_us(
            first_order_lie, integrator_system(), args.rounds),
        "first_order_lie.m1_1.us_per_call": lie_us(
            first_order_lie, disturbed_gain_system(), args.rounds),
        "first_order_lie.m1_1.array.us_per_call": lie_us(
            first_order_lie, array_twin(*EX3_MODEL),
            args.rounds),
        "first_order_lie_rows.m1_1.us_per_row": rows_us(
            first_order_lie_rows, args.rounds),
        "lie_data_rows.m1_1.us_per_row": rows_us(lie_data_rows,
                                                 args.rounds)}
    ode, same, game_same = ode_numbers(args.rounds)
    numbers.update(ode)
    numbers["ode.rows.us_per_row_step"] = ode_rows_us(args.rounds)
    numbers["filters.io_qp.us_per_call"] = io_qp_us(args.rounds)
    numbers["filters.io_qp.loop.us_per_call"] = io_qp_loop_us(args.rounds)
    numbers["filters.rcbf_qp.us_per_call"] = rcbf_qp_us(args.rounds)
    numbers["filters.wcd.us_per_call"] = wcd_us(args.rounds)
    numbers.update(intro_cost_us(args.rounds))
    numbers["sde.p1.us_per_step"] = sde_us(args.rounds)
    numbers["mc.us_per_path_step"] = mc_us(args.rounds)
    numbers["probe.game.s"] = probe_s(args.rounds)
    numbers["mc.noise_peak_mb"] = mc_noise_peak_mb()
    equal = contractions_equal_matmul()
    twins = game_same and lie_equal_array() and laws_equal_array()
    rows = rows_equal_single()
    filtered = filtered_equals_array()
    functionals = functionals_equal_paths()
    print(json.dumps({
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "machine": platform.machine(),
                        "nproc": os.cpu_count()},
        "rounds": args.rounds,
        "reference_kernel_s": BENCH.REFERENCE_KERNEL_S,
        "kernel_s": round(statistics.median(
            BENCH.kernel_seconds() for _ in range(5)), 6),
        "general_equals_scalar": same,
        "contractions_equal_matmul": equal,
        "scalar_equals_array": twins,
        "rows_equal_single": rows,
        "filtered_equals_array": filtered,
        "functionals_equal_paths": functionals,
        "metrics": {k: round(v, 3) if math.isfinite(v) else None
                    for k, v in numbers.items()}}, indent=1))
    return 0 if (same and equal and twins and rows and filtered
                 and functionals) else 1


if __name__ == "__main__":
    sys.exit(main())
