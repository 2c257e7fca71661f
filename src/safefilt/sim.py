"""Fixed-step simulation of filtered loops, deterministic and Ito.

Conventions that the certification layer relies on:

  * the closed-loop control is evaluated at every integrator stage,
    never sample-and-held; RK4 stage 1 is the recorded sample itself,
    so control and d must be pure functions of (x, t), and so must the
    model for the length of a run: inside a loop, the Lie data at a
    state is read once (systems' loop scope) and every later read there
    in the same run shares it, read-only;
  * samples land on the uniform grid k*dt, state first, then the
    controls/disturbance/h at that same state;
  * running_cost is recorded as zeros here; cost evaluation is a
    separate pass so the certificates stay pure functions of the data;
  * escape truncates the record and stamps escape_time: a state past
    escape_threshold (or non-finite), or a ModelBlowup, OverflowError or
    FloatingPointError while recording a sample (stamped at its time) or
    inside a step (stamped at the step's end); any other exception is a
    SimulationError carrying it as the cause. Each loop run holds one
    np.errstate(all="ignore"), so numpy's overflow, invalid and divide
    warnings are silenced inside it, the policies' own included: a
    diverging model turns into non-finite samples, not a warning storm,
    and a numpy division by zero is the inf or NaN it gives, which
    escapes where it reaches the state;
  * stochastic paths draw from counter-based streams keyed by
    (seed, path index), so any path can be reproduced in isolation and
    batched runs match path-by-path runs bit for bit. One stream pool
    (_streams) holds a Philox per path stepped together, re-keyed for
    each path from a fresh one's state: sde_path_functionals draws from
    it a time chunk at a time into one (P, K) chunk of at most _NOISE
    doubles and steps its columns in place, and _normals, its width-one
    case, draws a whole path for integrate_sde. A stream drawn in chunks
    is the same stream. SimConfig takes seeds in
    [SEED_MIN, SEED_MAX). numpy rounds a key word of 2**63 or more
    through float64, so up there neighbouring seeds share a stream
    (about 2048 seeds per float64), and -2**63 shares 2**63's; from
    SEED_MAX on the rounding reaches 2**64, which Philox cannot store.

_run is the one loop that keeps these rules, and _sample is the one
rule for a sample. integrate_ode, the scalar fast path (with its own
float record) and projection's classic law are (sample, step) pairs on
it. _lockstep is the one lockstep routine on it, for ODE and SDE alike:
x is the (P, n) stack of live rows, one record block holds the P
records, and each caller writes its loop once, stacked, as policies (u0,
d and control on a stack) and advance (a step of the stack). A sample
or step that is uneventful on every row is one stacked pass, a one-row
stack included; where a row escapes or anything raises, each row runs
alone: the same calls on its one-row stack, recorded by _sample's rule
and stopped by _stop's, so each row keeps the record, tombstone and
error it would have alone. Its two steps are Euler-Maruyama
(integrate_sde's paths) and RK4 (_ode_rows: loops of integrate_ode from
one x0, loop i under row i of one control stack, which
certify.optimality_probe runs). comparison.kl_solve_grid steps its
decay ODE with _rk4 too, so _rk4 is the package's one RK4 step.

This module runs loops; systems calls the user's callables on rows.
The plant's rate at a stage, at one state or on the lockstep's stack,
is ControlAffineSystem._field; on a scalar_system plant it reads f, g1
and g2 as floats, with the bits of the array route. Only integrate_sde
forms its own Euler-Maruyama increment, whose g1 term is not scaled by
dt, on the stack through _stacks_of. integrate_ode takes its policies
(control, u0, d) once as single-state ones (systems._single_state), so
a policy marked systems.stacked is called on the one-row stack of a
state and its wrong width is the same "stack shape" error as on a
stack; the lockstep calls them on stacks through call_rows. A
sample reads h through the barrier's own callable at the checked
state, never through the public BarrierFunction.value.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .systems import (ModelBlowup, SafefiltError, _as_state, _h_value,
                      _loop_scope, _single_state, call_rows, matvec)

_ESCAPE_ERRORS = (ModelBlowup, OverflowError, FloatingPointError)
CSV_BLOCK = 1024            # samples formatted per write
SEED_MIN = -2 ** 63         # seeds SimConfig accepts: [SEED_MIN, SEED_MAX)
SEED_MAX = 2 ** 64 - 1024
_NOISE = 5 * 10 ** 5        # doubles in sde_path_functionals' noise chunk
_MAX_SAMPLES = int(np.iinfo(np.intp).max)   # the longest axis numpy indexes


class SimulationError(SafefiltError, RuntimeError):
    """Model or policy failure at a known state and time."""


@dataclass(frozen=True)
class SimConfig:
    dt: float
    T: float
    escape_threshold: float = 1e6
    seed: int = 0
    paths: int = 1

    def __post_init__(self):
        for name in ("seed", "paths"):  # whole numbers, stored as int
            v = getattr(self, name)
            if not (isinstance(v, numbers.Integral)
                    or isinstance(v, float) and v.is_integer()):
                raise ValueError("%s must be a whole number, got %r"
                                 % (name, v))
            object.__setattr__(self, name, int(v))
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if not math.isfinite(self.escape_threshold):
            raise ValueError("escape_threshold must be finite")
        if not math.isfinite(self.T):
            raise ValueError("T must be finite")
        if self.T < self.dt:
            raise ValueError("T < dt leaves nothing to integrate")
        steps = self.T / self.dt    # a record holds n_steps + 1 samples
        if not (math.isfinite(steps) and round(steps) < _MAX_SAMPLES):
            raise ValueError("T / dt = %g steps, more than a record holds"
                             % steps)
        if abs(round(steps) * self.dt - self.T) > 1e-9 * self.T:
            raise ValueError("T = %g is not a whole number of steps dt = %g"
                             % (self.T, self.dt))
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if not (SEED_MIN <= self.seed < SEED_MAX):
            raise ValueError("seed %d outside [-2**63, 2**64 - 1024)"
                             % self.seed)

    @property
    def n_steps(self):
        return int(round(self.T / self.dt))


@dataclass
class Trajectory:
    times: np.ndarray         # (N+1,)
    states: np.ndarray        # (N+1, n)
    controls: np.ndarray      # (N+1, m2)
    nominal: np.ndarray       # (N+1, m2)
    disturbances: np.ndarray  # (N+1, m1)
    h_values: np.ndarray      # (N+1,)
    running_cost: np.ndarray  # (N+1,), zeros until a cost pass fills it
    escape_time: Optional[float] = None

    @property
    def n_samples(self):
        return self.times.size


def _alloc(n_rec, n, m2, m1, paths=None):
    """A zeroed record of n_rec samples; with paths, a block of that many
    records along a leading axis, path i's at index i."""
    lead = (n_rec,) if paths is None else (paths, n_rec)
    return Trajectory(
        times=np.zeros(lead),
        states=np.zeros(lead + (n,)),
        controls=np.zeros(lead + (m2,)),
        nominal=np.zeros(lead + (m2,)),
        disturbances=np.zeros(lead + (m1,)),
        h_values=np.zeros(lead),
        running_cost=np.zeros(lead),
    )


def _truncate(traj, k):
    traj.times = traj.times[:k]
    traj.states = traj.states[:k]
    traj.controls = traj.controls[:k]
    traj.nominal = traj.nominal[:k]
    traj.disturbances = traj.disturbances[:k]
    traj.h_values = traj.h_values[:k]
    traj.running_cost = traj.running_cost[:k]
    return traj


def _rk4(fn, x, t, dt, k1=None):
    """One classical RK4 step of dx/dt = fn(x, t); k1 = fn(x, t) when
    the caller already has it."""
    if k1 is None:
        k1 = fn(x, t)
    k2 = fn(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = fn(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = fn(x + dt * k3, t + dt)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _escape(traj, k, t, h):
    """Tombstone sample k: outputs NaN, h as given; truncate and stamp t.
    Returns None, what a sample returns at its tombstone."""
    traj.controls[k] = np.nan
    traj.nominal[k] = np.nan
    traj.disturbances[k] = np.nan
    traj.h_values[k] = h
    traj.escape_time = t
    _truncate(traj, k + 1)


def _sample(traj, k, t, x, bf, thr, read, *args):
    """The one sample rule: write sample k at (x, t), its (u0, d, u)
    from read(x, t, *args) (d None where the caller records no
    disturbance here) and h at x, and return its (u, d). Returns None
    when the loop has escaped at x or reading it blew up: sample k is
    then the record's tombstone. Any other error is a SimulationError
    at (t, x)."""
    traj.times[k] = t
    traj.states[k] = x
    if not (np.abs(x).max() <= thr):
        return _escape(traj, k, t, _h_value(bf._h(x))
                       if np.isfinite(x).all() else np.nan)
    try:
        nominal, dv, uv = read(x, t, *args)
        h = _h_value(bf._h(x))
    except _ESCAPE_ERRORS:
        return _escape(traj, k, t, np.nan)
    except Exception as exc:
        raise _failure(t, x) from exc
    traj.nominal[k] = nominal
    if dv is not None:
        traj.disturbances[k] = dv
    traj.controls[k] = uv
    traj.h_values[k] = h
    return uv, dv


def _policies_at(x, t, sys, control, u0, d):
    """u0, d (None where d is) and control at one state, checked."""
    return (_as_state(u0(x, t), sys.m2, "u0"),
            None if d is None else _as_state(d(x, t), sys.m1, "d"),
            _as_state(control(x, t), sys.m2, "control"))


def _record(traj, k, t, x, sys, bf, control, u0, d, thr):
    """Sample k of a single-state loop by _sample's rule: u0, d (None:
    none recorded here) and control called at x, each checked."""
    return _sample(traj, k, t, x, bf, thr, _policies_at, sys, control, u0,
                   d)


def _failure(t, x):
    return SimulationError("policy/model failure at t=%g, x=%s" % (t, x))


def _stop(traj, k, t, dt, x, exc):
    """A step from sample k at (x, t) raised exc: an escape truncates
    traj after sample k and stamps t + dt; anything else raises a
    SimulationError from exc."""
    if not isinstance(exc, _ESCAPE_ERRORS):
        raise _failure(t, x) from exc
    traj.escape_time = t + dt
    _truncate(traj, k + 1)


def _run(traj, cfg, x, sample, step):
    """The one loop: on the grid t = k*dt, sample(k, t, x) records sample
    k at x and returns s, None at a tombstone; step(k, t, x, s) is the
    state at t + dt. Stops after the last sample, at a tombstone, or
    where a step raises (_stop's rule). Returns traj. In _lockstep, x is
    the stack of live rows and traj the list of their records; its
    sample and step keep these rules row by row, and its step raises
    nothing. The run holds the loop scope of systems
    (_loop_scope): one np.errstate(all="ignore") for the whole run, and
    first_order_lie's memo, which ends with it."""
    dt, n_steps = cfg.dt, cfg.n_steps
    with _loop_scope():
        for k in range(n_steps + 1):
            t = k * dt
            s = sample(k, t, x)
            if s is None or k == n_steps:
                break
            try:
                x = step(k, t, x, s)
            except Exception as exc:
                _stop(traj, k, t, dt, x, exc)
                break
    return traj


def _streams(seed, width):
    """The stream pool: `width` standard-normal streams keyed [seed, i].
    Returns (start, gens): start(i, p) points slot j < p at the
    beginning of path i + j's stream, and gens[j] is slot j's
    Generator. Each slot's Philox is re-keyed from the state of a fresh
    one (key word 0 as Philox stored it, counter 0, empty buffer), so it
    draws what a fresh Generator(Philox(key=[seed, i + j])) would,
    without building one per path. Generator.standard_normal reads its
    bit generator in order and keeps nothing back, so a stream drawn a
    chunk at a time is the same stream."""
    bits = [np.random.Philox(key=[seed, 0])]
    fresh = bits[0].state
    key = fresh["state"]["key"]
    bits += [np.random.Philox(key=key) for _ in range(width - 1)]

    def start(i, p):
        for j in range(p):
            key[1] = i + j
            bits[j].state = fresh
    return start, [np.random.Generator(b) for b in bits]


def _normals(seed):
    """fill(i, out): path i's standard normals into out, from the stream
    keyed [seed, i]: the width-one case of _streams, whose one slot is
    re-keyed for each path."""
    start, (rng,) = _streams(seed, 1)

    def fill(i, out):
        start(i, 1)
        return rng.standard_normal(out=out)
    return fill


def integrate_ode(sys, bf, control, u0, x0, d, cfg):
    """Classical RK4 on dx = f + g1 d + g2 u with u = control(x, t).

    d may be None (zero disturbance); it is ignored when the plant has
    no disturbance channel (m1 = 0). Stage 1 of each step reuses the
    control and d of the recorded sample, so they are called 4 times
    per step and once at the last sample. A policy marked
    systems.stacked is called on the one-row stack of each state and
    checked as a stack. Escapes as in the module docstring. x0 must be
    an (n,) state (a scalar passes for n = 1); anything else is a
    ValueError before any callback runs.
    """
    m1, m2 = sys.m1, sys.m2
    x = _as_state(x0, sys.n, "x0").copy()
    traj = _alloc(cfg.n_steps + 1, sys.n, m2, m1)
    if d is None or m1 == 0:
        zero_d = np.zeros(m1)
        d = lambda xs, ts: zero_d
    d = _single_state(d, m1, "d")
    control = _single_state(control, m2, "control")
    u0 = _single_state(u0, m2, "u0")
    thr, dt = cfg.escape_threshold, cfg.dt
    # at x0's checked copy or a stage state built from it, an (n,)
    # float array already; it checks the model's outputs
    field = sys._field

    def rate(xs, ts):
        dv = _as_state(d(xs, ts), m1, "d")
        return field(xs, _as_state(control(xs, ts), m2, "control"), dv)

    # stage 1 reuses the sample's (u, d) in s
    return _run(traj, cfg, x,
                lambda k, t, x: _record(traj, k, t, x, sys, bf, control, u0,
                                        d, thr),
                lambda k, t, x, s: _rk4(rate, x, t, dt, field(x, *s)))


def _block(cfg, n, m2, m1, paths):
    """A record block of `paths` records and the Trajectory of each, a
    view of its row of the block."""
    rec = _alloc(cfg.n_steps + 1, n, m2, m1, paths)
    return rec, [Trajectory(rec.times[i], rec.states[i], rec.controls[i],
                            rec.nominal[i], rec.disturbances[i],
                            rec.h_values[i], rec.running_cost[i])
                 for i in range(paths)]


def _rows_of(live, paths):
    """The live rows' index into a block of `paths` rows: a slice while
    no row has stopped, which numpy indexes faster than an array."""
    return live if live.size < paths else slice(None)


def _one_row(x, t, policies, live):
    """policies on the one-row stack of x, the state of live row live[0]:
    that row's (u0, d, u), d None where policies gives none."""
    U0, D, U = policies(x[None], t, live)
    return U0[0], None if D is None else D[0], U[0]


def _lockstep(rec, trajs, cfg, X, bf, policies, advance):
    """The one lockstep routine: the rows of X, row i the state of
    record trajs[i], run on _run as one stack of live rows, and each
    keeps the record, tombstone and failure it would have alone.

    policies(X, t, live) gives the live rows' u0, d and control stacks
    at a sample (d None where the record keeps its own disturbance
    column), and advance(k, t, X, U, D, live) their states at t + dt;
    live holds the row index of each row of the stack. Where every
    live row is inside the escape threshold, a sample is one stacked
    pass, with h read row by row, and a step is one stacked advance,
    whatever the number of live rows. A row runs alone in two cases
    only: a row is past the threshold, or a stacked call raised; then
    every row of that sample or step does. It makes the same policies
    and advance calls on its one-row stack, records by _sample's rule
    and stops by _stop's. So only this routine decides how a row runs
    alone, and its callers write their loop once, stacked.

    Returns (i, error) for the lowest row i that failed, or None: the
    error its own loop raises. The rows above it stop where it fails;
    the rows below it run on.
    """
    P, n = X.shape
    live = np.arange(P)
    failure = None
    thr, dt = cfg.escape_threshold, cfg.dt

    def sample(k, t, X):
        nonlocal live, failure
        if not live.size:       # every row has stopped
            return None
        if np.abs(X).max() <= thr:
            try:
                U0, D, U = policies(X, t, live)
                H = [_h_value(bf._h(x)) for x in X]
            except Exception:
                pass
            else:
                rows = _rows_of(live, P)
                rec.times[rows, k] = t
                rec.states[rows, k] = X
                rec.nominal[rows, k] = U0
                if D is not None:
                    rec.disturbances[rows, k] = D
                rec.controls[rows, k] = U
                rec.h_values[rows, k] = H
                return slice(None), U, D
        keep, S = [], []
        for j, i in enumerate(live):
            try:
                s = _sample(trajs[i], k, t, X[j], bf, thr, _one_row,
                            policies, live[j:j + 1])
            except Exception as exc:  # the rows above i no longer run
                failure = i, exc
                break
            if s is not None:
                keep.append(j)
                S.append(s)
        if not keep:
            return None
        if len(keep) < live.size:
            live = live[keep]
        else:
            keep = slice(None)
        return (keep, np.array([s[0] for s in S]),
                None if S[0][1] is None else np.array([s[1] for s in S]))

    def stepped(k, t, X, s):
        nonlocal live, failure
        keep, U, D = s
        X = X[keep]
        try:
            return advance(k, t, X, U, D, live)
        except Exception:
            pass
        out, kept = [], []
        for j, i in enumerate(live):
            one = slice(j, j + 1)
            try:
                out.append(advance(k, t, X[one], U[one],
                                   None if D is None else D[one], live[one]))
                kept.append(j)
            except Exception as exc:
                try:
                    _stop(trajs[i], k, t, dt, X[j], exc)
                except SimulationError as err:
                    failure = i, err
                    break
        if len(kept) < live.size:
            live = live[kept]
        return np.array(out).reshape(len(out), n)

    _run(trajs, cfg, X, sample, stepped)
    return failure


def _ode_rows(sys, bf, stack, rows, u0, x0, d, cfg):
    """integrate_ode of `rows` loops, all from x0 with u0 and d, in
    lockstep on _lockstep: loop i runs under the control that row i of
    stack gives.

    stack(X, t, live) is the live rows' (N, m2) stack of controls, row
    j loop live[j]'s control at X[j], checked as integrate_ode checks a
    control; a loop running alone calls it on its one-row stack. u0 and
    d are called as call_rows calls them, once on the stack where they
    are marked systems.stacked, else row by row; the plant is called
    row by row (ControlAffineSystem._field on the stack). Returns
    (records, failure) with _lockstep's failure.
    """
    n, m1, m2 = sys.n, sys.m1, sys.m2
    x0 = _as_state(x0, n, "x0")
    dt = cfg.dt
    rec, trajs = _block(cfg, n, m2, m1, rows)
    zero_d = d is None or m1 == 0
    field = sys._field

    def disturbances(X, t):
        if zero_d:
            return np.zeros((len(X), m1))
        return call_rows(d, X, t, m1, "d")

    def policies(X, t, live):
        return (call_rows(u0, X, t, m2, "u0"), disturbances(X, t),
                stack(X, t, live))

    def advance(k, t, X, U, D, live):
        def rate(Xs, ts):
            Ds = disturbances(Xs, ts)
            return field(Xs, stack(Xs, ts, live), Ds)
        return _rk4(rate, X, t, dt, field(X, U, D))

    failure = _lockstep(rec, trajs, cfg, np.tile(x0, (rows, 1)), bf,
                        policies, advance)
    return trajs, failure


def integrate_sde(sys, bf, control, u0, x0, cov, cfg):
    """Euler-Maruyama on dx = (f + g2 u) dt + g1 Sigma(t) dw.

    One Trajectory per path. Path i draws its whole normal sequence up
    front from a counter-based stream keyed [seed, i], into one
    (P, N, m1) buffer; the recorded disturbance column is the Wiener
    rate dw/dt of that step. x0 is checked as in integrate_ode.

    The paths, one path included, run in lockstep on _lockstep, as one
    stack of live rows, and each keeps the record, escape and failure
    it would have alone: a row escapes alone, and where rows fail, the
    lowest path's error is raised once the paths below it are done. A
    control or u0 marked systems.stacked is called once per step on
    the live rows, a single live row included, as a one-row stack
    checked as a stack; any other is called row by row, with
    integrate_ode's checks. The plant is called row by row (_stacks_of).
    Where a row escapes or anything raises, that sample or step is
    taken again one row at a time, on one-row stacks, so each event
    lands on its own row.
    """
    n, m1, m2 = sys.n, sys.m1, sys.m2
    x0 = _as_state(x0, n, "x0")
    dt, P = cfg.dt, cfg.paths
    normals = _normals(cfg.seed)
    DW = np.empty((P, cfg.n_steps, m1))     # path i's increments at [i]
    for i in range(P):
        normals(i, DW[i])
    DW *= math.sqrt(dt)
    rec, trajs = _block(cfg, n, m2, m1, P)
    # a step's rate column, for every step up front: a tombstone or a
    # truncation overwrites or drops the samples no step left
    np.divide(DW, dt, out=rec.disturbances[:, :-1])

    def policies(X, t, live):
        return (call_rows(u0, X, t, m2, "u0"), None,
                call_rows(control, X, t, m2, "control"))

    def advance(k, t, X, U, _, live):
        F, G2, G1 = sys._stacks_of(X)
        return (X + dt * (F + matvec(G2, U))
                + matvec(G1, matvec(cov.at(t), DW[_rows_of(live, P), k])))

    failure = _lockstep(rec, trajs, cfg, np.tile(x0, (P, 1)), bf, policies,
                        advance)
    if failure is not None:
        raise failure[1]
    return trajs


def integrate_ode_scalar(drift, x0, cfg, h_fn, u_fn, u0_fn, d_fn=None):
    """Pure-float RK4 fast path for scalar closed loops.

    drift(x, t) is the full closed-loop rate; u_fn/u0_fn/d_fn/h_fn are
    recorded per sample. Matches integrate_ode for the same loop, just
    without array overhead: x0 is checked and the loop escapes by the
    same rules.
    """
    m1 = 0 if d_fn is None else 1
    traj = _alloc(cfg.n_steps + 1, 1, 1, m1)
    dt, thr = cfg.dt, cfg.escape_threshold

    def sample(k, t, x):
        traj.times[k] = t
        traj.states[k, 0] = x
        if not (abs(x) <= thr):
            return _escape(traj, k, t,
                           h_fn(x) if math.isfinite(x) else np.nan)
        try:
            traj.nominal[k, 0] = u0_fn(x, t)
            traj.controls[k, 0] = u_fn(x, t)
            if m1:
                traj.disturbances[k, 0] = d_fn(x, t)
            traj.h_values[k] = h_fn(x)
        except _ESCAPE_ERRORS:
            return _escape(traj, k, t, np.nan)
        except Exception as exc:
            raise _failure(t, x) from exc
        return True
    return _run(traj, cfg, float(_as_state(x0, 1, "x0")[0]), sample,
                lambda k, t, x, s: _rk4(drift, x, t, dt))


def sde_path_functionals(drift, diffusion, x0, cfg, integrand, terminal,
                         batch_size=2000):
    """Per-path cost functionals of a scalar autonomous diffusion.

    Euler-Maruyama on batch_size paths stepped together (the last batch
    may be narrower): all functions take and return vectorized state
    arrays. Returns the (paths,) array of

        trapezoid(integrand(x_k), dt) + terminal(x_N)

    drawn from the same per-path streams as integrate_sde, so path i
    here is path i there, whatever batch_size and the chunking below.
    The noise is drawn in time chunks of K = min(N, _NOISE // P)
    steps, P the batch width: each path of a batch keeps its own slot of
    the stream pool (_streams) and draws its next K normals into its row
    of a (P, K) chunk, whose K columns the K steps read in place, step
    k's increment the product sqrt(dt) * column k. The one chunk holds
    at most _NOISE doubles (4 MB) whatever the horizon, or P when
    P is wider than that. x0 is checked as in
    integrate_ode_scalar; batch_size < 1 is a ValueError before any
    draw. The loop runs under np.errstate(all="ignore"), as _run does,
    so a diverging path ends in SimulationError("path functional
    diverged"), not a warning first.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1, got %r" % (batch_size,))
    x0 = float(_as_state(x0, 1, "x0")[0])
    n_steps = cfg.n_steps
    dt = cfg.dt
    sq = math.sqrt(dt)
    P = min(batch_size, cfg.paths)
    K = max(1, min(n_steps, _NOISE // P))
    start, gens = _streams(cfg.seed, P)
    drawn = np.empty(P * K)     # a (p, k) chunk: row j path j's normals
    totals = np.empty(cfg.paths)
    with np.errstate(all="ignore"):
        for done in range(0, cfg.paths, P):
            p = min(P, cfg.paths - done)
            start(done, p)
            x = np.full(p, x0)
            running = np.zeros(p)
            prev = integrand(x)
            for first in range(0, n_steps, K):
                k = min(K, n_steps - first)
                Z = drawn[:p * k].reshape(p, k)
                for rng, row in zip(gens, Z):
                    rng.standard_normal(out=row)
                for z in Z.T:
                    x = x + dt * drift(x) + diffusion(x) * (sq * z)
                    cur = integrand(x)
                    running += 0.5 * dt * (prev + cur)
                    prev = cur
            if not np.all(np.isfinite(x)):
                raise SimulationError("path functional diverged")
            totals[done:done + p] = running + terminal(x)
    return totals


def write_trajectory_csv(traj, path):
    """One row per sample, 17 significant digits, stable header.

    Rows are formatted CSV_BLOCK samples at a time, each block by one
    % of the row format repeated once per row, so the table is never
    held as Python floats all at once.
    """
    n = traj.states.shape[1]
    m2 = traj.controls.shape[1]
    m1 = traj.disturbances.shape[1]
    cols = (["t"]
            + ["x%d" % (i + 1) for i in range(n)]
            + ["u%d" % (i + 1) for i in range(m2)]
            + ["u0_%d" % (i + 1) for i in range(m2)]
            + ["d_%d" % (i + 1) for i in range(m1)]
            + ["h", "running_cost"])
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    parts = (traj.times[:, None], traj.states, traj.controls, traj.nominal,
             traj.disturbances, traj.h_values[:, None],
             traj.running_cost[:, None])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for start in range(0, traj.times.size, CSV_BLOCK):
            block = np.hstack([p[start:start + CSV_BLOCK] for p in parts])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
