"""Fixed-step simulation of filtered loops, deterministic and Ito.

Conventions that the certification layer relies on:

  * the closed-loop control is evaluated at every integrator stage,
    never sample-and-held; RK4 stage 1 is the recorded sample itself,
    so control and d must be pure functions of (x, t);
  * samples land on the uniform grid k*dt, state first, then the
    controls/disturbance/h at that same state;
  * running_cost is recorded as zeros here; cost evaluation is a
    separate pass so the certificates stay pure functions of the data;
  * escape truncates the record and stamps escape_time: a state past
    escape_threshold (or non-finite), or a ModelBlowup, OverflowError or
    FloatingPointError while recording a sample (stamped at its time) or
    inside a step (stamped at the step's end); any other exception is a
    SimulationError carrying it as the cause. Loops run with numpy
    overflow warnings suppressed so a diverging model turns into
    non-finite samples, not a warning storm;
  * stochastic paths draw from counter-based streams keyed by
    (seed, path index), so any path can be reproduced in isolation and
    batched runs match path-by-path runs bit for bit; one Philox per
    call is re-keyed for each path (_normals). SimConfig takes seeds in
    [SEED_MIN, SEED_MAX). numpy rounds a key word of 2**63 or more
    through float64, so up there neighbouring seeds share a stream
    (about 2048 seeds per float64), and -2**63 shares 2**63's; from
    SEED_MAX on the rounding reaches 2**64, which Philox cannot store.

_run is the one loop that keeps these rules. integrate_ode, the scalar
fast path (with its own float record), projection's classic law and
integrate_sde are (sample, step) pairs on it. integrate_sde runs all
its paths in lockstep: x is the (P, n) stack of live rows, one record
block holds the P records, and a sample or step that is uneventful on
every row is one stacked pass; where a row escapes or anything raises
(or one row is left), that sample goes through _record, or that step
through _stop's rule, one row at a time, so each row keeps the record,
tombstone and error it would have alone. comparison.kl_solve_grid steps its decay ODE with
_rk4 too, so _rk4 is the package's one RK4 step.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .systems import ModelBlowup, _Stacked, _as_state, call_rows

_ESCAPE_ERRORS = (ModelBlowup, OverflowError, FloatingPointError)
CSV_BLOCK = 4096            # samples formatted per write
SEED_MIN = -2 ** 63         # seeds SimConfig accepts: [SEED_MIN, SEED_MAX)
SEED_MAX = 2 ** 64 - 1024


class SimulationError(RuntimeError):
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
        if abs(round(self.T / self.dt) * self.dt - self.T) > 1e-9 * self.T:
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


def _record(traj, k, t, x, sys, bf, control, u0, d, thr):
    """Write sample k at (x, t) and return its (u, d), d None when the
    caller records no disturbance here. Returns None when the loop has
    escaped at x or recording it blew up: sample k is then the record's
    tombstone."""
    traj.times[k] = t
    traj.states[k] = x
    if not (np.abs(x).max() <= thr):
        return _escape(traj, k, t,
                       bf.value(x) if np.isfinite(x).all() else np.nan)
    try:
        nominal = _as_state(u0(x, t), sys.m2, "u0")
        dv = None if d is None else _as_state(d(x, t), sys.m1, "d")
        uv = _as_state(control(x, t), sys.m2, "control")
        h = bf.value(x)
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
    where a step raises (_stop's rule). Returns traj. In integrate_sde's
    lockstep, x is the stack of live rows and traj the list of their
    records; its sample and step keep these rules row by row, and its
    step raises nothing."""
    dt, n_steps = cfg.dt, cfg.n_steps
    with np.errstate(over="ignore", invalid="ignore"):
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


def _normals(seed):
    """fill(i, out): path i's standard normals into out, from the stream
    keyed [seed, i]. One Philox is re-keyed for each path (key word 0 as
    Philox stored it, counter 0, empty buffer), so each path draws what a
    fresh Generator(Philox(key=[seed, i])) would, without building one."""
    bits = np.random.Philox(key=[seed, 0])
    rng = np.random.Generator(bits)
    fresh = bits.state
    key = fresh["state"]["key"]

    def fill(i, out):
        key[1] = i
        bits.state = fresh
        return rng.standard_normal(out=out)
    return fill


def integrate_ode(sys, bf, control, u0, x0, d, cfg):
    """Classical RK4 on dx = f + g1 d + g2 u with u = control(x, t).

    d may be None (zero disturbance); it is ignored when the plant has
    no disturbance channel (m1 = 0). Stage 1 of each step reuses the
    control and d of the recorded sample, so they are called 4 times
    per step and once at the last sample. Escapes as in the module
    docstring. x0 must be an (n,) state (a scalar passes for n = 1);
    anything else is a ValueError before any callback runs.
    """
    m1, m2 = sys.m1, sys.m2
    x = _as_state(x0, sys.n, "x0").copy()
    traj = _alloc(cfg.n_steps + 1, sys.n, m2, m1)
    if d is None or m1 == 0:
        zero_d = np.zeros(m1)
        d = lambda xs, ts: zero_d

    def field(xs, uv, dv):
        dx = sys.f_at(xs) + sys.g2_at(xs) @ uv
        if m1 > 0:
            dx = dx + sys.g1_at(xs) @ dv
        return dx

    def rate(xs, ts):
        dv = _as_state(d(xs, ts), m1, "d")
        return field(xs, _as_state(control(xs, ts), m2, "control"), dv)

    dt, thr = cfg.dt, cfg.escape_threshold
    return _run(traj, cfg, x,
                lambda k, t, x: _record(traj, k, t, x, sys, bf, control, u0,
                                        d, thr),
                lambda k, t, x, s: _rk4(rate, x, t, dt, field(x, *s)))


def _mv(A, V):
    """A @ v for each row v of the (N, b) stack V; A is one (a, b)
    matrix or an (N, a, b) stack of them."""
    return np.matmul(A, V[:, :, None])[:, :, 0]


def _one_row(fn, m, what):
    """fn as a single-state policy: itself, or for a stacked fn, fn on
    the one-row stack of the state, checked by call_rows."""
    if not isinstance(fn, _Stacked):
        return fn
    return lambda x, t: call_rows(fn, x[None], t, m, what)[0]


def integrate_sde(sys, bf, control, u0, x0, cov, cfg):
    """Euler-Maruyama on dx = (f + g2 u) dt + g1 Sigma(t) dw.

    One Trajectory per path. Path i draws its whole normal sequence up
    front from a counter-based stream keyed [seed, i], into one
    (P, N, m1) buffer; the recorded disturbance column is the Wiener
    rate dw/dt of that step. x0 is checked as in integrate_ode.

    The paths run in lockstep, as one stack of live rows on _run, and
    each keeps the record, escape and failure it would have alone: a
    row escapes alone, and where rows fail, the lowest path's error is
    raised once the paths below it are done. A control or u0 marked
    systems.stacked is called once per step on the live rows; any other
    is called row by row, with integrate_ode's checks. The plant is
    called row by row. Where a row escapes or anything raises, that
    sample is recorded, or that step taken, again one row at a time
    (through _record, and the plant's checked accessors), so each
    event lands on its own row. A single live row always goes that
    way: a stack of one saves no call.
    """
    n, m1, m2 = sys.n, sys.m1, sys.m2
    x0 = _as_state(x0, n, "x0")
    dt, thr, P = cfg.dt, cfg.escape_threshold, cfg.paths
    normals = _normals(cfg.seed)
    DW = np.empty((P, cfg.n_steps, m1))     # path i's increments at [i]
    for i in range(P):
        normals(i, DW[i])
    DW *= math.sqrt(dt)
    rec = _alloc(cfg.n_steps + 1, n, m2, m1, P)
    # a step's rate column, for every step up front: a tombstone or a
    # truncation overwrites or drops the samples no step left
    np.divide(DW, dt, out=rec.disturbances[:, :-1])
    trajs = [Trajectory(rec.times[i], rec.states[i], rec.controls[i],
                        rec.nominal[i], rec.disturbances[i],
                        rec.h_values[i], rec.running_cost[i])
             for i in range(P)]
    row_u0 = _one_row(u0, m2, "u0")
    row_control = _one_row(control, m2, "control")
    live = np.arange(P)     # the path of each row of the stack
    failure = None          # the lowest failing path's error

    def at(live):
        # the live rows' index into the record block: a slice while no
        # path has stopped, which numpy indexes faster than an array
        return live if live.size < P else slice(None)

    def sample(k, t, X):
        nonlocal live, failure
        if not live.size:       # every path has stopped
            return None
        if len(X) > 1 and np.abs(X).max() <= thr:
            try:
                U0 = call_rows(u0, X, t, m2, "u0")
                U = call_rows(control, X, t, m2, "control")
                H = [bf.value(x) for x in X]
            except Exception:
                pass
            else:
                rows = at(live)
                rec.times[rows, k] = t
                rec.states[rows, k] = X
                rec.nominal[rows, k] = U0
                rec.controls[rows, k] = U
                rec.h_values[rows, k] = H
                return slice(None), U
        keep, U = [], []
        for j, i in enumerate(live):
            try:
                s = _record(trajs[i], k, t, X[j], sys, bf, row_control,
                            row_u0, None, thr)
            except Exception as exc:  # the paths above i no longer run
                failure = exc
                break
            if s is not None:
                keep.append(j)
                U.append(s[0])
        if not keep:
            return None
        if len(keep) < live.size:
            live = live[keep]
        else:
            keep = slice(None)
        return keep, np.array(U)

    def step(k, t, X, s):
        nonlocal live, failure
        keep, U = s
        X = X[keep]
        if len(X) > 1:
            try:
                F, G2, G1 = sys._stacks_of(list(X))
                return (X + dt * (F + _mv(G2, U))
                        + _mv(G1, _mv(cov.at(t), DW[at(live), k])))
            except Exception:
                pass
        out, kept = [], []
        for j, i in enumerate(live):
            x = X[j]
            try:            # one row, through the plant's checked accessors
                out.append(x + dt * (sys.f_at(x) + sys.g2_at(x) @ U[j])
                           + sys.g1_at(x) @ (cov.at(t) @ DW[i, k]))
                kept.append(j)
            except Exception as exc:
                try:
                    _stop(trajs[i], k, t, dt, x, exc)
                except SimulationError as err:
                    failure = err
                    break
        if len(kept) < live.size:
            live = live[kept]
        return np.array(out).reshape(len(out), n)

    _run(trajs, cfg, np.tile(x0, (P, 1)), sample, step)
    if failure is not None:
        raise failure
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
                         batch_size=1000):
    """Per-path cost functionals of a scalar autonomous diffusion.

    Streams Euler-Maruyama in batches: all functions take and return
    vectorized state arrays. Returns the (paths,) array of

        trapezoid(integrand(x_k), dt) + terminal(x_N)

    drawn from the same per-path streams as integrate_sde, so path i
    here is path i there. x0 is checked as in integrate_ode_scalar. The
    loop runs with numpy overflow warnings suppressed, as _run does, so
    a diverging path ends in SimulationError("path functional
    diverged"), not a warning first.
    """
    x0 = float(_as_state(x0, 1, "x0")[0])
    n_steps = cfg.n_steps
    dt = cfg.dt
    sq = math.sqrt(dt)
    totals = np.empty(cfg.paths)
    normals = _normals(cfg.seed)
    noise = np.empty((min(batch_size, cfg.paths), n_steps))
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while done < cfg.paths:
            p = min(batch_size, cfg.paths - done)
            Z = noise[:p]
            for i in range(p):
                normals(done + i, Z[i])
            x = np.full(p, x0)
            running = np.zeros(p)
            prev = integrand(x)
            for k in range(n_steps):
                x = x + dt * drift(x) + diffusion(x) * (sq * Z[:, k])
                cur = integrand(x)
                running += 0.5 * dt * (prev + cur)
                prev = cur
            if not np.all(np.isfinite(x)):
                raise SimulationError("path functional diverged")
            totals[done:done + p] = running + terminal(x)
            done += p
    return totals


def write_trajectory_csv(traj, path):
    """One row per sample, 17 significant digits, stable header.

    Rows are formatted CSV_BLOCK samples at a time, so the table is
    never held as Python floats all at once.
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
            fh.write("".join([row % tuple(r) for r in block.tolist()]))
