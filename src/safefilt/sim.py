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

_run is the one loop that keeps these rules. integrate_ode, each path
of integrate_sde, the scalar fast path (with its own float record) and
projection's classic law are (sample, step) pairs on it.
comparison.kl_solve_grid steps its decay ODE with _rk4 too, so _rk4 is
the package's one RK4 step.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .systems import ModelBlowup, _as_state

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


def _alloc(n_rec, n, m2, m1):
    return Trajectory(
        times=np.zeros(n_rec),
        states=np.zeros((n_rec, n)),
        controls=np.zeros((n_rec, m2)),
        nominal=np.zeros((n_rec, m2)),
        disturbances=np.zeros((n_rec, m1)),
        h_values=np.zeros(n_rec),
        running_cost=np.zeros(n_rec),
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


def _run(traj, cfg, x, sample, step):
    """The one loop: on the grid t = k*dt, sample(k, t, x) records sample
    k at x and returns s, None at a tombstone; step(k, t, x, s) is the
    state at t + dt. Stops after the last sample, at a tombstone, or
    where a step blows up (truncated after sample k, stamped t + dt)."""
    dt, n_steps = cfg.dt, cfg.n_steps
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            t = k * dt
            s = sample(k, t, x)
            if s is None or k == n_steps:
                break
            try:
                x = step(k, t, x, s)
            except _ESCAPE_ERRORS:
                traj.escape_time = t + dt
                _truncate(traj, k + 1)
                break
            except Exception as exc:
                raise _failure(t, x) from exc
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


def integrate_sde(sys, bf, control, u0, x0, cov, cfg):
    """Euler-Maruyama on dx = (f + g2 u) dt + g1 Sigma(t) dw.

    One Trajectory per path; path i draws its whole normal sequence
    up front from a counter-based stream keyed [seed, i], into one
    buffer that the paths share. The recorded disturbance column is the
    Wiener rate dw/dt of that step. x0 is checked as in integrate_ode.
    """
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
    here is path i there.
    """
    n_steps = cfg.n_steps
    dt = cfg.dt
    sq = math.sqrt(dt)
    totals = np.empty(cfg.paths)
    normals = _normals(cfg.seed)
    noise = np.empty((min(batch_size, cfg.paths), n_steps))
    done = 0
    while done < cfg.paths:
        p = min(batch_size, cfg.paths - done)
        Z = noise[:p]
        for i in range(p):
            normals(done + i, Z[i])
        x = np.full(p, float(x0))
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
