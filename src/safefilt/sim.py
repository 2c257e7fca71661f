"""Fixed-step simulation of filtered loops, deterministic and Ito.

Conventions that the certification layer relies on:

  * the closed-loop control is evaluated at every integrator stage,
    never sample-and-held;
  * samples land on the uniform grid k*dt, state first, then the
    controls/disturbance/h at that same state;
  * running_cost is recorded as zeros here; cost evaluation is a
    separate pass so the certificates stay pure functions of the data;
  * escape (blowup) truncates the record and stamps escape_time; the
    stage arithmetic runs with overflow warnings suppressed so a
    diverging model turns into non-finite samples, not a warning storm;
  * stochastic paths draw from counter-based streams keyed by
    (seed, path index), so any path can be reproduced in isolation and
    batched runs match path-by-path runs bit for bit.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .systems import ModelBlowup

_ESCAPE_ERRORS = (ModelBlowup, OverflowError, FloatingPointError)


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
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if self.T < self.dt:
            raise ValueError("T < dt leaves nothing to integrate")
        if self.paths < 1:
            raise ValueError("paths must be >= 1")

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


def _rk4(fn, x, t, dt):
    """One classical RK4 step of dx/dt = fn(x, t)."""
    k1 = fn(x, t)
    k2 = fn(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = fn(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = fn(x + dt * k3, t + dt)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_ode(sys, bf, control, u0, x0, d, cfg):
    """Classical RK4 on dx = f + g1 d + g2 u with u = control(x, t).

    d may be None (zero disturbance). Divergence past
    cfg.escape_threshold, or a model blowup inside a step, truncates
    the record and stamps escape_time.
    """
    n_steps = cfg.n_steps
    traj = _alloc(n_steps + 1, sys.n, sys.m2, sys.m1)
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()

    def d_at(xs, ts):
        if d is None:
            return np.zeros(sys.m1)
        return np.atleast_1d(np.asarray(d(xs, ts), dtype=float))

    def rate(xs, ts):
        dv = d_at(xs, ts)
        uv = np.atleast_1d(np.asarray(control(xs, ts), dtype=float))
        dx = sys.f_at(xs) + sys.g2_at(xs) @ uv
        if sys.m1 > 0:
            dx = dx + sys.g1_at(xs) @ dv
        return dx

    dt = cfg.dt
    for k in range(n_steps + 1):
        t = k * dt
        traj.times[k] = t
        traj.states[k] = x
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > cfg.escape_threshold:
            traj.controls[k] = np.nan
            traj.nominal[k] = np.nan
            traj.disturbances[k] = np.nan
            traj.h_values[k] = bf.value(x) if np.all(np.isfinite(x)) else np.nan
            traj.escape_time = t
            return _truncate(traj, k + 1)
        traj.nominal[k] = np.atleast_1d(np.asarray(u0(x, t), dtype=float))
        traj.disturbances[k] = d_at(x, t)
        traj.controls[k] = np.atleast_1d(np.asarray(control(x, t), dtype=float))
        traj.h_values[k] = bf.value(x)
        if k == n_steps:
            break
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                x = _rk4(rate, x, t, dt)
        except _ESCAPE_ERRORS:
            traj.escape_time = t + dt
            return _truncate(traj, k + 1)
        except Exception as exc:
            raise SimulationError("policy/model failure at t=%g, x=%s"
                                  % (t, x)) from exc
    return traj


def integrate_sde(sys, bf, control, u0, x0, cov, cfg):
    """Euler-Maruyama on dx = (f + g2 u) dt + g1 Sigma(t) dw.

    One Trajectory per path; path i draws its whole normal sequence
    up front from a counter-based stream keyed [seed, i]. The recorded
    disturbance column is the Wiener rate dw/dt of that step.
    """
    n_steps = cfg.n_steps
    dt = cfg.dt
    sq = math.sqrt(dt)
    out = []
    for i in range(cfg.paths):
        rng = np.random.Generator(np.random.Philox(key=[cfg.seed, i]))
        Z = rng.standard_normal((n_steps, sys.m1))
        traj = _alloc(n_steps + 1, sys.n, sys.m2, sys.m1)
        x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
        for k in range(n_steps + 1):
            t = k * dt
            traj.times[k] = t
            traj.states[k] = x
            if (not np.all(np.isfinite(x))
                    or np.max(np.abs(x)) > cfg.escape_threshold):
                traj.controls[k] = np.nan
                traj.nominal[k] = np.nan
                traj.disturbances[k] = np.nan
                traj.h_values[k] = (bf.value(x) if np.all(np.isfinite(x))
                                    else np.nan)
                traj.escape_time = t
                _truncate(traj, k + 1)
                break
            traj.nominal[k] = np.atleast_1d(np.asarray(u0(x, t), dtype=float))
            traj.controls[k] = np.atleast_1d(
                np.asarray(control(x, t), dtype=float))
            traj.h_values[k] = bf.value(x)
            if k == n_steps:
                break
            dw = sq * Z[k]
            traj.disturbances[k] = dw / dt
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    uv = traj.controls[k]
                    drift = sys.f_at(x) + sys.g2_at(x) @ uv
                    x = x + dt * drift + sys.g1_at(x) @ (cov.at(t) @ dw)
            except _ESCAPE_ERRORS:
                traj.escape_time = t + dt
                _truncate(traj, k + 1)
                break
            except Exception as exc:
                raise SimulationError("policy/model failure at t=%g, x=%s"
                                      % (t, x)) from exc
        out.append(traj)
    return out


def integrate_ode_scalar(drift, x0, cfg, h_fn, u_fn, u0_fn, d_fn=None):
    """Pure-float RK4 fast path for scalar closed loops.

    drift(x, t) is the full closed-loop rate; u_fn/u0_fn/d_fn/h_fn are
    recorded per sample. Matches integrate_ode for the same loop, just
    without array overhead.
    """
    n_steps = cfg.n_steps
    m1 = 0 if d_fn is None else 1
    traj = _alloc(n_steps + 1, 1, 1, m1)
    dt = cfg.dt
    x = float(x0)
    thr = cfg.escape_threshold
    for k in range(n_steps + 1):
        t = k * dt
        traj.times[k] = t
        traj.states[k, 0] = x
        if not math.isfinite(x) or abs(x) > thr:
            traj.controls[k] = np.nan
            traj.nominal[k] = np.nan
            if m1:
                traj.disturbances[k] = np.nan
            traj.h_values[k] = h_fn(x) if math.isfinite(x) else np.nan
            traj.escape_time = t
            return _truncate(traj, k + 1)
        traj.nominal[k, 0] = u0_fn(x, t)
        traj.controls[k, 0] = u_fn(x, t)
        if m1:
            traj.disturbances[k, 0] = d_fn(x, t)
        traj.h_values[k] = h_fn(x)
        if k == n_steps:
            break
        try:
            k1 = drift(x, t)
            k2 = drift(x + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = drift(x + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = drift(x + dt * k3, t + dt)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except _ESCAPE_ERRORS:
            traj.escape_time = t + dt
            return _truncate(traj, k + 1)
        except Exception as exc:
            raise SimulationError("policy failure at t=%g, x=%g"
                                  % (t, x)) from exc
    return traj


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
    done = 0
    while done < cfg.paths:
        p = min(batch_size, cfg.paths - done)
        Z = np.empty((p, n_steps))
        for i in range(p):
            rng = np.random.Generator(
                np.random.Philox(key=[cfg.seed, done + i]))
            Z[i] = rng.standard_normal(n_steps)
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
    """One row per sample, 17 significant digits, stable header."""
    n = traj.states.shape[1]
    m2 = traj.controls.shape[1]
    m1 = traj.disturbances.shape[1]
    cols = (["t"]
            + ["x%d" % (i + 1) for i in range(n)]
            + ["u%d" % (i + 1) for i in range(m2)]
            + ["u0_%d" % (i + 1) for i in range(m2)]
            + ["d_%d" % (i + 1) for i in range(m1)]
            + ["h", "running_cost"])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(traj.times.size):
            row = ([traj.times[k]] + list(traj.states[k])
                   + list(traj.controls[k]) + list(traj.nominal[k])
                   + list(traj.disturbances[k])
                   + [traj.h_values[k], traj.running_cost[k]])
            fh.write(",".join("%.17g" % v for v in row) + "\n")
