"""Seeded inputs, jobs and certificate checks of the three workloads.

Each workload is a closed loop with one caller: a pass runs its jobs one
after another, each waiting for the previous result, and a pass is done
when every certificate of every job has been checked. The seed fixes the
inputs; the library only ever sees the generated plants, gains and
states. Plants are assembled through safefilt's public constructors
(scalar_system, ControlAffineSystem, BarrierFunction, ExtendedKFunction,
KFunction and the spec dataclasses), so the benchmark keeps working when
private helpers are removed.

Why these workloads:

  game-cert     the library path of the README: simulate with a general
                filter as the control, then certify (costs, invariance,
                HJ sweeps, DSSF bound, one probe family). sim, filters,
                systems and certify do nearly all the work; no Ito or
                Monte Carlo work.
  stoch-mc      the Ito path: a vectorised Monte Carlo value check, full
                Euler-Maruyama records under the stochastic filters (the
                Hessian branch of lie_data, per-path Philox streams) and
                HJB/HJI sweeps. The certify cost evaluators do no work
                here, so it is the bypass workload for cost-pass changes.
  cli-builtins  what users run: `safefilt run-builtin` for all ten
                built-ins in-process, with reports and CSVs written. The
                only workload covering scenarios, cli, projection,
                nonovershoot and the built-ins' closed-form fast paths.

The thresholds in ACCEPT are copied from tests/test_acceptance.py and
must stay literal copies: a benchmark that loosens them measures less
work.
"""

import contextlib
import functools
import hashlib
import io
import math
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

import safefilt as sf
from safefilt import cli

ACCEPT = {
    "invariance": 1e-3,     # c04: cost invariance
    "value": 1e-3,          # c04: |J - target|
    "hj": 1e-9,             # c06: HJ residuals
    "dssf": -1e-4,          # c02: sample-wise DSSF margin floor
    "mc_se": 3.0,           # c10: Monte Carlo gap in standard errors
    "escape": (0.45, 0.55),  # c11: blowup escape time
    "probe": -1e-6,         # c05: probes never beat J_opt by more
    "intro": 0.01,          # c01: intro cost within 0.01 of -1
    "tube": -1e-4,          # c12: two-sided tube margins
}
# scenario-level literal of ex5-stoch's own pass line
GENERATOR_FLOOR = -1e-8

LIE_STRIDE = 10                 # lie_data side probe: every 10th state
GEN_STRIDE = 50                 # generator margin: every 50th sample
PROBE_AMPLITUDES = (-0.1, 0.1)  # x 4 standard shapes = 8 perturbed runs

BUILTIN_IDS = ("intro-qp-optimal", "intro-sontag", "ex1-dssf", "blowup",
               "ex3-invopt", "ex4-invopt-qp", "ex5-stoch", "ex6-nssf",
               "proj-ball", "sandwich-scalar")


class Checks:
    """Attempted and failed certificate checks; failures keep their name."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)
        return ok

    @contextlib.contextmanager
    def job(self, name):
        """A job that raises counts as one more failed check."""
        try:
            yield
        except Exception as exc:
            self.check("%s: %s: %s" % (name, type(exc).__name__, exc), False)


def _close(a, b, tol):
    return math.isfinite(a) and abs(a - b) <= tol


# ---------------------------------------------------------------------------
# plants, built from public constructors; `cb` wraps each callable the
# library will call back (a counter and a span when tracing, else identity)
# ---------------------------------------------------------------------------

def _neg_state_barrier(cb):
    return sf.BarrierFunction(cb("h", lambda x: -x[0]),
                              grad=cb("grad", lambda x: np.array([-1.0])),
                              hess=cb("hess", lambda x: np.array([[0.0]])))


def _linear_alpha(cb, c):
    return sf.ExtendedKFunction(cb("alpha", lambda r: c * r),
                                name="linear:%g" % c)


def _disturbed_gain(cb):
    """dx = (u + (1 + x^2) d) dt."""
    return sf.scalar_system(cb("f", lambda x: 0.0),
                            cb("g1", lambda x: 1.0 + x * x),
                            cb("g2", lambda x: 1.0))


def _integrator(cb):
    """dx = u dt."""
    return sf.scalar_system(cb("f", lambda x: 0.0), None,
                            cb("g2", lambda x: 1.0))


def _const_u0(value):
    v = np.array(value, dtype=float)
    return lambda x, t: v.copy()


def _control(tr, layer, fn, u0_raw, *spec):
    """Closed-loop control u = fn(*spec, x, t) for the integrators.

    Traced, it is a callback holding a library span for the filter and
    tallies the calls whose output differs from the nominal.
    """
    if not tr.tracing:
        return lambda x, t: fn(*spec, x, t)

    def control(x, t):
        u = tr.lib(layer, fn, *spec, x, t)
        tr.add(layer + ".active", bool(np.any(u != u0_raw(x, t))))
        return u
    return tr.callback("control", control)


def _ode(tr, checks, job, *args):
    traj = tr.lib("sim.ode", sf.integrate_ode, *args)
    tr.add("sim.ode.steps", traj.times.size - 1)
    if traj.escape_time is not None:
        tr.add("sim.escapes")
    ok = checks.check(job + ".no-escape", traj.escape_time is None)
    return traj, ok


def _cost(tr, traj, cost):
    name = "certify.cost." + cost.kind
    cv = tr.lib(name, sf.evaluate_cost, traj, cost)
    inv = tr.lib(name, sf.cost_invariance_check, traj, cost)
    tr.add(name + ".samples", 2 * traj.times.size)
    return cv, inv


def _check_cost(checks, job, cv, inv, target):
    checks.check(job + ".value", not cv.infinite
                 and _close(cv.total, target, ACCEPT["value"]))
    checks.check(job + ".invariance", inv <= ACCEPT["invariance"])


def _lie_probe(tr, checks, job, sys, bf, traj):
    """Side probe: lie_data on every LIE_STRIDE-th recorded state."""
    worst = 0.0
    # an escaped record may end on a non-finite state
    stop = traj.times.size - (traj.escape_time is not None)
    for k in range(0, stop, LIE_STRIDE):
        ld = tr.lib("systems.lie_data", sf.lie_data, sys, bf, traj.states[k])
        worst = max(worst, abs(ld.h_val - traj.h_values[k]))
    checks.check(job + ".lie-data-h", worst == 0.0)


def _uniform(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _gain_lam(rng):
    """beta in [2, 3] (optimality needs >= 2); lam in (0, 2]."""
    return _uniform(rng, 2.0, 3.0), 2.0 - _uniform(rng, 0.0, 2.0)


# ---------------------------------------------------------------------------
# game-cert
# ---------------------------------------------------------------------------

EX3_ALPHA = 12.0


def _ex3_u0(beta, lam):
    return lambda x: (beta - lam) * (1.0 + x * x) ** 2 - (x + 1.0)


def _ex3_x0(rng, beta, lam):
    """Initial state of the ex3 game.

    The loop escapes to -inf in finite time wherever u0(x) >= 12|x|
    (the correction then adds to the nominal's quartic push), and the
    cost certificate is undefined on an escaped record. So x0 is drawn
    from [-1.5, -0.2] until u0 < 12|x| on the whole segment between x0
    and -1, where the loop settles. This is a property of the plant,
    not of the library.
    """
    u0 = _ex3_u0(beta, lam)
    for _ in range(1000):
        x0 = _uniform(rng, -1.5, -0.2)
        seg = np.linspace(min(x0, -1.0), max(x0, -1.0), 401)
        if all(u0(x) < EX3_ALPHA * abs(x) for x in seg):
            return x0
    raise ValueError("no admissible ex3 initial state")


@dataclass(frozen=True)
class GameInputs:
    ex3: tuple          # beta, lam, x0
    ex4: tuple          # beta, lam, x0
    planar: tuple       # beta, (x0, y0)
    recip: tuple        # beta, x0, u0, alpha_bar slope
    probe_x0: float
    hj_states: np.ndarray
    cfg: object         # SimConfig shared by the simulate-then-certify jobs
    probe_cfg: object


def game_inputs(seed):
    rng = np.random.default_rng([seed, 1])
    b3, l3 = _gain_lam(rng)
    ex3 = (b3, l3, _ex3_x0(rng, b3, l3))
    # ex4's min-norm correction is active for x > -2 (u0 = 2): starting
    # on either side of -2 varies the filter's active share per seed
    b4, l4 = _gain_lam(rng)
    ex4 = (b4, l4, _uniform(rng, -2.8, -0.2))
    # radius 0.05..0.95: from deep inside the unit ball to its rim
    r, phi = _uniform(rng, 0.05, 0.95), _uniform(rng, 0.0, 2.0 * math.pi)
    planar = (_uniform(rng, 2.0, 3.0), (r * math.cos(phi), r * math.sin(phi)))
    # small u0 with a steep alpha_bar leaves the reciprocal filter idle,
    # large u0 near the boundary keeps it on
    recip = (_uniform(rng, 2.0, 3.0), _uniform(rng, -2.5, -0.5),
             _uniform(rng, 0.2, 3.0), _uniform(rng, 0.5, 2.0))
    probe_x0 = _uniform(rng, -2.0, -0.2)
    hj_states = rng.uniform(-1.5, -0.2, 100)
    return GameInputs(ex3, ex4, planar, recip, probe_x0, hj_states,
                      sf.SimConfig(dt=2e-3, T=2.0),
                      sf.SimConfig(dt=2e-3, T=1.0))


def _job_ex3(tr, checks, inp):
    """ex3 game: inverse_optimal_general against worst_case_disturbance,
    cost disturbance-game = 2 beta h(x0), then an HJI sweep."""
    cb = tr.callback
    beta, lam, x0 = inp.ex3
    u0s = _ex3_u0(beta, lam)
    u0_raw = lambda x, t: np.array([u0s(x[0])])

    def r2(x, u0v):
        # inverse control weight, alpha(h) = 12 (-x)
        inv = max(0.0, u0v[0] - EX3_ALPHA * (-x[0])) + (1.0 + x[0] ** 2) ** 2
        return np.array([[1.0 / inv]])

    sys = _disturbed_gain(cb)
    bf = _neg_state_barrier(cb)
    base = sf.DssfCbfSpec(sys, bf, sf.identity_k(),
                          _linear_alpha(cb, EX3_ALPHA), cb("u0", u0_raw))
    io_spec = sf.InverseOptimalSpec(base, beta, lam, sf.power_pair(2),
                                    R2=cb("R2", r2))
    control = _control(tr, "filters", sf.inverse_optimal_general, u0_raw,
                       io_spec)
    dist = cb("d", lambda x, t: sf.worst_case_disturbance(io_spec, x))
    traj, ok = _ode(tr, checks, "ex3", sys, bf, control, base.u0,
                    np.array([x0]), dist, inp.cfg)
    if ok:
        cv, inv = _cost(tr, traj, sf.CostSpec("disturbance-game",
                                              spec=io_spec))
        _check_cost(checks, "ex3.disturbance-game", cv, inv,
                    2.0 * beta * (-x0))
        _lie_probe(tr, checks, "ex3", sys, bf, traj)

    def sweep(states):
        worst, cond = 0.0, math.inf
        for s in states:
            x = np.array([s])
            worst = max(worst, abs(sf.hji_residual(io_spec, x, 0.0)))
            cond = min(cond, sf.inverse_optimal_condition(io_spec, x, 0.0))
        return worst, cond

    worst, cond = tr.lib("filters.hj", sweep, inp.hj_states)
    tr.add("filters.hj.states", inp.hj_states.size)
    checks.check("ex3.hji-residual", worst <= ACCEPT["hj"])
    checks.check("ex3.condition-finite", math.isfinite(cond))


def _job_ex4(tr, checks, inp):
    """ex4 min-norm law: inverse_optimal_qp against qp_worst_case_disturbance,
    costs qp-exact (= 2 beta h(x0)) and qp-weighted, and the DSSF bound."""
    cb = tr.callback
    beta, lam, x0 = inp.ex4
    u0_raw = _const_u0([2.0])
    sys = _disturbed_gain(cb)
    bf = _neg_state_barrier(cb)
    spec = sf.DssfCbfSpec(sys, bf, sf.identity_k(), _linear_alpha(cb, 1.0),
                          cb("u0", u0_raw))
    control = _control(tr, "filters", sf.inverse_optimal_qp, u0_raw,
                       spec, beta)
    dist = cb("d", lambda x, t: sf.qp_worst_case_disturbance(spec, lam, x))
    traj, ok = _ode(tr, checks, "ex4", sys, bf, control, spec.u0,
                    np.array([x0]), dist, inp.cfg)
    if not ok:
        return
    cv, inv = _cost(tr, traj, sf.CostSpec("qp-exact", spec=spec,
                                          beta_gain=beta))
    _check_cost(checks, "ex4.qp-exact", cv, inv, 2.0 * beta * (-x0))
    # the displayed weights only nearly certify the law: their total is
    # checked to be a finite number, their drift is not a certificate
    cw, _ = _cost(tr, traj, sf.CostSpec("qp-weighted", spec=spec,
                                        beta_gain=beta, lam=lam))
    checks.check("ex4.qp-weighted-finite",
                 not cw.infinite and math.isfinite(cw.total))
    _, mn, _ = tr.lib("certify.dssf", sf.certify_dssf_bound, traj,
                      spec.alpha, spec.rho)
    tr.add("certify.dssf.samples", traj.times.size)
    checks.check("ex4.dssf-margin", mn >= ACCEPT["dssf"])


def _job_planar(tr, checks, inp):
    """criterion-07 planar plant (n = m2 = 2, unit ball), cost qp-exact."""
    cb = tr.callback
    beta, x0 = inp.planar
    u0_raw = lambda x, t: np.array([math.cos(2.0 * x[0]),
                                    math.sin(2.0 * x[1])])
    g = np.array([[1.0, 0.2], [0.0, 1.0]])
    sys = sf.ControlAffineSystem(2, 0, 2,
                                 cb("f", lambda x: np.array([x[1], -x[0]])),
                                 None, cb("g2", lambda x: g))
    bf = sf.BarrierFunction(cb("h", lambda x: 1.0 - float(x @ x)),
                            grad=cb("grad", lambda x: -2.0 * x),
                            hess=cb("hess", lambda x: -2.0 * np.eye(2)))
    spec = sf.DssfCbfSpec(sys, bf, sf.identity_k(), _linear_alpha(cb, 1.0),
                          cb("u0", u0_raw))
    control = _control(tr, "filters", sf.inverse_optimal_qp, u0_raw,
                       spec, beta)
    x0 = np.array(x0)
    traj, ok = _ode(tr, checks, "planar", sys, bf, control, spec.u0, x0,
                    None, inp.cfg)
    if ok:
        cv, inv = _cost(tr, traj, sf.CostSpec("qp-exact", spec=spec,
                                              beta_gain=beta))
        _check_cost(checks, "planar.qp-exact", cv, inv,
                    2.0 * beta * (1.0 - float(x0 @ x0)))


def _job_recip(tr, checks, inp):
    """Reciprocal barrier B = 1/h, h = -x, on the integrator under
    rcbf_qp_filter; cost reciprocal-min = -2 beta h(x0)."""
    cb = tr.callback
    beta, x0, u0v, c = inp.recip
    u0_raw = _const_u0([u0v])
    sys = _integrator(cb)
    alpha_bar = sf.KFunction(cb("alpha", lambda r: c * r),
                             inverse_fn=lambda y: y / c, name="linear:%g" % c)
    spec = sf.RcbfSpec(sys, cb("B", lambda x: -1.0 / x[0]), alpha_bar,
                       cb("u0", u0_raw),
                       gradB=cb("gradB",
                                lambda x: np.array([1.0 / x[0] ** 2])),
                       beta_gain=beta)
    bf = _neg_state_barrier(cb)
    control = _control(tr, "reciprocal", sf.rcbf_qp_filter, u0_raw, spec)
    traj, ok = _ode(tr, checks, "recip", sys, bf, control, spec.u0,
                    np.array([x0]), None, inp.cfg)
    if ok:
        cv, inv = _cost(tr, traj, sf.CostSpec("reciprocal-min", spec=spec))
        _check_cost(checks, "recip.reciprocal-min", cv, inv,
                    -2.0 * beta * (-x0))


def _job_probe(tr, checks, inp):
    """One optimality_probe family on the introductory loop: the scaled
    min-norm law on dx = u, u0 = 1, alpha(h) = h, whose intro-min value
    is x0; 4 shapes x the amplitudes never beat it."""
    cb = tr.callback
    u0_raw = _const_u0([1.0])
    sys = _integrator(cb)
    bf = _neg_state_barrier(cb)
    spec = sf.DssfCbfSpec(sys, bf, sf.identity_k(), _linear_alpha(cb, 1.0),
                          cb("u0", u0_raw))
    u_star = _control(tr, "filters", sf.inverse_optimal_qp, u0_raw, spec, 2.0)
    setup = sf.ProbeSetup(sys, bf, u_star, spec.u0, None, [inp.probe_x0],
                          sf.CostSpec("intro-min"), +1)
    out = tr.lib("certify.probe", sf.optimality_probe, setup, inp.probe_cfg,
                 amplitudes=PROBE_AMPLITUDES)
    checks.check("probe.count",
                 len(out["margins"]) == 4 * len(PROBE_AMPLITUDES))
    checks.check("probe.never-beaten", out["worst"] >= ACCEPT["probe"])
    checks.check("probe.value", _close(out["j_opt"], inp.probe_x0,
                                       ACCEPT["value"]))


# ---------------------------------------------------------------------------
# stoch-mc
# ---------------------------------------------------------------------------

EX5_BETA = 2.0
EX5_X0 = -1.0


def _ex5_spec(cb, beta):
    """dx = u dt + (1 - x) dw, h = ln(1 - x)."""
    sys = sf.scalar_system(cb("f", lambda x: 0.0), cb("g1", lambda x: 1.0 - x),
                           cb("g2", lambda x: 1.0))
    bf = sf.BarrierFunction(
        cb("h", lambda x: math.log1p(-x[0])),
        grad=cb("grad", lambda x: np.array([-1.0 / (1.0 - x[0])])),
        hess=cb("hess", lambda x: np.array([[-1.0 / (1.0 - x[0]) ** 2]])))
    return sf.StochSpec(sys, bf, _linear_alpha(cb, 1.0),
                        cb("u0", _const_u0([0.0])), beta_gain=beta,
                        gamma2=sf.power_pair(2, 0.25))


def _ex6_spec(cb, beta, lam):
    """dx = u dt + (1 + x^2) dw, h = -x^3, adversarial covariance."""
    sys = sf.scalar_system(cb("f", lambda x: 0.0),
                           cb("g1", lambda x: 1.0 + x * x),
                           cb("g2", lambda x: 1.0))
    bf = sf.BarrierFunction(
        cb("h", lambda x: -x[0] ** 3),
        grad=cb("grad", lambda x: np.array([-3.0 * x[0] ** 2])),
        hess=cb("hess", lambda x: np.array([[-6.0 * x[0]]])))
    return sf.NssfSpec(sys, bf, _linear_alpha(cb, 3.0), sf.identity_k(),
                       cb("u0", _const_u0([0.0])), beta_gain=beta, lam=lam,
                       gamma1=sf.power_pair(2), gamma2=sf.power_pair(2, 0.25))


@dataclass(frozen=True)
class StochInputs:
    mc_cfg: object      # ex5 value check: x0 = -1, beta = 2, so 4 ln 2
    sde_cfg5: object
    sde_cfg6: object
    ex5_x0: float
    ex6: tuple          # beta, lam, x0 of the recorded ex6 paths
    hjb_betas: tuple
    hjb_states: np.ndarray
    nssf_io: tuple      # beta, lam of the NSSF HJI sweep
    nssf_states: np.ndarray


def stoch_inputs(seed):
    rng = np.random.default_rng([seed, 2])
    # the noise streams are keyed by the seed, path by path
    mc_cfg = sf.SimConfig(dt=1e-3, T=2.0, seed=seed, paths=10000)
    # ex5's generator filter engages above 1 - sqrt(e) ~ -0.65: x0 on
    # either side varies how long it stays idle
    ex5_x0 = _uniform(rng, -1.5, -0.2)
    ex6 = (_uniform(rng, 1.0, 3.0), 2.0 - _uniform(rng, 0.0, 2.0),
           _uniform(rng, -0.9, -0.4))
    hjb_betas = tuple(float(b) for b in rng.uniform(2.0, 5.0, 3))
    hjb_states = rng.uniform(-2.0, 0.9, 200)
    nssf_io = _gain_lam(rng)
    # the cubic barrier's gradient vanishes at the origin: stay off it
    nssf_states = (rng.uniform(0.1, 1.5, 400)
                   * rng.choice([-1.0, 1.0], 400))
    return StochInputs(mc_cfg,
                       sf.SimConfig(dt=1e-3, T=1.0, seed=seed, paths=2),
                       sf.SimConfig(dt=1e-3, T=0.5, seed=seed, paths=4),
                       ex5_x0, ex6, hjb_betas, hjb_states, nssf_io,
                       nssf_states)


def _job_mc(tr, checks, inp):
    """ex5 value check: per-path functionals, then mc_summary within
    3 SE of 2 beta h(x0) = 4 ln 2."""
    cb = tr.callback
    beta = EX5_BETA
    target = 2.0 * beta * math.log1p(-EX5_X0)

    # closed-loop drift of stoch_qp_filter on the ex5 plant, and the
    # certified running cost and terminal, all vectorised over paths
    def drift(x):
        return beta * (x - 1.0) * np.maximum(0.0, 0.5 - np.log1p(-x))

    def integrand(x):
        a = np.maximum(0.0, 0.5 - np.log1p(-x))
        return beta - (2.0 * beta + beta * beta) * a

    totals = tr.lib("sim.mc", sf.sde_path_functionals, cb("mc", drift),
                    cb("mc", lambda x: 1.0 - x), EX5_X0, inp.mc_cfg,
                    cb("mc", integrand),
                    cb("mc", lambda x: 2.0 * beta * np.log1p(-x)))
    tr.add("sim.mc.path_steps", inp.mc_cfg.paths * inp.mc_cfg.n_steps)
    mean, se = tr.lib("certify.mc", sf.mc_summary, totals)
    gap = abs(mean - target) / se
    tr.note("stochastic.mc_gap_in_se", gap)
    checks.check("ex5.mc-within-3se", gap <= ACCEPT["mc_se"])


def _sde(tr, checks, job, spec, control, x0, cfg, escapes_expected=False):
    cb = tr.callback
    eye = np.eye(1)
    cov = sf.CovarianceSchedule(cb("cov", lambda t: eye), 1)
    paths = tr.lib("sim.sde", sf.integrate_sde, spec.sys, spec.bf, control,
                   spec.u0, np.array([x0]), cov, cfg)
    escaped = [p for p in paths if p.escape_time is not None]
    tr.add("sim.sde.path_steps", sum(p.times.size - 1 for p in paths))
    tr.add("sim.escapes", len(escaped))
    if escapes_expected:
        checks.check(job + ".escapes-truncated", all(
            p.times[-1] <= p.escape_time <= p.times[-1] + 1.5 * cfg.dt
            for p in escaped))
    else:
        checks.check(job + ".no-escape", not escaped)
    checks.check(job + ".path-count", len(paths) == cfg.paths)
    return paths


def _job_sde(tr, checks, inp):
    """Full Euler-Maruyama records under stoch_qp_filter (ex5 plant) and
    nssf_qp_filter (ex6 plant), generator margins along the ex5 paths,
    and the lie_data side probe on the ex6 records."""
    cb = tr.callback
    spec5 = _ex5_spec(cb, EX5_BETA)
    control = _control(tr, "stochastic", sf.stoch_qp_filter,
                       _const_u0([0.0]), spec5)
    paths = _sde(tr, checks, "ex5-sde", spec5, control, inp.ex5_x0,
                 inp.sde_cfg5)
    gen_min = math.inf
    for p in paths:
        for k in range(0, p.times.size - 1, GEN_STRIDE):
            g = tr.lib("stochastic.generator", sf.generator_h, spec5.sys,
                       spec5.bf, p.states[k], p.controls[k])
            gen_min = min(gen_min, g + spec5.alpha(p.h_values[k]))
    checks.check("ex5-sde.generator-margin", gen_min >= GENERATOR_FLOOR)

    beta, lam, x0 = inp.ex6
    spec6 = _ex6_spec(cb, beta, lam)
    control = _control(tr, "stochastic", sf.nssf_qp_filter,
                       _const_u0([0.0]), spec6)
    # explicit Euler-Maruyama diverges with small probability on ex6's
    # superlinear noise gain (1 + x^2): a path that wanders to |x| ~ 20
    # overshoots (about 3.5% of seeds at this horizon). That is the
    # scheme on this plant, so an escape here is expected and must only
    # be detected and truncated the documented way.
    paths = _sde(tr, checks, "ex6-sde", spec6, control, x0, inp.sde_cfg6,
                 escapes_expected=True)
    for i, p in enumerate(paths):
        _lie_probe(tr, checks, "ex6-sde.path%d" % i, spec6.sys, spec6.bf, p)


def _job_stoch_hj(tr, checks, inp):
    """hjb_residual / nssf_hji_residual sweeps and the worst-case
    covariance, which is symmetric (and may be indefinite)."""
    cb = tr.callback
    specs5 = [_ex5_spec(cb, b) for b in inp.hjb_betas]
    spec6 = _ex6_spec(cb, *inp.nssf_io)

    def sweep():
        worst = 0.0
        for spec in specs5:
            for s in inp.hjb_states:
                worst = max(worst, abs(sf.hjb_residual(spec, np.array([s]),
                                                       0.0)))
        for s in inp.nssf_states:
            worst = max(worst, abs(sf.nssf_hji_residual(
                spec6, np.array([s]), 0.0)))
        return worst

    worst = tr.lib("stochastic.hj", sweep)
    tr.add("stochastic.hj.states",
           len(specs5) * inp.hjb_states.size + inp.nssf_states.size)
    checks.check("stoch.hj-residual", worst <= ACCEPT["hj"])

    def covariances():
        ok = True
        for s in inp.nssf_states[:50]:
            M = sf.worst_case_covariance(spec6, np.array([s]))
            ok = ok and bool(np.all(np.isfinite(M))) and bool(
                np.array_equal(M, M.T))
        return ok
    checks.check("stoch.worst-covariance-symmetric",
                 tr.lib("stochastic.covariance", covariances))


# ---------------------------------------------------------------------------
# cli-builtins
# ---------------------------------------------------------------------------

def _parse_report(text):
    rep = {}
    for line in text.splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            rep[key] = val
    return rep


def _num(rep, key):
    return float(rep[key])


def _builtin_checks(bid, rep):
    """Each built-in's acceptance literal, read off its printed report."""
    a = ACCEPT
    if bid == "intro-qp-optimal":
        return [("cost", _close(_num(rep, "cost_total"), -1.0, a["intro"]))]
    if bid == "intro-sontag":
        return [("cost", _close(_num(rep, "cost_total"),
                                _num(rep, "cost_target"), a["value"]))]
    if bid == "ex1-dssf":
        return [("dssf", _num(rep, "dssf_min_margin") >= a["dssf"])]
    if bid == "blowup":
        lo, hi = a["escape"]
        return [("escape", lo <= _num(rep, "escape_time") <= hi)]
    if bid == "ex3-invopt":
        return [("invariance", _num(rep, "invariance_max") <= a["invariance"]),
                ("value", _close(_num(rep, "cost_total"),
                                 _num(rep, "cost_value"), a["value"])),
                ("attenuation", _num(rep, "attenuation_lhs")
                 <= _num(rep, "attenuation_rhs") + a["value"]),
                ("hji", _num(rep, "hji_residual_max") <= a["hj"])]
    if bid == "ex4-invopt-qp":
        return [("invariance",
                 _num(rep, "exact_invariance_max") <= a["invariance"]),
                ("value", _close(_num(rep, "exact_total"),
                                 _num(rep, "exact_value"), a["value"]))]
    if bid == "ex5-stoch":
        return [("mc", _num(rep, "mc_gap_in_se") <= a["mc_se"])]
    if bid == "ex6-nssf":
        return [("finite", rep["all_paths_finite"] == "PASS"),
                ("hji", _num(rep, "nssf_hji_residual_max") <= a["hj"])]
    if bid == "proj-ball":
        return [("agreement", _num(rep, "boundary_agreement_gap") <= 1e-12),
                ("eps-family", rep["eps_family_decreasing"] == "PASS"),
                ("classic", _num(rep, "h_min_classic") >= -1e-6),
                ("min-norm", min(_num(rep, "h_min_qp"),
                                 _num(rep, "h_min_optimal")) >= -1e-8),
                ("invariance",
                 _num(rep, "optimal_invariance_max") <= a["invariance"])]
    if bid == "sandwich-scalar":
        return [("tube", min(_num(rep, k) for k in (
            "lower_margin_free", "upper_margin_free",
            "lower_margin_forced", "upper_margin_forced")) >= a["tube"])]
    raise KeyError(bid)


def _digest(out_dir):
    """sha256 over the written files (name and bytes), and their size."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


# ---------------------------------------------------------------------------
# workloads: each lists its jobs as (name, fn(tracer, checks)), run in order
# ---------------------------------------------------------------------------

def _bind(jobs, inputs):
    return [(job.__name__[5:], functools.partial(job, inp=inputs))
            for job in jobs]


class GameCert:
    name = "game-cert"

    def __init__(self, seed, root):
        self.inputs = game_inputs(seed)

    def jobs(self):
        return _bind((_job_ex3, _job_ex4, _job_planar, _job_recip,
                      _job_probe), self.inputs)


class StochMC:
    name = "stoch-mc"

    def __init__(self, seed, root):
        self.inputs = stoch_inputs(seed)

    def jobs(self):
        return _bind((_job_mc, _job_sde, _job_stoch_hj), self.inputs)


class CliBuiltins:
    """All ten built-ins through the CLI entry point, in-process, each
    into a fresh output directory under the checkout's .bench_tmp.
    Reports and CSVs are hashed; the digests of every pass must equal the
    first pass's, since the same settings must give the same bytes.

    The built-ins run at their default settings, as users run them; the
    workload seed does not reach them. Passed as --seed it would fail
    ex6-nssf on about 15% of seeds (explicit Euler-Maruyama escapes on
    its superlinear noise gain; seeds 1, 6, 15, 16, 31 and 35 of 0..39),
    and the seeded Ito work is measured by stoch-mc instead.
    """

    name = "cli-builtins"

    def __init__(self, seed, root):
        self.tmp_root = os.path.join(root, ".bench_tmp")
        self.argv = {bid: ["run-builtin", bid] for bid in BUILTIN_IDS}
        self.digests = {}

    def jobs(self):
        return [(bid, functools.partial(self._run_one, bid=bid))
                for bid in BUILTIN_IDS]

    def _run_one(self, tr, checks, bid):
        os.makedirs(self.tmp_root, exist_ok=True)
        out_dir = tempfile.mkdtemp(prefix=bid + "-", dir=self.tmp_root)
        try:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = tr.lib("scenarios." + bid, cli.main,
                                  self.argv[bid] + ["--out-dir", out_dir])
                except SystemExit as exc:
                    code = exc.code
            digest, size = _digest(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        tr.add("cli.bytes_out", size)
        checks.check(bid + ".exit-0", code == 0)
        rep = _parse_report(buf.getvalue())
        for name, ok in _builtin_checks(bid, rep):
            checks.check("%s.%s" % (bid, name), ok)
        first = self.digests.setdefault(bid, digest)
        checks.check(bid + ".byte-stable", digest == first)


WORKLOADS = {w.name: w for w in (GameCert, StochMC, CliBuiltins)}
