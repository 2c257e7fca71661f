"""Built-in demonstration scenarios and the flat config format.

Each runner assembles a filtered loop, simulates it, evaluates the
matching cost/certificates, and returns a ScenarioResult: a flat report
rendered as "key = value" lines by report_text, its checks, and the
records to keep as CSVs. A check is a row (name, value, lo, hi), its
bounds the named tolerances below; the verdict, stamped as "overall",
is lo <= value <= hi on every row, so a NaN value fails. A certificate
on an escaped record, which none is defined on, is NaN, and so is
ex5's Monte Carlo value where a path functional diverges. The summary
keys that are only reported (h_min, x_max, sup_d, h_min_over_paths)
skip a tombstone's NaN entries and read the kept samples. Runners touch
no file: _write, behind run_builtin and run_config, is the one writer,
so a run that raises writes nothing. Closed-form scalar policies are
used for speed where they exist; the test suite pins them against the
general filters.

Config files are flat "key = value" text, one setting per line, with
either a single `scenario = <builtin-id>` line (plus dt/T/seed/paths
overrides) or a small custom single-state family:

    system = integrator | disturbed-gain
    x0     = <float>
    u0     = const:<v>
    alpha  = linear:C | power:P[:S] | eps:E | piecewise:A:B
    rho    = linear:C | power:P[:S] | eps:E        (default linear:1)
    filter = qp | sontag | half-sontag | io-qp:<beta>
    d      = none | const:<v> | sin:<amp>[:<freq>] (default none)
    dt, T, seed, cost = none | qp-exact:<beta>

No code is ever evaluated from configs; unknown keys or malformed
values are reported with their line number.
"""

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .certify import (DSSF_PASS_TOL, CostSpec, CostValue, _sup_gains,
                      certify_dssf_bound, cost_invariance_check,
                      evaluate_cost, mc_summary, trapezoid)
from .comparison import (decay_tube, identity_k, linear_extended,
                         extended_k_from_name, k_from_name,
                         eps_power_extended, piecewise_extended, power_k,
                         power_pair)
from .filters import (HALF_SONTAG, MIN_NORM, SONTAG, DssfCbfSpec,
                      InverseOptimalSpec, _check_gains, _dssf_at, _filtered,
                      hji_residual, inverse_optimal_condition)
from .projection import ProjectionSpec, classic_projection, qp_projection, \
    simulate_projection
from .sim import (SimConfig, SimulationError, integrate_ode,
                  integrate_ode_scalar, integrate_sde, sde_path_functionals,
                  write_trajectory_csv)
from .stochastic import (CovarianceSchedule, NssfSpec, StochSpec,
                         generator_margin, min_eigenvalue, nssf_hji_residual,
                         nssf_qp_filter, stoch_qp_filter,
                         worst_case_covariance)
from .nonovershoot import (SandwichSpec, gain_separation_margin,
                           nominal_decay_margin, sandwich_filter)
from .systems import (BarrierFunction, ModelBlowup, SafefiltError,
                      lie_data_rows, row_dot, row_norm, scalar_system,
                      stacked, vec_norm)

VALUE_TOL = 1e-3         # certified costs, their invariance, attenuation
INTRO_COST_TOL = 0.01    # intro-qp-optimal's cost against its value -1
ESCAPE_WINDOW = (0.45, 0.55)  # blowup's detected escape around t = 0.5
GRID_TOL = 1e-9          # identities and margins evaluated on a state grid
MARGIN_TOL = 1e-8        # recorded margins of the smooth laws may dip this far
SLIDING_TOL = 1e-6       # ... and of the classic projection's sliding law
CLOSED_FORM_TOL = 1e-12  # a library law against its closed form
MC_SES = 3.0             # Monte Carlo value within this many standard errors


@dataclass
class ScenarioResult:
    """A run's flat report, its checks and its records.

    Each check is a row (name, value, lo, hi); the run passes when every
    row holds lo <= value <= hi, so a NaN value fails its row. put
    writes a report entry and records its row in one call; check records
    a row whose value the report does not print.
    """
    report: dict = field(default_factory=dict)
    records: dict = field(default_factory=dict)    # CSV name -> Trajectory
    artifacts: list = field(default_factory=list)  # paths _write wrote
    checks: list = field(default_factory=list)     # (name, value, lo, hi)

    @property
    def passed(self):
        return all(lo <= v <= hi for _, v, lo, hi in self.checks)

    def check(self, name, value, lo=-math.inf, hi=math.inf):
        self.checks.append((name, value, lo, hi))

    def put(self, key, value, lo=-math.inf, hi=math.inf):
        self.report[key] = value
        self.check(key, value, lo, hi)


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "PASS" if v else "FAIL"
    if isinstance(v, float):
        return "%.12g" % v
    if isinstance(v, np.ndarray):
        return np.array2string(v, formatter={"float_kind": lambda x: "%.6g" % x})
    return str(v)


def report_text(report):
    return "".join("%s = %s\n" % (k, _fmt(v)) for k, v in report.items())


def write_report(report, path):
    with open(path, "w") as fh:
        fh.write(report_text(report))


def _write(result, out_dir, name):
    """Stamp result's overall verdict, then, with an out_dir, write its
    records as CSVs in order and its report as <name>-report.txt."""
    result.report["overall"] = result.passed
    if out_dir is None:
        return result
    os.makedirs(out_dir, exist_ok=True)
    for fname, traj in result.records.items():
        p = os.path.join(out_dir, fname)
        write_trajectory_csv(traj, p)
        result.artifacts.append(p)
    p = os.path.join(out_dir, "%s-report.txt" % name)
    write_report(result.report, p)
    result.artifacts.append(p)
    return result


# ---------------------------------------------------------------------------
# shared model pieces
# ---------------------------------------------------------------------------

def neg_state_barrier():
    return BarrierFunction(lambda x: -x[0],
                           grad=lambda x: np.array([-1.0]),
                           hess=lambda x: np.array([[0.0]]))


def integrator_system():
    """dx = u dt (no disturbance channel)."""
    return scalar_system(lambda x: 0.0, None, lambda x: 1.0)


def disturbed_gain_system():
    """dx = (u + (1+x^2) d) dt."""
    return scalar_system(lambda x: 0.0, lambda x: 1.0 + x * x,
                         lambda x: 1.0)


def _below_one(x):
    """x[0], where h = ln(1-x) is finite; past it a ModelBlowup, so a
    loop that steps there escapes."""
    if not x[0] < 1.0:
        raise ModelBlowup("h = ln(1-x) is not finite at x = %r" % (x[0],))
    return x[0]


def log_gap_barrier():
    """h = ln(1-x), safe set x <= 0, defined for x < 1."""
    return BarrierFunction(
        lambda x: math.log1p(-_below_one(x)),
        grad=lambda x: np.array([-1.0 / (1.0 - _below_one(x))]),
        hess=lambda x: np.array([[-1.0 / (1.0 - _below_one(x)) ** 2]]))


def neg_cube_barrier():
    return BarrierFunction(
        lambda x: -x[0] ** 3,
        grad=lambda x: np.array([-3.0 * x[0] ** 2]),
        hess=lambda x: np.array([[-6.0 * x[0]]]))


def unit_ball_barrier():
    return BarrierFunction(
        lambda th: 1.0 - row_dot(th, th),
        grad=lambda th: -2.0 * th,
        hess=lambda th: -2.0 * np.eye(th.size))


def _closed_loop(u_star, u0, x0, cfg, d=None, g1=lambda x: 1.0 + x * x):
    """The closed-form scalar loop dx = u_star(x) + g1(x) d(x, t) with
    h = -x, through the scalar fast path; u0(x) is recorded as the
    nominal and d, when given, as the disturbance."""
    if d is None:
        drift = lambda x, t: u_star(x)
    else:
        drift = lambda x, t: u_star(x) + g1(x) * d(x, t)
    return integrate_ode_scalar(drift, x0, cfg, h_fn=lambda x: -x,
                                u_fn=lambda x, t: u_star(x),
                                u0_fn=lambda x, t: u0(x), d_fn=d)


def _cost(traj, cost):
    """evaluate_cost; on an escaped record, which no cost is defined on,
    a NaN total and invariance, whose rows fail, and the record's own
    running cost."""
    if traj.escape_time is None:
        return evaluate_cost(traj, cost)
    return CostValue(math.nan, False, traj.running_cost,
                     np.full(traj.times.size, math.nan))


def _dssf_min(traj, alpha, rho):
    """certify_dssf_bound's least margin; NaN on an escaped record."""
    if traj.escape_time is not None:
        return math.nan
    return certify_dssf_bound(traj, alpha, rho)[1]


# ---------------------------------------------------------------------------
# builtin scenarios
# ---------------------------------------------------------------------------

def run_intro_qp_optimal(cfg):
    """Scalar integrator, floor at x <= 0 pushed by u0 = 1; the scaled
    min-norm filter is optimal for the intro-min cost, value x0."""
    beta = 2.0

    def u_star(x):
        return 1.0 + beta * min(0.0, -1.0 - x)         # omega = -1 - x

    traj = _closed_loop(u_star, lambda x: 1.0, -1.0, cfg)
    cost = CostSpec("intro-min")
    cv = _cost(traj, cost)
    traj.running_cost = cv.running
    res = ScenarioResult(records={"intro-qp-optimal.csv": traj})
    res.report["cost_total"] = cv.total
    res.report["cost_target"] = -1.0
    res.put("cost_gap", abs(cv.total + 1.0), hi=INTRO_COST_TOL)
    res.report["invariance_max"] = cv.invariance
    res.report["h_min"] = float(np.nanmin(traj.h_values))
    return res


def run_intro_sontag(cfg):
    """Same plant under the damping-style correction; its cost totals
    the starting state exactly (the integrand telescopes)."""
    x0 = 0.0

    def u_star(x):
        return -x - math.hypot(1.0 + x, 1.0)           # u0 = 1

    traj = _closed_loop(u_star, lambda x: 1.0, x0, cfg)
    cost = CostSpec("intro-sontag")
    cv = _cost(traj, cost)
    traj.running_cost = cv.running
    res = ScenarioResult(records={"intro-sontag.csv": traj})
    res.report["cost_total"] = cv.total
    res.report["cost_target"] = x0
    res.check("cost_gap", abs(cv.total - x0), hi=VALUE_TOL)
    res.report["invariance_max"] = cv.invariance
    res.report["h_min"] = float(np.nanmin(traj.h_values))
    return res


def run_ex1_dssf(cfg):
    """Disturbed gain plant, min-norm filter on the robust margin;
    certify the disturbance-to-state bound sample by sample."""

    def u_star(x):
        return min(0.0, -(1.0 + x * x) * max(0.0, x) - x)

    def d_fn(x, t):
        return 0.5 * math.sin(t)

    traj = _closed_loop(u_star, lambda x: 0.0, -1.0, cfg, d=d_fn)
    res = ScenarioResult(records={"ex1-dssf.csv": traj})
    res.put("dssf_min_margin", _dssf_min(traj, linear_extended(1.0),
                                         identity_k()), lo=-DSSF_PASS_TOL)
    res.report["h_min"] = float(np.nanmin(traj.h_values))
    res.report["x_max"] = float(np.nanmax(traj.states))
    res.report["sup_d"] = float(np.nanmax(np.abs(traj.disturbances)))
    return res


def run_blowup(cfg):
    """Nominal u0 = x^3 stays safe (x < 0) but leaves every compact in
    finite time; the record truncates at the detected escape."""

    def u_star(x):
        return x ** 3 + min(0.0, -x ** 3 - x)

    traj = _closed_loop(u_star, lambda x: x ** 3, -1.0, cfg)
    res = ScenarioResult(records={"blowup.csv": traj})
    res.put("escape_time", (math.nan if traj.escape_time is None
                            else traj.escape_time), *ESCAPE_WINDOW)
    res.report["escape_expected"] = 0.5
    res.report["samples_kept"] = traj.times.size
    res.report["h_min"] = float(np.nanmin(traj.h_values))
    return res


def _ex3_pieces(beta, lam):
    alpha_gain = 12.0

    def u0_scalar(x):
        return (beta - lam) * (1.0 + x * x) ** 2 - (x + 1.0)

    def r2inv_scalar(x, u0v):
        # inverse of the control weight; alpha(h) = 12*(-x)
        return max(0.0, u0v - alpha_gain * (-x)) + (1.0 + x * x) ** 2

    def u_star_scalar(x):
        u0v = u0_scalar(x)
        return u0v - beta * r2inv_scalar(x, u0v)       # Lg2h = -1

    def d_star_scalar(x):
        return lam * (1.0 + x * x)

    sys = disturbed_gain_system()
    bf = neg_state_barrier()
    base = DssfCbfSpec(sys, bf, identity_k(), linear_extended(alpha_gain),
                       lambda x, t: np.array([u0_scalar(x[0])]))
    iospec = InverseOptimalSpec(
        base, beta, lam, power_pair(2),
        R2=lambda x, u0v: np.array([[1.0 / r2inv_scalar(x[0], u0v[0])]]))
    return u0_scalar, u_star_scalar, d_star_scalar, iospec


def _attenuation(traj, lam):
    """(lhs, rhs) of the bound x(T) + int x dt <= int d^2 dt / (2 lam)."""
    x, d = traj.states[:, 0], traj.disturbances[:, 0]
    return (float(x[-1] + trapezoid(x, traj.times)),
            float(trapezoid(d * d, traj.times) / (2.0 * lam)))


def run_ex3_invopt(cfg, beta=2.0, lam=1.0):
    """Fully weighted inverse-optimal loop against its own worst-case
    disturbance; the game cost stays pinned at 2*beta*h(x0)."""
    u0_s, u_star, d_star, iospec = _ex3_pieces(beta, lam)
    x0 = -1.2

    traj = _closed_loop(u_star, u0_s, x0, cfg,
                        d=lambda x, t: d_star(x))
    cost = CostSpec("disturbance-game", spec=iospec)
    cv = _cost(traj, cost)
    traj.running_cost = cv.running

    value = 2.0 * beta * (-x0)
    lhs, rhs = _attenuation(traj, lam)

    X = np.linspace(-1.5, -0.6, 61)[:, None]
    res = ScenarioResult({"beta": beta, "lam": lam, "cost_total": cv.total,
                          "cost_value": value}, {"ex3-invopt.csv": traj})
    res.put("invariance_max", cv.invariance, hi=VALUE_TOL)
    res.check("cost_gap", abs(cv.total - value), hi=VALUE_TOL)
    res.put("attenuation_lhs", lhs, hi=rhs + VALUE_TOL)
    res.report["attenuation_rhs"] = rhs
    res.put("hji_residual_max", float(np.max(np.abs(
        hji_residual(iospec, X, 0.0)))), hi=GRID_TOL)
    res.report["condition_min"] = float(np.min(
        inverse_optimal_condition(iospec, X, 0.0)))
    return res


def run_ex4_invopt_qp(cfg):
    """Scaled min-norm filter on the disturbed-gain plant, run against
    its (vanishing) worst-case disturbance; the exact disturbance-free
    certificate is invariant, the displayed weights only nearly so."""
    beta, lam = 2.0, 1.0
    x0 = -0.5

    def omega(x):
        return -2.0 - x - (1.0 + x * x) * max(0.0, x)

    def u_star(x):
        return 2.0 + beta * min(0.0, omega(x))

    def d_star(x):
        return lam * max(0.0, x)

    traj = _closed_loop(u_star, lambda x: 2.0, x0, cfg,
                        d=lambda x, t: d_star(x))

    spec = DssfCbfSpec(disturbed_gain_system(), neg_state_barrier(),
                       identity_k(), linear_extended(1.0),
                       lambda x, t: np.array([2.0]))
    exact = CostSpec("qp-exact", spec=spec, beta_gain=beta)
    cv_e = _cost(traj, exact)
    weighted = CostSpec("qp-weighted", spec=spec, beta_gain=beta, lam=lam)
    cv_w = _cost(traj, weighted)
    traj.running_cost = cv_e.running

    value = 2.0 * beta * (-x0)
    lhs, rhs = _attenuation(traj, lam)

    res = ScenarioResult({"exact_total": cv_e.total, "exact_value": value},
                         {"ex4-invopt-qp.csv": traj})
    res.put("exact_invariance_max", cv_e.invariance, hi=VALUE_TOL)
    res.check("exact_gap", abs(cv_e.total - value), hi=VALUE_TOL)
    res.report["weighted_total"] = cv_w.total
    res.report["weighted_invariance_drift"] = cv_w.invariance
    res.put("attenuation_lhs", lhs, hi=rhs + VALUE_TOL)
    res.report["attenuation_rhs"] = rhs
    return res


_zero_u0 = stacked(lambda X, t: np.zeros((len(X), 1)))


def ex5_spec(beta=2.0):
    sys = scalar_system(lambda x: 0.0, lambda x: 1.0 - x, lambda x: 1.0)
    bf = log_gap_barrier()
    return StochSpec(sys, bf, linear_extended(1.0), _zero_u0, beta_gain=beta,
                     gamma2=power_pair(2, 0.25))


def run_ex5_stoch(cfg):
    """Shrinking-noise plant under the scaled min-norm generator
    filter. The certified value is exact in the mean: the Monte Carlo
    cost must land within 3 standard errors of 2*beta*h(x0), so it
    needs two paths for a standard error: fewer is a ConfigError."""
    if cfg.paths < 2:
        raise ConfigError("ex5-stoch needs paths >= 2, got %d" % cfg.paths)
    beta = 2.0
    x0 = -1.0
    target = 2.0 * beta * math.log1p(-x0)              # 4 ln 2

    def drift(x):
        return beta * (x - 1.0) * np.maximum(0.0, 0.5 - np.log1p(-x))

    def diffusion(x):
        return 1.0 - x

    def integrand(x):
        a = np.maximum(0.0, 0.5 - np.log1p(-x))
        return beta - (2.0 * beta + beta * beta) * a

    def terminal(x):
        return 2.0 * beta * np.log1p(-x)

    try:
        mean, se = mc_summary(sde_path_functionals(drift, diffusion, x0, cfg,
                                                   integrand, terminal))
    except SimulationError:     # a diverged path: the value check fails
        mean = se = math.nan

    res = ScenarioResult({"mc_paths": cfg.paths, "mc_mean": mean,
                          "mc_se": se, "mc_target": target,
                          "mc_gap_in_se": abs(mean - target) / se})
    res.check("mc_gap", abs(mean - target), hi=MC_SES * se)

    # a few full records through the generic integrator
    spec = ex5_spec(beta)
    few = SimConfig(dt=cfg.dt, T=cfg.T, seed=cfg.seed,
                    paths=min(3, cfg.paths))
    paths = integrate_sde(spec.sys, spec.bf,
                          stacked(lambda X, t: stoch_qp_filter(spec, X, t)),
                          spec.u0, np.array([x0]),
                          CovarianceSchedule.constant(np.eye(1)), few)
    gen_min = math.inf
    for i, traj in enumerate(paths):
        X = traj.states[:-1:50]
        if len(X):  # empty when the path stopped at its first sample
            ld = lie_data_rows(spec.sys, spec.bf, X)
            omega, _ = generator_margin(spec, ld, traj.controls[:-1:50])
            gen_min = min(gen_min, np.min(omega))
        res.records["ex5-stoch-path%d.csv" % i] = traj
    res.put("generator_margin_min", gen_min, lo=-MARGIN_TOL)
    return res


def ex6_spec(beta=1.0, lam=2.0, rho=None):
    sys = scalar_system(lambda x: 0.0, lambda x: 1.0 + x * x,
                        lambda x: 1.0)
    bf = neg_cube_barrier()
    return NssfSpec(sys, bf, linear_extended(3.0),
                    rho if rho is not None else identity_k(),
                    _zero_u0, beta_gain=beta, lam=lam,
                    gamma1=power_pair(2), gamma2=power_pair(2, 0.25))


def _ex6_display(x, u0v, rho_inv):
    """Single-constraint update as displayed for this plant; agrees
    with the general filter only because the commuted gain is linear."""
    gain = (1.0 + x * x) ** 2 * rho_inv(max(0.0, abs(x) * x))
    return min(u0v, -gain - x)


def run_ex6_nssf(cfg):
    """Covariance-adversarial filter on the cubic barrier. The
    worst-case covariance of the relaxed game is indefinite here and is
    reported as such, never silently projected."""
    spec = ex6_spec()
    x0 = -0.5
    paths = integrate_sde(spec.sys, spec.bf,
                          stacked(lambda X, t: nssf_qp_filter(spec, X, t)),
                          spec.u0, np.array([x0]),
                          CovarianceSchedule.constant(np.eye(1)), cfg)
    res = ScenarioResult({"paths": len(paths)})
    res.put("all_paths_finite", all(p.escape_time is None for p in paths),
            lo=True)
    res.report["h_min_over_paths"] = float(
        min(np.nanmin(p.h_values) for p in paths))

    M = worst_case_covariance(spec, np.array([-1.0]))
    res.report["worst_covariance_at_-1"] = float(M[0, 0])
    res.report["worst_covariance_min_eig"] = min_eigenvalue(M)
    res.report["worst_covariance_psd"] = bool(min_eigenvalue(M) >= 0.0)

    # displayed vs general update: identical for the linear gain,
    # materially different once the gain is nonlinear; one stacked call
    # per sweep
    grid = [x for x in np.linspace(-1.5, 1.5, 121) if abs(x) > 1e-6]
    X = np.array(grid)[:, None]

    def display_gap(spec, rho_inv):
        display = [_ex6_display(x, 0.0, rho_inv) for x in grid]
        return float(np.max(np.abs(nssf_qp_filter(spec, X, 0.0)[:, 0]
                                   - display)))
    res.put("display_gap_linear_gain", display_gap(spec, lambda y: y),
            hi=GRID_TOL)
    res.report["display_gap_sqrt_gain"] = display_gap(
        ex6_spec(rho=power_k(2)), math.sqrt)
    res.put("nssf_hji_residual_max", float(np.max(np.abs(
        nssf_hji_residual(ex6_spec(beta=2.0), X, 0.0)))), hi=GRID_TOL)

    for i, traj in enumerate(paths[:3]):
        res.records["ex6-nssf-path%d.csv" % i] = traj
    return res


def run_proj_ball(cfg):
    """Estimate updates constrained to the unit ball: the three laws
    keep the set invariant, the continuous law matches the classic one
    on the boundary, and it converges to it as alpha steepens."""
    bf = unit_ball_barrier()
    spec = ProjectionSpec(bf, linear_extended(1.0), beta_gain=2.0)
    u0_law = lambda th, t: np.array([1.0, 0.3])
    theta0 = np.array([0.5, 0.0])

    res = ScenarioResult()
    trajs = {}
    for law in ("classic", "qp", "optimal"):
        traj = simulate_projection(spec, u0_law, theta0, cfg, law=law)
        trajs[law] = traj
        res.put("h_min_%s" % law, float(np.min(traj.h_values)),
                lo=-(SLIDING_TOL if law == "classic" else MARGIN_TOL))
        res.records["proj-ball-%s.csv" % law] = traj
    res.report["final_radius_classic"] = vec_norm(
        trajs["classic"].states[-1])

    # boundary agreement of the two min-norm laws
    agree = 0.0
    for phi in np.linspace(0.0, 2.0 * math.pi, 37):
        th = np.array([math.cos(phi), math.sin(phi)])
        for u0v in ([1.0, 0.0], [-0.3, 2.0], [0.7, -0.7]):
            u0v = np.array(u0v)
            c = classic_projection(spec, th, u0v)
            q = qp_projection(spec, th, u0v)
            agree = max(agree, vec_norm(c - q))
    res.put("boundary_agreement_gap", agree, hi=CLOSED_FORM_TOL)

    # steepening family: the continuous law approaches the classic one;
    # one stacked call per eps
    sups = []
    radii = np.linspace(0.05, 0.95, 91)
    thetas = np.column_stack([radii, np.zeros(radii.size)])
    big = np.tile([100.0, 0.0], (radii.size, 1))
    for eps in (1.0, 0.5, 0.1, 0.01):
        spec_e = ProjectionSpec(bf, eps_power_extended(eps), beta_gain=2.0)
        sup = float(np.max(row_norm(qp_projection(spec_e, thetas, big))))
        sups.append(sup)
        res.report["eps_family_sup_%g" % eps] = sup
    res.put("eps_family_decreasing",
            all(sups[i] > sups[i + 1] for i in range(len(sups) - 1)), lo=True)
    opt = trajs["optimal"]
    res.put("optimal_invariance_max", math.nan if opt.escape_time is not None
            else cost_invariance_check(opt, CostSpec("projection-min",
                                                     spec=spec)), hi=VALUE_TOL)
    return res


def sandwich_testbed():
    sys = scalar_system(lambda x: 0.0, lambda x: 1.0, lambda x: 1.0)
    bf = neg_state_barrier()
    return SandwichSpec(sys, bf,
                        lambda x: np.array([-x[0] + max(0.0, -x[0])]),
                        identity_k(), identity_k(),
                        piecewise_extended(1.0, 3.0), linear_extended(2.0))


def run_sandwich_scalar(cfg):
    """Two-sided tube around the decaying barrier: no overshoot past
    the alpha0-tube, no safety loss past the alpha-tube, with and
    without a bounded disturbance."""
    spec = sandwich_testbed()
    x0 = -0.5
    h0 = -x0

    def u_star(x):
        return -2.0 * x if x <= 0.0 else -3.0 * x

    # both loops start at h0 on cfg's grid; a truncated record reads a
    # prefix of each tube
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    kl = decay_tube(spec.alpha, h0, times)
    kl0 = decay_tube(spec.alpha0, h0, times)
    res = ScenarioResult()
    for tag, d_fn in (("free", None),
                      ("forced", lambda x, t: 0.3 * math.sin(t))):
        traj = _closed_loop(u_star, lambda x: -x + max(0.0, -x), x0, cfg,
                            d=d_fn, g1=lambda x: 1.0)
        k, h, d = traj.times.size, traj.h_values, traj.disturbances
        res.put("lower_margin_%s" % tag, float(np.min(
            h - kl[:k] + _sup_gains(spec.rho, d))), lo=-DSSF_PASS_TOL)
        res.put("upper_margin_%s" % tag, float(np.min(
            kl0[:k] + _sup_gains(spec.rho0, d) - h)), lo=-DSSF_PASS_TOL)
        res.records["sandwich-scalar-%s.csv" % tag] = traj

    grid = np.linspace(-2.0, 2.0, 81)
    X = grid[:, None]
    res.put("nominal_decay_margin_min",
            float(np.min(nominal_decay_margin(spec, X))), lo=-GRID_TOL)
    res.put("gain_separation_margin_min",
            float(np.min(gain_separation_margin(spec, X))), lo=-GRID_TOL)
    # the closed form, per point, is the oracle
    res.put("filter_closed_form_gap", float(np.max(np.abs(
        sandwich_filter(spec, X)[:, 0] - [u_star(x) for x in grid]))),
        hi=CLOSED_FORM_TOL)
    return res


@dataclass(frozen=True)
class Builtin:
    summary: str
    module: str
    defaults: dict
    runner: Callable


BUILTINS = {
    "intro-qp-optimal": Builtin(
        "scaled min-norm filter on the scalar integrator, cost -1",
        "filters", {"dt": 1e-4, "T": 10.0}, run_intro_qp_optimal),
    "intro-sontag": Builtin(
        "damping-style correction, telescoping cost equals x0",
        "filters", {"dt": 1e-3, "T": 10.0}, run_intro_sontag),
    "ex1-dssf": Builtin(
        "disturbance-to-state safety bound under 0.5 sin t",
        "filters", {"dt": 1e-3, "T": 20.0}, run_ex1_dssf),
    "blowup": Builtin(
        "safe but finite-escape nominal; escape detection",
        "filters", {"dt": 1e-3, "T": 1.0}, run_blowup),
    "ex3-invopt": Builtin(
        "weighted inverse-optimal game against its worst disturbance",
        "filters", {"dt": 1e-3, "T": 10.0}, run_ex3_invopt),
    "ex4-invopt-qp": Builtin(
        "scaled min-norm law: exact and displayed certificates",
        "filters", {"dt": 1e-3, "T": 10.0}, run_ex4_invopt_qp),
    "ex5-stoch": Builtin(
        "Ito value check by Monte Carlo, mean cost 4 ln 2",
        "stochastic", {"dt": 1e-3, "T": 2.0, "paths": 10000},
        run_ex5_stoch),
    "ex6-nssf": Builtin(
        "covariance-adversarial filter, indefinite worst covariance",
        "stochastic", {"dt": 1e-3, "T": 2.0, "paths": 8}, run_ex6_nssf),
    "proj-ball": Builtin(
        "estimate updates on the unit ball, three laws",
        "projection", {"dt": 1e-3, "T": 3.0}, run_proj_ball),
    "sandwich-scalar": Builtin(
        "two-sided decay tube, free and forced",
        "nonovershoot", {"dt": 1e-3, "T": 10.0}, run_sandwich_scalar),
}

FILTER_MODULES = ("filters", "reciprocal", "stochastic", "projection",
                  "nonovershoot")


class ConfigError(SafefiltError, ValueError):
    """A config, built-in id, seed, path count or override is refused."""


_KNOBS = ("dt", "T", "seed", "paths")


def _merged(base, overrides):
    """base, then overrides, skipping None values; a key other than dt,
    T, seed or paths is a ConfigError."""
    merged = {}
    for key, val in [*base.items(), *(overrides or {}).items()]:
        if key not in _KNOBS:
            raise ConfigError("unknown override %r (dt, T, seed, paths)"
                              % key)
        if val is not None:
            merged[key] = val
    return merged


def _sim_config(base, overrides):
    """SimConfig(**_merged(base, overrides)), whose ValueError (dt <= 0,
    a partial last step, a fractional seed, ...) is a ConfigError."""
    try:
        return SimConfig(**_merged(base, overrides))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def builtin_config(name, overrides=None):
    if name not in BUILTINS:
        raise ConfigError("unknown scenario %r (known: %s)"
                          % (name, ", ".join(sorted(BUILTINS))))
    return _sim_config(BUILTINS[name].defaults, overrides)


def run_builtin(name, overrides=None, out_dir=None):
    cfg = builtin_config(name, overrides)
    return _write(BUILTINS[name].runner(cfg), out_dir, name)


# ---------------------------------------------------------------------------
# flat config files
# ---------------------------------------------------------------------------

def parse_config(path):
    """key = value lines; '#' comments; duplicate keys rejected."""
    entries = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value, got %r"
                              % (i, line))
        key, val = (s.strip() for s in line.split("=", 1))
        if not key or not val:
            raise ConfigError("line %d: empty key or value" % i)
        if key in entries:
            raise ConfigError("line %d: duplicate key %r" % (i, key))
        entries[key] = (val, i)
    return entries


def _take_float(entries, key, default=None):
    if key not in entries:
        if default is None:
            raise ConfigError("missing required key %r" % key)
        return default
    val, line = entries.pop(key)
    try:
        return float(val)
    except ValueError:
        raise ConfigError("line %d: %s must be a number, got %r"
                          % (line, key, val))


def _take_int(entries, key):
    """A whole number: an integer literal (exact beyond 2**53), or a
    finite, integral float literal such as 1e3; 1.5, nan and inf are
    refused. None when the key is absent."""
    if key not in entries:
        return None
    val, line = entries[key]
    num = _take_float(entries, key)
    try:
        return int(val)
    except ValueError:
        if num.is_integer():
            return int(num)
    raise ConfigError("line %d: %s must be a whole number, got %r"
                      % (line, key, val))


def _take_str(entries, key, default=None):
    if key not in entries:
        if default is None:
            raise ConfigError("missing required key %r" % key)
        return default
    return entries.pop(key)[0]


def _parse_d(text, line):
    parts = text.split(":")
    tag = parts[0]
    try:
        args = [float(p) for p in parts[1:]]
    except ValueError:
        raise ConfigError("line %d: bad disturbance %r" % (line, text))
    if tag == "none" and not args:
        return None
    if tag == "const" and len(args) == 1:
        return lambda x, t: args[0]
    if tag == "sin" and len(args) in (1, 2):
        amp = args[0]
        freq = args[1] if len(args) == 2 else 1.0
        return lambda x, t: amp * math.sin(freq * t)
    raise ConfigError("line %d: unknown disturbance %r" % (line, text))


def run_config(path, overrides=None, out_dir=None):
    entries = parse_config(path)
    if "scenario" in entries:
        name, line = entries.pop("scenario")
        if name not in BUILTINS:
            raise ConfigError("line %d: unknown scenario %r (known: %s)"
                              % (line, name, ", ".join(sorted(BUILTINS))))
        values = {key: _take_int(entries, key) if key in ("seed", "paths")
                  else _take_float(entries, key)
                  for key in _KNOBS if key in entries}
        if entries:
            key, (_, line) = next(iter(entries.items()))
            raise ConfigError("line %d: unknown key %r for a scenario "
                              "config" % (line, key))
        return run_builtin(name, _merged(values, overrides), out_dir)
    return _write(_run_custom(entries, overrides), out_dir, "custom")


def _gain(text):
    """The beta of a '<name>:<beta>' value, through the filters' gain gate
    (beta >= 2)."""
    try:
        beta = float(text.split(":", 1)[1])
    except ValueError:
        raise ConfigError("bad gain in %r" % text)
    try:
        _check_gains(beta)
    except ValueError as exc:
        raise ConfigError("bad gain in %r: %s" % (text, exc))
    return beta


def _run_custom(entries, overrides):
    sys_name = _take_str(entries, "system")
    if sys_name == "integrator":
        sys = integrator_system()
    elif sys_name == "disturbed-gain":
        sys = disturbed_gain_system()
    else:
        raise ConfigError("unknown system %r (integrator, disturbed-gain)"
                          % sys_name)
    x0 = _take_float(entries, "x0")
    u0_text = _take_str(entries, "u0")
    if not u0_text.startswith("const:"):
        raise ConfigError("u0 must be const:<v>, got %r" % u0_text)
    try:
        u0_val = float(u0_text.split(":", 1)[1])
    except ValueError:
        raise ConfigError("bad u0 value in %r" % u0_text)
    try:
        alpha = extended_k_from_name(_take_str(entries, "alpha"))
        rho = k_from_name(_take_str(entries, "rho", "linear:1"))
    except ValueError as exc:
        raise ConfigError(str(exc))
    filt_text = _take_str(entries, "filter")
    d_line = entries["d"][1] if "d" in entries else 0
    d_text = _take_str(entries, "d", "none")
    dt = _take_float(entries, "dt", 1e-3)
    T = _take_float(entries, "T", 10.0)
    seed = _take_int(entries, "seed")
    cost_text = _take_str(entries, "cost", "none")
    if entries:
        key, (_, line) = next(iter(entries.items()))
        raise ConfigError("line %d: unknown key %r" % (line, key))
    cost_beta = None
    if cost_text != "none":
        if not cost_text.startswith("qp-exact:"):
            raise ConfigError("unknown cost %r (none, qp-exact:<beta>)"
                              % cost_text)
        cost_beta = _gain(cost_text)

    cfg = _sim_config({"dt": dt, "T": T, "seed": seed}, overrides)

    bf = neg_state_barrier()
    spec = DssfCbfSpec(sys, bf, rho, alpha,
                       lambda x, t: np.array([u0_val]))
    cost = (None if cost_beta is None
            else CostSpec("qp-exact", spec=spec, beta_gain=cost_beta))
    rules = {"qp": MIN_NORM, "sontag": SONTAG, "half-sontag": HALF_SONTAG}
    if filt_text in rules:  # the unit-gain filters
        rule, beta = rules[filt_text], 1.0
    elif filt_text.startswith("io-qp:"):
        rule, beta = MIN_NORM, _gain(filt_text)
    else:
        raise ConfigError("unknown filter %r (qp, sontag, half-sontag, "
                          "io-qp:<beta>)" % filt_text)

    def control(x, t):
        u0v, omega, a = _dssf_at(spec, x, t)
        return _filtered(u0v, beta, omega, a, rule)

    d_fn = _parse_d(d_text, d_line)
    d_cb = None if d_fn is None else (lambda x, t: np.array([d_fn(x, t)]))
    traj = integrate_ode(sys, bf, control, spec.u0, np.array([x0]),
                         d_cb, cfg)
    res = ScenarioResult({"system": sys_name, "filter": filt_text,
                          "h_min": float(np.nanmin(traj.h_values))},
                         {"trajectory.csv": traj})
    res.put("dssf_min_margin", _dssf_min(traj, alpha, rho), lo=-DSSF_PASS_TOL)
    if traj.escape_time is not None:
        res.report["escape_time"] = traj.escape_time
    if cost is not None:
        cv = _cost(traj, cost)
        res.report["cost_total"] = cv.total
        res.report["cost_invariance_max"] = (math.nan if cv.infinite
                                             else cv.invariance)
        traj.running_cost = cv.running
    return res
