"""Cost functionals and certificates evaluated on recorded trajectories.

Every cost here is the one its filter provably optimizes, so the
numbers double as correctness checks: the running+terminal sum is
invariant along optimal play, perturbing the control moves the total
the right way, and the disturbance-to-state bound holds sample by
sample.

Weights that blow up off the constraint set never enter float
arithmetic. A deviation paired with an infinite weight contributes
zero when the deviation is (numerically) zero and otherwise makes the
whole cost infinite with the sign the term carries in that cost.

Cost kinds ("selector" strings accepted from configs):

    intro-min, intro-sontag       scalar introduction loops, value x0
    disturbance-game              general weights, terminal 2*beta*h
    qp-weighted                   min-norm displayed weights (drifts)
    qp-exact                      disturbance-free exact certificate
    reciprocal-min                minimized mirror, terminal -2*beta*h
    stochastic-value              Ito value, E J = 2*beta*h(x0)
    noise-game                    covariance-adversarial variant
    projection-min                estimate updates, terminal -2*beta*h
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid, trapezoid

from .comparison import kl_solve_grid
from .filters import Weight, cbf_margin, game_weights, min_norm_weights
from .projection import projection_weights
from .reciprocal import reciprocal_weights
from .sim import integrate_ode
from .stochastic import nssf_weights, stoch_weights
from .systems import lie_data

DSSF_PASS_TOL = 1e-4        # disturbance-to-state margin may dip this far
PROBE_TOL = 1e-6            # optimality probes must not beat J_opt by more
PAIR_TOL = 1e-12            # deviation norm counted as zero against inf

COST_KINDS = ("intro-min", "intro-sontag", "disturbance-game",
              "qp-weighted", "qp-exact", "reciprocal-min",
              "stochastic-value", "noise-game", "projection-min")

# +1: filter minimizes the cost, -1: filter maximizes it
COST_DIRECTION = {
    "intro-min": +1, "intro-sontag": +1,
    "disturbance-game": -1, "qp-weighted": -1, "qp-exact": -1,
    "stochastic-value": -1, "noise-game": -1,
    "reciprocal-min": +1, "projection-min": +1,
}


@dataclass(frozen=True)
class CostSpec:
    kind: str
    spec: Optional[object] = None
    beta_gain: float = 2.0
    lam: float = 2.0
    cov: Optional[object] = None

    def __post_init__(self):
        if self.kind not in COST_KINDS:
            raise ValueError("unknown cost kind %r (known: %s)"
                             % (self.kind, ", ".join(COST_KINDS)))


@dataclass
class CostValue:
    total: float
    infinite: bool
    running: np.ndarray


def _dev_sq(traj):
    d = traj.controls - traj.nominal
    return np.einsum("ij,ij->i", d, d)


def _intro_min_terms(traj):
    x = traj.states[:, 0]
    u = traj.controls[:, 0]
    u0 = traj.nominal[:, 0]
    m = np.maximum(0.0, u0 + x)
    num = (u - u0) ** 2
    vals = np.maximum(x, -u0)
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = num / (4.0 * m)
    zero_m = m == 0.0
    paired = zero_m & (num <= PAIR_TOL ** 2)
    pos_inf = zero_m & ~paired
    quot[zero_m] = 0.0
    vals = vals + quot
    return vals, pos_inf, np.zeros_like(pos_inf), x.copy()


def _intro_sontag_terms(traj):
    x = traj.states[:, 0]
    u = traj.controls[:, 0]
    u0 = traj.nominal[:, 0]
    Q = np.hypot(u0 + x, 1.0)
    vals = 0.5 * (-u0 + x + Q) + (u - u0) ** 2 / (2.0 * (u0 + x + Q))
    none = np.zeros(x.size, dtype=bool)
    return vals, none, none.copy(), x.copy()


def _paired(weight, dev_sq):
    """(weight * dev_sq, inf flag): an infinite Weight pairs with a
    numerically zero deviation as 0 and flags anything larger."""
    if weight.infinite:
        return 0.0, dev_sq > PAIR_TOL ** 2
    return float(weight) * dev_sq, False


def _per_sample(traj, term):
    """(vals, pos_inf, neg_inf) from term(k) -> (value, +inf, -inf)."""
    vals, pos_inf, neg_inf = zip(*(term(k) for k in range(traj.times.size)))
    return (np.array(vals, dtype=float), np.array(pos_inf, dtype=bool),
            np.array(neg_inf, dtype=bool))


def _disturbance_game_terms(traj, cost):
    iospec = cost.spec
    beta, lam = iospec.beta_gain, iospec.lam

    def term(k):
        R2, l = game_weights(iospec, traj.states[k], traj.nominal[k])
        dev = traj.controls[k] - traj.nominal[k]
        dnorm = float(np.linalg.norm(traj.disturbances[k]))
        pen = beta * lam * iospec.gamma.gamma(dnorm / lam)
        return l - float(dev @ R2 @ dev) + pen, False, False
    return _per_sample(traj, term) + (2.0 * beta * traj.h_values,)


def _qp_weighted_terms(traj, cost):
    spec = cost.spec
    beta, lam = cost.beta_gain, cost.lam
    dev_sq = _dev_sq(traj)

    def term(k):
        R1, R2, l = min_norm_weights(spec, traj.states[k], traj.nominal[k],
                                     beta, lam)
        ctrl, neg_inf = _paired(R2, dev_sq[k])
        dist, pos_inf = _paired(R1, float(traj.disturbances[k]
                                          @ traj.disturbances[k]))
        return l - ctrl + (beta / lam) * dist, pos_inf, neg_inf
    return _per_sample(traj, term) + (2.0 * beta * traj.h_values,)


def _qp_exact_terms(traj, cost):
    spec = cost.spec
    beta = cost.beta_gain
    dev_sq = _dev_sq(traj)

    def term(k):
        ld = lie_data(spec.sys, spec.bf, traj.states[k])
        omega, a = cbf_margin(spec, ld, traj.nominal[k])
        ctrl, neg_inf = _paired(Weight.ratio(float(a @ a), max(0.0, -omega)),
                                dev_sq[k])
        return (2.0 * beta * spec.alpha(ld.h_val)
                + beta * min((beta - 2.0) * omega, -2.0 * omega)
                - ctrl), False, neg_inf
    return _per_sample(traj, term) + (2.0 * beta * traj.h_values,)


def _reciprocal_min_terms(traj, cost):
    spec = cost.spec
    beta = spec.beta_gain
    dev_sq = _dev_sq(traj)
    h = np.zeros(traj.times.size)

    def term(k):
        R, lbar, Bv = reciprocal_weights(spec, traj.states[k],
                                         traj.nominal[k])
        h[k] = 1.0 / Bv
        ctrl, pos_inf = _paired(R, dev_sq[k])
        return lbar + h[k] * h[k] * ctrl, pos_inf, False
    return _per_sample(traj, term) + (-2.0 * beta * h,)


def _ito_value_terms(traj, cost):
    """stochastic-value, and noise-game: the same plus the covariance
    penalty of the recorded schedule."""
    spec = cost.spec
    beta = spec.beta_gain
    adversary = cost.kind == "noise-game"
    if adversary and cost.cov is None:
        raise ValueError("noise-game needs the covariance schedule")
    weights = nssf_weights if adversary else stoch_weights

    def term(k):
        R2, l = weights(spec, traj.states[k], traj.nominal[k])
        dev = traj.controls[k] - traj.nominal[k]
        quad = float(dev @ R2 @ dev)
        val = l - beta * beta * spec.gamma2.gamma(
            (2.0 / beta) * math.sqrt(max(0.0, quad)))
        if adversary:
            S = cost.cov.at(traj.times[k])
            frob = float(np.linalg.norm(S @ S.T, "fro"))
            val += beta * spec.lam * spec.gamma1.gamma(frob / spec.lam)
        return val, False, False
    return _per_sample(traj, term) + (2.0 * beta * traj.h_values,)


def _projection_min_terms(traj, cost):
    spec = cost.spec
    beta = spec.beta_gain
    dev_sq = _dev_sq(traj)

    def term(k):
        R, l = projection_weights(spec, traj.states[k], traj.nominal[k])
        ctrl, pos_inf = _paired(R, dev_sq[k])
        return l + ctrl, pos_inf, False
    return _per_sample(traj, term) + (-2.0 * beta * traj.h_values,)


_EVALUATORS = {
    "intro-min": lambda traj, cost: _intro_min_terms(traj),
    "intro-sontag": lambda traj, cost: _intro_sontag_terms(traj),
    "disturbance-game": _disturbance_game_terms,
    "qp-weighted": _qp_weighted_terms,
    "qp-exact": _qp_exact_terms,
    "reciprocal-min": _reciprocal_min_terms,
    "stochastic-value": _ito_value_terms,
    "noise-game": _ito_value_terms,
    "projection-min": _projection_min_terms,
}


def _terms(traj, cost):
    if traj.escape_time is not None:
        raise ValueError("cost undefined on an escaped record")
    return _EVALUATORS[cost.kind](traj, cost)


def evaluate_cost(traj, cost):
    """Trapezoid of the integrand plus the terminal at the last sample.

    A single-sample record is terminal-only. Tagged infinities make the
    total +-inf (by the sign the term carries); conflicting signs are an
    error, not a number.
    """
    vals, pos_inf, neg_inf, terms = _terms(traj, cost)
    if vals.size > 1:
        running = cumulative_trapezoid(vals, traj.times, initial=0.0)
    else:
        running = np.zeros(1)
    has_pos = bool(np.any(pos_inf))
    has_neg = bool(np.any(neg_inf))
    if has_pos and has_neg:
        raise ValueError("cost has infinite terms of both signs")
    if has_pos or has_neg:
        return CostValue(math.inf if has_pos else -math.inf, True, running)
    return CostValue(float(running[-1] + terms[-1]), False, running)


def cost_invariance_check(traj, cost):
    """Max over samples of |terminal_k + running_k - terminal_0|.

    Zero (to integration accuracy) exactly when the recorded loop plays
    the optimal pair of the cost.
    """
    vals, pos_inf, neg_inf, terms = _terms(traj, cost)
    if np.any(pos_inf) or np.any(neg_inf):
        raise ValueError("invariance undefined with infinite samples")
    running = cumulative_trapezoid(vals, traj.times, initial=0.0)
    return float(np.max(np.abs(terms + running - terms[0])))


# ---------------------------------------------------------------------------
# state bounds
# ---------------------------------------------------------------------------

def certify_dssf_bound(traj, alpha, rho, d_history=None):
    """Sample-wise disturbance-to-state safety margin.

        margin_k = h_k - klbound(alpha, h_0, t_k) + rho(sup_{j<=k} |d_j|)

    Returns (margins, min_margin, passed) with the pass line at
    -DSSF_PASS_TOL to absorb integration error.
    """
    h = traj.h_values
    kl = kl_solve_grid(alpha, h[0], traj.times)
    d = traj.disturbances if d_history is None else np.asarray(d_history)
    dn = np.linalg.norm(np.atleast_2d(d), axis=1)
    sup = np.maximum.accumulate(dn)
    gains = np.array([rho(v) for v in sup])
    margins = h - kl + gains
    mn = float(np.min(margins))
    return margins, mn, mn >= -DSSF_PASS_TOL


def ibssf_check(traj, alpha, gamma, lam):
    """Integral safety value h_T + int alpha(h) + (lam/2) int gamma(|d|/lam);
    nonnegative (within DSSF_PASS_TOL) along any filtered run."""
    a_vals = np.array([alpha(v) for v in traj.h_values])
    dn = np.linalg.norm(traj.disturbances, axis=1)
    g_vals = np.array([gamma.gamma(v / lam) for v in dn])
    ia = float(trapezoid(a_vals, traj.times))
    ig = float(trapezoid(g_vals, traj.times))
    value = float(traj.h_values[-1]) + ia + 0.5 * lam * ig
    return value, value >= -DSSF_PASS_TOL


# ---------------------------------------------------------------------------
# optimality probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeSetup:
    sys: object
    bf: object
    u_star: object            # (x, t) -> (m2,), the certified policy
    u0: object                # (x, t) -> (m2,), recorded as nominal
    d_star: Optional[object]  # (x, t) -> (m1,), worst-case feedback
    x0: object
    cost: CostSpec
    direction: int            # +1 minimized, -1 maximized


def standard_perturbations(T):
    return {
        "const": lambda t: 1.0,
        "flip": lambda t: 1.0 if t < 0.5 * T else -1.0,
        "slow-sine": math.sin,
        "fast-sine": lambda t: math.sin(3.0 * t),
    }


def optimality_probe(setup, cfg, perturbations=None,
                     amplitudes=(-0.2, -0.05, 0.05, 0.2)):
    """Integrate the certified loop, then re-integrate with the control
    perturbed by eps*delta(t), and demand the total never beats it.

    Returns {"j_opt", "margins", "worst", "passed"}; each margin is
    direction * (J_pert - J_opt) and must clear -PROBE_TOL.
    """
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
                u = np.atleast_1d(np.asarray(setup.u_star(x, t), dtype=float))
                return u + _e * _d(t)
            traj = integrate_ode(setup.sys, setup.bf, control, setup.u0,
                                 setup.x0, setup.d_star, cfg)
            j = evaluate_cost(traj, setup.cost)
            # +-inf totals fall through the same arithmetic correctly
            margins["%s@%+g" % (name, eps)] = (
                setup.direction * (j.total - j_opt.total))
    worst = min(margins.values())
    return {"j_opt": j_opt.total, "margins": margins, "worst": worst,
            "passed": worst >= -PROBE_TOL}


def mc_summary(totals):
    """(mean, standard error) of per-path cost totals."""
    totals = np.asarray(totals, dtype=float)
    mean = float(np.mean(totals))
    se = float(np.std(totals, ddof=1) / math.sqrt(totals.size))
    return mean, se
