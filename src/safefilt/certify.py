"""Cost functionals and certificates evaluated on recorded trajectories.

Every cost here is the one its filter provably optimizes, so the
numbers double as correctness checks: the running+terminal sum is
invariant along optimal play, perturbing the control moves the total
the right way, and the disturbance-to-state bound holds sample by
sample.

evaluate_cost makes one pass over the record: the total, the running
integral and the per-sample terminal term all come from it, and the
invariance (CostValue.invariance) is read off that same pass. The pass
is one array pass: each kind's evaluator hands the whole record, states
(N, n) and nominal values (N, m2), to the margin and weight functions
of its filter module, which take stacks (one systems.first_order_lie_rows
call on the record, lie_data_rows for the two Ito kinds, and one
Cholesky for all the weights) and return one value per sample, equal
bit for bit to their single-state values.

Every integral here is the trapezoid rule of trapezoid and
cumulative_trapezoid: numpy evaluating scipy's formula term for term, so
the same bits without loading scipy.

Weights that blow up off the constraint set never enter float
arithmetic. A deviation paired with an infinite weight contributes
zero when the deviation is (numerically) zero and otherwise makes the
whole cost infinite with the sign the term carries in that cost; the
running integral is that infinity from the first interval that touches
such a sample on.

Cost kinds ("selector" strings accepted from configs). The five with
a factor c share one evaluator, _min_norm: integrand c (l - R|u - u0|^2)
with (R, l) of filters.rule_certificate under the kind's correction
rule, and terminal -2 beta direction h. The intro kinds are its
normalised instances on the introduction plant dx = u dt, h = -x, their
data read off the record: c = -1/(2 beta) and h/(2 beta) in the
terminal, so the value is x0.

    intro-min                     min-norm rule, beta = 2, c = -1/4
    intro-sontag                  Sontag rule, beta = 1, c = -1/2
    disturbance-game              general weights, terminal 2*beta*h
    qp-weighted                   min-norm displayed weights (drifts)
    qp-exact                      disturbance-free certificate, c = 1
    reciprocal-min                h = 1/B, c = -h^2 (minimized mirror)
    stochastic-value              Ito value, E J = 2*beta*h(x0)
    noise-game                    covariance-adversarial variant
    projection-min                estimate updates, c = -1
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .comparison import decay_tube, elementwise
from .filters import (MIN_NORM, SONTAG, _check_gains, game_weights, margin,
                      min_norm_weights, rule_certificate)
from .projection import _projection_min_data
from .reciprocal import _reciprocal_min_data
from .sim import _ode_rows
from .stochastic import nssf_weights, stoch_weights
from .systems import (_as_state, call_rows, first_order_lie_rows, row_dot,
                      row_norm, vecmat)

DSSF_PASS_TOL = 1e-4        # disturbance-to-state margin may dip this far
PROBE_TOL = 1e-6            # optimality probes must not beat J_opt by more
PAIR_TOL = 1e-12            # deviation norm counted as zero against inf


def _trapezoids(y, x):
    """The trapezoid area of each interval of y sampled at x."""
    return np.diff(x) * (y[1:] + y[:-1]) / 2.0


def trapezoid(y, x):
    """Trapezoid-rule integral of y over the grid x, scipy's formula
    term for term (so the same bits); 0.0 for one sample."""
    return _trapezoids(y, x).sum()


def cumulative_trapezoid(y, x):
    """Running trapezoid integral of y over x, one value per sample and
    0.0 at the first: scipy's cumulative_trapezoid(y, x, initial=0.0)."""
    return np.concatenate(([0.0], np.cumsum(_trapezoids(y, x))))


@dataclass(frozen=True)
class CostSpec:
    """A cost kind and its data; cov is noise-game's covariance schedule.
    beta_gain and lam end up the gains the cost uses, None if unread: the
    spec's where it carries them, else as given or 2.0. A conflicting or
    unread gain, a gain the cost reads itself that fails the filters'
    gate (beta >= 2, lam in (0, 2]), and a missing spec are ValueErrors."""
    kind: str
    spec: Optional[object] = None
    beta_gain: Optional[float] = None
    lam: Optional[float] = None
    cov: Optional[object] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("unknown cost kind %r (known: %s)"
                             % (self.kind, ", ".join(COST_KINDS)))
        gains = _KINDS[self.kind][2:]
        if self.spec is None and gains != (None, None):
            raise ValueError("%s cost needs its spec" % self.kind)
        own = []
        for field, use in zip(("beta_gain", "lam"), gains):
            given = getattr(self, field)
            if use == "spec":
                use = getattr(self.spec, field)
            elif use is not None:
                own.append(field)
                if given is not None:
                    use = given
            if given is not None and given != use:
                raise ValueError("%s cost uses %s = %r, got %r"
                                 % (self.kind, field, use, given))
            object.__setattr__(self, field, use)
        if own:
            _check_gains(self.beta_gain,
                         lam=self.lam if "lam" in own else None)
        if self.kind == "noise-game" and self.cov is None:
            raise ValueError("noise-game needs the covariance schedule")


@dataclass
class CostValue:
    total: float
    infinite: bool
    running: np.ndarray
    terminal: np.ndarray      # terminal term at each sample

    @property
    def invariance(self):
        """Max over samples of |terminal_k + running_k - terminal_0|.

        Zero (to integration accuracy) exactly when the recorded loop
        plays the optimal pair of the cost.
        """
        if self.infinite:
            raise ValueError("invariance undefined with infinite samples")
        return float(np.max(np.abs(self.terminal + self.running
                                   - self.terminal[0])))


def _dev_sq(traj):
    d = traj.controls - traj.nominal
    return np.einsum("ij,ij->i", d, d)


def _paired(weight, dev_sq):
    """(weight * dev_sq, inf flags) per sample of a stacked Weight: an
    infinite weight pairs with a numerically zero deviation as 0 and
    flags anything larger."""
    inf = weight.infinite
    return (np.multiply(weight.value, dev_sq, out=np.zeros(dev_sq.shape),
                        where=~inf),
            inf & (dev_sq > PAIR_TOL ** 2))


def _quad(dev, R):
    """dev_k . R_k dev_k for each row of dev and its (m, m) weight R_k."""
    return row_dot(vecmat(dev, R), dev)


def _finite(vals, terminal):
    """The terms of a cost kind with no infinite weights."""
    none = np.zeros(vals.size, dtype=bool)
    return vals, none, none, terminal


def _disturbance_game_terms(traj, cost):
    iospec = cost.spec
    beta, lam = cost.beta_gain, cost.lam
    R2, l = game_weights(iospec, traj.states, traj.nominal)
    pen = beta * lam * elementwise(iospec.gamma.gamma,
                                   row_norm(traj.disturbances) / lam)
    return _finite(l - _quad(traj.controls - traj.nominal, R2) + pen,
                   2.0 * beta * traj.h_values)


def _qp_weighted_terms(traj, cost):
    beta, lam = cost.beta_gain, cost.lam
    R1, R2, l = min_norm_weights(cost.spec, traj.states, traj.nominal,
                                 beta, lam)
    ctrl, neg_inf = _paired(R2, _dev_sq(traj))
    dist, pos_inf = _paired(R1, row_dot(traj.disturbances,
                                        traj.disturbances))
    return (l - ctrl + (beta / lam) * dist, pos_inf, neg_inf,
            2.0 * beta * traj.h_values)


def _qp_exact_data(spec, x, u0v):
    """qp-exact's certificate data (omega, Lg2h, alpha(h), h, c = 1),
    stacked over the rows of x and u0v."""
    ld = first_order_lie_rows(spec.sys, spec.bf, x)
    alpha_h = elementwise(spec.alpha, ld.h_val)
    return margin(ld.Lfh, ld.Lg2h, u0v, alpha_h) + (alpha_h, ld.h_val, 1.0)


def _min_norm(data, rule=MIN_NORM, beta=None):
    """The evaluator of a cost kind certified by filters.rule_certificate
    under rule, whose data(spec, x, u0v) is (omega, a, alpha(h), h, c)
    stacked over the samples: integrand c (l - R|u - u0|^2), terminal
    -2 beta direction h; beta is the kind's own fixed gain, or the
    CostSpec's where None."""
    def terms(traj, cost):
        gain = cost.beta_gain if beta is None else beta
        omega, a, alpha_h, h, c = data(cost.spec, traj.states, traj.nominal)
        R, l = rule_certificate(rule, gain, omega, a, alpha_h)
        ctrl, inf = _paired(R, _dev_sq(traj))
        maximized = np.asarray(c > 0.0)
        return (c * l - c * ctrl,  # c l: the kind's own penalty, exactly
                inf & ~maximized, inf & maximized,
                -2.0 * gain * COST_DIRECTION[cost.kind] * h)
    return terms


def _intro(rule, beta):
    """An intro kind: the rule instance of _min_norm at the fixed gain
    beta on the introduction plant dx = u dt with h = -x (Lfh = 0,
    Lg2h = -1, alpha(h) = h), its data read off the record's states and
    nominal values. c = -1/(2 beta) and the terminal's h/(2 beta)
    normalise the value to x0; both scales are powers of two, so they
    are exact (above the subnormals)."""
    s = 0.5 / beta

    def data(spec, x, u0v):
        h = -x[:, 0]
        return (margin(-0.0, np.full(u0v.shape, -1.0), u0v, h)
                + (h, s * h, -s))
    return _min_norm(data, rule, beta)


def _ito_value_terms(traj, cost):
    """stochastic-value, and noise-game: the same plus the covariance
    penalty of the recorded schedule."""
    spec, beta = cost.spec, cost.beta_gain
    adversary = cost.kind == "noise-game"
    weights = nssf_weights if adversary else stoch_weights
    R2, l = weights(spec, traj.states, traj.nominal)
    quad = _quad(traj.controls - traj.nominal, R2)
    vals = l - beta * beta * elementwise(
        lambda q: spec.gamma2.gamma((2.0 / beta) * math.sqrt(max(0.0, q))),
        quad)
    if adversary:
        S = np.array([cost.cov.at(t) for t in traj.times])
        SS = np.matmul(S, np.swapaxes(S, 1, 2))
        frob = row_norm(SS.reshape(SS.shape[0], -1))
        vals = vals + beta * cost.lam * elementwise(spec.gamma1.gamma,
                                                    frob / cost.lam)
    return _finite(vals, 2.0 * beta * traj.h_values)


# kind: (direction, evaluator, beta_gain, lam). direction is +1 where the
# filter minimizes the cost, -1 where it maximizes it; each gain is the
# default the kind reads, "spec" where its spec carries it, None if unread;
# the intro kinds read no gain and no spec: their evaluators fix the gain.
_KINDS = {
    "intro-min": (+1, _intro(MIN_NORM, 2.0), None, None),
    "intro-sontag": (+1, _intro(SONTAG, 1.0), None, None),
    "disturbance-game": (-1, _disturbance_game_terms, "spec", "spec"),
    "qp-weighted": (-1, _qp_weighted_terms, 2.0, 2.0),
    "qp-exact": (-1, _min_norm(_qp_exact_data), 2.0, None),
    "reciprocal-min": (+1, _min_norm(_reciprocal_min_data), "spec", None),
    "stochastic-value": (-1, _ito_value_terms, "spec", None),
    "noise-game": (-1, _ito_value_terms, "spec", "spec"),
    "projection-min": (+1, _min_norm(_projection_min_data), "spec", None),
}
COST_KINDS = tuple(_KINDS)
COST_DIRECTION = {kind: row[0] for kind, row in _KINDS.items()}


def _refuse_escaped(traj, what):
    """ValueError on an escaped record: its last sample is a tombstone."""
    if traj.escape_time is not None:
        raise ValueError("%s undefined on an escaped record" % what)


def evaluate_cost(traj, cost):
    """Trapezoid of the integrand plus the terminal at the last sample.

    A single-sample record is terminal-only. Tagged infinities make the
    total +-inf (by the sign the term carries); conflicting signs are an
    error, not a number. The returned value also carries the per-sample
    terminal term, so .invariance needs no second pass.
    """
    _refuse_escaped(traj, "cost")
    vals, pos_inf, neg_inf, terms = _KINDS[cost.kind][1](traj, cost)
    running = cumulative_trapezoid(vals, traj.times)
    has_pos = bool(np.any(pos_inf))
    has_neg = bool(np.any(neg_inf))
    if has_pos and has_neg:
        raise ValueError("cost has infinite terms of both signs")
    if has_pos or has_neg:
        inf = math.inf if has_pos else -math.inf
        # infinite from the first interval that touches a flagged sample
        running[max(1, int(np.argmax(pos_inf | neg_inf))):] = inf
        return CostValue(inf, True, running, terms)
    return CostValue(float(running[-1] + terms[-1]), False, running, terms)


def cost_invariance_check(traj, cost):
    """evaluate_cost(traj, cost).invariance, for callers that want only
    the invariance."""
    return evaluate_cost(traj, cost).invariance


# ---------------------------------------------------------------------------
# state bounds
# ---------------------------------------------------------------------------

def _sup_gains(rho, d):
    """rho(sup_{j<=k} |d_j|) for each sample k of a disturbance history
    with one row per sample; a 1-D history holds one scalar per sample."""
    d = np.asarray(d, dtype=float)
    dn = np.abs(d) if d.ndim == 1 else np.linalg.norm(d, axis=1)
    return elementwise(rho, np.maximum.accumulate(dn))


def certify_dssf_bound(traj, alpha, rho, d_history=None):
    """Sample-wise disturbance-to-state safety margin.

        margin_k = h_k - klbound(alpha, h_0, t_k) + rho(sup_{j<=k} |d_j|)

    d_history replaces the recorded disturbances: one row, or for a 1-D
    history one scalar, per sample of the record. Returns (margins,
    min_margin, passed) with the pass line at -DSSF_PASS_TOL to absorb
    integration error.
    """
    _refuse_escaped(traj, "disturbance-to-state bound")
    h = traj.h_values
    d = traj.disturbances if d_history is None else np.asarray(d_history)
    if d.ndim not in (1, 2) or d.shape[0] != h.size:
        raise ValueError("d_history shape %s, expected (%d,) or (%d, m1)"
                         % (d.shape, h.size, h.size))
    kl = decay_tube(alpha, h[0], traj.times)
    margins = h - kl + _sup_gains(rho, d)
    mn = float(np.min(margins))
    return margins, mn, mn >= -DSSF_PASS_TOL


def ibssf_check(traj, alpha, gamma, lam):
    """Integral safety value h_T + int alpha(h) + (lam/2) int gamma(|d|/lam);
    nonnegative (within DSSF_PASS_TOL) along any filtered run."""
    _refuse_escaped(traj, "integral safety value")
    a_vals = elementwise(alpha, traj.h_values)
    dn = np.linalg.norm(traj.disturbances, axis=1)
    g_vals = elementwise(gamma.gamma, dn / lam)
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

    def __post_init__(self):
        want = COST_DIRECTION[self.cost.kind]
        if self.direction != want:
            raise ValueError("%s cost: direction must be %+d, got %r"
                             % (self.cost.kind, want, self.direction))


def standard_perturbations(T):
    return {
        "const": lambda t: 1.0,
        "flip": lambda t: 1.0 if t < 0.5 * T else -1.0,
        "slow-sine": math.sin,
        "fast-sine": lambda t: math.sin(3.0 * t),
    }


def optimality_probe(setup, cfg, perturbations=None,
                     amplitudes=(-0.2, -0.05, 0.05, 0.2)):
    """Integrate the certified loop and, with the control perturbed by
    eps*delta(t), one loop per (shape, amplitude), and demand that no
    perturbed total beats the certified one.

    Returns {"j_opt", "margins", "worst", "passed"}; each margin is
    direction * (J_pert - J_opt) and must clear -PROBE_TOL.

    The 1 + K loops run as one lockstep RK4 stack (sim's lockstep
    routine), each row bit for bit the loop integrate_ode runs alone,
    record, escape and error alike. A u_star, u0 or d_star marked
    systems.stacked is called once per stage on the live rows; any
    other is called row by row. Errors come in the order the loops
    would raise them one after another: the certified loop's failure,
    escape or infinite cost first, then the lowest perturbed loop whose
    integration fails or whose cost is undefined.
    """
    if perturbations is None:
        perturbations = standard_perturbations(cfg.T)
    u_star, m2 = setup.u_star, setup.sys.m2
    names, offsets = [], []
    deltas = list(perturbations.values())
    for shape, name in enumerate(perturbations):
        for eps in amplitudes:
            names.append("%s@%+g" % (name, eps))
            offsets.append((eps, shape))

    def stack(X, t, live):
        # row j is loop live[j]'s control at X[j]: u_star, plus
        # eps*delta(t) on the perturbed rows (loop 0 is the certified
        # one), each shape's delta(t) taken once, in the order of its rows
        U = call_rows(u_star, X, t, m2, "control")
        base = int(live[0] == 0)
        if base == len(live):
            return U
        at_t, off = {}, []
        for i in live[base:].tolist():
            eps, shape = offsets[i - 1]
            if shape not in at_t:
                at_t[shape] = deltas[shape](t)
            off.append(eps * at_t[shape])
        off = np.array(off, dtype=float)
        V = U[base:] + (off[:, None] if off.ndim == 1 else off)
        if V.shape != (len(live) - base, m2):
            # a row alone raises its loop's check of u_star + eps*delta(t)
            for u, o in zip(U[base:], off):
                _as_state(u + o, m2, "control")
            raise ValueError("perturbed control stack shape %s" % (V.shape,))
        return np.concatenate((U[:base], V)) if base else V

    trajs, failure = _ode_rows(setup.sys, setup.bf, stack, 1 + len(offsets),
                               setup.u0, setup.x0, setup.d_star, cfg)

    def cost(i):
        if failure is not None and failure[0] == i:
            raise failure[1]
        return evaluate_cost(trajs[i], setup.cost)

    j_opt = cost(0)
    if j_opt.infinite:
        raise ValueError("certified loop produced an infinite cost")
    margins = {}
    for i, name in enumerate(names, 1):
        # +-inf totals fall through the same arithmetic correctly
        margins[name] = setup.direction * (cost(i).total - j_opt.total)
    worst = min(margins.values())
    return {"j_opt": j_opt.total, "margins": margins, "worst": worst,
            "passed": worst >= -PROBE_TOL}


def mc_summary(totals):
    """(mean, standard error) of per-path cost totals; ValueError for
    fewer than two, which have no standard error."""
    totals = np.asarray(totals, dtype=float)
    if totals.size < 2:
        raise ValueError("mc_summary needs two totals, got %d" % totals.size)
    mean = float(np.mean(totals))
    se = float(np.std(totals, ddof=1) / math.sqrt(totals.size))
    return mean, se
