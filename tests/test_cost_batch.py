"""The array cost pass against a per-sample reference.

evaluate_cost hands a whole record to the margin and weight functions
of its filter module as stacks. The reference here is the loop the
cost pass used to be: one call of the single-state function per sample
(game_weights, qp_weights, min_norm_certificate on the single-state
margins, reciprocal_weights, stoch_weights, nssf_weights), the pairing
rule applied sample by sample, then the trapezoid. On random records of
seven plants both give the same running integral, terminal column and
total: bit for bit where state and control are scalars (n = m2 = 1),
and within ULP_BOUND ulps of the integrated term magnitudes on the
planar and projection plants (n = m2 = 2), where the evaluator's
squared deviation sums its two products in another order. A record
whose model, weight or class-K function fails at one sample fails in
both with the same error. The intro kinds are instances of
filters.rule_certificate (min-norm and Sontag) on margins read off the
record, not of a per-sample function here; test_cost_pass and
test_rule_certificate cover them.
"""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

import safefilt.certify
from safefilt.certify import PAIR_TOL, CostSpec, evaluate_cost
from safefilt.comparison import (DomainError, ExtendedKFunction, identity_k,
                                 linear_extended, power_pair)
from safefilt.filters import (DssfCbfSpec, InverseOptimalSpec, cbf_margin,
                              game_weights, min_norm_certificate, qp_weights)
from safefilt.projection import ProjectionSpec, projection_margin
from safefilt.reciprocal import RcbfSpec, RcbfViolation, reciprocal_weights
from safefilt.scenarios import (_ex3_pieces, disturbed_gain_system, ex5_spec,
                                ex6_spec, neg_state_barrier,
                                unit_ball_barrier)
from safefilt.sim import Trajectory
from safefilt.stochastic import (CovarianceSchedule, nssf_weights,
                                 stoch_weights)
from safefilt.systems import (BarrierFunction, ControlAffineSystem,
                              ModelBlowup, lie_data, lie_data_rows,
                              scalar_system)

N = 60
ULP_BOUND = 4
G_PLANAR = np.array([[1.0, 0.2], [0.0, 1.0]])


def paired(R, dev_sq):
    """(R dev_sq, flagged) of one sample."""
    if R.infinite:
        return 0.0, dev_sq > PAIR_TOL ** 2
    return float(R) * dev_sq, False


# each reference gives, per sample, (value, +inf flag, -inf flag,
# magnitude), magnitude the sum of |term| the value is made of, and the
# terminal column

def ref_disturbance_game(traj, cost):
    spec, beta, lam = cost.spec, cost.beta_gain, cost.lam
    out = []
    for x, u, u0v, d in zip(traj.states, traj.controls, traj.nominal,
                            traj.disturbances):
        R2, l = game_weights(spec, x, u0v)
        dev = u - u0v
        quad = float(dev @ R2 @ dev)
        pen = beta * lam * spec.gamma.gamma(
            float(np.linalg.norm(d)) / lam)
        out.append((l - quad + pen, False, False,
                    abs(l) + abs(quad) + abs(pen)))
    return out, 2.0 * beta * traj.h_values


def ref_qp_weighted(traj, cost):
    beta, lam = cost.beta_gain, cost.lam
    out = []
    for t, x, u, u0v, d in zip(traj.times, traj.states, traj.controls,
                               traj.nominal, traj.disturbances):
        R1, R2, l = qp_weights(cost.spec, x, t, beta, lam)
        dev = u - u0v
        ctrl, neg = paired(R2, float(dev @ dev))
        dist, pos = paired(R1, float(d @ d))
        out.append((l - ctrl + (beta / lam) * dist, pos, neg,
                    abs(l) + abs(ctrl) + abs((beta / lam) * dist)))
    return out, 2.0 * beta * traj.h_values


def min_norm_reference(weights):
    """A min-norm kind from weights(spec, beta, x, u0v) -> (R, c l, h, c):
    integrand c (l - R|u - u0|^2), terminal 2 beta sign(c) h."""
    def ref(traj, cost):
        out, h = [], []
        for x, u, u0v in zip(traj.states, traj.controls, traj.nominal):
            R, cl, hk, c = weights(cost.spec, cost.beta_gain, x, u0v)
            dev = u - u0v
            ctrl, inf = paired(R, float(dev @ dev))
            out.append((cl - c * ctrl, inf and c < 0.0, inf and c > 0.0,
                        abs(cl) + abs(c * ctrl)))
            h.append(hk)
        sign = math.copysign(1.0, c)
        return out, 2.0 * cost.beta_gain * sign * np.array(h)
    return ref


def qp_exact_weights(spec, beta, x, u0v):
    ld = lie_data(spec.sys, spec.bf, x)
    omega, a = cbf_margin(spec, ld, u0v)
    R, l = min_norm_certificate(beta, omega, a, spec.alpha(ld.h_val))
    return R, 1.0 * l, ld.h_val, 1.0


def reciprocal_min_weights(spec, beta, x, u0v):
    R, lbar, h = reciprocal_weights(spec, x, u0v)
    return R, lbar, h, -h * h


def projection_min_weights(spec, beta, theta, u0v):
    h = spec.bf.value(theta)
    R, l = min_norm_certificate(beta, *projection_margin(spec, theta, u0v),
                                spec.alpha(h))
    return R, -1.0 * l, h, -1.0


def ito_reference(weights, adversary):
    def ref(traj, cost):
        spec, beta = cost.spec, cost.beta_gain
        out = []
        for t, x, u, u0v in zip(traj.times, traj.states, traj.controls,
                                traj.nominal):
            R2, l = weights(spec, x, u0v)
            dev = u - u0v
            quad = float(dev @ R2 @ dev)
            val = l - beta * beta * spec.gamma2.gamma(
                (2.0 / beta) * math.sqrt(max(0.0, quad)))
            mag = abs(l) + abs(val - l)
            if adversary:
                S = cost.cov.at(t)
                pen = beta * cost.lam * spec.gamma1.gamma(
                    float(np.linalg.norm(S @ S.T, "fro")) / cost.lam)
                val += pen
                mag += abs(pen)
            out.append((val, False, False, mag))
        return out, 2.0 * beta * traj.h_values
    return ref


REFERENCE = {
    "disturbance-game": ref_disturbance_game,
    "qp-weighted": ref_qp_weighted,
    "qp-exact": min_norm_reference(qp_exact_weights),
    "reciprocal-min": min_norm_reference(reciprocal_min_weights),
    "projection-min": min_norm_reference(projection_min_weights),
    "stochastic-value": ito_reference(stoch_weights, False),
    "noise-game": ito_reference(nssf_weights, True),
}


def reference_cost(traj, cost):
    """(total, running, terminal, running magnitude) of the loop."""
    rows, terminal = REFERENCE[cost.kind](traj, cost)
    vals, pos, neg, mag = (np.array(col) for col in zip(*rows))
    running = cumulative_trapezoid(vals, traj.times, initial=0.0)
    scale = cumulative_trapezoid(mag, traj.times, initial=0.0)
    flagged = pos | neg
    if pos.any() and neg.any():
        raise ValueError("cost has infinite terms of both signs")
    if flagged.any():
        inf = math.inf if pos.any() else -math.inf
        running[max(1, int(np.argmax(flagged))):] = inf
        return inf, running, terminal, scale
    return float(running[-1] + terminal[-1]), running, terminal, scale


# ---------------------------------------------------------------------------
# random records
# ---------------------------------------------------------------------------

def make_record(states, nominal, controls, disturbances, h):
    n_rec = states.shape[0]
    return Trajectory(times=np.linspace(0.0, 1.0, n_rec), states=states,
                      controls=controls, nominal=nominal,
                      disturbances=disturbances, h_values=h,
                      running_cost=np.zeros(n_rec))


def ex4_spec():
    return DssfCbfSpec(disturbed_gain_system(), neg_state_barrier(),
                       identity_k(), linear_extended(1.0),
                       lambda x, t: np.array([2.0 + math.sin(3.0 * t)
                                              + x[0]]))


def planar_spec():
    sys = ControlAffineSystem(2, 0, 2, lambda x: np.array([x[1], -x[0]]),
                              None, lambda x: G_PLANAR)
    return DssfCbfSpec(sys, unit_ball_barrier(), identity_k(),
                       linear_extended(1.0),
                       lambda x, t: np.array([math.cos(2.0 * x[0]),
                                              math.sin(2.0 * x[1] + t)]))


def recip_spec():
    return RcbfSpec(scalar_system(lambda x: 0.0, None, lambda x: 1.0),
                    lambda x: -1.0 / x[0], linear_extended(1.5),
                    lambda x, t: np.array([1.0]),
                    gradB=lambda x: np.array([1.0 / x[0] ** 2]),
                    beta_gain=2.5)


def in_ball(rng, n_rec):
    r = rng.uniform(0.05, 0.99, n_rec)
    phi = rng.uniform(0.0, 2.0 * math.pi, n_rec)
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)


def case(kind, rng):
    """A random record and its cost: the plant's states, nominal values
    (the spec's u0 where a reference reads it), controls deviating at
    every sample, and disturbances."""
    if kind == "disturbance-game":
        spec = _ex3_pieces(2.5, 0.75)[3]
        cost = CostSpec(kind, spec=spec)
        x = rng.uniform(-1.5, -0.2, (N, 1))
        u0 = rng.normal(size=(N, 1))
        d = rng.normal(size=(N, 1))
        h = -x[:, 0]
    elif kind in ("qp-exact", "qp-weighted", "planar-qp-exact",
                  "planar-qp-weighted"):
        planar = kind.startswith("planar")
        kind = kind.replace("planar-", "")
        spec = planar_spec() if planar else ex4_spec()
        gains = {"beta_gain": 2.75}
        if kind == "qp-weighted":
            gains["lam"] = 1.25
        cost = CostSpec(kind, spec=spec, **gains)
        if planar:
            x = in_ball(rng, N)
            d = np.zeros((N, 0))
            h = 1.0 - np.einsum("ij,ij->i", x, x)
        else:
            x = rng.uniform(-3.0, 0.5, (N, 1))
            d = rng.normal(size=(N, 1))
            h = -x[:, 0]
        times = np.linspace(0.0, 1.0, N)
        u0 = np.array([spec.u0(xk, t) for xk, t in zip(x, times)])
    elif kind == "reciprocal-min":
        spec = recip_spec()
        cost = CostSpec(kind, spec=spec)
        x = rng.uniform(-2.0, -0.1, (N, 1))
        u0 = rng.normal(size=(N, 1))
        d = np.zeros((N, 0))
        h = -x[:, 0]
    elif kind == "projection-min":
        spec = ProjectionSpec(unit_ball_barrier(), linear_extended(1.0),
                              beta_gain=3.0)
        cost = CostSpec(kind, spec=spec)
        x = in_ball(rng, N)
        u0 = rng.normal(size=(N, 2))
        d = np.zeros((N, 0))
        h = 1.0 - np.einsum("ij,ij->i", x, x)
    elif kind == "stochastic-value":
        spec = ex5_spec(2.5)
        cost = CostSpec(kind, spec=spec)
        x = rng.uniform(-2.0, 0.5, (N, 1))
        u0 = rng.normal(size=(N, 1))
        d = rng.normal(size=(N, 1))
        h = np.log1p(-x[:, 0])
    else:
        spec = ex6_spec(beta=2.5, lam=1.5)
        cov = CovarianceSchedule(
            lambda t: np.array([[1.0 + 0.5 * math.sin(5.0 * t)]]), 1)
        cost = CostSpec(kind, spec=spec, cov=cov)
        x = rng.uniform(-1.5, 1.5, (N, 1))
        u0 = rng.normal(size=(N, 1))
        d = rng.normal(size=(N, 1))
        h = -x[:, 0] ** 3
    u = u0 + rng.normal(size=u0.shape)
    return make_record(x, u0, u, d, h), cost


CASES = ["disturbance-game", "qp-exact", "qp-weighted", "planar-qp-exact",
         "planar-qp-weighted", "reciprocal-min", "projection-min",
         "stochastic-value", "noise-game"]
SCALAR = {"disturbance-game", "qp-exact", "qp-weighted", "reciprocal-min",
          "stochastic-value", "noise-game"}


def test_every_kind_with_a_single_state_form_is_covered():
    built = {case(name, np.random.default_rng(0))[1].kind for name in CASES}
    assert built == set(REFERENCE)
    assert built | {"intro-min", "intro-sontag"} == set(
        safefilt.certify.COST_KINDS)


def assert_agree(got, want, exact):
    """The cost values agree: bit for bit, or within ULP_BOUND ulps of
    the integrated magnitudes."""
    total, running, terminal, scale = want
    assert np.array_equal(got.terminal, terminal)
    assert got.infinite == math.isinf(total)
    if exact:
        assert np.array_equal(got.running, running)
        assert got.total == total
        return
    finite = np.isfinite(running)
    assert np.array_equal(np.isfinite(got.running), finite)
    assert np.array_equal(got.running[~finite], running[~finite])
    bound = ULP_BOUND * np.spacing(scale[finite])
    assert np.all(np.abs(got.running[finite] - running[finite]) <= bound)
    if math.isinf(total):
        assert got.total == total
    else:
        assert abs(got.total - total) <= ULP_BOUND * np.spacing(
            scale[-1] + abs(terminal[-1]))


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_array_pass_matches_the_per_sample_loop(name, seed):
    rng = np.random.default_rng([seed, CASES.index(name)])
    traj, cost = case(name, rng)
    exact = name in SCALAR
    # deviations everywhere: infinite wherever a weight is
    try:
        flagged = reference_cost(traj, cost)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            evaluate_cost(traj, cost)
    else:
        assert_agree(evaluate_cost(traj, cost), flagged, exact)
    # the same record with the deviations and disturbances removed where
    # a weight is infinite: finite, every integrand value compared
    rows, _ = REFERENCE[cost.kind](traj, cost)
    inf = np.array([pos or neg for _, pos, neg, _ in rows])
    traj.controls[inf] = traj.nominal[inf]
    traj.disturbances[inf] = 0.0
    want = reference_cost(traj, cost)
    assert math.isfinite(want[0])
    assert_agree(evaluate_cost(traj, cost), want, exact)


def test_records_cover_both_branches_of_the_min_norm_weight():
    # without active and inactive samples the pairing rule goes untested
    for name in ("qp-exact", "planar-qp-exact", "reciprocal-min",
                 "projection-min"):
        traj, cost = case(name, np.random.default_rng([0, 99]))
        rows, _ = REFERENCE[cost.kind](traj, cost)
        inf = [pos or neg for _, pos, neg, _ in rows]
        assert 0 < sum(inf) < N, name


# ---------------------------------------------------------------------------
# error parity
# ---------------------------------------------------------------------------

K_BAD = 17


def faulty_ex3(fault):
    """The ex3 game whose model, weight or alpha fails at the state of
    sample K_BAD of the record below, and that record."""
    states = np.linspace(-1.4, -0.3, N)[:, None]
    bad = float(states[K_BAD, 0])
    g1 = lambda x: (math.inf if fault == "nonfinite" and x == bad
                    else 1.0 + x * x)
    g2 = lambda x: (np.ones(2) if fault == "g2-shape" and x[0] == bad
                    else np.array([[1.0]]))
    sys = ControlAffineSystem(1, 1, 1, lambda x: np.array([0.0]),
                              lambda x: np.array([[g1(float(x[0]))]]), g2)
    base = DssfCbfSpec(sys, neg_state_barrier(), identity_k(),
                       linear_extended(12.0),
                       lambda x, t: np.array([0.5]))

    def R2(x, u0v):
        return np.array([[-1.0 if fault == "R2" and x[0] == bad
                          else 1.0 + x[0] ** 2]])
    spec = InverseOptimalSpec(base, 2.0, 1.0, power_pair(2), R2=R2)
    u0 = np.full((N, 1), 0.5)
    traj = make_record(states, u0, u0 + 0.1, np.full((N, 1), 0.2),
                       -states[:, 0])
    return traj, CostSpec("disturbance-game", spec=spec)


def faulty_qp_exact():
    """qp-exact with an alpha whose domain ends between samples
    K_BAD - 1 and K_BAD of the record, h decreasing along it."""
    states = np.linspace(0.0, 1.5, N)[:, None]
    h = -states[:, 0]
    alpha = ExtendedKFunction(lambda r: r, lo=0.5 * (h[K_BAD - 1] + h[K_BAD]),
                              name="short")
    spec = DssfCbfSpec(disturbed_gain_system(), neg_state_barrier(),
                       identity_k(), alpha, lambda x, t: np.array([1.0]))
    u0 = np.ones((N, 1))
    traj = make_record(states, u0, u0, np.zeros((N, 1)), h)
    return traj, CostSpec("qp-exact", spec=spec, beta_gain=2.0)


def first_error(fn):
    with pytest.raises(Exception) as err:
        fn()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("fault,cls", [
    ("nonfinite", ModelBlowup), ("g2-shape", ValueError),
    ("R2", np.linalg.LinAlgError)])
def test_a_fault_at_one_sample_raises_the_same_error(fault, cls):
    traj, cost = faulty_ex3(fault)
    with np.errstate(invalid="ignore"):
        want = first_error(lambda: reference_cost(traj, cost))
        got = first_error(lambda: evaluate_cost(traj, cost))
    assert got == want
    assert issubclass(got[0], cls)
    if fault == "nonfinite":
        assert str(traj.states[K_BAD]) in got[1]


def test_an_alpha_domain_error_raises_the_same_error():
    traj, cost = faulty_qp_exact()
    want = first_error(lambda: reference_cost(traj, cost))
    got = first_error(lambda: evaluate_cost(traj, cost))
    assert got == want
    assert issubclass(got[0], DomainError)


def test_boundary_contact_raises_the_same_error():
    traj, cost = case("reciprocal-min", np.random.default_rng(5))
    traj.states[K_BAD] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        want = first_error(lambda: reference_cost(traj, cost))
        got = first_error(lambda: evaluate_cost(traj, cost))
    assert got == want
    assert issubclass(got[0], RcbfViolation)


# ---------------------------------------------------------------------------
# lie_data_rows
# ---------------------------------------------------------------------------

def disturbed_planar():
    sys = ControlAffineSystem(
        2, 1, 2,
        f=lambda x: np.array([x[1], -x[0] - 0.3 * x[1] ** 3]),
        g1=lambda x: np.array([[0.4], [0.2 + 0.1 * x[0]]]),
        g2=lambda x: G_PLANAR)
    return sys, unit_ball_barrier()


def fd_planar():
    # no supplied gradient or Hessian: both by central differences
    sys, _ = disturbed_planar()
    return sys, BarrierFunction(lambda x: 1.0 - x[0] ** 2 - 2.0 * x[1] ** 4)


def varying_shapes():
    # outputs whose shape depends on the state: a number or a (1,) array
    sys = ControlAffineSystem(
        1, 1, 1, lambda x: 0.5 if x[0] < 0.0 else np.array([0.5]),
        lambda x: 1.0 + x[0] ** 2, lambda x: [[1.0]])
    return sys, neg_state_barrier()


@pytest.mark.parametrize("plant", [disturbed_planar, fd_planar,
                                   varying_shapes])
def test_lie_data_rows_is_lie_data_at_each_row(plant):
    sys, bf = plant()
    X = np.random.default_rng(7).uniform(-0.6, 0.6, (25, sys.n))
    got = lie_data_rows(sys, bf, X)
    for k, x in enumerate(X):
        want = lie_data(sys, bf, x)
        for field in ("h_val", "Lfh", "Lg1h", "Lg2h", "trace_term",
                      "frob_term", "g1_hess_g1"):
            assert np.array_equal(getattr(got, field)[k],
                                  getattr(want, field))


def test_lie_data_rows_raises_the_first_bad_rows_error():
    # row 3 non-finite, row 8 of the wrong shape: lie_data meets row 3
    # first, and so must the stacked call
    X = np.linspace(-1.0, 1.0, 12)[:, None]
    bad_f, bad_g2 = float(X[3, 0]), float(X[8, 0])
    sys = ControlAffineSystem(
        1, 0, 1, lambda x: np.array([math.nan if x[0] == bad_f else 0.0]),
        None, lambda x: np.ones(3) if x[0] == bad_g2 else np.ones(1))
    bf = neg_state_barrier()
    want = first_error(lambda: [lie_data(sys, bf, x) for x in X])
    assert want[0] is ModelBlowup
    assert first_error(lambda: lie_data_rows(sys, bf, X)) == want


def test_lie_data_rows_checks_each_stacked_hessian():
    X = np.array([[0.1, 0.2], [0.3, -0.2], [0.0, 0.5]])
    sys, _ = disturbed_planar()
    bf = BarrierFunction(
        lambda x: 1.0 - float(x @ x), grad=lambda x: -2.0 * x,
        hess=lambda x: (np.array([[-2.0, 1.0], [0.0, -2.0]]) if x[0] > 0.25
                        else -2.0 * np.eye(2)))
    want = first_error(lambda: [lie_data(sys, bf, x) for x in X])
    assert "asymmetric" in want[1]
    assert first_error(lambda: lie_data_rows(sys, bf, X)) == want
