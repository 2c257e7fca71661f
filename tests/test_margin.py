"""One margin formula for every filter.

filters.margin is omega = drift + a.u0 [+ side] + alpha(h) and
filters.budget is rho^{-1}(max{0, r}); every margin function supplies
only its drift, direction, side term and alpha(h). These tests check
that the Ito margins take stacks like the deterministic ones, bit for
bit, that each min-norm cost pass evaluates alpha and rho^{-1} once per
sample, and that the certificates' per-element rule
(comparison.elementwise) gives the bits of the comprehensions it
replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import trapezoid

from safefilt.certify import (CostSpec, _sup_gains, evaluate_cost,
                              ibssf_check)
from safefilt.comparison import (extended_k_from_name, identity_k,
                                 k_from_name, lf_pair_from_name,
                                 linear_extended, power_k)
from safefilt.filters import DssfCbfSpec, budget, margin
from safefilt.reciprocal import RcbfSpec
from safefilt.scenarios import (disturbed_gain_system, ex5_spec, ex6_spec,
                                integrator_system, neg_state_barrier)
from safefilt.sim import Trajectory
from safefilt.stochastic import NssfSpec, generator_margin, nssf_margin
from safefilt.systems import lie_data, lie_data_rows, scalar_system


def test_margin_on_one_state_and_on_stacks():
    a = np.array([2.0, -1.0])
    omega, direction = margin(0.5, a, np.array([1.0, 3.0]), 0.25, -2.0)
    assert omega == 0.5 + (2.0 - 3.0) - 2.0 + 0.25 and direction is a
    assert margin(0.5, a, np.array([1.0, 3.0]), 0.25)[0] == -0.25
    A = np.array([[2.0, -1.0], [0.0, 1.0]])
    omegas, _ = margin(np.array([0.5, 1.0]), A,
                       np.array([[1.0, 3.0], [4.0, -2.0]]),
                       np.array([0.25, 0.0]), np.array([-2.0, 1.0]))
    assert omegas.tolist() == [-2.25, 0.0]


def test_budget_is_rho_inverse_of_the_positive_part():
    rho = power_k(2.0)
    assert budget(rho, -4.0) == 0.0 and budget(rho, 4.0) == rho.inverse(4.0)
    assert budget(rho, np.array([-1.0, 0.0, 9.0])).tolist() == [
        0.0, 0.0, rho.inverse(9.0)]


# ---------------------------------------------------------------------------
# the Ito margins on stacks
# ---------------------------------------------------------------------------

def _ex5_nssf():
    s5 = ex5_spec()
    return NssfSpec(s5.sys, s5.bf, s5.alpha, identity_k(), s5.u0)


def _ex6_power_rho():
    return ex6_spec(rho=power_k(2.0))


# (spec, margin function, state range) on the ex5 and ex6 plants
ITO_CASES = {
    "ex5-generator": (ex5_spec, generator_margin, (-3.0, 0.9)),
    "ex5-nssf": (_ex5_nssf, nssf_margin, (-3.0, 0.9)),
    "ex6-generator": (ex6_spec, generator_margin, (-2.0, 2.0)),
    "ex6-nssf": (ex6_spec, nssf_margin, (-2.0, 2.0)),
    "ex6-nssf-power-rho": (_ex6_power_rho, nssf_margin, (-2.0, 2.0)),
}


@pytest.mark.parametrize("name", sorted(ITO_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ito_margins_on_stacks_equal_the_single_state_values(name, data):
    make, margin_fn, (lo, hi) = ITO_CASES[name]
    spec = make()
    n_rows = data.draw(st.integers(1, 8))
    xs = data.draw(st.lists(st.floats(lo, hi), min_size=n_rows,
                            max_size=n_rows))
    us = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n_rows,
                            max_size=n_rows))
    X = np.array(xs).reshape(n_rows, 1)
    U = np.array(us).reshape(n_rows, 1)
    omegas, a = margin_fn(spec, lie_data_rows(spec.sys, spec.bf, X), U)
    assert omegas.shape == (n_rows,) and a.shape == (n_rows, 1)
    for k in range(n_rows):
        omega, ak = margin_fn(spec, lie_data(spec.sys, spec.bf, X[k]), U[k])
        assert type(omega) is float
        assert omegas[k] == omega and (a[k] == ak).all()


# ---------------------------------------------------------------------------
# alpha and rho^{-1} once per sample
# ---------------------------------------------------------------------------

class Counted:
    """A class-K function that counts its evaluations and inversions."""

    def __init__(self, k):
        self.k = k
        self.calls = 0
        self.inverses = 0

    def __call__(self, r):
        self.calls += 1
        return self.k(r)

    def inverse(self, y):
        self.inverses += 1
        return self.k.inverse(y)


N_REC = 37


def _record(x, nominal, controls, disturbances, h):
    return Trajectory(times=np.linspace(0.0, 1.0, N_REC), states=x,
                      controls=controls, nominal=nominal,
                      disturbances=disturbances, h_values=h,
                      running_cost=np.zeros(N_REC))


def _counted_pass(kind):
    rng = np.random.default_rng(3)
    alpha, rho = Counted(linear_extended(1.5)), Counted(identity_k())
    u0 = lambda x, t: np.array([1.0])
    if kind == "reciprocal-min":
        spec = RcbfSpec(scalar_system(lambda x: 0.0, None, lambda x: 1.0),
                        lambda x: -1.0 / x[0], alpha, u0,
                        gradB=lambda x: np.array([1.0 / x[0] ** 2]))
        m1 = 0
    else:
        sys = (integrator_system() if kind == "qp-exact"
               else disturbed_gain_system())
        spec = DssfCbfSpec(sys, neg_state_barrier(), rho, alpha, u0)
        m1 = sys.m1
    # states on both sides of the barrier, so rho^{-1} sees positive parts
    x = rng.uniform(-2.0, 1.0 if kind != "reciprocal-min" else -0.1,
                    (N_REC, 1))
    nominal = np.ones((N_REC, 1))
    record = _record(x, nominal, nominal.copy(), np.zeros((N_REC, m1)),
                     -x[:, 0])
    evaluate_cost(record, CostSpec(kind, spec=spec))
    return alpha, rho


@pytest.mark.parametrize("kind", ["qp-exact", "qp-weighted",
                                  "reciprocal-min"])
def test_a_min_norm_cost_pass_evaluates_alpha_once_per_sample(kind):
    assert _counted_pass(kind)[0].calls == N_REC


def test_the_qp_weighted_pass_inverts_rho_once_per_sample():
    assert _counted_pass("qp-weighted")[1].inverses == N_REC


# ---------------------------------------------------------------------------
# the certificates' per-element rule
# ---------------------------------------------------------------------------

K_NAMES = ["linear:0.7", "power:2", "power:0.5:1.3", "eps:0.25"]


def _history(rng, n):
    return rng.normal(size=(n, 2)) * rng.uniform(0.0, 3.0, (n, 1))


@pytest.mark.parametrize("name", K_NAMES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sup_gains_equals_the_comprehension_bit_for_bit(name, seed):
    rho = k_from_name(name)
    rng = np.random.default_rng(seed)
    for d in (_history(rng, 200), rng.normal(size=200)):
        dn = np.abs(d) if d.ndim == 1 else np.linalg.norm(d, axis=1)
        want = np.array([rho(v) for v in np.maximum.accumulate(dn)])
        assert _sup_gains(rho, d).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", K_NAMES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ibssf_check_equals_the_comprehension_bit_for_bit(name, seed):
    alpha = extended_k_from_name(name)
    gamma = lf_pair_from_name("power:2:0.5")
    lam = 1.25
    rng = np.random.default_rng(seed)
    n = 200
    traj = Trajectory(times=np.linspace(0.0, 2.0, n),
                      states=np.zeros((n, 1)), controls=np.zeros((n, 1)),
                      nominal=np.zeros((n, 1)),
                      disturbances=_history(rng, n),
                      h_values=rng.normal(size=n), running_cost=np.zeros(n))
    a_vals = np.array([alpha(v) for v in traj.h_values])
    dn = np.linalg.norm(traj.disturbances, axis=1)
    g_vals = np.array([gamma.gamma(v / lam) for v in dn])
    want = (float(traj.h_values[-1]) + float(trapezoid(a_vals, traj.times))
            + 0.5 * lam * float(trapezoid(g_vals, traj.times)))
    assert ibssf_check(traj, alpha, gamma, lam)[0] == want
