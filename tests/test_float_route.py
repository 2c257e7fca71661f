"""A scalar plant's one-state filter calls stay in floats, with the bits
of the array route.

A scalar_system plant reads its model, and every library law reads its
Lie data, nominal margin and correction, as floats at one state. Each
law must give, bit for bit, what it gives on the plant's array twin
(the same model built with ControlAffineSystem from array callables),
whose data are (1,) vectors: the same control, disturbance, margin or
weight, or the same error class and text (ModelBlowup, the violation
classes, domain errors), numpy's warnings raised as errors so that a
warning counts as its text. The same holds for first_order_lie and
lie_data inside a loop scope, and for the families' public read and
data, whose width-one fields are (1,) vectors on both plants. Also here: rcbf_penalty_bound_gap reads
alpha_bar once per call, and nsbf_premise's floor is the NSSF family's
side term.
"""

import math
import struct
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

import safefilt as sf
from safefilt.filters import Weight
from safefilt.scenarios import log_gap_barrier, neg_state_barrier
from safefilt.stochastic import _nssf, _nssf_side
from safefilt.systems import (ControlAffineSystem, _loop_scope,
                              first_order_lie, lie_data, vec_norm)

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
           struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0],
           5e-324, -5e-324, 1e-200, 1e200, -1e200]
STATES = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(SPECIAL))
VALUES = st.one_of(st.floats(-5.0, 5.0), st.sampled_from(SPECIAL))

# the models: dx = (0.25 x + u + (1 + x^2) d) dt, dx = u dt and ex5's
# dx = u dt + (1 - x) dw, each f, g1, g2 on floats
MODELS = {"dist": (lambda x: 0.25 * x, lambda x: 1.0 + x * x,
                   lambda x: 1.0),
          "int": (lambda x: 0.0, None, lambda x: 1.0),
          "ito": (lambda x: 0.0, lambda x: 1.0 - x, lambda x: 1.0)}


def twin(f, g1, g2):
    """The array twin of scalar_system(f, g1, g2)."""
    return ControlAffineSystem(
        1, 0 if g1 is None else 1, 1, lambda x: np.array([f(float(x[0]))]),
        None if g1 is None else (lambda x: g1(float(x[0]))),
        lambda x: g2(float(x[0])))


def specs(array, c, beta, lam):
    """Every spec the laws below take, on the scalar plants or (array)
    on their twins, with the constant nominal c."""
    plant = {k: (twin if array else sf.scalar_system)(*m)
             for k, m in MODELS.items()}
    u0 = lambda x, t: np.array([c])
    dssf = sf.DssfCbfSpec(plant["dist"], neg_state_barrier(),
                          sf.identity_k(), sf.linear_extended(1.0), u0)
    r2 = lambda x, u0v: np.array([[1.0 / (1.0 + abs(float(x[0])))]])
    recip = dict(B=lambda x: -1.0 / x[0], alpha_bar=sf.identity_k(), u0=u0,
                 gradB=lambda x: np.array([1.0 / x[0] ** 2]),
                 beta_gain=max(beta, 2.0))
    return {
        "dssf": dssf,
        "io": sf.InverseOptimalSpec(dssf, beta, lam, sf.power_pair(2), R2=r2,
                                    allow_safety_only=True),
        "recip": sf.RcbfSpec(plant["int"], **recip),
        "recip.R": sf.RcbfSpec(plant["int"], Rbar=r2, **recip),
        "stoch": sf.StochSpec(plant["ito"], log_gap_barrier(),
                              sf.linear_extended(1.0), u0, beta_gain=beta,
                              gamma2=sf.power_pair(2, 0.25), R2=r2),
        "nssf": sf.NssfSpec(plant["ito"], log_gap_barrier(),
                            sf.linear_extended(1.0), sf.identity_k(), u0,
                            beta_gain=beta, lam=lam,
                            gamma1=sf.power_pair(2),
                            gamma2=sf.power_pair(2, 0.25)),
        "sandwich": sf.SandwichSpec(plant["dist"], neg_state_barrier(),
                                    lambda x: np.array([c - x[0]]),
                                    sf.identity_k(), sf.identity_k(),
                                    sf.linear_extended(1.0),
                                    sf.linear_extended(2.0)),
    }


def in_loop(lie, key):
    def call(S, x):
        with _loop_scope():
            return tuple(lie(S[key].sys, S[key].bf, x))
    return call


def family(fam, key, data=True):
    """fam's public state data (read) or family data (data, at the
    spec's nominal value) at one state."""
    def call(S, x):
        spec = S[key]
        if data:
            return tuple(fam.data(spec, x, spec.u0(x, 0.0)))
        return tuple(fam.read(spec, x))
    return call


LAWS = {
    "qp_filter": lambda S, x: sf.qp_filter(S["dssf"], x, 0.0),
    "sontag_filter": lambda S, x: sf.sontag_filter(S["dssf"], x, 0.0),
    "half_sontag_filter": lambda S, x: sf.half_sontag_filter(S["dssf"], x,
                                                             0.0),
    "inverse_optimal_qp": lambda S, x: sf.inverse_optimal_qp(
        S["dssf"], S["io"].beta_gain, x, 0.0, allow_safety_only=True),
    "omega_dssf": lambda S, x: sf.omega_dssf(S["dssf"], x, 0.0),
    "qp_filter_affine_form": lambda S, x: sf.qp_filter_affine_form(
        S["dssf"], x, 0.0),
    "qp_weights": lambda S, x: sf.qp_weights(S["dssf"], x, 0.0),
    "inverse_optimal_general": lambda S, x: sf.inverse_optimal_general(
        S["io"], x, 0.0),
    "worst_case_disturbance": lambda S, x: sf.worst_case_disturbance(
        S["io"], x),
    "qp_worst_case_disturbance": lambda S, x: sf.qp_worst_case_disturbance(
        S["dssf"], S["io"].lam, x),
    "hji_residual": lambda S, x: sf.hji_residual(S["io"], x, 0.0),
    "inverse_optimal_condition": lambda S, x: sf.inverse_optimal_condition(
        S["io"], x, 0.0),
    "rcbf_qp_filter": lambda S, x: sf.rcbf_qp_filter(S["recip"], x, 0.0),
    "rcbf_inverse_optimal": lambda S, x: sf.rcbf_inverse_optimal(
        S["recip"], x, 0.0),
    "rcbf_inverse_optimal.Rbar": lambda S, x: sf.rcbf_inverse_optimal(
        S["recip.R"], x, 0.0),
    "rcbf_condition": lambda S, x: sf.rcbf_condition(S["recip.R"], x, 0.0),
    "rcbf_penalty_bound_gap": lambda S, x: sf.rcbf_penalty_bound_gap(
        S["recip"], x, 0.0),
    "stoch_qp_filter": lambda S, x: sf.stoch_qp_filter(S["stoch"], x, 0.0),
    "stoch_sontag_filter": lambda S, x: sf.stoch_sontag_filter(
        S["stoch"], x, 0.0),
    "stoch_inverse_optimal": lambda S, x: sf.stoch_inverse_optimal(
        S["stoch"], x, 0.0),
    "nssf_qp_filter": lambda S, x: sf.nssf_qp_filter(S["nssf"], x, 0.0),
    "nssf_sontag_filter": lambda S, x: sf.nssf_sontag_filter(S["nssf"], x,
                                                             0.0),
    "nssf_inverse_optimal": lambda S, x: sf.nssf_inverse_optimal(
        S["nssf"], x, 0.0),
    "nssf_condition": lambda S, x: sf.nssf_condition(S["nssf"], x, 0.0),
    "sandwich_filter": lambda S, x: sf.sandwich_filter(S["sandwich"], x),
    "stoch_sandwich_filter": lambda S, x: sf.stoch_sandwich_filter(
        S["sandwich"], x, True),
    "DSSF.read": family(sf.DSSF, "dssf", data=False),
    "DSSF.data": family(sf.DSSF, "dssf"),
    "CBF.data": family(sf.CBF, "dssf"),
    "GENERATOR.read": family(sf.GENERATOR, "stoch", data=False),
    "GENERATOR.data": family(sf.GENERATOR, "stoch"),
    "NSSF.data": family(sf.NSSF, "nssf"),
    "RECIPROCAL.read": family(sf.RECIPROCAL, "recip", data=False),
    "RECIPROCAL.data": family(sf.RECIPROCAL, "recip"),
    "first_order_lie.loop": in_loop(first_order_lie, "dssf"),
    "lie_data.loop": in_loop(lie_data, "stoch"),
}


def outcome(fn):
    """fn()'s fields as (shape, dtype, bytes), a Weight as its value and
    flag, or its error's class and text; warnings raised as errors."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn()
    except Exception as exc:
        return type(exc), str(exc)
    fields = []
    for v in out if isinstance(out, tuple) else (out,):
        fields += [v.value, v.infinite] if isinstance(v, Weight) else [v]
    return [(a.shape, a.dtype.str, a.tobytes())
            for a in map(np.asarray, fields)]


@given(name=st.sampled_from(sorted(LAWS)), v=STATES, c=VALUES,
       beta=st.sampled_from([1.0, 2.0, 2.5]) | st.floats(1.0, 4.0),
       lam=st.floats(0.05, 2.0))
@settings(max_examples=600, deadline=None)
def test_scalar_plant_equals_array_twin(name, v, c, beta, lam):
    law = LAWS[name]
    x = np.array([v])
    got = outcome(lambda: law(specs(False, c, beta, lam), x))
    assert got == outcome(lambda: law(specs(True, c, beta, lam), x))


def test_twin_comparison_meets_every_outcome():
    # the special states reach a control, a violation and a blowup
    seen = set()
    for v in [-1.0, 0.5, 1e200, 2.0]:
        for name in ("inverse_optimal_qp", "rcbf_qp_filter",
                     "stoch_qp_filter"):
            out = outcome(lambda: LAWS[name](specs(False, 3.0, 2.0, 1.0),
                                             np.array([v])))
            seen.add(out[0] if isinstance(out, tuple) else "value")
    assert {"value", sf.ModelBlowup, sf.RcbfViolation} <= seen


class Counted:
    """A class-K function that counts its evaluations."""

    def __init__(self, k):
        self.k, self.calls = k, 0

    def __call__(self, r):
        self.calls += 1
        return self.k(r)

    def inverse(self, y):
        return self.k.inverse(y)


def test_reciprocal_laws_evaluate_alpha_bar_once():
    for law in (sf.rcbf_qp_filter, sf.rcbf_penalty_l, sf.rcbf_condition,
                sf.rcbf_penalty_bound_gap):
        alpha_bar = Counted(sf.identity_k())
        spec = sf.RcbfSpec(sf.scalar_system(lambda x: 0.0, None,
                                            lambda x: 1.0),
                           lambda x: -1.0 / x[0], alpha_bar,
                           lambda x, t: np.array([2.0]),
                           gradB=lambda x: np.array([1.0 / x[0] ** 2]))
        law(spec, np.array([-0.5]), 0.0)
        assert alpha_bar.calls == 1, law.__name__


@given(v=st.floats(-3.0, 0.9), c=st.floats(-3.0, 3.0),
       sigma=st.floats(-2.0, 2.0))
@settings(max_examples=100, deadline=None)
def test_nsbf_premise_floor_is_the_nssf_side_term(v, c, sigma):
    spec = specs(False, c, 2.0, 1.0)["nssf"]
    x = np.array([v])
    ld = lie_data(spec.sys, spec.bf, x)
    side, allowed = _nssf_side(spec, ld)
    S = np.array([[sigma]])
    actual = 0.5 * float(np.trace(S.T @ ld.g1_hess_g1 @ S))
    slack, budget_slack = sf.nsbf_premise(spec, x, S)
    assert slack == actual - side
    assert budget_slack == allowed - vec_norm(S @ S.T)
    # and the family's margin carries that side term
    omega, _, alpha_h = _nssf(spec, ld, np.array([c]))[:3]
    assert omega == ld.Lfh + (0.0 + ld.Lg2h[0] * c) + side + alpha_h
