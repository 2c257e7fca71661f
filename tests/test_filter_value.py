"""The 13 library laws of the form u0 + beta k a are Filter values.

Each law is one value (family, spec, rule, gain), the table of the
filters module docstring: a law that returns the full control equals
its Filter called at the same states, and for a law that returns the
correction alone (at gain 1), u0 plus the law equals its Filter. Both
hold bit for bit, errors included (class and text), at one state and on
stacks. The sandwich laws read u0 of the state alone and the projection
laws take the nominal value, so their Filters read it through a spec
whose u0 takes (x, t): the sandwich spec with u0(x, t) = u0(x), and the
projection's integrator plant d theta/dt = u with the nominal as u0.
"""

import dataclasses
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import safefilt as sf
from safefilt.filters import (DSSF, HALF_SONTAG, MIN_NORM, SONTAG, Filter,
                              _u0_at)
from safefilt.projection import PROJECTION
from safefilt.reciprocal import RECIPROCAL
from safefilt.scenarios import (disturbed_gain_system, ex5_spec, ex6_spec,
                                integrator_system, neg_state_barrier,
                                sandwich_testbed, unit_ball_barrier)
from safefilt.stochastic import GENERATOR, NSSF

T = 0.3


def outcome(fn):
    """fn()'s shape, dtype and bytes, or its error's class and text,
    with numpy's warnings silenced."""
    try:
        with np.errstate(all="ignore"):
            out = np.asarray(fn())
    except Exception as exc:
        return type(exc), str(exc)
    return out.shape, out.dtype.str, out.tobytes()


def nominal(c, s):
    """A state-dependent nominal u0(x, t) = c + s x."""
    return lambda x, t: np.array([c + s * x[0]])


def dssf(c, s):
    return sf.DssfCbfSpec(disturbed_gain_system(), neg_state_barrier(),
                          sf.identity_k(), sf.linear_extended(1.0),
                          nominal(c, s))


def recip(c, s):
    return sf.RcbfSpec(integrator_system(), lambda x: -1.0 / x[0],
                       sf.identity_k(), nominal(c, s),
                       gradB=lambda x: np.array([1.0 / x[0] ** 2]),
                       beta_gain=2.5)


def sandwich(c, s):
    base = sandwich_testbed()
    return dataclasses.replace(base, u0=lambda x: np.array([c + s * x[0]]))


def at_t(spec):
    """The sandwich spec with u0(x, t) = u0(x)."""
    return dataclasses.replace(spec, u0=lambda x, t: spec.u0(x))


def ball(c, s):
    """(ProjectionSpec, the integrator plant's spec with u0 as the
    nominal): the projection laws' two readings of one problem."""
    spec = sf.ProjectionSpec(unit_ball_barrier(), sf.linear_extended(1.0),
                             beta_gain=2.5)
    plant = sf.ControlAffineSystem(2, 0, 2, lambda th: np.zeros(2), None,
                                   lambda th: np.eye(2))
    return spec, types.SimpleNamespace(
        bf=spec.bf, alpha=spec.alpha, sys=plant,
        u0=lambda th, t: np.array([c, 0.5]) + s * th)


# law: (spec builder, law(spec, x), the Filter of the spec, form)
LAWS = {
    "qp_filter": (dssf, lambda p, x: sf.qp_filter(p, x, T),
                  lambda p: Filter(DSSF, p), "correction"),
    "sontag_filter": (dssf, lambda p, x: sf.sontag_filter(p, x, T),
                      lambda p: Filter(DSSF, p, SONTAG), "correction"),
    "half_sontag_filter": (
        dssf, lambda p, x: sf.half_sontag_filter(p, x, T),
        lambda p: Filter(DSSF, p, HALF_SONTAG), "control"),
    "inverse_optimal_qp": (
        dssf, lambda p, x: sf.inverse_optimal_qp(p, 2.5, x, T),
        lambda p: Filter(DSSF, p, MIN_NORM, 2.5), "control"),
    "stoch_qp_filter": (
        lambda c, s: dataclasses.replace(ex5_spec(2.5), u0=nominal(c, s)),
        lambda p, x: sf.stoch_qp_filter(p, x, T),
        lambda p: Filter(GENERATOR, p, MIN_NORM, p.beta_gain), "control"),
    "stoch_sontag_filter": (
        lambda c, s: dataclasses.replace(ex5_spec(), u0=nominal(c, s)),
        lambda p, x: sf.stoch_sontag_filter(p, x, T),
        lambda p: Filter(GENERATOR, p, SONTAG), "correction"),
    "nssf_qp_filter": (
        lambda c, s: dataclasses.replace(ex6_spec(2.5), u0=nominal(c, s)),
        lambda p, x: sf.nssf_qp_filter(p, x, T),
        lambda p: Filter(NSSF, p, MIN_NORM, p.beta_gain), "control"),
    "nssf_sontag_filter": (
        lambda c, s: dataclasses.replace(ex6_spec(), u0=nominal(c, s)),
        lambda p, x: sf.nssf_sontag_filter(p, x, T),
        lambda p: Filter(NSSF, p, SONTAG), "control"),
    "rcbf_qp_filter": (recip, lambda p, x: sf.rcbf_qp_filter(p, x, T),
                       lambda p: Filter(RECIPROCAL, p, MIN_NORM, p.beta_gain),
                       "control"),
    "qp_projection": (
        ball, lambda p, x: sf.qp_projection(p[0], x, _u0_at(p[1], x, T)),
        lambda p: Filter(PROJECTION, p[1]), "correction"),
    "inverse_optimal_update": (
        ball,
        lambda p, x: sf.inverse_optimal_update(p[0], x, _u0_at(p[1], x, T)),
        lambda p: Filter(PROJECTION, p[1], MIN_NORM, p[0].beta_gain),
        "control"),
    "sandwich_filter": (sandwich, sf.sandwich_filter,
                        lambda p: Filter(DSSF, at_t(p)), "control"),
    "stoch_sandwich_filter": (
        sandwich, sf.stoch_sandwich_filter,
        lambda p: Filter(NSSF, at_t(p)), "control"),
    "stoch_sandwich_filter.exact": (
        sandwich, lambda p, x: sf.stoch_sandwich_filter(p, x, True),
        lambda p: Filter(GENERATOR, at_t(p)), "control"),
}

STATES = st.one_of(st.floats(-2.5, 2.5),
                   st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 0.999]))


@pytest.mark.parametrize("name", sorted(LAWS))
@settings(max_examples=60, deadline=None)
@given(vs=st.lists(STATES, min_size=1, max_size=3),
       c=st.floats(-3.0, 3.0), s=st.floats(-2.0, 2.0))
def test_each_law_is_its_filter_value(name, vs, c, s):
    build, law, value, form = LAWS[name]
    problem = build(c, s)
    flt = value(problem)
    if name in ("qp_projection", "inverse_optimal_update"):
        X = np.array([[0.9 * math.cos(v), 0.9 * math.sin(v)] for v in vs])
    else:
        X = np.array(vs)[:, None]
    for x in list(X) + [X]:
        got = outcome(lambda: law(problem, x))
        if form == "control":
            assert got == outcome(lambda: flt(x, T))
        elif isinstance(got[0], type):  # the law raised: so does the value
            assert got == outcome(lambda: flt(x, T))
        else:
            assert outcome(lambda: _u0_at(flt.spec, x, T) + law(problem, x)) \
                == outcome(lambda: flt(x, T))


def test_a_filter_value_gates_its_gain():
    spec = dssf(1.0, 0.0)
    Filter(DSSF, spec, SONTAG, 1.0)
    with pytest.raises(ValueError, match=r"^beta_gain 0.5 < 1$"):
        Filter(DSSF, spec, MIN_NORM, 0.5)
    with pytest.raises(ValueError, match=r"^beta_gain inf is not finite$"):
        Filter(DSSF, spec, MIN_NORM, math.inf)
    with pytest.raises(dataclasses.FrozenInstanceError):
        Filter(DSSF, spec).gain = 2.0


def test_a_filter_certificate_is_the_cost_kinds_certificate():
    # qp-exact's integrand on a record is c (l - R|u - u0|^2) with (R, l,
    # h, c) the certificate of the CBF filter at the cost's gain
    spec = dssf(1.0, 0.5)
    X = np.linspace(-1.0, 0.5, 7)[:, None]
    U0 = 1.0 + 0.5 * X
    R, l, h, c = Filter(sf.CBF, spec, MIN_NORM, 2.0).certificate(X, U0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = sf.filters.rule_certificate(
            MIN_NORM, 2.0, *sf.CBF.data(spec, X, U0)[:3])
    assert R.value.tobytes() == want[0].value.tobytes()
    assert l.tobytes() == want[1].tobytes()
    assert h.tobytes() == (-X[:, 0]).tobytes() and c == 1.0
