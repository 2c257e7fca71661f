"""The one filtered-control step, u = u0 + beta correct(omega, a).

Every filter that returns the full control takes it through
filters._filtered, which at one state of width one is float arithmetic.
At random states of the scenario specs each such filter is pinned three
ways, bit for bit, its errors included: at one state, on a one-row
stack (the array route), and against the inline array expression
u0v + beta * correct(omega, a) of its own margin (u0v + correct(...)
for the unit-gain filters). Against the inline expression numpy's
warnings are raised as errors, so a warning counts as its text; against
the stack they are silenced, as the stack's Lie data silences them.
The projection laws (the classic law's sliding field, the qp law and
inverse_optimal_update) are pinned through simulate_projection against
the same run with the step written out inline.
"""

import math
import struct
import warnings
from dataclasses import replace
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings, strategies as st

import safefilt as sf
from safefilt import filters, projection
from safefilt.filters import (DSSF, HALF_SONTAG, MIN_NORM, SONTAG,
                              CbfViolation, _filtered, correct, dssf_margin)
from safefilt.nonovershoot import _parts as _sandwich_parts
from safefilt.projection import ProjectionError, ProjectionSpec
from safefilt.reciprocal import RECIPROCAL, RcbfViolation, reciprocal_margin
from safefilt.scenarios import (disturbed_gain_system, ex5_spec, ex6_spec,
                                integrator_system, neg_state_barrier,
                                sandwich_testbed, unit_ball_barrier)
from safefilt.stochastic import (GENERATOR, ScbfViolation, generator_margin,
                                 nssf_margin)

# signed zeros and infinities, NaNs of both signs and two payloads,
# subnormals and values whose squares overflow
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
           struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0],
           5e-324, -5e-324, 1e-200, 1e200, -1e200]
STATES = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(SPECIAL))
VALUES = st.one_of(st.floats(-5.0, 5.0), st.sampled_from(SPECIAL))


def outcome(fn):
    """fn()'s shape, dtype and bytes, or its error's class and text."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = np.asarray(fn())
    except Exception as exc:
        return type(exc), str(exc)
    return out.shape, out.dtype.str, out.tobytes()


def quiet(fn):
    """outcome(fn) with numpy's warnings silenced: a stack's Lie data
    runs the model under np.errstate, which a single state's reciprocal
    barrier and user gradients do not."""
    with np.errstate(all="ignore"):
        return outcome(fn)


def row_quiet(fn):
    """quiet(fn) of the first row of fn()'s one-row stack."""
    return quiet(lambda: fn()[0])


# the data the oracles read: u0 and the margin at (x, t), each family's
# state data read first, through the family reader filters._at
def _dssf_at(spec, x, t):
    ld, u0v = filters._at(DSSF, spec, x, t)
    return (u0v,) + dssf_margin(spec, ld, u0v)


def _margin_at(spec, x, t):
    bdata, u0v = filters._at(RECIPROCAL, spec, x, t)
    return bdata, u0v, reciprocal_margin(spec, bdata, u0v)


def _at(spec, x, t):
    """The Lie data, Ito terms included, and u0 at (x, t)."""
    return filters._at(GENERATOR, spec, x, t)


def const_u0(c):
    return lambda x, t: np.array([c])


def dssf_spec(c):
    return sf.DssfCbfSpec(disturbed_gain_system(), neg_state_barrier(),
                          sf.identity_k(), sf.linear_extended(1.0),
                          const_u0(c))


def io_qp(c, beta):
    spec = dssf_spec(c)

    def inline(x):
        u0v, omega, a = _dssf_at(spec, x, 0.0)
        return u0v + beta * correct(omega, a)
    return (lambda x: sf.inverse_optimal_qp(spec, beta, x, 0.0,
                                            allow_safety_only=True), inline)


def half_sontag(c, beta):
    spec = dssf_spec(c)

    def inline(x):
        u0v, omega, a = _dssf_at(spec, x, 0.0)
        return u0v + correct(omega, a, HALF_SONTAG)
    return lambda x: sf.half_sontag_filter(spec, x, 0.0), inline


def rcbf_qp(c, beta):
    spec = sf.RcbfSpec(integrator_system(), lambda x: -1.0 / x[0],
                       sf.identity_k(), const_u0(c),
                       gradB=lambda x: np.array([1.0 / x[0] ** 2]),
                       beta_gain=max(beta, 2.0))

    def inline(x):
        _, u0v, (omega, a) = _margin_at(spec, x, 0.0)
        return u0v + spec.beta_gain * correct(omega, a, MIN_NORM,
                                              RcbfViolation)
    return lambda x: sf.rcbf_qp_filter(spec, x, 0.0), inline


def stoch(filter_fn, spec_fn, margin_fn, rule, unit):
    def build(c, beta):
        spec = spec_fn(beta)
        gain = 1.0 if unit else beta

        def inline(x):
            ld, u0v = _at(spec, x, 0.0)
            omega, a = margin_fn(spec, ld, u0v)
            if unit:
                return u0v + correct(omega, a, rule, ScbfViolation)
            return u0v + gain * correct(omega, a, rule, ScbfViolation)
        return lambda x: filter_fn(spec, x, 0.0), inline
    return build


def sandwich(exact_trace=None):
    def build(c, beta):
        base = sandwich_testbed()
        spec = sf.SandwichSpec(base.sys, base.bf,
                               lambda x: np.array([c - x[0]]), base.rho0,
                               base.rho, base.alpha0, base.alpha)

        def inline(x):
            ld, u0v = _sandwich_parts(spec, x)
            floor = (dssf_margin if exact_trace is None else
                     generator_margin if exact_trace else nssf_margin)
            error = CbfViolation if exact_trace is None else ScbfViolation
            return u0v + correct(*floor(spec, ld, u0v), MIN_NORM, error)
        if exact_trace is None:
            return lambda x: sf.sandwich_filter(spec, x), inline
        return (lambda x: sf.stoch_sandwich_filter(spec, x, exact_trace),
                inline)
    return build


FILTERS = {
    "inverse_optimal_qp": io_qp,
    "half_sontag_filter": half_sontag,
    "rcbf_qp_filter": rcbf_qp,
    "stoch_qp_filter": stoch(sf.stoch_qp_filter,
                             lambda b: replace(ex5_spec(), beta_gain=b),
                             generator_margin, MIN_NORM, False),
    "nssf_qp_filter": stoch(sf.nssf_qp_filter, lambda b: ex6_spec(beta=b),
                            nssf_margin, MIN_NORM, False),
    "nssf_sontag_filter": stoch(sf.nssf_sontag_filter,
                                lambda b: ex6_spec(beta=b), nssf_margin,
                                SONTAG, True),
    "sandwich_filter": sandwich(),
    "stoch_sandwich_filter.nssf": sandwich(False),
    "stoch_sandwich_filter.exact": sandwich(True),
}


@given(name=st.sampled_from(sorted(FILTERS)), v=STATES, c=VALUES,
       beta=st.sampled_from([1.0, 2.0, 2.5]) | st.floats(1.0, 4.0))
@settings(max_examples=400, deadline=None)
def test_filter_one_state_equals_stack_and_inline(name, v, c, beta):
    fn, inline = FILTERS[name](c, beta)
    x = np.array([v])
    assert quiet(lambda: fn(x)) == row_quiet(lambda: fn(x[None]))
    assert outcome(lambda: fn(x)) == outcome(lambda: inline(x))


def inline_step(gain):
    """The inline expression the projection laws wrote out before the
    filtered-control step, in place of _filtered(u0v, beta, omega, a,
    ...): u0v + correct(omega, a) for the sliding and qp laws (gain
    None), u0v + gain * correct(omega, a) for inverse_optimal_update.
    The gain, rule and error class are the law's own, not the caller's."""
    def step(u0v, beta, omega, a, rule, error):
        v = correct(omega, a, MIN_NORM, ProjectionError)
        return u0v + v if gain is None else u0v + gain * v
    return step


def trajectory(fn):
    """outcome(fn) for a Trajectory: every record's shape, dtype and
    bytes, and the escape time, or the error's class and text."""
    def records():
        traj = fn()
        return [(r.shape, r.dtype.str, r.tobytes()) for r in (
            traj.times, traj.states, traj.controls, traj.nominal,
            traj.disturbances, traj.h_values)] + [traj.escape_time]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return records()
    except Exception as exc:
        return type(exc), str(exc)


@given(law=st.sampled_from(["classic", "qp", "optimal"]),
       width=st.sampled_from([1, 2]), turn=st.floats(-3.2, 3.2),
       inside=st.sampled_from([0.0, 0.0, 0.3, 0.99]), c=VALUES,
       slope=st.floats(-2.0, 2.0), beta=st.sampled_from([2.0, 2.5]))
@settings(max_examples=120, deadline=None)
def test_projection_laws_equal_inline_expression(law, width, turn, inside,
                                                 c, slope, beta):
    """simulate_projection under each law, from a start on the unit
    ball's boundary (pinned: the classic law slides from its first
    step) or inside it, equals the same run with the step written out
    inline, bit for bit or by error class and text."""
    spec = ProjectionSpec(unit_ball_barrier(), sf.linear_extended(1.0),
                          beta_gain=beta)
    start = np.array([math.cos(turn), math.sin(turn)][:width])
    theta0 = (1.0 - inside) * start / np.linalg.norm(start)
    u0v = np.array([c, 0.5][:width])

    def u0_law(th, t):
        return u0v + slope * th

    cfg = sf.SimConfig(dt=0.02, T=0.3)
    got = trajectory(lambda: sf.simulate_projection(spec, u0_law, theta0,
                                                    cfg, law=law))
    gain = beta if law == "optimal" else None
    with patch.object(projection, "_filtered", inline_step(gain)):
        want = trajectory(lambda: sf.simulate_projection(
            spec, u0_law, theta0, cfg, law=law))
    assert got == want


@given(rule=st.sampled_from([MIN_NORM, SONTAG, HALF_SONTAG]),
       beta=st.sampled_from([1.0, 2.0, 2.5]), u=VALUES, w=VALUES, a=VALUES)
@settings(max_examples=300, deadline=None)
def test_filtered_equals_array_expression(rule, beta, u, w, a):
    u0v, av = np.array([u]), np.array([a])
    got = outcome(lambda: _filtered(u0v, beta, w, av, rule))
    assert got == outcome(lambda: u0v + beta * correct(w, av, rule))
    assert quiet(lambda: _filtered(u0v, beta, w, av, rule)) == row_quiet(
        lambda: _filtered(u0v[None], beta, np.array([w]), av[None], rule))
