"""One state or a stack of them: every stack-taking entry, one list.

Every margin, filter, premise, weight and penalty below takes one (n,)
state or an (N, n) stack of them (with (N, m2) nominal values where it
takes those). On a stack it must return, bit for bit and with the signs
of zero, what its calls at each row return, stacked along a new leading
axis; a stacked identity weight is the one (m, m) identity every row
shares. Where one row is bad (no control authority, an alpha outside
its domain, or boundary contact of a reciprocal barrier) the stack must
raise what the calls at each row raise first: the same class and text.

The states are drawn at random for the ex3, ex5, ex6, sandwich,
reciprocal and unit-ball specs, with at most one bad row among them.
classic_projection, an event law, and the single-state entries named in
the module docstrings are not in the list.
"""

import dataclasses
import math
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safefilt.comparison import (DomainError, ExtendedKFunction, identity_k,
                                 linear_extended)
from safefilt.filters import (Weight, game_weights, half_sontag_filter,
                              hji_residual, inverse_optimal_condition,
                              inverse_optimal_general, inverse_optimal_qp,
                              min_norm_weights, omega_dssf, qp_filter,
                              qp_weights, sontag_filter, state_penalty_l)
from safefilt.nonovershoot import (gain_separation_margin,
                                   nominal_decay_margin, omega0,
                                   omega0_exact, omega_exact, omega_no,
                                   sandwich_filter,
                                   stoch_gain_separation_margin, stoch_omega,
                                   stoch_omega0, stoch_sandwich_filter)
from safefilt.projection import (ProjectionSpec, inverse_optimal_update,
                                 projection_margin, projection_penalty_l,
                                 qp_projection)
from safefilt.reciprocal import (RcbfSpec, RcbfViolation, omega_tilde,
                                 rcbf_condition, rcbf_inverse_optimal,
                                 rcbf_penalty_bound_gap, rcbf_penalty_l,
                                 rcbf_qp_filter, rcbf_weights,
                                 reciprocal_weights)
from safefilt.scenarios import (_ex3_pieces, ex5_spec, ex6_spec,
                                sandwich_testbed, unit_ball_barrier)
from safefilt.stochastic import (ScbfViolation, StochSpec, hjb_residual,
                                 nssf_condition, nssf_hji_residual,
                                 nssf_inverse_optimal, nssf_qp_filter,
                                 nssf_sontag_filter, nssf_state_penalty_l,
                                 nssf_weights, omega_nssf, omega_sbfc,
                                 stoch_inverse_optimal, stoch_io_condition,
                                 stoch_qp_filter, stoch_sontag_filter,
                                 stoch_state_penalty_l, stoch_weights)
from safefilt.systems import scalar_system

T = 0.25


def recip_spec():
    sys = scalar_system(lambda x: 0.0, None, lambda x: 1.0)
    return RcbfSpec(sys, lambda x: -1.0 / x[0], identity_k(),
                    lambda x, t: np.array([1.0 + x[0]]),
                    gradB=lambda x: np.array([1.0 / x[0] ** 2]))


def cut(alpha, hi=1.0):
    """alpha on (-inf, hi) only: an argument >= hi is a DomainError."""
    return ExtendedKFunction(alpha, hi=hi, name="cut")


def cut_alpha(spec):
    return dataclasses.replace(spec, alpha=cut(spec.alpha))


class Family(NamedTuple):
    """A spec, boxes of good states, and the bad kinds: (how the spec is
    changed, a box of states bad for it). Boxes are per coordinate;
    the unit ball draws (radius, angle)."""
    make: object
    good: tuple
    bad: tuple
    m2: int = 1


def _ex3():
    return _ex3_pieces(2.0, 1.0)[3]


FAMILIES = {
    # h = -x: alpha cut at h >= 1 is x <= -1
    "ex3": Family(_ex3, ((-0.99, 0.5),),
                  ((lambda s: dataclasses.replace(s, base=cut_alpha(s.base)),
                    (-1.5, -1.0)),)),
    # h = ln(1 - x) >= 1 at x <= 1 - e
    "ex5": Family(ex5_spec, ((-1.7, 0.9),), ((cut_alpha, (-3.0, -1.72)),)),
    # h = -x^3; the gradient -3x^2 vanishes at 0, where just right of 0
    # the margin is negative: no control authority
    "ex6": Family(lambda: ex6_spec(beta=2.0),
                  ((-0.99, -0.01), (0.01, 2.0)),
                  ((cut_alpha, (-1.5, -1.0)),
                   (lambda s: s, (1e-8, 5e-7)))),
    "sandwich": Family(sandwich_testbed, ((-0.99, 2.0),),
                       ((lambda s: dataclasses.replace(
                           s, alpha=cut(s.alpha), alpha0=cut(s.alpha0)),
                         (-2.0, -1.0)),)),
    # alpha_bar reads 1/B = -x; B = -1/x leaves (0, inf) at x > 0
    "reciprocal": Family(recip_spec, ((-0.99, -0.1),),
                         ((lambda s: dataclasses.replace(
                             s, alpha_bar=cut(s.alpha_bar)), (-3.0, -1.0)),
                          (lambda s: s, (0.1, 2.0)))),
    # h = 1 - r^2 >= 1 only at r = 0: cut at 0.75 instead
    "unit-ball": Family(
        lambda: ProjectionSpec(unit_ball_barrier(), linear_extended(1.0)),
        ((0.55, 0.99),),
        ((lambda s: dataclasses.replace(s, alpha=cut(s.alpha, 0.75)),
          (0.0, 0.5)),),
        m2=2),
}

ENTRIES = [
    ("ex3", lambda s, x, u: omega_dssf(s.base, x, T)),
    ("ex3", lambda s, x, u: qp_filter(s.base, x, T)),
    ("ex3", lambda s, x, u: sontag_filter(s.base, x, T)),
    ("ex3", lambda s, x, u: sontag_filter(s.base, x, T, include_u0=False)),
    ("ex3", lambda s, x, u: half_sontag_filter(s.base, x, T)),
    ("ex3", lambda s, x, u: inverse_optimal_qp(s.base, 2.0, x, T)),
    ("ex3", lambda s, x, u: qp_weights(s.base, x, T, 2.0, 1.0)),
    ("ex3", lambda s, x, u: min_norm_weights(s.base, x, u, 2.0, 1.0)),
    ("ex3", lambda s, x, u: inverse_optimal_general(s, x, T)),
    ("ex3", lambda s, x, u: inverse_optimal_condition(s, x, T)),
    ("ex3", lambda s, x, u: state_penalty_l(s, x, T)),
    ("ex3", lambda s, x, u: hji_residual(s, x, T)),
    ("ex3", lambda s, x, u: game_weights(s, x, u)),
    ("ex5", lambda s, x, u: omega_sbfc(s, x, T)),
    ("ex5", lambda s, x, u: stoch_qp_filter(s, x, T)),
    ("ex5", lambda s, x, u: stoch_sontag_filter(s, x, T)),
    ("ex5", lambda s, x, u: stoch_sontag_filter(s, x, T, include_u0=False)),
    ("ex5", lambda s, x, u: stoch_inverse_optimal(s, x, T)),
    ("ex5", lambda s, x, u: stoch_io_condition(s, x, T)),
    ("ex5", lambda s, x, u: stoch_state_penalty_l(s, x, T)),
    ("ex5", lambda s, x, u: hjb_residual(s, x, T)),
    ("ex5", lambda s, x, u: stoch_weights(s, x, u)),
    ("ex6", lambda s, x, u: omega_nssf(s, x, T)),
    ("ex6", lambda s, x, u: nssf_qp_filter(s, x, T)),
    ("ex6", lambda s, x, u: nssf_sontag_filter(s, x, T)),
    ("ex6", lambda s, x, u: nssf_inverse_optimal(s, x, T)),
    ("ex6", lambda s, x, u: nssf_condition(s, x, T)),
    ("ex6", lambda s, x, u: nssf_state_penalty_l(s, x, T)),
    ("ex6", lambda s, x, u: nssf_hji_residual(s, x, T)),
    ("ex6", lambda s, x, u: nssf_weights(s, x, u)),
    ("sandwich", lambda s, x, u: omega0(s, x)),
    ("sandwich", lambda s, x, u: omega_no(s, x)),
    ("sandwich", lambda s, x, u: sandwich_filter(s, x)),
    ("sandwich", lambda s, x, u: nominal_decay_margin(s, x)),
    ("sandwich", lambda s, x, u: gain_separation_margin(s, x)),
    ("sandwich", lambda s, x, u: stoch_omega0(s, x)),
    ("sandwich", lambda s, x, u: stoch_omega(s, x)),
    ("sandwich", lambda s, x, u: omega0_exact(s, x)),
    ("sandwich", lambda s, x, u: omega_exact(s, x)),
    ("sandwich", lambda s, x, u: stoch_sandwich_filter(s, x)),
    ("sandwich", lambda s, x, u: stoch_sandwich_filter(s, x, True)),
    ("sandwich", lambda s, x, u: stoch_gain_separation_margin(s, x)),
    ("reciprocal", lambda s, x, u: omega_tilde(s, x, T)),
    ("reciprocal", lambda s, x, u: rcbf_qp_filter(s, x, T)),
    ("reciprocal", lambda s, x, u: rcbf_inverse_optimal(s, x, T)),
    ("reciprocal", lambda s, x, u: rcbf_condition(s, x, T)),
    ("reciprocal", lambda s, x, u: rcbf_weights(s, x, T)),
    ("reciprocal", lambda s, x, u: rcbf_penalty_l(s, x, T)),
    ("reciprocal", lambda s, x, u: rcbf_penalty_bound_gap(s, x, T)),
    ("reciprocal", lambda s, x, u: reciprocal_weights(s, x, u)),
    ("unit-ball", lambda s, x, u: projection_margin(s, x, u)),
    ("unit-ball", lambda s, x, u: qp_projection(s, x, u)),
    ("unit-ball", lambda s, x, u: inverse_optimal_update(s, x, u)),
    ("unit-ball", lambda s, x, u: projection_penalty_l(s, x, u)),
]


def _entry_id(entry):
    # the called entry's name, read off the lambda's code
    code = entry[1].__code__
    names = [n for n in code.co_names if n not in ("base",)]
    return "%s-%s" % (entry[0], names[0])


def parts(out):
    """out as a flat list of float arrays: a tuple's items in order, a
    Weight's value and infinite flag."""
    if isinstance(out, tuple):
        return [p for item in out for p in parts(item)]
    if hasattr(out, "infinite"):
        return parts((out.value, out.infinite))
    return [np.asarray(out, dtype=float)]


def outcome(fn, *args):
    """fn's parts, or the class and text of what it raised."""
    try:
        return parts(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def rows_outcome(fn, spec, X, U):
    """fn at each row in turn, its parts stacked; or the first raise."""
    got = [outcome(fn, spec, x, u) for x, u in zip(X, U)]
    for g in got:
        if isinstance(g, tuple):
            return g
    return [np.array(col) for col in zip(*got)]


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if g.shape == w.shape[1:] and g.ndim == 2:
            g = np.broadcast_to(g, w.shape)  # the rows' one identity
        assert g.shape == w.shape
        assert np.array_equal(bits(g), bits(w))


def state(family, box):
    lo, hi = box
    if family.m2 == 2:      # (radius, angle) on the unit ball
        return st.builds(lambda r, phi: [r * math.cos(phi), r * math.sin(phi)],
                         st.floats(lo, hi), st.floats(0.0, 2.0 * math.pi))
    return st.builds(lambda x: [x], st.floats(lo, hi))


@st.composite
def problem(draw, name):
    """A spec of the family, good states, at most one bad row, and the
    rows' nominal values."""
    family = FAMILIES[name]
    spec = family.make()
    good = st.one_of(*[state(family, box) for box in family.good])
    X = draw(st.lists(good, min_size=0, max_size=6))
    kind = draw(st.sampled_from((None,) + family.bad))
    if kind is not None:
        change, box = kind
        spec = change(spec)
        X.insert(draw(st.integers(0, len(X))), draw(state(family, box)))
    if not X:
        X = [draw(good)]
    U = draw(st.lists(st.lists(st.floats(-3.0, 3.0), min_size=family.m2,
                               max_size=family.m2),
                      min_size=len(X), max_size=len(X)))
    return spec, np.array(X, dtype=float), np.array(U, dtype=float)


@pytest.mark.parametrize("entry", ENTRIES, ids=_entry_id)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_stacked_call_is_the_rows(entry, data):
    name, fn = entry
    spec, X, U = data.draw(problem(name))
    assert_same(outcome(fn, spec, X, U), rows_outcome(fn, spec, X, U))


BAD_ROWS = [
    # family, bad kind, (good, bad, good) rows, entry, error, text
    ("ex3", 0, ([0.3], [-1.2], [-0.5]),
     lambda s, x: inverse_optimal_condition(s, x, T), DomainError,
     "cut: argument 1.2 outside"),
    ("ex5", 0, ([0.3], [1.0 - math.exp(1.2)], [-0.5]),
     lambda s, x: stoch_io_condition(s, x, T), DomainError,
     "cut: argument 1.2 outside"),
    ("ex6", 1, ([0.3], [1e-7], [-0.5]),
     lambda s, x: nssf_qp_filter(s, x, T), ScbfViolation,
     "no control authority"),
    ("sandwich", 0, ([0.3], [-1.5], [-0.5]),
     gain_separation_margin, DomainError, "cut: argument 1.5 outside"),
    ("reciprocal", 0, ([-0.3], [-1.5], [-0.5]),
     lambda s, x: rcbf_penalty_bound_gap(s, x, T), DomainError,
     "cut: argument 1.5 outside"),
    ("reciprocal", 1, ([-0.3], [0.5], [-0.5]),
     lambda s, x: rcbf_qp_filter(s, x, T), RcbfViolation,
     "boundary contact"),
    ("unit-ball", 0, ([0.6, 0.0], [0.0, 0.3], [0.0, -0.9]),
     lambda s, x: qp_projection(s, x, np.ones(x.shape)), DomainError,
     "cut: argument 0.91 outside"),
]


@pytest.mark.parametrize("name,kind,rows,fn,error,text", BAD_ROWS,
                         ids=["%s-%s" % (case[0], case[4].__name__)
                              for case in BAD_ROWS])
def test_one_bad_row_raises_its_own_error(name, kind, rows, fn, error, text):
    # the bad row between good ones: the stack raises what that row
    # raises alone, while the good rows pass
    family = FAMILIES[name]
    spec = family.bad[kind][0](family.make())
    X = np.array(rows)
    for x in X[[0, 2]]:
        fn(spec, x)
    for x in (X[1], X):
        with pytest.raises(error, match=text):
            fn(spec, x)


@pytest.mark.parametrize("fn", [nssf_inverse_optimal, stoch_inverse_optimal])
def test_control_blind_rows_return_the_nominal_itself(fn):
    # s = |Lg2h| < GRAD_ZERO_TOL at and just right of 0 on the cubic
    # barrier: there the nominal comes back as it is, -0.0 included
    spec = dataclasses.replace(ex6_spec(beta=2.0),
                               u0=lambda x, t: np.array([-0.0]))
    if fn is stoch_inverse_optimal:
        spec = StochSpec(spec.sys, spec.bf, spec.alpha, spec.u0,
                         beta_gain=2.0, gamma2=spec.gamma2)
    X = np.array([[0.0], [1e-7], [0.5]])
    got = fn(spec, X, T)
    assert np.array_equal(bits(got), bits([fn(spec, x, T) for x in X]))
    assert np.array_equal(bits(got[:2]), bits(np.full((2, 1), -0.0)))
    assert got[2, 0] != 0.0


def test_stacked_weight_overflows_to_inf_as_one_state_does():
    # 1 / 5e-324 is inf on floats, silently; the stack must not warn
    den = np.array([5e-324, 0.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = Weight.ratio(1.0, den)
    rows = [Weight.ratio(1.0, d) for d in den.tolist()]
    assert np.array_equal(bits(w.value), bits([r.value for r in rows]))
    assert w.infinite.tolist() == [r.infinite for r in rows]
