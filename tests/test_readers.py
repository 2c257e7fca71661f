"""One reader each for u0 and for h, on every route.

A policy marked systems.stacked is read at one state on its one-row
stack by the filters too, so its wrong width is the stack error there,
as on a stack and in the integrators. A barrier's h may return one
number in any form (a float, a numpy float, a 0-d, (1,) or (1, 1)
array): the Lie data at one state and on stacks, BarrierFunction.value
(and so the finite-difference gradient) and the integrators' records
read it alike, and any other size is one ValueError on every route.
"""

import math

import numpy as np
import pytest

import safefilt as sf
from safefilt.scenarios import integrator_system, neg_state_barrier
from safefilt.systems import (first_order_lie, first_order_lie_rows,
                              lie_data, lie_data_rows, stacked)


def intro_spec(u0):
    return sf.DssfCbfSpec(integrator_system(), neg_state_barrier(),
                          sf.identity_k(), sf.linear_extended(1.0), u0)


WIDE = stacked(lambda X, t: np.ones((len(X), 2)))
FILTERS = {
    "qp_filter": lambda spec, x: sf.qp_filter(spec, x, 0.0),
    "inverse_optimal_qp": lambda spec, x: sf.inverse_optimal_qp(
        spec, 2.0, x, 0.0),
    "half_sontag_filter": lambda spec, x: sf.half_sontag_filter(
        spec, x, 0.0),
    "omega_dssf": lambda spec, x: sf.omega_dssf(spec, x, 0.0),
}


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_stacked_u0_of_wrong_width_raises_its_stack_error(name):
    fn = FILTERS[name]
    with pytest.raises(ValueError,
                       match=r"^u0 stack shape \(1, 2\), expected \(1, 1\)$"):
        fn(intro_spec(WIDE), np.array([-0.5]))
    with pytest.raises(ValueError,
                       match=r"^u0 stack shape \(2, 2\), expected \(2, 1\)$"):
        fn(intro_spec(WIDE), np.array([[-0.5], [-0.2]]))


@pytest.mark.parametrize("name", sorted(FILTERS))
@pytest.mark.parametrize("x", [[-0.5], -0.5, np.array([0.3])])
def test_stacked_u0_at_one_state_equals_plain(name, x):
    fn = FILTERS[name]
    marked = stacked(lambda X, t: 1.0 + 0.5 * X)
    plain = lambda x, t: 1.0 + 0.5 * np.atleast_1d(np.asarray(x, float))
    got, want = fn(intro_spec(marked), x), fn(intro_spec(plain), x)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# h = -x in each form a barrier may return one number in
H_FORMS = {
    "float": lambda x: float(-x[0]),
    "float64": lambda x: -x[0],
    "0-d": lambda x: np.array(-x[0]),
    "(1,)": lambda x: np.array([-x[0]]),
    "(1, 1)": lambda x: np.array([[-x[0]]]),
}
STATES = [-0.5, -0.0, 1.25]


def barrier(h, analytic=True):
    if not analytic:
        return sf.BarrierFunction(h)
    return sf.BarrierFunction(h, grad=lambda x: np.array([-1.0]),
                              hess=lambda x: np.array([[0.0]]))


def routes(bf):
    """h at each state of STATES by every route that reads it."""
    plant = integrator_system()
    X = np.array(STATES)[:, None]
    cfg = sf.SimConfig(dt=0.1, T=0.2)
    out = {
        "value": [bf.value(np.array([v])) for v in STATES],
        "first_order_lie": [first_order_lie(plant, bf, [v]).h_val
                            for v in STATES],
        "lie_data": [lie_data(plant, bf, [v]).h_val for v in STATES],
        "first_order_lie_rows": first_order_lie_rows(plant, bf, X).h_val,
        "lie_data_rows": lie_data_rows(plant, bf, X).h_val,
    }
    # a zero control and nominal hold the state, so h stays h(x0)
    zero = lambda x, t: np.zeros(1)
    out["integrate_ode"] = [sf.integrate_ode(plant, bf, zero, zero, [v],
                                             None, cfg).h_values[0]
                            for v in STATES]
    return out


@pytest.mark.parametrize("form", sorted(H_FORMS))
def test_every_route_reads_one_number_in_any_form(form):
    for name, got in routes(barrier(H_FORMS[form])).items():
        got = np.asarray(got, dtype=float)
        assert got.tobytes() == np.array([0.5, 0.0, -1.25]).tobytes(), name


@pytest.mark.parametrize("form", sorted(H_FORMS))
def test_finite_difference_gradient_reads_h_in_any_form(form):
    bf = barrier(H_FORMS[form], analytic=False)
    grad = bf.gradient(np.array([-0.5]))
    assert grad.shape == (1,) and math.isclose(grad[0], -1.0, rel_tol=1e-8)


@pytest.mark.parametrize("route", ["value", "first_order_lie", "lie_data",
                                   "first_order_lie_rows", "lie_data_rows",
                                   "integrate_ode"])
def test_h_of_another_size_is_one_error_on_every_route(route):
    bf = barrier(lambda x: np.array([-x[0], 0.0]))
    with pytest.raises(Exception) as err:
        routes_of_one(route, bf)
    exc = err.value
    if isinstance(exc, sf.SimulationError):
        exc = exc.__cause__
    assert type(exc) is ValueError
    assert str(exc) == "h(x) shape (2,), expected one number"


def routes_of_one(route, bf):
    plant, x = integrator_system(), np.array([-0.5])
    zero = lambda x, t: np.zeros(1)
    calls = {
        "value": lambda: bf.value(x),
        "first_order_lie": lambda: first_order_lie(plant, bf, x),
        "lie_data": lambda: lie_data(plant, bf, x),
        "first_order_lie_rows": lambda: first_order_lie_rows(
            plant, bf, np.array([[-0.5], [-0.2]])),
        "lie_data_rows": lambda: lie_data_rows(
            plant, bf, np.array([[-0.5], [-0.2]])),
        "integrate_ode": lambda: sf.integrate_ode(
            plant, bf, zero, zero, x, None, sf.SimConfig(dt=0.1, T=0.2)),
    }
    return calls[route]()


def test_stack_and_single_state_agree_on_a_non_number_h():
    bf = barrier(lambda x: None)
    plant = integrator_system()
    with pytest.raises(TypeError) as single:
        first_order_lie(plant, bf, [-0.5])
    with pytest.raises(TypeError) as rows:
        first_order_lie_rows(plant, bf, np.array([[-0.5]]))
    assert str(single.value) == str(rows.value)
