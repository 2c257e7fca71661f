"""Work done per RK4 step and per lie_data call.

integrate_ode reuses the recorded sample as RK4 stage 1, so control and
d run 4 times per step plus once at the last sample. The records must
equal a plain 5-evaluation RK4 bit for bit. lie_data checks the state
once and reads the model through accessors that skip the re-check; the
public accessors keep theirs, and every shape and finiteness check
still fires.
"""

import math

import numpy as np
import pytest

from safefilt.comparison import identity_k, linear_extended
from safefilt.filters import DssfCbfSpec, inverse_optimal_qp
from safefilt.sim import SimConfig, SimulationError, _alloc, integrate_ode
from safefilt.systems import (BarrierFunction, ControlAffineSystem,
                              ModelBlowup, _as_state, lie_data,
                              scalar_system)

RECORD_FIELDS = ("times", "states", "controls", "nominal", "disturbances",
                 "h_values", "running_cost")


def counted(fn, tally, key):
    def wrapped(*args):
        tally[key] = tally.get(key, 0) + 1
        return fn(*args)
    return wrapped


def disturbed_planar():
    """n = 2, m1 = 1, m2 = 2 rotation with a state-dependent disturbance
    gain, inside the unit ball, under the inverse-optimal QP filter."""
    g2 = np.array([[1.0, 0.2], [0.0, 1.0]])
    sys = ControlAffineSystem(
        2, 1, 2,
        f=lambda x: np.array([x[1], -x[0] - 0.3 * x[1] ** 3]),
        g1=lambda x: np.array([[0.4], [0.2 + 0.1 * x[0]]]),
        g2=lambda x: g2)
    bf = BarrierFunction(lambda x: 1.0 - float(x @ x),
                         grad=lambda x: -2.0 * x,
                         hess=lambda x: -2.0 * np.eye(2))
    u0 = lambda x, t: np.array([math.cos(2.0 * x[0]) + 1.5,
                                math.sin(2.0 * x[1])])
    spec = DssfCbfSpec(sys, bf, identity_k(), linear_extended(1.0), u0)
    control = lambda x, t: inverse_optimal_qp(spec, 2.5, x, t)
    d = lambda x, t: np.array([0.5 * math.sin(3.0 * t)])
    return sys, bf, control, u0, d


def reference_rk4(sys, bf, control, u0, x0, d, cfg):
    """Classical RK4 calling control and d at all four stages, recording
    u0, d, control and h in that order; no escape handling (the loop
    used here stays bounded)."""
    n_steps = cfg.n_steps
    traj = _alloc(n_steps + 1, sys.n, sys.m2, sys.m1)
    x = np.array(x0, dtype=float)

    def rate(xs, ts):
        dv = np.atleast_1d(np.asarray(d(xs, ts), dtype=float))
        uv = np.atleast_1d(np.asarray(control(xs, ts), dtype=float))
        return (sys.f_at(xs) + sys.g2_at(xs) @ uv) + sys.g1_at(xs) @ dv

    dt = cfg.dt
    for k in range(n_steps + 1):
        t = k * dt
        traj.times[k] = t
        traj.states[k] = x
        traj.nominal[k] = u0(x, t)
        traj.disturbances[k] = d(x, t)
        traj.controls[k] = control(x, t)
        traj.h_values[k] = bf.value(x)
        if k == n_steps:
            break
        k1 = rate(x, t)
        k2 = rate(x + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rate(x + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rate(x + dt * k3, t + dt)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return traj


def test_records_match_five_evaluation_rk4_bit_for_bit():
    sys, bf, control, u0, d = disturbed_planar()
    cfg = SimConfig(dt=1e-2, T=2.0)
    x0 = np.array([0.6, -0.5])
    got = integrate_ode(sys, bf, control, u0, x0, d, cfg)
    want = reference_rk4(sys, bf, control, u0, x0, d, cfg)
    assert got.escape_time is None
    # the filter must have worked for the comparison to mean something
    assert np.any(got.controls != got.nominal)
    for name in RECORD_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("with_d", [True, False])
def test_callback_counts_per_run(with_d):
    sys, bf, control, u0, d = disturbed_planar()
    tally = {}
    cfg = SimConfig(dt=0.05, T=0.5)
    integrate_ode(sys, bf, counted(control, tally, "control"),
                  counted(u0, tally, "u0"), np.array([0.2, 0.1]),
                  counted(d, tally, "d") if with_d else None, cfg)
    n = cfg.n_steps
    assert tally["control"] == 4 * n + 1
    assert tally["u0"] == n + 1
    assert tally.get("d", 0) == (4 * n + 1 if with_d else 0)


def test_as_state_passes_a_checked_state_through():
    x = np.array([0.3, -0.2])
    assert _as_state(x, 2) is x


@pytest.mark.parametrize("x", [[0.5], np.array([1]), np.array(0.5),
                               0.5, (2,)])
def test_state_validation_accepts_n1_spellings(x):
    sys = scalar_system(lambda v: v * v, lambda v: 1.0 + v, lambda v: 2.0)
    bf = BarrierFunction(lambda v: -v[0], grad=lambda v: np.array([-1.0]),
                         hess=lambda v: np.zeros((1, 1)))
    xf = np.atleast_1d(np.asarray(x, dtype=float))
    got = lie_data(sys, bf, x)
    want = lie_data(sys, bf, xf)
    assert got.h_val == want.h_val and got.Lfh == want.Lfh
    assert np.array_equal(got.Lg1h, want.Lg1h)
    assert np.array_equal(got.Lg2h, want.Lg2h)
    assert sys.f_at(x)[0] == xf[0] ** 2
    assert sys.g1_at(x).shape == (1, 1)
    assert sys.g2_at(x)[0, 0] == 2.0


@pytest.mark.parametrize("x", [np.zeros(3), np.zeros((2, 1)), [0.0],
                               np.zeros((1, 2))])
def test_wrong_state_shape_rejected_everywhere(x):
    sys, bf, _, _, _ = disturbed_planar()
    for call in (lambda: lie_data(sys, bf, x), lambda: sys.f_at(x),
                 lambda: sys.g1_at(x), lambda: sys.g2_at(x)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("fields", [
    dict(f=lambda x: np.zeros(3), g1=lambda x: np.ones((2, 1)),
         g2=lambda x: np.ones((2, 1))),
    dict(f=lambda x: np.zeros(2), g1=lambda x: np.ones((2, 2)),
         g2=lambda x: np.ones((2, 1))),
    dict(f=lambda x: np.zeros(2), g1=lambda x: np.ones((2, 1)),
         g2=lambda x: np.ones(3)),
])
def test_wrong_model_output_shape_rejected_by_lie_data(fields):
    sys = ControlAffineSystem(2, 1, 1, **fields)
    bf = BarrierFunction(lambda x: 1.0 - float(x @ x))
    with pytest.raises(ValueError):
        lie_data(sys, bf, np.array([0.1, 0.2]))


def test_supplied_hessian_checked_whenever_m1_positive():
    sys, _, _, _, _ = disturbed_planar()
    bf = BarrierFunction(lambda x: 1.0 - float(x @ x),
                         grad=lambda x: -2.0 * x,
                         hess=lambda x: np.array([[-2.0, 1.0], [0.0, -2.0]]))
    with pytest.raises(ValueError, match="asymmetric"):
        lie_data(sys, bf, np.array([0.1, 0.2]))


def test_nonfinite_trace_term_raises():
    sys = scalar_system(lambda x: 0.0, lambda x: 1.0, lambda x: 1.0)
    bf = BarrierFunction(lambda x: -x[0], grad=lambda x: np.array([-1.0]),
                         hess=lambda x: np.array([[math.inf]]))
    with pytest.raises(ModelBlowup):
        lie_data(sys, bf, np.array([0.5]))


def test_nonfinite_lg2h_raises():
    sys = scalar_system(lambda x: 0.0, None, lambda x: math.nan)
    bf = BarrierFunction(lambda x: -x[0], grad=lambda x: np.array([-1.0]))
    with pytest.raises(ModelBlowup):
        lie_data(sys, bf, np.array([0.5]))


@pytest.mark.parametrize("which", ["control", "u0", "d"])
def test_wrong_callback_shape_is_a_simulation_error(which):
    sys, bf, control, u0, d = disturbed_planar()
    fns = dict(control=control, u0=u0, d=d)
    fns[which] = lambda x, t: np.zeros(3)
    with pytest.raises(SimulationError) as err:
        integrate_ode(sys, bf, fns["control"], fns["u0"],
                      np.array([0.1, 0.2]), fns["d"],
                      SimConfig(dt=0.1, T=0.5))
    assert isinstance(err.value.__cause__, ValueError)
    assert which in str(err.value.__cause__)
