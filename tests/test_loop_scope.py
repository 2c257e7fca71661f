"""The loop scope: one numpy error state per run and one Lie-data read
per state.

sim._run holds systems' loop scope for its run: np.errstate(all=
"ignore") around the whole run and a one-entry memo of first_order_lie,
keyed by the plant and barrier objects and the checked state's bytes.
The filters and worst-case disturbances that read the Lie data at one
stage state then share one read. Every recorded control and
disturbance must equal, bit for bit, the public call at its recorded
state outside any loop; a model must be read afresh in a new run and
after it raised; the shared arrays are read-only; and the scope ends
with its run, however the run ends.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from safefilt.comparison import identity_k, linear_extended, linear_k
from safefilt.filters import (DssfCbfSpec, InverseOptimalSpec,
                              inverse_optimal_general, inverse_optimal_qp,
                              qp_worst_case_disturbance,
                              worst_case_disturbance)
from safefilt.reciprocal import RcbfSpec, rcbf_qp_filter
from safefilt.scenarios import (_ex3_pieces, disturbed_gain_system,
                                integrator_system, neg_state_barrier)
from safefilt.sim import SimConfig, SimulationError, integrate_ode
from safefilt.systems import (_LOOP, BarrierFunction, ModelBlowup,
                              first_order_lie, scalar_system)

CFG = SimConfig(dt=0.01, T=0.3)
GAIN = st.floats(2.0, 3.0)
LAM = st.floats(0.05, 2.0)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _samples(traj):
    """The recorded samples that are not a tombstone."""
    return range(traj.times.size - (traj.escape_time is not None))


def _recorded_equal_public(traj, control, d=None):
    """Each recorded control (and disturbance) against the public call
    at its recorded state and time, outside any loop."""
    assert _LOOP.get() is None
    for k in _samples(traj):
        x, t = traj.states[k].copy(), traj.times[k]
        assert _same(traj.controls[k], control(x, t)), k
        if d is not None:
            assert _same(traj.disturbances[k], d(x, t)), k


@given(beta=GAIN, lam=LAM, x0=st.floats(-1.5, -0.2))
@settings(max_examples=25, deadline=None)
def test_ex3_game_records_equal_public_calls(beta, lam, x0):
    u0, _, _, iospec = _ex3_pieces(beta, lam)
    # the loop escapes where u0(x) >= 12|x| on its way to x = -1 (a
    # property of the plant): such draws are left out
    assume(all(u0(x) < 12.0 * abs(x)
               for x in np.linspace(min(x0, -1.0), max(x0, -1.0), 101)))
    base = iospec.base
    control = lambda x, t: inverse_optimal_general(iospec, x, t)
    d = lambda x, t: worst_case_disturbance(iospec, x)
    traj = integrate_ode(base.sys, base.bf, control, base.u0, [x0], d, CFG)
    _recorded_equal_public(traj, control, d)


def _ex4_spec(u0, slope):
    """ex4's filter spec: the disturbed-gain plant, h = -x, a constant
    nominal and a linear alpha."""
    return DssfCbfSpec(disturbed_gain_system(), neg_state_barrier(),
                       identity_k(), linear_extended(slope),
                       lambda x, t: np.array([u0]))


@given(beta=GAIN, lam=LAM, x0=st.floats(-2.8, -0.2), u0=st.floats(0.5, 3.0),
       slope=st.floats(0.5, 2.0))
@settings(max_examples=25, deadline=None)
def test_ex4_game_records_equal_public_calls(beta, lam, x0, u0, slope):
    spec = _ex4_spec(u0, slope)
    control = lambda x, t: inverse_optimal_qp(spec, beta, x, t)
    d = lambda x, t: qp_worst_case_disturbance(spec, lam, x)
    traj = integrate_ode(spec.sys, spec.bf, control, spec.u0, [x0], d, CFG)
    _recorded_equal_public(traj, control, d)


@given(beta=GAIN, x0=st.floats(-2.5, -0.5), u0=st.floats(0.2, 3.0),
       slope=st.floats(0.5, 2.0))
@settings(max_examples=25, deadline=None)
def test_rcbf_records_equal_public_calls(beta, x0, u0, slope):
    spec = RcbfSpec(integrator_system(), lambda x: -1.0 / x[0],
                    linear_k(slope), lambda x, t: np.array([u0]),
                    gradB=lambda x: np.array([1.0 / x[0] ** 2]),
                    beta_gain=beta)
    control = lambda x, t: rcbf_qp_filter(spec, x, t)
    traj = integrate_ode(spec.sys, neg_state_barrier(), control, spec.u0,
                         [x0], None, CFG)
    _recorded_equal_public(traj, control)


def _counted_ex3(counts):
    """ex3's game (beta = 2, lam = 1) on a plant and barrier whose
    callables count their calls into counts: (its spec, a twin spec
    over a second barrier object with the same callables, the closed
    forms u* and d*)."""
    def counted(name, fn):
        def call(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        return call
    sys = scalar_system(counted("f", lambda x: 0.0),
                        counted("g1", lambda x: 1.0 + x * x),
                        counted("g2", lambda x: 1.0))
    h = counted("h", lambda x: -x[0])
    grad = counted("grad", lambda x: np.array([-1.0]))
    _, u_star, d_star, ex3 = _ex3_pieces(2.0, 1.0)

    def spec():
        b = ex3.base
        return InverseOptimalSpec(
            DssfCbfSpec(sys, BarrierFunction(h, grad), b.rho, b.alpha, b.u0),
            2.0, 1.0, ex3.gamma, R2=ex3.R2)
    return spec(), spec(), u_star, d_star


def _game_counts(shared):
    """Model calls of ex3's game loop: u* and d* read the Lie data
    through one barrier object, or (shared False) through two."""
    counts = {}
    io, twin, _, _ = _counted_ex3(counts)
    base = io.base
    d_spec = io if shared else twin
    traj = integrate_ode(
        base.sys, base.bf, lambda x, t: inverse_optimal_general(io, x, t),
        base.u0, [-1.2], lambda x, t: worst_case_disturbance(d_spec, x),
        CFG)
    assert traj.escape_time is None
    return counts


def _field_counts():
    """Model calls of ex3's loop under its closed forms: the plant's RK4
    rate and the recorded h, no Lie read."""
    counts = {}
    io, _, u_star, d_star = _counted_ex3(counts)
    base = io.base
    integrate_ode(base.sys, base.bf, lambda x, t: np.array([u_star(x[0])]),
                  base.u0, [-1.2], lambda x, t: np.array([d_star(x[0])]),
                  CFG)
    return counts


def test_ex3_loop_reads_the_lie_data_once_per_state():
    n = CFG.n_steps
    field = _field_counts()
    assert field == {"f": 4 * n, "g2": 4 * n, "g1": 4 * n, "h": n + 1}
    shared, apart = _game_counts(True), _game_counts(False)
    lie = {k: shared[k] - field.get(k, 0) for k in shared}
    lie_apart = {k: apart[k] - field.get(k, 0) for k in apart}
    # one read per stage state (4 per step, 1 at the last sample); two
    # barrier objects cannot share a read, which is the count each read
    # had before the loop scope
    assert lie == {k: 4 * n + 1 for k in ("f", "g1", "g2", "h", "grad")}
    assert lie_apart == {k: 2 * v for k, v in lie.items()}


def test_outside_loops_every_call_reads_the_model():
    counts = {}
    io = _counted_ex3(counts)[0]
    x = np.array([-0.7])
    a = first_order_lie(io.base.sys, io.base.bf, x)
    b = first_order_lie(io.base.sys, io.base.bf, x)
    assert counts["h"] == 2 and counts["grad"] == 2
    assert a == b and a.Lg2h is not b.Lg2h
    a.Lg2h[0] = 5.0             # writable outside a loop
    assert b.Lg2h[0] == -1.0


def test_a_model_edited_between_runs_is_read_afresh():
    gain = [1.0]
    sys = scalar_system(lambda x: 0.0, None, lambda x: gain[0])
    spec = DssfCbfSpec(sys, neg_state_barrier(), identity_k(),
                       linear_extended(1.0), lambda x, t: np.array([1.0]))
    control = lambda x, t: inverse_optimal_qp(spec, 2.0, x, t)
    first = integrate_ode(sys, spec.bf, control, spec.u0, [-0.5], None, CFG)
    gain[0] = 2.0
    second = integrate_ode(sys, spec.bf, control, spec.u0, [-0.5], None, CFG)
    fresh = scalar_system(lambda x: 0.0, None, lambda x: 2.0)
    spec2 = DssfCbfSpec(fresh, spec.bf, spec.rho, spec.alpha, spec.u0)
    oracle = integrate_ode(
        fresh, spec.bf, lambda x, t: inverse_optimal_qp(spec2, 2.0, x, t),
        spec.u0, [-0.5], None, CFG)
    assert not _same(first.controls, second.controls)
    assert _same(second.controls, oracle.controls)
    assert _same(second.states, oracle.states)


def test_no_scope_is_left_after_a_failed_loop():
    before = np.geterr()
    spec = _ex4_spec(2.0, 1.0)

    def control(x, t):
        inverse_optimal_qp(spec, 2.0, x, t)
        assert _LOOP.get() is not None
        raise KeyError("policy failure")
    with pytest.raises(SimulationError) as info:
        integrate_ode(spec.sys, spec.bf, control, spec.u0, [-0.5], None,
                      CFG)
    assert isinstance(info.value.__cause__, KeyError)
    assert _LOOP.get() is None
    assert np.geterr() == before


def test_a_model_that_raised_is_called_again():
    calls = []

    def h(x):
        calls.append(x[0])
        return np.nan if len(calls) == 1 else -x[0]
    bf = BarrierFunction(h, grad=lambda x: np.array([-1.0]))
    sys = integrator_system()
    seen = []

    def control(x, t):
        if t == 0.0 and not seen:
            with pytest.raises(ModelBlowup):
                first_order_lie(sys, bf, x)
            seen.append(first_order_lie(sys, bf, x))
        return np.array([0.0])
    cfg = SimConfig(dt=0.01, T=0.01)
    integrate_ode(sys, BarrierFunction(lambda x: -x[0]), control,
                  lambda x, t: np.array([0.0]), [-0.5], None, cfg)
    assert calls == [-0.5, -0.5]
    assert seen[0].h_val == 0.5


def test_a_policy_cannot_write_into_the_shared_lie_data():
    spec = _ex4_spec(2.0, 1.0)

    def control(x, t):
        ld = first_order_lie(spec.sys, spec.bf, x)
        ld.Lg2h[0] = 0.0
        return np.array([1.0])
    with pytest.raises(SimulationError) as info:
        integrate_ode(spec.sys, spec.bf, control, spec.u0, [-0.5], None,
                      CFG)
    assert isinstance(info.value.__cause__, ValueError)
    assert "read-only" in str(info.value.__cause__)


def test_an_overflowing_barrier_inside_a_loop_is_still_an_escape():
    # h = -x^3 in numpy floats overflows where |x| > 5.6e102; the loop
    # drives x there from -1e100, inside an escape threshold of 1e300
    sys = integrator_system()
    bf = BarrierFunction(lambda x: -x[0] ** 3,
                         grad=lambda x: np.array([-3.0 * x[0] ** 2]))
    spec = DssfCbfSpec(sys, bf, identity_k(), linear_extended(1.0),
                       lambda x, t: np.array([-1e104]))
    cfg = SimConfig(dt=0.01, T=0.1, escape_threshold=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = integrate_ode(
            sys, bf, lambda x, t: inverse_optimal_qp(spec, 2.0, x, t),
            spec.u0, [-1e100], None, cfg)
    assert traj.escape_time is not None and traj.escape_time < cfg.T


def test_a_numpy_division_by_zero_inside_a_loop_escapes():
    # numpy's divide warning is silenced for the whole run, as overflow
    # and invalid are: the policy's inf drives the state non-finite
    zero = np.float64(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = integrate_ode(
            integrator_system(), neg_state_barrier(),
            lambda x, t: np.array([1.0]) / zero,
            lambda x, t: np.array([0.0]), [-0.5], None, CFG)
        with pytest.raises(RuntimeWarning):
            np.array([1.0]) / zero  # outside the loop it still warns
    assert traj.escape_time == CFG.dt
    assert traj.controls[0, 0] == np.inf
    assert np.isnan(traj.states[1, 0]) or np.isinf(traj.states[1, 0])
