"""Integrator contracts.

RK4 order and exactness on closed-form loops, escape truncation,
counter-based stream reproducibility for the Ito paths, and the CSV
sample format.
"""

import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from safefilt.sim import (SimConfig, SimulationError, Trajectory,
                          integrate_ode, integrate_ode_scalar, integrate_sde,
                          sde_path_functionals, write_trajectory_csv)
from safefilt.stochastic import CovarianceSchedule
from safefilt.systems import (BarrierFunction, ControlAffineSystem,
                              ModelBlowup, scalar_system)

GRID_TOL = 1e-9


def wide_barrier():
    # h = -x, unbounded both ways; just gives the recorder something finite
    return BarrierFunction(lambda x: -x[0],
                           grad=lambda x: np.array([-1.0]),
                           hess=lambda x: np.zeros((1, 1)))


def integrator_1d():
    return scalar_system(lambda x: 0.0, None, lambda x: 1.0)


def disturbed_1d():
    return scalar_system(lambda x: 0.0, lambda x: 1.0, lambda x: 1.0)


def test_zero_rate_preserves_state_exactly():
    sys = integrator_1d()
    cfg = SimConfig(dt=0.01, T=1.0)
    traj = integrate_ode(sys, wide_barrier(), lambda x, t: 0.0,
                         lambda x, t: 0.0, [0.7], None, cfg)
    assert traj.escape_time is None
    assert traj.n_samples == cfg.n_steps + 1
    # all stage rates are identically zero, so no roundoff can creep in
    assert np.all(traj.states == 0.7)
    assert np.all(traj.h_values == -0.7)


def test_rk4_is_fourth_order():
    # dx/dt = x^2, x(0) = 0.5 has x(t) = 1/(2 - t), so x(1) = 1 exactly
    sys = scalar_system(lambda x: x * x, None, lambda x: 1.0)
    bf = wide_barrier()

    def endpoint_error(dt):
        cfg = SimConfig(dt=dt, T=1.0)
        traj = integrate_ode(sys, bf, lambda x, t: 0.0, lambda x, t: 0.0,
                             [0.5], None, cfg)
        return abs(traj.states[-1, 0] - 1.0)

    e_coarse = endpoint_error(0.05)
    e_fine = endpoint_error(0.025)
    assert e_fine < 1e-8
    # halving dt should cut the error by ~2^4
    assert 10.0 < e_coarse / e_fine < 24.0


def test_exponential_decay_matches_closed_form():
    sys = integrator_1d()
    cfg = SimConfig(dt=1e-3, T=5.0)
    traj = integrate_ode(sys, wide_barrier(), lambda x, t: -x[0],
                         lambda x, t: -x[0], [-1.0], None, cfg)
    exact = -np.exp(-traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < GRID_TOL
    # sampling conventions: uniform grid, u recorded at the sample state
    assert traj.times == pytest.approx(np.arange(cfg.n_steps + 1) * cfg.dt)
    assert np.array_equal(traj.controls[:, 0], -traj.states[:, 0])
    assert np.array_equal(traj.h_values, -traj.states[:, 0])
    assert np.all(traj.running_cost == 0.0)


def test_cubic_feedback_escapes_near_half():
    # dx/dt = x^3 from -1 diverges at t = 0.5
    sys = integrator_1d()
    cfg = SimConfig(dt=1e-3, T=1.0)
    traj = integrate_ode(sys, wide_barrier(), lambda x, t: x[0] ** 3,
                         lambda x, t: x[0] ** 3, [-1.0], None, cfg)
    assert traj.escape_time is not None
    assert 0.45 <= traj.escape_time <= 0.55
    assert traj.n_samples < cfg.n_steps + 1
    assert traj.times[-1] == traj.escape_time
    # the terminal sample is a tombstone: state kept, controls blanked
    assert np.all(np.isnan(traj.controls[-1]))
    assert np.all(np.isnan(traj.nominal[-1]))
    assert np.all(np.isfinite(traj.states[:-1]))


def test_scalar_fast_path_matches_general_integrator():
    def u(x, t):
        return -x + 0.5 * math.cos(t)

    def d(x, t):
        return 0.3 * math.sin(t)

    cfg = SimConfig(dt=1e-3, T=2.0)
    general = integrate_ode(disturbed_1d(), wide_barrier(),
                            lambda x, t: u(x[0], t), lambda x, t: u(x[0], t),
                            [0.4], lambda x, t: d(x[0], t), cfg)
    scalar = integrate_ode_scalar(lambda x, t: u(x, t) + d(x, t), 0.4, cfg,
                                  h_fn=lambda x: -x, u_fn=u, u0_fn=u, d_fn=d)
    assert scalar.states.shape == general.states.shape
    assert np.max(np.abs(scalar.states - general.states)) < 1e-11
    assert np.max(np.abs(scalar.controls - general.controls)) < 1e-11
    assert np.max(np.abs(scalar.disturbances - general.disturbances)) < 1e-11
    assert np.max(np.abs(scalar.h_values - general.h_values)) < 1e-11


def test_scalar_fast_path_escape_agrees():
    cfg = SimConfig(dt=1e-3, T=1.0)
    general = integrate_ode(integrator_1d(), wide_barrier(),
                            lambda x, t: x[0] ** 3, lambda x, t: x[0] ** 3,
                            [-1.0], None, cfg)
    scalar = integrate_ode_scalar(lambda x, t: x ** 3, -1.0, cfg,
                                  h_fn=lambda x: -x,
                                  u_fn=lambda x, t: x ** 3,
                                  u0_fn=lambda x, t: x ** 3)
    assert scalar.escape_time is not None
    assert abs(scalar.escape_time - general.escape_time) <= 0.01


def ou_pieces():
    sys = disturbed_1d()
    control = lambda x, t: -x[0]
    cov = CovarianceSchedule.constant([[0.2]])
    return sys, control, cov


def test_sde_streams_keyed_by_seed_and_path():
    sys, control, cov = ou_pieces()
    cfg = SimConfig(dt=1e-2, T=1.0, seed=11, paths=3)
    first = integrate_sde(sys, wide_barrier(), control, control, [1.0],
                          cov, cfg)
    second = integrate_sde(sys, wide_barrier(), control, control, [1.0],
                           cov, cfg)
    assert len(first) == 3
    for a, b in zip(first, second):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.disturbances, b.disturbances)
    # the recorded disturbance is the Wiener rate of path i's own stream
    sq = math.sqrt(cfg.dt)
    for i, traj in enumerate(first):
        rng = np.random.Generator(np.random.Philox(key=[cfg.seed, i]))
        Z = rng.standard_normal((cfg.n_steps, 1))
        assert np.array_equal(traj.disturbances[:-1], sq * Z / cfg.dt)
        assert np.all(traj.disturbances[-1] == 0.0)
    other = integrate_sde(sys, wide_barrier(), control, control, [1.0],
                          cov, SimConfig(dt=1e-2, T=1.0, seed=12, paths=3))
    assert not np.array_equal(first[0].states, other[0].states)


def test_batched_functionals_reuse_path_streams():
    # with integrand 0 and terminal x, the functional IS the endpoint,
    # and batching must not change which stream feeds which path
    sys, control, cov = ou_pieces()
    cfg = SimConfig(dt=1e-2, T=1.0, seed=7, paths=5)
    paths = integrate_sde(sys, wide_barrier(), control, control, [1.0],
                          cov, cfg)
    totals = sde_path_functionals(lambda x: -x, lambda x: 0.2, 1.0, cfg,
                                  integrand=lambda x: np.zeros_like(x),
                                  terminal=lambda x: x, batch_size=2)
    endpoints = np.array([p.states[-1, 0] for p in paths])
    assert np.array_equal(totals, endpoints)


def test_zero_covariance_sde_is_euler():
    sys, control, _ = ou_pieces()
    cov = CovarianceSchedule.constant([[0.0]])
    cfg = SimConfig(dt=1e-3, T=1.0)
    (traj,) = integrate_sde(sys, wide_barrier(), control, control, [1.0],
                            cov, cfg)
    ode = integrate_ode(sys, wide_barrier(), control, control, [1.0],
                        None, cfg)
    # Euler vs RK4 on dx/dt = -x: first-order gap only
    assert abs(traj.states[-1, 0] - ode.states[-1, 0]) < 0.01
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 0.01


def test_functional_accumulation_is_trapezoidal():
    cfg = SimConfig(dt=1e-3, T=1.0, paths=1)
    totals = sde_path_functionals(lambda x: -x, lambda x: np.zeros_like(x),
                                  1.0, cfg,
                                  integrand=lambda x: x * x,
                                  terminal=lambda x: np.zeros_like(x))
    # noiseless path is plain Euler; rebuild it and integrate the samples
    x = np.empty(cfg.n_steps + 1)
    x[0] = 1.0
    for k in range(cfg.n_steps):
        x[k + 1] = x[k] * (1.0 - cfg.dt)
    expected = trapezoid(x * x, dx=cfg.dt)
    assert totals[0] == pytest.approx(expected, abs=1e-12)
    assert totals[0] == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, abs=5e-3)


def test_csv_header_and_value_roundtrip(tmp_path):
    cfg = SimConfig(dt=0.1, T=0.3)
    traj = integrate_ode(disturbed_1d(), wide_barrier(),
                         lambda x, t: -x[0], lambda x, t: 0.0, [0.9],
                         lambda x, t: 0.2, cfg)
    out = tmp_path / "loop.csv"
    write_trajectory_csv(traj, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1,u1,u0_1,d_1,h,running_cost"
    assert len(lines) == traj.n_samples + 1
    for k, line in enumerate(lines[1:]):
        t, x1, u1, u01, d1, h, rc = (float(v) for v in line.split(","))
        # %.17g round-trips doubles bit for bit
        assert t == traj.times[k]
        assert x1 == traj.states[k, 0]
        assert u1 == traj.controls[k, 0]
        assert u01 == traj.nominal[k, 0]
        assert d1 == traj.disturbances[k, 0]
        assert h == traj.h_values[k]
        assert rc == traj.running_cost[k]
    again = tmp_path / "again.csv"
    write_trajectory_csv(traj, again)
    assert out.read_bytes() == again.read_bytes()


def test_csv_header_scales_with_dimensions(tmp_path):
    traj = Trajectory(times=np.zeros(2), states=np.zeros((2, 2)),
                      controls=np.zeros((2, 2)), nominal=np.zeros((2, 2)),
                      disturbances=np.zeros((2, 0)), h_values=np.zeros(2),
                      running_cost=np.zeros(2))
    out = tmp_path / "planar.csv"
    write_trajectory_csv(traj, out)
    header = out.read_text().splitlines()[0]
    assert header == "t,x1,x2,u1,u2,u0_1,u0_2,h,running_cost"


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, T=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.5, T=0.25)
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, T=1.0, paths=0)
    # n_steps rounds instead of floor, so 0.3/0.1 = 2.9999... is still 3
    assert SimConfig(dt=0.1, T=0.3).n_steps == 3
    assert SimConfig(dt=1e-3, T=2.0).n_steps == 2000


def test_sim_config_rejects_non_finite_horizon():
    for T in (math.inf, math.nan):
        with pytest.raises(ValueError, match="T must be finite"):
            SimConfig(dt=1e-3, T=T)


def test_policy_failure_is_wrapped_with_cause():
    def angry(x, t):
        if t > 0.0:
            raise ValueError("bad gain")
        return -x[0]

    cfg = SimConfig(dt=0.1, T=1.0)
    with pytest.raises(SimulationError) as err:
        integrate_ode(integrator_1d(), wide_barrier(), angry, angry,
                      [1.0], None, cfg)
    assert isinstance(err.value.__cause__, ValueError)

    def angry_drift(x, t):
        if t > 0.0:
            raise ValueError("bad drift")
        return -x

    with pytest.raises(SimulationError) as err:
        integrate_ode_scalar(angry_drift, 1.0, cfg, h_fn=lambda x: -x,
                             u_fn=lambda x, t: -x, u0_fn=lambda x, t: -x)
    assert isinstance(err.value.__cause__, ValueError)


def test_partial_last_step_rejected():
    # round(1/0.3) = 3 steps would stop at 0.9, short of the asked T
    with pytest.raises(ValueError, match="whole number of steps"):
        SimConfig(dt=0.3, T=1.0)
    assert SimConfig(dt=0.25, T=1.0).n_steps == 4


def _nominal_failing_after(t_fail, exc):
    # u0 runs only at record time, so this fails while recording a sample
    def u0(x, t):
        if t > t_fail:
            raise exc("u0 failed")
        return 0.0
    return u0


@pytest.mark.parametrize("exc", [ModelBlowup, OverflowError,
                                 FloatingPointError])
@pytest.mark.parametrize("kind", ["ode", "sde"])
def test_record_blowup_truncates_and_stamps_sample_time(kind, exc):
    cfg = SimConfig(dt=0.1, T=1.0)
    u0 = _nominal_failing_after(0.25, exc)
    control = lambda x, t: -x[0]
    if kind == "ode":
        traj = integrate_ode(disturbed_1d(), wide_barrier(), control, u0,
                             [1.0], lambda x, t: 0.1, cfg)
    else:
        (traj,) = integrate_sde(disturbed_1d(), wide_barrier(), control, u0,
                                [1.0], CovarianceSchedule.constant([[0.2]]),
                                cfg)
    assert traj.n_samples == 4
    assert traj.escape_time == traj.times[-1] == 3 * cfg.dt
    assert np.all(np.isfinite(traj.states))
    assert np.all(np.isfinite(traj.controls[:-1]))
    for row in (traj.controls[-1], traj.nominal[-1], traj.disturbances[-1]):
        assert np.all(np.isnan(row))
    assert math.isnan(traj.h_values[-1])


@pytest.mark.parametrize("kind", ["ode", "sde"])
def test_record_failure_is_wrapped_with_cause(kind):
    cfg = SimConfig(dt=0.1, T=1.0)
    u0 = _nominal_failing_after(0.25, KeyError)
    control = lambda x, t: -x[0]
    with pytest.raises(SimulationError) as err:
        if kind == "ode":
            integrate_ode(integrator_1d(), wide_barrier(), control, u0,
                          [1.0], None, cfg)
        else:
            integrate_sde(disturbed_1d(), wide_barrier(), control, u0, [1.0],
                          CovarianceSchedule.constant([[0.2]]), cfg)
    assert isinstance(err.value.__cause__, KeyError)
    assert "t=0.3" in str(err.value)


@pytest.mark.parametrize("thr", [math.inf, math.nan, 0.0, -1.0])
def test_escape_threshold_must_be_finite(thr):
    with pytest.raises(ValueError, match="escape_threshold"):
        SimConfig(dt=0.1, T=1.0, escape_threshold=thr)


def planar_disturbed():
    # n = 2, m1 = 1, m2 = 2: a rotation field with a disturbance channel
    return ControlAffineSystem(2, 1, 2, lambda x: np.array([x[1], -x[0]]),
                               lambda x: np.array([[0.0], [1.0]]),
                               lambda x: np.eye(2))


def ball_barrier():
    return BarrierFunction(lambda x: 1.0 - float(x @ x),
                           grad=lambda x: -2.0 * x,
                           hess=lambda x: -2.0 * np.eye(2))


def counted(fn, calls):
    def wrapped(x, t):
        calls.append(t)
        return fn(x, t)
    return wrapped


@pytest.mark.parametrize("x0", [[0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]]])
def test_integrate_ode_rejects_wrong_x0_before_any_callback(x0):
    calls = []
    with pytest.raises(ValueError, match="x0 shape"):
        integrate_ode(planar_disturbed(), ball_barrier(),
                      counted(lambda x, t: np.zeros(2), calls),
                      counted(lambda x, t: np.zeros(2), calls), x0,
                      counted(lambda x, t: np.zeros(1), calls),
                      SimConfig(dt=0.1, T=1.0))
    assert calls == []


@pytest.mark.parametrize("x0", [[0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]]])
def test_integrate_sde_rejects_wrong_x0_before_any_callback(x0):
    calls = []
    with pytest.raises(ValueError, match="x0 shape"):
        integrate_sde(planar_disturbed(), ball_barrier(),
                      counted(lambda x, t: np.zeros(2), calls),
                      counted(lambda x, t: np.zeros(2), calls), x0,
                      CovarianceSchedule.constant([[0.2]]),
                      SimConfig(dt=0.1, T=1.0, paths=2))
    assert calls == []


def test_integrators_leave_the_callers_x0_alone():
    x0 = np.array([0.3, -0.2])
    keep = x0.copy()
    control = lambda x, t: -x
    traj = integrate_ode(planar_disturbed(), ball_barrier(), control,
                         control, x0, lambda x, t: np.array([0.1]),
                         SimConfig(dt=0.1, T=1.0))
    paths = integrate_sde(planar_disturbed(), ball_barrier(), control,
                          control, x0, CovarianceSchedule.constant([[0.2]]),
                          SimConfig(dt=0.1, T=1.0, paths=2))
    assert np.array_equal(x0, keep)
    for rec in [traj] + paths:
        assert np.array_equal(rec.states[0], keep)


def per_value_csv(traj, path):
    """The row-by-row writer the blocked one replaced: the byte oracle."""
    n = traj.states.shape[1]
    m2 = traj.controls.shape[1]
    m1 = traj.disturbances.shape[1]
    cols = (["t"]
            + ["x%d" % (i + 1) for i in range(n)]
            + ["u%d" % (i + 1) for i in range(m2)]
            + ["u0_%d" % (i + 1) for i in range(m2)]
            + ["d_%d" % (i + 1) for i in range(m1)]
            + ["h", "running_cost"])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(traj.times.size):
            row = ([traj.times[k]] + list(traj.states[k])
                   + list(traj.controls[k]) + list(traj.nominal[k])
                   + list(traj.disturbances[k])
                   + [traj.h_values[k], traj.running_cost[k]])
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def test_blocked_csv_matches_per_value_writer(tmp_path):
    rows = 10001                       # more than two blocks of 4096
    rng = np.random.default_rng(7)
    traj = Trajectory(times=0.001 * np.arange(rows),
                      states=rng.normal(size=(rows, 2)),
                      controls=rng.normal(size=(rows, 2)) * 1e300,
                      nominal=rng.normal(size=(rows, 2)) * 1e-300,
                      disturbances=rng.normal(size=(rows, 1)),
                      h_values=rng.normal(size=rows),
                      running_cost=np.cumsum(rng.normal(size=rows)))
    traj.states[5, 0] = np.nan
    traj.states[4097, 1] = -0.0
    traj.controls[4096, 0] = np.inf
    traj.nominal[8191, 1] = -np.inf
    traj.disturbances[8192, 0] = 5e-324                  # subnormal
    traj.h_values[rows - 1] = np.nan
    traj.running_cost[0] = -0.0
    ours, ref = tmp_path / "blocked.csv", tmp_path / "ref.csv"
    write_trajectory_csv(traj, ours)
    per_value_csv(traj, ref)
    assert ours.read_bytes() == ref.read_bytes()
    text = ours.read_text()
    for token in ("nan", "-0,", "inf", "-inf", "4.9406564584124654e-324"):
        assert token in text


def test_tombstone_csv_matches_per_value_writer(tmp_path):
    # x0 already past the escape threshold: a one-sample record whose
    # outputs are NaN
    control = lambda x, t: -x
    traj = integrate_ode(planar_disturbed(), ball_barrier(), control,
                         control, [2e6, 0.0], lambda x, t: np.array([0.1]),
                         SimConfig(dt=0.1, T=1.0))
    assert traj.n_samples == 1 and traj.escape_time == 0.0
    ours, ref = tmp_path / "tomb.csv", tmp_path / "ref.csv"
    write_trajectory_csv(traj, ours)
    per_value_csv(traj, ref)
    assert ours.read_bytes() == ref.read_bytes()
    assert ours.read_text().splitlines()[1].count("nan") == 5


@pytest.mark.parametrize("exc", [ModelBlowup, OverflowError])
def test_scalar_record_blowup_is_a_tombstone(exc):
    # the scalar path records by the rule of the array integrators
    cfg = SimConfig(dt=0.1, T=1.0)
    traj = integrate_ode_scalar(lambda x, t: -x, 1.0, cfg,
                                h_fn=lambda x: -x, u_fn=lambda x, t: -x,
                                u0_fn=_nominal_failing_after(0.45, exc))
    assert traj.n_samples == 6
    assert traj.escape_time == traj.times[-1] == 0.5
    assert np.all(np.isfinite(traj.states))
    assert np.all(np.isfinite(traj.controls[:-1]))
    assert np.isnan(traj.controls[-1, 0]) and np.isnan(traj.nominal[-1, 0])
    assert math.isnan(traj.h_values[-1])


def test_scalar_record_failure_is_wrapped_with_cause():
    cfg = SimConfig(dt=0.1, T=1.0)
    with pytest.raises(SimulationError) as err:
        integrate_ode_scalar(lambda x, t: -x, 1.0, cfg, h_fn=lambda x: -x,
                             u_fn=lambda x, t: -x,
                             u0_fn=_nominal_failing_after(0.25, ValueError))
    assert isinstance(err.value.__cause__, ValueError)
    assert "t=0.3" in str(err.value)


def test_scalar_escape_tombstone_matches_general():
    # dx = x^3 from 1 leaves every compact at t = 0.5; both paths stamp
    # the same tombstone sample
    cfg = SimConfig(dt=1e-3, T=1.0)
    scalar = integrate_ode_scalar(lambda x, t: x ** 3, 1.0, cfg,
                                  h_fn=lambda x: -x,
                                  u_fn=lambda x, t: x ** 3,
                                  u0_fn=lambda x, t: 0.0)
    general = integrate_ode(integrator_1d(), wide_barrier(),
                            lambda x, t: x[0] ** 3, lambda x, t: 0.0,
                            [1.0], None, cfg)
    assert scalar.escape_time == general.escape_time
    for name in ("times", "states", "controls", "nominal", "h_values"):
        a, b = getattr(scalar, name), getattr(general, name)
        assert a.shape == b.shape
        assert np.array_equal(a[:-1], b[:-1])
        assert np.array_equal(a[-1], b[-1], equal_nan=True)


@pytest.mark.parametrize("x0", [0.4, [0.4], (0.4,), np.array([0.4]),
                                np.array(0.4)])
def test_scalar_path_takes_the_states_integrate_ode_takes(x0):
    cfg = SimConfig(dt=0.1, T=0.5)
    traj = integrate_ode_scalar(lambda x, t: -x, x0, cfg, h_fn=lambda x: -x,
                                u_fn=lambda x, t: -x, u0_fn=lambda x, t: 0.0)
    assert traj.states[0, 0] == 0.4


@pytest.mark.parametrize("x0", [[0.1, 0.2], [[0.1]], np.zeros((1, 1))])
def test_scalar_path_rejects_wrong_x0_before_any_callback(x0):
    calls = []
    with pytest.raises(ValueError, match="x0 shape"):
        integrate_ode_scalar(lambda x, t: calls.append(t) or -x, x0,
                             SimConfig(dt=0.1, T=0.5),
                             h_fn=lambda x: calls.append(x) or -x,
                             u_fn=lambda x, t: -x, u0_fn=lambda x, t: 0.0)
    assert calls == []
