"""The one loop, sim._run, under each of its four (sample, step) pairs.

A step that blows up (ModelBlowup, OverflowError, FloatingPointError)
truncates the record after the sample it started from and stamps the
step's end; any other error in a step is a SimulationError carrying it
as the cause, at the step's start. Here the failure is placed inside
step 3 of ten (dt = 0.1), where no sample is recorded: an RK4 stage
off the grid, or the covariance of an Euler-Maruyama step.
"""

import numpy as np
import pytest

from safefilt.comparison import linear_extended
from safefilt.projection import ProjectionSpec, simulate_projection
from safefilt.scenarios import unit_ball_barrier
from safefilt.sim import (SimConfig, SimulationError, integrate_ode,
                          integrate_ode_scalar, integrate_sde)
from safefilt.stochastic import CovarianceSchedule
from safefilt.systems import BarrierFunction, ModelBlowup, scalar_system

CFG = SimConfig(dt=0.1, T=1.0)


def _fails_in_step_3(exc, value, off_grid_only=True):
    """value(x, t), raising exc past t = 0.28; with off_grid_only, only
    at times between grid points, which samples never see."""
    def fn(x, t):
        off_grid = abs(t / CFG.dt - round(t / CFG.dt)) > 0.25
        if t > 0.28 and (off_grid or not off_grid_only):
            raise exc("fails in step 3")
        return value(x)
    return fn


def _run_loop(kind, exc):
    barrier = BarrierFunction(lambda x: -x[0],
                              grad=lambda x: np.array([-1.0]),
                              hess=lambda x: np.zeros((1, 1)))
    if kind == "ode":
        control = _fails_in_step_3(exc, lambda x: -x[0])
        return integrate_ode(scalar_system(lambda x: 0.0, None,
                                           lambda x: 1.0),
                             barrier, control, lambda x, t: 0.0, [1.0], None,
                             CFG)
    if kind == "sde":
        sigma = _fails_in_step_3(exc, lambda t: np.eye(1),
                                 off_grid_only=False)
        cov = CovarianceSchedule(lambda t: sigma(t, t), 1)
        (traj,) = integrate_sde(scalar_system(lambda x: 0.0, lambda x: 1.0,
                                              lambda x: 1.0),
                                barrier, lambda x, t: -x[0],
                                lambda x, t: 0.0, [1.0], cov, CFG)
        return traj
    if kind == "scalar":
        drift = _fails_in_step_3(exc, lambda x: -x)
        return integrate_ode_scalar(drift, 1.0, CFG, h_fn=lambda x: -x,
                                    u_fn=lambda x, t: -x,
                                    u0_fn=lambda x, t: -x)
    spec = ProjectionSpec(unit_ball_barrier(), linear_extended(1.0))
    u0_law = _fails_in_step_3(exc, lambda th: np.array([0.01, 0.0]))
    return simulate_projection(spec, u0_law, np.array([0.1, 0.0]), CFG,
                               law="classic")


KINDS = ["ode", "sde", "scalar", "classic-projection"]


@pytest.mark.parametrize("exc", [ModelBlowup, OverflowError,
                                 FloatingPointError])
@pytest.mark.parametrize("kind", KINDS)
def test_a_step_blowup_truncates_after_its_sample_and_stamps_its_end(kind,
                                                                     exc):
    traj = _run_loop(kind, exc)
    assert traj.n_samples == 4
    assert traj.times[-1] == 3 * CFG.dt
    assert traj.escape_time == traj.times[-1] + CFG.dt
    # every kept sample is a whole one: no tombstone
    for column in (traj.states, traj.controls, traj.nominal,
                   traj.disturbances, traj.h_values):
        assert column.shape[0] == 4 and np.isfinite(column).all()


@pytest.mark.parametrize("kind", KINDS)
def test_a_step_failure_is_wrapped_with_cause(kind):
    with pytest.raises(SimulationError, match=r"t=0\.3,") as err:
        _run_loop(kind, KeyError)
    assert isinstance(err.value.__cause__, KeyError)
