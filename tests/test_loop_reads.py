"""What the loops read, and how often.

optimality_probe's stacked route takes each perturbation shape's
delta(t) once per stage and scales it by each row's amplitude. The
loops read h through the barrier's own callable at the checked state:
a barrier whose public value raises runs integrate_ode, integrate_sde
and optimality_probe to the same records and results.
"""

import math

import numpy as np
import pytest

from safefilt.certify import CostSpec, ProbeSetup, optimality_probe
from safefilt.scenarios import integrator_system, neg_state_barrier
from safefilt.sim import SimConfig, integrate_ode, integrate_sde
from safefilt.stochastic import CovarianceSchedule
from safefilt.systems import BarrierFunction, scalar_system, stacked


class _NoPublicValue(BarrierFunction):
    """A barrier whose public value must not be called."""

    def value(self, x):
        raise AssertionError("public value called")


def _barriers():
    bf = neg_state_barrier()
    return bf, _NoPublicValue(bf._h, grad=bf._grad, hess=bf._hess)


def _intro_u(x, t):
    return 1.0 + 2.0 * min(0.0, -(1.0 + x[0]))


def _intro(bf, x0):
    return ProbeSetup(integrator_system(), bf, _intro_u, lambda x, t: 1.0,
                      None, [x0], CostSpec("intro-min"), +1)


def test_probe_takes_each_shape_once_per_stage():
    calls = []

    def counted(name, fn):
        def delta(t):
            calls.append((name, t))
            return fn(t)
        return delta
    shapes = {"const": counted("const", lambda t: 1.0),
              "sine": counted("sine", math.sin)}
    cfg = SimConfig(dt=0.02, T=1.0)
    out = optimality_probe(_intro(neg_state_barrier(), -0.8), cfg, shapes)
    assert len(out["margins"]) == 8 and out["passed"]
    dt, stages = cfg.dt, []
    for k in range(cfg.n_steps):    # the sample, then RK4 stages 2-4
        t = k * dt
        stages += [t, t + 0.5 * dt, t + 0.5 * dt, t + dt]
    stages.append(cfg.n_steps * dt)
    for name in shapes:
        assert [t for who, t in calls if who == name] == stages


def _records(trajs):
    return [[np.asarray(getattr(tr, k)).tobytes()
             for k in ("times", "states", "controls", "nominal",
                       "disturbances", "h_values")] + [tr.escape_time]
            for tr in trajs]


@pytest.mark.parametrize("x0, thr", [(-0.8, 1e6), (0.2, 0.5)])
def test_integrate_ode_reads_no_public_value(x0, thr):
    # dx = x + u runs off past the threshold from x0 = 0.2: the
    # tombstone reads h at the escaped state
    plant = scalar_system(lambda x: x, lambda x: 0.5, lambda x: 1.0)
    cfg = SimConfig(dt=0.01, T=1.0, escape_threshold=thr)
    got = [integrate_ode(plant, bf, lambda x, t: np.array([0.1]),
                         lambda x, t: np.array([0.0]), [x0],
                         lambda x, t: np.array([math.sin(t)]), cfg)
           for bf in _barriers()]
    assert _records(got[:1]) == _records(got[1:])
    assert (got[0].escape_time is None) == (thr > 1.0)


@pytest.mark.parametrize("paths", [1, 4])
def test_integrate_sde_reads_no_public_value(paths):
    plant = scalar_system(lambda x: x, lambda x: 1.0, lambda x: 1.0)
    cfg = SimConfig(dt=0.01, T=1.0, escape_threshold=0.8, seed=5,
                    paths=paths)
    cov = CovarianceSchedule.constant(np.eye(1))
    for control in (lambda x, t: np.array([0.0]),
                    stacked(lambda X, t: np.zeros((len(X), 1)))):
        got = [integrate_sde(plant, bf, control, control, [0.3], cov, cfg)
               for bf in _barriers()]
        assert _records(got[0]) == _records(got[1])


@pytest.mark.parametrize("x0, thr", [(-0.8, 1e6), (-0.52, 0.53)])
def test_probe_reads_no_public_value(x0, thr):
    # with the threshold at 0.53 the rows pushed down escape
    cfg = SimConfig(dt=0.02, T=1.0, escape_threshold=thr)
    got = []
    for bf in _barriers():
        try:
            got.append(optimality_probe(_intro(bf, x0), cfg))
        except Exception as exc:
            got.append((type(exc), str(exc)))
    assert got[0] == got[1]
