"""Per-path noise streams from one re-keyed Philox.

sim._normals builds one Philox per call and re-keys it for each path;
path i must still draw exactly what a fresh
Generator(Philox(key=[seed, i])) draws, for any seed Philox accepts
(negative and >= 2**63 ones included, through Philox's own conversion
of key word 0), in any path order, and through integrate_sde and the
batched sde_path_functionals.
"""

import math

import numpy as np
import pytest

from safefilt.sim import (SimConfig, _normals, integrate_sde,
                          sde_path_functionals)
from safefilt.stochastic import CovarianceSchedule
from safefilt.systems import BarrierFunction, ControlAffineSystem

SEEDS = [0, 1, 7, -1, 2**62, 2**63 - 1, 2**63, 2**64 - 1, -2**63]


def _fresh(seed, i, shape):
    # numpy's own key conversion warns (invalid cast) for 2**64 - 1
    with np.errstate(invalid="ignore"):
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
    return rng.standard_normal(shape)


def _bits(a):
    return np.asarray(a).view(np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_rekeyed_stream_is_the_fresh_stream(seed):
    with np.errstate(invalid="ignore"):
        fill = _normals(seed)
    for i in (0, 1, 999, 1, 0):
        out = np.empty((40, 3))
        assert fill(i, out) is out
        assert np.array_equal(_bits(out), _bits(_fresh(seed, i, (40, 3))))
    row = np.empty((2, 25))
    fill(999, row[1])
    assert np.array_equal(_bits(row[1]), _bits(_fresh(seed, 999, 25)))


def _ou():
    sys = ControlAffineSystem(1, 1, 1, lambda x: np.zeros(1),
                              lambda x: np.array([[1.0]]),
                              lambda x: np.array([[1.0]]))
    bf = BarrierFunction(lambda x: 100.0 - x[0] ** 2,
                         lambda x: np.array([-2.0 * x[0]]),
                         lambda x: np.array([[-2.0]]))
    return sys, bf, CovarianceSchedule.constant([[0.3]])


@pytest.mark.parametrize("seed", [-1, 2**63, 5])
def test_sde_paths_draw_the_fresh_streams(seed):
    sys, bf, cov = _ou()
    control = lambda x, t: -x
    cfg = SimConfig(dt=0.05, T=1.0, seed=seed, paths=4)
    paths = integrate_sde(sys, bf, control, control, [0.5], cov, cfg)
    for i, traj in enumerate(paths):
        Z = _fresh(seed, i, (cfg.n_steps, 1))
        assert np.array_equal(traj.disturbances[:-1],
                              math.sqrt(cfg.dt) * Z / cfg.dt)


def test_functionals_reuse_one_noise_buffer_across_batches():
    # 7 paths in batches of 3: the last batch is a partial view of the
    # same buffer, and every path still reads its own fresh stream
    cfg = SimConfig(dt=0.01, T=0.5, seed=2**63, paths=7)
    totals = sde_path_functionals(lambda x: -x, lambda x: 0.4, 1.0, cfg,
                                  integrand=lambda x: x * x,
                                  terminal=lambda x: x, batch_size=3)
    sq = math.sqrt(cfg.dt)
    for i in range(cfg.paths):
        Z = _fresh(cfg.seed, i, cfg.n_steps)
        x = 1.0
        running = 0.0
        prev = x * x
        for k in range(cfg.n_steps):
            x = x + cfg.dt * -x + 0.4 * (sq * Z[k])
            cur = x * x
            running += 0.5 * cfg.dt * (prev + cur)
            prev = cur
        assert totals[i] == running + x
