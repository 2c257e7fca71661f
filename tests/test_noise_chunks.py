"""sde_path_functionals streams its noise in time chunks.

Each path of a batch keeps its own slot of sim._streams and draws its
next K normals a chunk at a time, K = min(N, _NOISE // P). The
totals must be the bits of the whole-path loop that drew every path's
normals up front (kept below as the oracle), for any batch width and
any K, and the memory held must not grow with the horizon nor hold more
than the one chunk, whose columns the steps read in place. Also pinned:
batch_size < 1 is refused before any draw, and a numpy division by zero
in the loop ends in the loop's own SimulationError, also when warnings
are errors.
"""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilt import sim
from safefilt.sim import (SimConfig, SimulationError, _streams,
                          sde_path_functionals)

SEEDS = [0, -1, 2**63, 977]
DT = 0.0625                 # exact in binary, so T = N * DT is N steps


def _fresh(seed, i, n):
    with np.errstate(invalid="ignore"):
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
    return rng.standard_normal(n)


def whole_path_functionals(drift, diffusion, x0, cfg, integrand, terminal,
                           batch_size):
    """The whole-path loop: each batch's (p, N) normals drawn up front,
    path i's row from a fresh Generator(Philox(key=[seed, i]))."""
    x0 = float(x0)
    n_steps = cfg.n_steps
    dt = cfg.dt
    sq = math.sqrt(dt)
    totals = np.empty(cfg.paths)
    noise = np.empty((min(batch_size, cfg.paths), n_steps))
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while done < cfg.paths:
            p = min(batch_size, cfg.paths - done)
            Z = noise[:p]
            for i in range(p):
                Z[i] = _fresh(cfg.seed, done + i, n_steps)
            x = np.full(p, x0)
            running = np.zeros(p)
            prev = integrand(x)
            for k in range(n_steps):
                x = x + dt * drift(x) + diffusion(x) * (sq * Z[:, k])
                cur = integrand(x)
                running += 0.5 * dt * (prev + cur)
                prev = cur
            if not np.all(np.isfinite(x)):
                raise SimulationError("path functional diverged")
            totals[done:done + p] = running + terminal(x)
            done += p
    return totals


def _bits(a):
    return np.asarray(a).view(np.uint64)


def _pieces(scalar):
    drift = lambda x: -x + 0.5 * np.tanh(x)
    if scalar:
        return drift, lambda x: 0.4, lambda x: 1.5, lambda x: x
    return (drift, lambda x: 0.4 + 0.1 * x * x, lambda x: x * x,
            lambda x: np.sin(x))


@given(paths=st.integers(1, 9), batch=st.sampled_from([1, 2, 3, 4, None]),
       n_steps=st.integers(1, 40), seed=st.sampled_from(SEEDS),
       chunk=st.sampled_from(["1", "2", "N-1", "N", "N+1"]),
       scalar=st.booleans(), x0=st.floats(-1.0, 1.0))
@settings(max_examples=120, deadline=None)
def test_chunked_totals_are_the_whole_path_bits(paths, batch, n_steps, seed,
                                                chunk, scalar, x0):
    cfg = SimConfig(dt=DT, T=n_steps * DT, seed=seed, paths=paths)
    assert cfg.n_steps == n_steps
    width = sde_path_functionals.__defaults__[0] if batch is None else batch
    P = min(width, paths)
    K = {"1": 1, "2": 2, "N-1": n_steps - 1, "N": n_steps,
         "N+1": n_steps + 1}[chunk]
    pieces = _pieces(scalar)
    kw = {} if batch is None else {"batch_size": batch}
    with mock.patch.object(sim, "_NOISE", P * K):
        got = sde_path_functionals(pieces[0], pieces[1], x0, cfg,
                                   *pieces[2:], **kw)
    want = whole_path_functionals(pieces[0], pieces[1], x0, cfg,
                                  *pieces[2:], batch_size=width)
    assert got.shape == (paths,)
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("seed", SEEDS)
def test_a_slot_drawn_in_chunks_is_the_fresh_stream(seed):
    start, gens = _streams(seed, 3)
    for first in (0, 5, 0):
        start(first, 2)         # slot 2 is left where it was
        for j in range(2):
            out = np.empty(40)
            for a, b in ((0, 1), (1, 3), (3, 17), (17, 40)):
                gens[j].standard_normal(out=out[a:b])
            assert np.array_equal(_bits(out), _bits(_fresh(seed, first + j,
                                                           40)))


# ex5-stoch's closed forms: its drift under the stochastic filter, its
# diffusion, the certified running cost and the terminal cost
BETA = 2.0


def ex5_drift(x):
    return BETA * (x - 1.0) * np.maximum(0.0, 0.5 - np.log1p(-x))


def ex5_integrand(x):
    a = np.maximum(0.0, 0.5 - np.log1p(-x))
    return BETA - (2.0 * BETA + BETA * BETA) * a


def ex5_peak_mb(cfg):
    """The traced peak of one ex5 functional call above what was held
    before it, in MB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sde_path_functionals(ex5_drift, lambda x: 1.0 - x, -1.0, cfg,
                             ex5_integrand,
                             lambda x: 2.0 * BETA * np.log1p(-x))
        return (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        tracemalloc.stop()


def test_noise_memory_at_ex5_defaults_is_bounded():
    # ex5-stoch's defaults: 10**4 paths, dt = 1e-3, T = 2
    assert ex5_peak_mb(SimConfig(dt=1e-3, T=2.0, paths=10000)) <= 10.0


def test_noise_memory_does_not_grow_with_the_horizon():
    # one batch of the default width, at ex5's T and four times it
    short = ex5_peak_mb(SimConfig(dt=1e-3, T=2.0, paths=2000))
    long = ex5_peak_mb(SimConfig(dt=1e-3, T=8.0, paths=2000))
    assert abs(long - short) <= 1.0


def test_one_chunk_is_stepped_in_place():
    # one batch of the default width in one chunk (K = N = 250): its
    # 4 MB of normals are the noise held, with no scaled copy beside it
    assert ex5_peak_mb(SimConfig(dt=1e-3, T=0.25, paths=2000)) <= 7.0


@pytest.mark.parametrize("batch_size", [0, -1])
def test_batch_size_below_one_is_refused_before_any_draw(batch_size):
    called = []

    def fn(x):
        called.append(x)
        return x
    cfg = SimConfig(dt=0.1, T=1.0, paths=3)
    with mock.patch.object(sim, "_streams", side_effect=AssertionError):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            sde_path_functionals(fn, fn, 0.0, cfg, fn, fn,
                                 batch_size=batch_size)
    assert not called


def test_division_by_zero_in_the_loop_is_a_divergence():
    # drift 1/(x - 1) at x0 = 1 divides by zero at the first step
    cfg = SimConfig(dt=1e-2, T=0.5, paths=3)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError, match="path functional diverged"):
            sde_path_functionals(lambda x: 1.0 / (x - 1.0), lambda x: 0.1,
                                 1.0, cfg, lambda x: x * x, lambda x: x)
    assert np.geterr() == before
