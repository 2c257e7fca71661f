"""Tests of the benchmark itself:

    python3 -m pytest bench -q

They run shortened passes of the two workloads that hand callables to
the library (the full ones are what bench/run.py measures).
"""

import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import safefilt as sf  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import NoTracer, Tracer  # noqa: E402

SEED = 3


def _short(seed):
    game = workloads.GameCert(seed, ROOT)
    short = sf.SimConfig(dt=2e-3, T=0.2)
    game.inputs = dataclasses.replace(game.inputs, cfg=short,
                                      probe_cfg=short)
    stoch = workloads.StochMC(seed, ROOT)
    stoch.inputs = dataclasses.replace(
        stoch.inputs,
        mc_cfg=sf.SimConfig(dt=1e-3, T=0.5, seed=seed, paths=400),
        sde_cfg5=sf.SimConfig(dt=1e-3, T=0.1, seed=seed, paths=2),
        sde_cfg6=sf.SimConfig(dt=1e-3, T=0.1, seed=seed, paths=2))
    return game, stoch


def _traced_metrics(seed):
    tracers, checks = [], workloads.Checks()
    for w in _short(seed):
        tr = Tracer()
        run.timed_pass(w, tr, checks)
        tracers.append(tr)
    assert checks.failed == []
    return tracers, run.layer_metrics(tracers, 0.0, workloads.BUILTIN_IDS)


def test_counts_repeat_exactly_for_the_same_seed():
    tracers_a, metrics_a = _traced_metrics(SEED)
    tracers_b, metrics_b = _traced_metrics(SEED)
    for a, b in zip(tracers_a, tracers_b):
        assert a.counts == b.counts
        assert a.tally == b.tally
        assert a.calls == b.calls
    for name, (value, unit) in metrics_a.items():
        if unit.startswith("count") or name.endswith("active_frac"):
            assert metrics_b[name][0] == value, name
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"]
                    for m in json.load(fh)["per_layer"]}
    assert {k: u for k, (_, u) in metrics_a.items()} == declared


def test_self_times_add_up_to_the_traced_wall():
    game, _ = _short(SEED)
    checks = workloads.Checks()
    run.timed_pass(game, NoTracer(), checks)          # warm-up
    plain, traced, gaps = [], [], []
    for _ in range(3):
        plain.append(run.timed_pass(game, NoTracer(), checks)[0])
        tr = Tracer()
        traced.append(run.timed_pass(game, tr, checks)[0])
        gaps.append(traced[-1] - sum(tr.self_s.values()))
    assert checks.failed == []
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    # the spans cover the pass but for the benchmark's own glue between
    # them; on a quiet machine the overhead estimate can dip below the
    # 2% that glue is allowed
    for wall, gap in zip(traced, gaps):
        assert 0.0 <= gap <= max(overhead, 0.02) * wall


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "game-cert",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert res.stdout == ""
