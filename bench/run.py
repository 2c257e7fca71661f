"""safefilt benchmark: one command, three seeded certification workloads.

    python3 bench/run.py --workload game-cert --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from
./src and nowhere else, so a directory without it is an error (exit 1,
nothing on stdout).
The run is a single process on a single thread: BLAS/OpenMP pools are
pinned to one thread before numpy loads. Cache state, CPU affinity and
cgroups are left as they are.

--trace 0 measures the end-to-end metrics with tracing off:

  setup_s      import plus input generation, timed in fresh interpreters
               (SETUP_SAMPLES of them, median reported)
  wall_s       wall time of one pass (every job run and every
               certificate checked), median over the passes that fit in
               --seconds (at least MIN_PASSES)
  peak_rss_mb  peak resident memory of this process

Both times are reported at reference machine speed: each raw time is
scaled by REFERENCE_KERNEL_S over the time the same process takes, at
that moment, for a fixed reference kernel that does not touch safefilt
(sampled between jobs, and right after each setup). On a shared
2-vCPU host the raw speed of single-threaded Python swings by up to 60%
for minutes at a time, which no median over one run can absorb; the
kernel swings with it, so the ratio stays put while a change to safefilt
still moves it one for one. The raw seconds are printed alongside.

--trace 1 gives the per-layer metrics (see layer_metrics). It times the
named workload in alternating untraced and traced passes, for the
overhead, then traces one pass of each other workload, so every layer is
measured in every traced run.

The failed share of checks (fail_frac) is printed with the metrics; the
result line carries it as `failed` over `attempted`. Any failed check is
listed by name and makes the exit code 1.
"""

import os
import sys
import time

T_START = time.perf_counter()

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

SETUP_SAMPLES = 5
MIN_PASSES = 3
# the reference machine is one on which reference_kernel() takes 20 ms
REFERENCE_KERNEL_S = 0.02
WORKLOAD_NAMES = ("game-cert", "stoch-mc", "cli-builtins")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time import and input generation, print it, exit")
    return p.parse_args(argv)


def import_checkout(root):
    """Put <root>/src first on sys.path and import safefilt from it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "safefilt", "__init__.py")):
        raise SystemExit("bench: no src/safefilt under %s; run from the "
                         "root of a safefilt checkout" % root)
    sys.path.insert(0, src)
    import safefilt
    where = os.path.realpath(safefilt.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit("bench: safefilt imported from %s, not %s"
                         % (where, src))
    return safefilt


def environment():
    import numpy
    import scipy
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "l3": None,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": "BLAS/OpenMP pinned to 1",
            "untouched": "cache state, CPU affinity and cgroups"}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            info["l3"] = fh.read().strip()
    except OSError:
        pass
    return info


def reference_kernel():
    """Fixed interpreter-bound work shaped like safefilt's per-step
    overhead (small numpy conversions and products, float math), using
    no safefilt code."""
    import math
    import numpy as np
    x = np.array([0.3])
    acc = 0.0
    for _ in range(3500):
        v = np.atleast_1d(np.asarray(x * 1.0001, dtype=float))
        m = np.array([[1.0 + v[0] * v[0]]])
        acc += float(v @ m[0]) + math.sqrt(abs(acc) + 1.0)
        x = v if acc < 1e9 else np.array([0.3])
    return acc


def kernel_seconds():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def setup_samples(argv_tail, root):
    """Raw and reference-speed setup times from fresh interpreters."""
    raw, ref = [], []
    for _ in range(SETUP_SAMPLES):
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe"]
            + argv_tail, cwd=root, capture_output=True, text=True,
            timeout=120, check=True)
        seconds, kernel = json.loads(res.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        ref.append(seconds * REFERENCE_KERNEL_S / kernel)
    return raw, ref


def timed_pass(workload, tr, checks):
    """Run every job once, in order. Returns the pass's raw wall seconds
    and the same at reference speed, each job scaled by the mean of the
    kernel samples taken just before and after it (they are not part of
    the wall)."""
    failed = len(checks.failed)
    wall = ref = 0.0
    before = kernel_seconds()
    for name, job in workload.jobs():
        t0 = time.perf_counter()
        with checks.job(name):
            job(tr, checks)
        seconds = time.perf_counter() - t0
        after = kernel_seconds()
        wall += seconds
        ref += seconds * REFERENCE_KERNEL_S / (0.5 * (before + after))
        before = after
    tr.add("failed", len(checks.failed) - failed)
    return wall, ref


def layer_metrics(traced, overhead, builtin_ids):
    """Per-layer metrics from one traced pass of each workload, as
    {name: (value, unit)}.

    Times are self times (callback spans subtracted) unless the name ends
    in `.s`; `us_per_*` divide them by the exact work count named.
    Counts and ratios of counts repeat exactly for the same seed.
    """
    from tracer import Tracer
    tr = Tracer()
    for t in traced:
        tr.merge(t)
    tally, calls = tr.tally, tr.calls

    def ratio(a, b):
        # a job that failed early may leave a layer without work
        return a / b if b else float("nan")

    def us(span, per):
        return (1e6 * ratio(tr.self_s[span], per), "us")

    model = ("f", "g1", "g2", "h", "grad", "hess", "B", "gradB")
    ode_steps = tally["sim.ode.steps"]
    sde_steps = tally["sim.sde.path_steps"]
    cost_scopes = [s for s in tr.total_s if s.startswith("certify.cost.")]
    cost_samples = sum(tally[s + ".samples"] for s in cost_scopes)
    dssf_samples = tally["certify.dssf.samples"]
    m = {
        "sim.ode.us_per_step": us("sim.ode", ode_steps),
        "sim.ode.callbacks_per_step": (
            ratio(tr.count_in(("sim.ode",)), ode_steps), "count/step"),
        "sim.sde.us_per_path_step": us("sim.sde", sde_steps),
        "sim.mc.us_per_path_step": us("sim.mc", tally["sim.mc.path_steps"]),
        "sim.escapes": (tally["sim.escapes"], "count"),
        "filters.us_per_call": us("filters", calls["filters"]),
        "filters.calls": (calls["filters"], "count"),
        "filters.active_frac": (
            ratio(tally["filters.active"], calls["filters"]), "1"),
        "filters.hj.us_per_state": us("filters.hj",
                                      tally["filters.hj.states"]),
        "reciprocal.us_per_call": us("reciprocal", calls["reciprocal"]),
        "stochastic.us_per_call": us("stochastic", calls["stochastic"]),
        "stochastic.hj.us_per_state": us("stochastic.hj",
                                         tally["stochastic.hj.states"]),
        "stochastic.mc_gap_in_se": (
            tr.notes.get("stochastic.mc_gap_in_se", float("nan")), "SE"),
        "systems.model_evals_per_step": (
            ratio(tr.count_in(("sim.ode", "sim.sde"), model),
                  ode_steps + sde_steps), "count/step"),
        "systems.model_evals_per_cost_sample": (
            ratio(tr.count_in(cost_scopes, model), cost_samples),
            "count/sample"),
        "systems.lie_data.us_per_call": us("systems.lie_data",
                                           calls["systems.lie_data"]),
    }
    for kind in ("disturbance-game", "qp-exact", "qp-weighted",
                 "reciprocal-min"):
        span = "certify.cost." + kind
        m[span + ".us_per_sample"] = us(span, tally[span + ".samples"])
    m["certify.dssf.us_per_sample"] = us("certify.dssf", dssf_samples)
    m["certify.probe.s"] = (tr.total_s["certify.probe"], "s")
    m["certify.failed"] = (tally["failed"], "count")
    m["comparison.alpha_evals_per_kl_sample"] = (
        ratio(tr.count_in(("certify.dssf",), ("alpha",)), dssf_samples),
        "count/sample")
    for bid in builtin_ids:
        m["scenarios.%s.s" % bid] = (tr.total_s["scenarios." + bid], "s")
    m["cli.bytes_out"] = (tally["cli.bytes_out"], "B")
    m["process.cpu_s"] = (time.process_time(), "s")
    m["trace.overhead_frac"] = (overhead, "1")
    return m


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    import_checkout(root)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    from tracer import NoTracer, Tracer

    def make(name):
        return workloads.WORKLOADS[name](args.seed, root)

    workload = make(args.workload)
    if args.setup_probe:
        seconds = time.perf_counter() - T_START
        kernel = statistics.median(kernel_seconds() for _ in range(3))
        print(json.dumps([seconds, kernel]))
        return 0

    checks = workloads.Checks()
    plain = NoTracer()
    try:
        if args.trace == 0:
            setup_raw, setup = setup_samples(
                ["--workload", args.workload, "--seed", str(args.seed)], root)
            raw, walls = [], []
            t0 = time.perf_counter()
            while (len(walls) < MIN_PASSES
                   or time.perf_counter() - t0 < args.seconds):
                r, w = timed_pass(workload, plain, checks)
                raw.append(r)
                walls.append(w)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "wall_s": (statistics.median(walls), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            detail = {"passes": len(walls), "walls_s": walls,
                      "raw_walls_s": raw, "setup_samples_s": setup,
                      "raw_setup_samples_s": setup_raw}
        else:
            plain_walls, traced_walls, traced = [], [], []
            t0 = time.perf_counter()
            while not traced or time.perf_counter() - t0 < args.seconds:
                plain_walls.append(timed_pass(workload, plain, checks)[1])
                tr = Tracer()
                traced_walls.append(timed_pass(workload, tr, checks)[1])
                if len(traced) == 0:
                    traced.append(tr)
            for name in WORKLOAD_NAMES:
                if name != args.workload:
                    tr = Tracer()
                    timed_pass(make(name), tr, checks)
                    traced.append(tr)
            overhead = (statistics.median(traced_walls)
                        / statistics.median(plain_walls) - 1.0)
            metrics = layer_metrics(traced, overhead, workloads.BUILTIN_IDS)
            detail = {"plain_walls_s": plain_walls,
                      "traced_walls_s": traced_walls}
    finally:
        shutil.rmtree(os.path.join(root, ".bench_tmp"), ignore_errors=True)

    attempted = checks.attempted
    failed = len(checks.failed)
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "fail_frac": failed / attempted,
                      "failed_checks": checks.failed, **detail}))
    for k, (v, unit) in metrics.items():
        print("%-44s %16.6g %s" % (k, v, unit))
    print("%-44s %16.6g %s" % ("fail_frac", failed / attempted, "1"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit}
                                  for k, (v, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
