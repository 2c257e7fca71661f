"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/prove.py --runs 10 [--workload W ...] [--first-seed N]
                           [--baseline bench/baseline.json]

For every workload, runs `bench/run.py` once per seed with tracing off,
one after another, and prints each end-to-end metric's median and
quartiles over the runs (statistics.quantiles, n=4) with the spread
(Q3 - Q1) / median next to a third of the metric's bound from
BENCHMARK.json. With --baseline it also makes one traced run and writes
medians, quartiles and the traced per-layer values to that file.
Run from the root of the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d):\n%s%s"
                         % (workload, seed, res.returncode, res.stdout,
                            res.stderr))
    return json.loads(lines[0]), json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--baseline")
    args = p.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    summary, env = {}, None
    steady = True
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            info, out = run_once(w, seed, spec["run_seconds"], 0)
            env = info["environment"]
            for name in values:
                values[name].append(out["metrics"][name]["value"])
            print("%s seed %d: %s fail_frac=%d/%d" % (
                w, seed, " ".join("%s=%.4g" % (k, v[-1])
                                  for k, v in values.items()),
                out["failed"], out["attempted"]), flush=True)
        summary[w] = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < m["bound"] / 3.0
            steady = steady and (ok or m["name"] == "setup_s")
            summary[w][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": spread, "runs": len(vals)}
            print("  %-12s median %.6g  Q1 %.6g  Q3 %.6g  spread %.4f  "
                  "bound/3 %.4f  %s" % (m["name"], med, q1, q3, spread,
                                        m["bound"] / 3.0,
                                        "ok" if ok else "WIDE"), flush=True)
    if args.baseline:
        _, traced = run_once(workloads[0], args.first_seed,
                             spec["run_seconds"], 1)
        with open(args.baseline, "w") as fh:
            json.dump({"environment": env, "seeds": list(seeds),
                       "run_seconds": spec["run_seconds"],
                       "end_to_end": summary,
                       "per_layer": {"workload": workloads[0],
                                     "seed": args.first_seed,
                                     "metrics": traced["metrics"]}},
                      fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
