#!/usr/bin/env python3
"""Run the benchmark and summarise it into perfbench/baseline.json.

Run from the repository root:

    python3 perfbench/baseline.py

Each workload runs untraced on seeds 101-110 and, right after each of the
first three, traced on the same seed. Every number in the summary comes
from the command's own output. The tracing overhead is the traced run's
rounds_per_s against the untraced run just before it, the median over the
three pairs: adjacent runs share the host's state, which drifts by several
per cent over minutes. The held-out seed below is for checking a claimed
gain; it is never used while developing the benchmark or a change.
"""
import json
import os
import statistics
import subprocess

HELD_OUT_SEED = 48271
SEEDS = list(range(101, 111))
TRACED = 3  # seeds, from the first, that also run traced
WORKLOADS = ["steady", "tamper", "failover"]
OUT = os.path.join("perfbench", "baseline.json")
SAVE = os.path.join(".bench_build", "baseline")


def run(bench, wl, seed, trace):
    """Runs the command once and returns its report and result lines."""
    path = os.path.join(SAVE, f"t{trace}-{wl}-{seed}.txt")
    cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    with open(path, "w") as f:
        subprocess.run(cmd, stdout=f, check=True)
    lines = [l for l in open(path).read().splitlines() if l.strip()]
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarise(field, reports):
    out = {}
    for n in sorted({n for r in reports for n in r[field]}):
        vals = [r[field][n]["value"] for r in reports
                if n in r[field] and r[field][n]["value"] is not None]
        if not vals:
            continue
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out[n] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                  "unit": reports[0][field][n]["unit"], "values": vals}
    return out


def main():
    bench = json.load(open("BENCHMARK.json"))
    os.makedirs(SAVE, exist_ok=True)
    summary = {"held_out_seed": HELD_OUT_SEED,
               "note": "medians and quartiles over the runs listed; compare only on the same host",
               "workloads": {}}
    for wl in WORKLOADS:
        runs, overhead, traced = [], [], []
        for i, seed in enumerate(SEEDS):
            runs.append(run(bench, wl, seed, 0))
            if i < TRACED:
                traced.append(run(bench, wl, seed, 1))
                plain = runs[-1][0]["metrics"]["rounds_per_s"]["value"]
                rate = traced[-1][0]["metrics"]["rounds_per_s"]["value"]
                overhead.append(100 * (plain - rate) / plain)
        reports = [r for r, _ in runs]
        summary["workloads"][wl] = {
            "seeds": SEEDS,
            "seconds": reports[0]["seconds"],
            "host": reports[0]["host"],
            "all_correct": all(res["correct"] for _, res in runs + traced),
            "failed": sum(res["failed"] for _, res in runs),
            "attempted": sum(res["attempted"] for _, res in runs),
            "end_to_end": summarise("metrics", reports),
            "named": summarise("named", reports),
            "traced": {"seed": SEEDS[0], "layers": traced[0][0]["layers"]},
            "trace_overhead_pct": statistics.median(overhead),
            "trace_overhead_pct_pairs": overhead,
        }
    with open(OUT, "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")
    for wl, e in summary["workloads"].items():
        print(wl, round(e["trace_overhead_pct"], 2),
              {n: (round(m["median"], 4), None if m["spread"] is None else round(m["spread"], 3))
               for n, m in e["end_to_end"].items()})


if __name__ == "__main__":
    main()
