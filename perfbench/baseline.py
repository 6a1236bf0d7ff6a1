#!/usr/bin/env python3
"""Measure the benchmark's baseline and run-to-run spread on this host.

    python3 perfbench/baseline.py

Run from the root of a checkout.  Runs every workload in BENCHMARK.json once
for each of the seeds 1-10 with --seconds = BENCHMARK.json's run_seconds,
then prints, for each end-to-end metric, the median of the runs and their
spread: the distance between the first and third quartile
(statistics.quantiles(n=4)) as a share of the median, beside the metric's
bound.  Writes the host record, the medians,
the spreads and every run's value to perfbench/baseline.json.
About 25 s per run.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    host, report, ok = None, {}, True
    for w in workloads:
        runs = []
        for s in SEEDS:
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(s),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.time() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr)
                sys.exit(f"{w} seed {s}: benchmark failed")
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith("host: "):
                    host = json.loads(line[len("host: "):])
            ok &= bool(result["correct"])
            runs.append(result)
            print(f"{w} seed {s}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s", flush=True)
        report[w] = {}
        for m in bounds:
            values = [r["metrics"][m]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            report[w][m] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                            "unit": runs[0]["metrics"][m]["unit"], "runs": values}
            print(f"  {m:16s} median {med:<14.6g} spread {(q3 - q1) / med:.3f} (bound {bounds[m]})")

    out = {"host": host, "run_seconds": spec["run_seconds"], "seeds": "1-10",
           "all_correct": ok, "workloads": report}
    path = os.path.join(HERE, "baseline.json")
    with open(path, "w") as f:
        f.write(json.dumps(out, indent=2) + "\n")
    print("wrote", path)


if __name__ == "__main__":
    main()
