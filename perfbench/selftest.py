#!/usr/bin/env python3
"""Self-tests of the benchmark itself (see perfbench/README.md).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Exits non-zero on the first failed test.
Scratch files go under .bench_out/selftest/.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_out", "selftest")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
HELD_OUT_SEED = "7777"  # not in expected_digests.txt


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def check(cond, what, output=""):
    if not cond:
        print("FAIL:", what)
        if output:
            print(output[-3000:])
        sys.exit(1)
    print("ok:", what)


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    check(all(NAME.fullmatch(n) for n in names),
          "every BENCHMARK.json name matches [A-Za-z0-9_.-]+")

    # Untraced run on a held-out seed, recording its digests to a scratch file.
    digests = os.path.join(SCRATCH, "digests.txt")
    base = ["--workload", "exact-matrix", "--seed", HELD_OUT_SEED, "--seconds", "1"]
    code, res, out = run(base + ["--trace", "0", "--expected", digests, "--record"])
    check(code == 0 and res and res["correct"], "held-out seed runs and passes", out)
    check(set(res["metrics"]) == e2e and all(NAME.fullmatch(n) for n in res["metrics"]),
          "untraced output carries exactly the end-to-end metrics", out)

    # The traced run must reproduce those digests cell for cell.
    code, res, out = run(base + ["--trace", "1", "--expected", digests])
    check(code == 0 and res and res["correct"] and res["failed"] == 0,
          "traced run yields the untraced run's digests", out)
    check(set(res["metrics"]) == layer and all(NAME.fullmatch(n) for n in res["metrics"]),
          "traced output carries exactly the per-layer metrics", out)

    # One tampered digest must fail its cell.
    with open(digests) as f:
        lines = f.read().splitlines()
    i = next(k for k, l in enumerate(lines) if l.startswith("digest "))
    head, d = lines[i].rsplit(" ", 1)
    lines[i] = head + " " + ("0" if d[0] != "0" else "1") + d[1:]
    tampered = os.path.join(SCRATCH, "tampered.txt")
    with open(tampered, "w") as f:
        f.write("\n".join(lines) + "\n")
    code, res, out = run(base + ["--trace", "0", "--expected", tampered])
    check(code == 0 and res and res["failed"] > 0 and not res["correct"]
          and res["failed"] / res["attempted"] > 0,
          "a tampered digest raises fail_ratio above 0", out)

    # Outside a full checkout (only BENCHMARK.json and perfbench/) the
    # benchmark must fail without printing a result.
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, res, out = run(base + ["--trace", "0"], cwd=bare)
    check(code != 0 and res is None, "outside a checkout: non-zero exit, no result", out)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
