#!/usr/bin/env python3
"""Self-test of the benchmark: a smoke run of every workload.

    python3 perfbench/selftest.py

Run from the root of a checkout. Each workload runs at its smallest
size, untraced and traced, through run.py. Every run must pass its
correctness checks with no failed operation and report every metric
BENCHMARK.json names, with its unit; every per-layer metric must be
measured by at least one workload. Last, run.py must refuse, with no
result, in a directory holding only BENCHMARK.json and perfbench/.
Exits non-zero on the first problem.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    entered = set()
    for w in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = run(w, trace)
            if done.returncode != 0:
                sys.exit("%s trace %d: exit %d\n%s" % (w, trace, done.returncode, done.stderr))
            about, result = (json.loads(l) for l in done.stdout.strip().splitlines()[-2:])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                sys.exit("%s trace %d: %s %s" % (w, trace, result, about["details"]))
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                sys.exit("%s trace %d: metrics differ from BENCHMARK.json" % (w, trace))
            if trace:
                entered |= set(want) - set(about["not_entered"])
            print("ok %s trace %d: %d ops" % (w, trace, result["attempted"]))
    never = sorted(set(m["name"] for m in spec["per_layer"]) - entered)
    if never:
        sys.exit("per-layer metrics no workload measures: " + ", ".join(never))
    # Without the repository's sources there is nothing to build.
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(spec["workloads"][0]["name"], 0, cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            sys.exit("bare directory: run.py did not refuse")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    print("ok bare directory refused")


if __name__ == "__main__":
    main()
