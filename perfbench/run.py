#!/usr/bin/env python3
"""Build and run one benchmark workload, check its output, print the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench.exe from source with
dune (inside the checkout, shared dune cache off), runs the workload,
and checks the reported metrics against BENCHMARK.json: with --trace 0
exactly the end-to-end metrics, with --trace 1 every per-layer metric
(a layer the workload never enters reads 0). The second-to-last line of
output describes the host and the run; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero without printing a result when the build, the run or the
output check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
# The run itself, after the (usually no-op) build.
RUN_LIMIT_S = 170.0
# The run's threads are moved from CPU to CPU every HOP_S seconds: on a
# virtual machine whose CPUs run at different speeds (one measured
# 25-30% slower than the other), a process left where it starts reads
# fast or slow by the luck of where it landed; hopping makes every run
# see the same mix. Threads named LOAD (the load generator) always sit
# on another CPU than the rest, so it never takes CPU from what it
# measures.
HOP_S = 0.02
LOAD = "perfbench-load"
SOURCE_DIRS = ("lib", "bin", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, env=env, timeout=850)
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def ocaml_version():
    try:
        out = subprocess.run(["ocamlopt", "-version"],
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """Digest of the sources the benchmark measures, standing in for the
    commit when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("dune-project",) + SOURCE_DIRS:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host():
    """Results compare only between runs with equal host ids."""
    h = {"nproc": os.cpu_count(), "cpu": cpu_model(), "ocaml": ocaml_version()}
    h["id"] = hashlib.sha256(json.dumps(h, sort_keys=True).encode()).hexdigest()[:12]
    return h


def hop(pid, cpus, k):
    task = "/proc/%d/task" % pid
    try:
        tids = os.listdir(task)
    except OSError:
        return
    for tid in tids:
        try:
            with open(os.path.join(task, tid, "comm")) as f:
                load = f.read().strip() == LOAD
            os.sched_setaffinity(int(tid), {cpus[(k + load) % len(cpus)]})
        except OSError:
            pass  # the thread has exited


def run_exe(cmd):
    """Run the benchmark executable: its exit code and standard output,
    or (None, None) when it overran RUN_LIMIT_S (it is then killed and
    reaped)."""
    cpus = sorted(os.sched_getaffinity(0))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    k = 0
    while True:
        try:
            out, _ = proc.communicate(timeout=HOP_S)
            return proc.returncode, out
        except subprocess.TimeoutExpired:
            pass
        if time.monotonic() > deadline:
            proc.kill()
            proc.communicate()
            return None, None
        if len(cpus) > 1:
            hop(proc.pid, cpus, k)
            k += 1


def check_metrics(spec, trace, metrics):
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name, m in metrics.items():
        if name not in wanted:
            fail("unexpected metric %s" % name)
        if m["unit"] != wanted[name]:
            fail("metric %s has unit %s, want %s" % (name, m["unit"], wanted[name]))
        if not isinstance(m["value"], (int, float)):
            fail("metric %s has no value" % name)
    unmeasured = sorted(n for n in wanted if n not in metrics)
    if not trace and unmeasured:
        fail("missing end-to-end metrics: " + ", ".join(unmeasured))
    out = {}
    for name, unit in wanted.items():
        out[name] = metrics.get(name, {"value": 0, "unit": unit})
    return out, unmeasured


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest size of the workload (self-test)")
    args = ap.parse_args()
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    code, out = run_exe(cmd)
    if code is None:
        fail("run exceeded its time limit")
    if code != 0:
        fail("run exited with code %d" % code)
    lines = out.strip().splitlines()
    if len(lines) < 2:
        fail("run printed no result")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    metrics, unmeasured = check_metrics(spec, args.trace == 1, result["metrics"])
    about = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host(),
        "commit": commit(),
        "source": source_digest(),
        "details": details,
        "not_entered": unmeasured,
    }
    print(json.dumps(about))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
