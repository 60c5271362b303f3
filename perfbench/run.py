#!/usr/bin/env python3
"""Benchmark entry point for the suite and serve workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-avf --seed 1 --seconds 30 --trace 0

It builds the harness package in this directory (release profile, offline,
into $CARGO_TARGET_DIR or .bench_build), runs one workload in a child
process, and prints one JSON line as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are every end-to-end metric of BENCHMARK.json; with --trace 1 every
per-layer metric, each by the name and unit declared there.

Side outputs go to .perfbench/ in the checkout: the spans of traced runs,
one line per run in runs.jsonl (arguments, environment before and after,
result), and the exact counts of each traced (workload, seed, source
digest), which a later traced run of the same code with the same seed must
repeat bit for bit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("suite-avf", "serve-mixed")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
# The code the harness measures: the repository's crates, the vendored
# crates they build against, and this package.
SOURCES = ("crates", "vendor", os.path.relpath(HERE, ROOT))
OUT = os.path.join(ROOT, ".perfbench")
# The harness must end well inside the 180 s limit on a run.
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def environment():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    with open("/proc/loadavg") as f:
        loadavg = f.read().split()[:3]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg": [float(x) for x in loadavg],
    }


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(cmd, stdout=sys.stderr, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"building the harness failed with code {proc.returncode}")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_harness(binary, args):
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT,
    ]
    pin = None
    if args.workload == "serve-mixed" or args.trace:
        # The daemon's worker, the closed-loop client and the acceptor
        # share one CPU: only one of them is busy at a time, and jobs that
        # take no thread count (ecc-grid) size their pools to one worker.
        # Every traced run starts a daemon.
        cpu = min(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, preexec_fn=pin)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("harness printed no result")
    return json.loads(lines[-1])


def source_digest():
    """SHA-256 over the paths and bytes of every file in SOURCES, skipping
    build outputs, so that changed code gets a digest of its own."""
    digest = hashlib.sha256()
    for top in SOURCES:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
                digest.update(b"\0")
    return digest.hexdigest()[:16]


def check_exact(args, exact):
    """Compares the exact counts with those of an earlier traced run of the
    same code, workload and seed; the first such run records them. Code
    that changes the counts on purpose starts a record of its own."""
    path = os.path.join(OUT, f"exact-{args.workload}-{args.seed}-{source_digest()}.json")
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != exact:
            diff = {k: (earlier.get(k), exact.get(k))
                    for k in sorted(set(earlier) | set(exact)) if earlier.get(k) != exact.get(k)}
            log(f"exact counts differ from an earlier run with seed {args.seed}: {diff}")
            return False
        return True
    with open(path, "w") as f:
        json.dump(exact, f, sort_keys=True)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64 or args.seconds < 1:
        parser.error("--seed must fit in 64 bits and --seconds be at least 1")

    try:
        end_to_end, per_layer = declared_metrics()
        binary = build()
        os.makedirs(OUT, exist_ok=True)
        before = environment()
        started = time.time()
        result = run_harness(binary, args)
        after = environment()
    except (OSError, RuntimeError, ValueError, KeyError) as e:
        log(str(e))
        return 1

    declared = per_layer if args.trace else end_to_end
    metrics = result["metrics"]
    wrong = {n: m["unit"] for n, m in metrics.items() if declared.get(n) != m["unit"]}
    if wrong:
        log(f"metrics not declared with these units in BENCHMARK.json: {wrong}")
        return 1
    missing = sorted(set(declared) - set(metrics))
    if missing:
        log(f"metrics declared in BENCHMARK.json but not measured: {missing}")
        return 1
    attempted, failed = int(result["attempted"]), int(result["failed"])
    correct = bool(result["correct"])
    if args.trace:
        # The repeat of the exact counts is one more checked op.
        repeated = check_exact(args, result["exact"])
        attempted += 1
        failed += 0 if repeated else 1
        correct = correct and repeated

    out = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"args": vars(args), "started": started, "env_before": before,
              "env_after": after, "result": out}
    with open(os.path.join(OUT, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    log(f"environment before {json.dumps(before)} after {json.dumps(after)}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
