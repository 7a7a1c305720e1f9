#!/usr/bin/env python3
"""End-to-end design-flow benchmark driver.

    python3 perfbench/run.py --workload corners_serial --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Builds perfbench/ (the photherm library from the repository's sources plus
the perfbench_e2e driver, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs one workload in a fresh process:
the seeded scenario file is generated and parsed, a closed loop with one
caller runs the library entry point for about --seconds, every output is
checked, and with --trace 1 a layer-by-layer replay follows. Prints each
metric as `name = value unit`, then one JSON object as the last line.
Exits non-zero on any correctness failure. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure until a configure succeeds (it writes the Makefile), then
    (re)build the driver; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench_e2e")


def binary_id(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def run_child(cmd):
    """Run the driver; returns (exit code, stdout, its peak RSS in MB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    return proc.returncode, out, usage.ru_maxrss * 1024 / 1e6


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="corners_serial, corners_b4 or transient_serial")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="show that every correctness gate fires on doctored outputs")
    args = parser.parse_args()
    if not args.self_check and not re.fullmatch(r"[A-Za-z0-9_]+", args.workload or ""):
        parser.error("--workload needs a workload name")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        return 1
    reference = os.path.join(BENCH_DIR, "reference")
    if args.self_check:
        return subprocess.run([binary, "--self-check", "--reference-dir", reference]).returncode

    root = os.path.dirname(build_dir())
    work = os.path.join(root, "perfbench-runs",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    outputs = os.path.join(root, "perfbench-outputs", binary_id(binary))
    os.makedirs(work, exist_ok=True)
    os.makedirs(outputs, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--reference-dir", reference, "--outputs-dir", outputs]
    code, out, peak_rss_mb = run_child(cmd)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"driver exited with {code} and printed no result")
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(f"workload = {args.workload}  seed = {args.seed}  trace = {args.trace}")
    for name, m in list(metrics.items()) + list(result["extra"].items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"trace = {os.path.relpath(os.path.join(work, 'trace.json'), ROOT)}")
    correct = bool(result["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
