#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Workloads: policy-matrix, fleet-stream,
daemon-rpc (see perfbench/README.md). The binary is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build). Each run gets a private scratch
directory there: the program's cache directory and working directory,
removed afterwards, so no state carries over between runs.

While the workload runs, its thread count is sampled; a process holding
more threads than the host has cores measures the scheduler, so that
marks the result incorrect. The last stdout line is the result JSON; the
line before it records the host and the source revision.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
ADDR_NO_RANDOMIZE = 0x0040000


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    return p.parse_args(argv)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    """Builds the release binary; returns its path or None."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None


def source_digest():
    """SHA-256 over the Rust sources and manifests the benchmark builds,
    so results from a checkout without git history still name the code."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(d, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def fixed_layout():
    """Turns address-space randomisation off for the benchmark process (run
    in the child between fork and exec), so the memory layout, and with it
    cache placement, is the same in every run of one binary. Best effort: a
    host that refuses keeps randomising."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def thread_count(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def main(argv):
    args = parse_args(argv)
    target = target_dir()
    binary = build(target)
    if binary is None:
        return 1
    runs = os.path.join(target, "perfbench-runs")
    os.makedirs(runs, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=runs)
    env = dict(os.environ, EAR_CACHE_DIR=scratch)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    # The highest thread count seen in two samples in a row: a thread that
    # has been joined can linger in /proc for a moment while the next one
    # starts, which is not two threads running.
    peak = [0]
    try:
        proc = subprocess.Popen(cmd, cwd=scratch, env=env,
                                stdout=subprocess.PIPE, text=True,
                                preexec_fn=fixed_layout)

        def sample():
            last = 0
            while proc.poll() is None:
                now = thread_count(proc.pid)
                peak[0] = max(peak[0], min(now, last))
                last = now
                time.sleep(0.05)

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 1
        finally:
            sampler.join()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    cores = len(os.sched_getaffinity(0))
    if peak[0] > cores:
        print(f"perfbench: check failed: {peak[0]} threads on {cores} cores",
              file=sys.stderr)
        result["correct"] = False
        lines[-1] = json.dumps(result)
    host = {"workload": args.workload, "seed": args.seed, "nproc": cores,
            "cpu_model": cpu_model(), "git_rev": git_rev(),
            "source_digest": source_digest(), "threads_max": peak[0]}
    for line in lines[:-1]:
        print(line)
    print("perfbench-host: " + json.dumps(host))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
