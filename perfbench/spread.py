#!/usr/bin/env python3
"""Check that the benchmark is steady: run each workload over several
seeds and compare every end-to-end metric's spread with its bound.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--save set1.json] [--against set0.json]

Run from the repository root. For each workload it runs perfbench/run.py
once per seed and reports, per metric, the median and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median. A spread above a third of the metric's bound in
BENCHMARK.json is flagged (setup_s is exempt, as its bound only limits
drift between sets). With --against, each median is also compared with a
saved earlier set: a median worse by more than the bound is flagged.
Exits 1 when anything is flagged or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def worsening(before, after, better):
    """How much worse `after` is than `before`, as a share of `before`
    (negative when it improved)."""
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {r.returncode}\n{r.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n{r.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--save")
    p.add_argument("--against")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    before = {}
    if args.against:
        with open(args.against) as f:
            before = json.load(f)

    flagged = False
    values = {}
    for w in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            try:
                runs.append(run_once(w, seed, seconds))
            except RuntimeError as e:
                print(e, file=sys.stderr)
                flagged = True
        values[w] = {m: [r[m] for r in runs] for m in metrics}
        print(f"{w} ({len(runs)} seeds)")
        for m in metrics:
            print(f"  {m:14s} runs " + " ".join(f"{x:.4g}" for x in values[w][m]))
        for m, spec in metrics.items():
            xs = values[w][m]
            if len(xs) < 2:
                continue
            s = spread(xs)
            line = f"  {m:14s} median {statistics.median(xs):<14.6g} spread {s:7.4f}"
            line += f"  bound {spec['bound']:.3f}"
            if m != "setup_s" and s > spec["bound"] / 3:
                line += "  SPREAD > bound/3"
                flagged |= s > spec["bound"]
            old = before.get(w, {}).get(m)
            if old:
                drift = worsening(statistics.median(old), statistics.median(xs), spec["better"])
                line += f"  drift {drift:+.4f}"
                if drift > spec["bound"]:
                    line += "  WORSE THAN BOUND"
                    flagged = True
            print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
