#!/usr/bin/env python3
"""Stability check for the benchmark: runs each workload repeatedly with
different seeds and prints each end-to-end metric's median, quartiles
and spread next to the bound BENCHMARK.json gives it.

    python3 perfbench/stability.py                       # 10 seeds, every workload
    python3 perfbench/stability.py --runs 5 --workloads serve-tenants
    python3 perfbench/stability.py --sets 2              # two sets of runs, compared

Run it from the repository root. The spread is (Q3 - Q1) / median over
the runs of one set, with quartiles as statistics.quantiles(n=4) gives
them. A metric is steady when its spread is below a third of its bound; a
spread above the bound fails the check. With --sets 2 the second set's
median must also not be worse than the first's by more than the bound.
The share of failed operations must be identical in every run. The
exit status is 1 if any of these fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return m, q1, q3, (q3 - q1) / m if m else float("inf")


def worse(first, second, better):
    """Relative amount by which second is worse than first."""
    if first == 0:
        return 0.0
    delta = (second - first) / first
    return delta if better == "lower" else -delta


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="", help="comma-separated (default: all)")
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"]

    ok = True
    seed = 1
    for w in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for _ in range(args.runs):
                r = run_once(cmd, w, seed, seconds, 0)
                seed += 1
                if not r["correct"]:
                    print(f"{w}: seed {seed - 1} reported correct=false")
                    ok = False
                runs.append(r)
                print(f"  {w} set {s + 1} seed {seed - 1}: " + " ".join(
                    f"{m['name']}={r['metrics'][m['name']]['value']:.6g}" for m in metrics), flush=True)
            sets.append(runs)

        print(f"\n{w}: {args.runs} runs per set, {seconds}s each")
        print(f"  {'metric':<18} {'set':>3} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6} {'target':>7}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for i, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, sp = spread(vals)
                meds.append(med)
                steady = sp < bound / 3
                if sp > bound:
                    ok = False
                flag = "ok" if steady else "WIDE"
                print(f"  {name:<18} {i + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {sp:>8.4f} {bound:>6.3f} {flag:>7}")
            if len(meds) == 2:
                d = worse(meds[0], meds[1], m["better"])
                verdict = "ok" if d <= bound else "WORSE"
                if d > bound:
                    ok = False
                print(f"  {name:<18} set 2 vs set 1: {d:+.4f} of the first median ({verdict})")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        print(f"  failed/attempted shares seen: {sorted(shares)}")
        if len(shares) != 1:
            ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
