#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the spread.

Run from the repository root:

    python3 perfbench/record.py                       # seeds 1-10
    python3 perfbench/record.py --first-seed 11       # seeds 11-20
    python3 perfbench/record.py --record "label"      # also append to trajectory.json

Every workload in BENCHMARK.json runs once per seed, each (workload, seed)
one ``run.py --trace 0`` child, workloads taking turns so that slow spells
of a shared machine spread over all of them.  Two traced runs of every
workload follow; their counters must repeat exactly.  For every end-to-end
metric the script prints the median and the quartile spread (Q3 - Q1 over
the median), which must stay below a third of the metric's bound in
BENCHMARK.json.  With ``--record`` the medians, quartiles and traced
per-layer figures are appended to ``perfbench/trajectory.json`` with the
run context.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns its context and its result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    ctx = next(json.loads(line[len("context "):]) for line in lines if line.startswith("context "))
    return ctx, json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", metavar="LABEL", help="append the summary to trajectory.json")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results: dict[str, list[tuple[dict, dict]]] = {w: [] for w in names}
    seeds = range(args.first_seed, args.first_seed + SEEDS)
    for seed in seeds:
        for workload in names:
            ctx, result = run(workload, seed, seconds, 0)
            results[workload].append((ctx, result))
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} {shown} "
                  f"(wall {ctx['wall_s_median']:.3f} s, {ctx['reps']} reps)", flush=True)

    steady = True
    summary = {}
    for workload, runs in results.items():
        print(f"\n{workload} ({len(runs)} runs)")
        metrics = {}
        for name, meta in bounds.items():
            values = [result["metrics"][name]["value"] for _, result in runs]
            median, q1, q3, share = spread(values)
            ok = share < meta["bound"] / 3
            steady = steady and ok
            print(f"  {name:14} median {median:.6g} {meta['unit']:8} "
                  f"IQR/median {share:.3f} (bound {meta['bound']}) {'ok' if ok else 'WIDE'}")
            metrics[name] = {"unit": meta["unit"], "median": median, "q1": q1, "q3": q3,
                             "spread": share, "values": values}
        walls = [ctx["wall_s_median"] for ctx, _ in runs]
        print(f"  {'(wall_s)':14} median {spread(walls)[0]:.6g} s        "
              f"IQR/median {spread(walls)[3]:.3f} (context only, not a metric)")
        ctx = runs[0][0]
        summary[workload] = {
            "context": {k: ctx[k] for k in ("n", "style", "deletions", "lines", "bytes", "backend")},
            "seeds": [c["seed"] for c, _ in runs],
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "metrics": metrics,
        }

    traced, repeat = {}, True
    for workload in names:
        runs = [run(workload, seed, seconds, 1) for seed in (seeds[0], seeds[-1])]
        counters = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                    for _, r in runs]
        repeat = repeat and counters[0] == counters[1]
        traced[workload] = runs
        print(f"\n{workload} traced: correct={[r['correct'] for _, r in runs]}, "
              f"counters repeat: {counters[0] == counters[1]}")
        for name, meta in runs[0][1]["metrics"].items():
            values = [r["metrics"][name]["value"] for _, r in runs]
            print(f"  {name:26} " + " ".join(f"{v:.6g}" for v in values) + f" {meta['unit']}")

    correct = all(r["correct"] for runs in results.values() for _, r in runs)
    correct = correct and repeat and all(
        r["correct"] for runs in traced.values() for _, r in runs)
    print(f"\nall correct: {correct}; every spread below a third of its bound: {steady}")

    if args.record:
        ctx = traced[names[0]][0][0]
        point = {
            "label": args.record,
            "date": datetime.date.today().isoformat(),
            "context": {k: ctx[k] for k in ("backend", "python", "nproc", "cpu")},
            "run_seconds": seconds,
            "workloads": summary,
            "first_seed": args.first_seed,
            "per_layer": {
                workload: {
                    name: {"unit": meta["unit"],
                           "values": [r["metrics"][name]["value"] for _, r in runs]}
                    for name, meta in runs[0][1]["metrics"].items()
                }
                for workload, runs in traced.items()
            },
            "per_layer_counters_repeat": repeat,
        }
        path = HERE / "trajectory.json"
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append(point)
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
        print(f"appended to {path.relative_to(ROOT)}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
