#!/usr/bin/env python3
"""Run the benchmark over several seeds; optionally record a trajectory point.

    python3 perfbench/trajectory.py --runs 10 [--first-seed 1] [--workload W ...] [--record]

Every run is a fresh process of ``perfbench/run.py``, one seed after another,
all workloads per seed.  For each workload and end-to-end metric it prints
the median of the runs, their quartiles (``statistics.quantiles(n=4)``) and
the spread, the distance between the quartiles as a share of the median,
next to the metric's bound in BENCHMARK.json.  With ``--record`` it also
makes one traced run per workload and appends the summary, with the commit,
Python version and nproc, to ``perfbench/trajectory.json``.
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
TRAJECTORY = HERE / "trajectory.json"


def run_once(workload, seed, seconds, trace):
    """One benchmark process; returns (env record, result object)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    lines = proc.stdout.splitlines()
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    shares = [ln for ln in lines if ln.startswith(("self_share ", "total_share "))]
    return env, json.loads(lines[-1]), shares


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    chosen = args.workload or names
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    results = {w: [] for w in chosen}
    env = None
    for seed in seeds:
        for w in chosen:
            env, result, _ = run_once(w, seed, spec["run_seconds"], 0)
            results[w].append(result)
            print("seed %d %-16s %s" % (seed, w, json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()})), flush=True)
    entry = {
        "date": datetime.date.today().isoformat(),
        "commit": env["commit"],
        "source": env["source"],
        "python": env["python"],
        "nproc": env["nproc"],
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for w in chosen:
        runs = results[w]
        summary = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for m in spec["end_to_end"]:
            s = summarise([r["metrics"][m["name"]]["value"] for r in runs])
            s["unit"] = m["unit"]
            summary["end_to_end"][m["name"]] = s
            within = s["spread"] <= m["bound"] / 3
            ok = ok and within
            print("%-16s %-12s median %12.6g %-5s spread %6.2f%% bound %4.0f%%%s" % (
                w, m["name"], s["median"], m["unit"], 100 * s["spread"],
                100 * m["bound"], "" if within else "  above a third of the bound"))
        print("%-16s attempted %d failed %d" % (w, summary["attempted"], summary["failed"]))
        if args.record:
            _, traced, shares = run_once(w, seeds[0], spec["run_seconds"], 1)
            summary["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            summary["traced_shares"] = shares
            print("\n".join("%-16s %s" % (w, s) for s in shares))
        entry["workloads"][w] = summary
    if args.record:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.is_file() else []
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
