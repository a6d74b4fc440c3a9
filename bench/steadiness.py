"""Run the benchmark repeatedly and report how steady its metrics are.

    python3 bench/steadiness.py --runs 10 --first-seed 101 --out bench/results/set-a.json
    python3 bench/steadiness.py --compare bench/results/set-a.json bench/results/set-b.json

The first form runs ``bench/run.py`` once per seed (seeds first-seed,
first-seed+1, ...) for each workload, one run at a time, and prints for
every end-to-end metric its median and its spread: the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of
the median.  The second form compares the medians of two such sets
against the bounds in BENCHMARK.json, and exits with status 1 if a
median is worse than its bound or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import deadline_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def collect(workloads, runs, first_seed, seconds):
    out = {}
    for name in workloads:
        rows = []
        for seed in range(first_seed, first_seed + runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=deadline_s(seconds) + 30)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} failed:\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append(res)
            vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)
        out[name] = rows
    return out


def summarize(sets):
    table = {}
    for name, rows in sets.items():
        table[name] = {
            "correct": all(r["correct"] for r in rows),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in rows}),
        }
        for metric in rows[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in rows]
            table[name][metric] = {"median": statistics.median(values), "spread": spread(values)}
    return table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}

    if args.compare:
        first, second = (summarize(json.loads(Path(p).read_text())) for p in args.compare)
        ok = True
        for name in first:
            for metric, (bound, better) in bounds.items():
                a, b = first[name][metric]["median"], second[name][metric]["median"]
                worse = (a - b) / a if better == "higher" else (b - a) / a
                verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
                ok = ok and worse <= bound
                print(f"{name:14s} {metric:13s} {a:12.4f} -> {b:12.4f}  "
                      f"worse by {worse:+.2%} (bound {bound:.0%}) {verdict}")
            if first[name]["failed_share"] != second[name]["failed_share"]:
                print(f"{name}: failed share differs between the sets")
                ok = False
        return 0 if ok else 1

    workloads = [w["name"] for w in bench["workloads"]]
    sets = collect(workloads, args.runs, args.first_seed, bench["run_seconds"])
    if args.out:
        Path(args.out).write_text(json.dumps(sets, indent=1) + "\n")
    for name, row in summarize(sets).items():
        print(f"{name}: correct={row['correct']} failed share={row['failed_share']}")
        for metric, (bound, _) in bounds.items():
            m = row[metric]
            flag = "" if metric == "setup_s" or m["spread"] < bound / 3 else "  (above a third of the bound)"
            print(f"  {metric:13s} median {m['median']:.4f}  spread {m['spread']:.2%} "
                  f"(bound {bound:.0%}){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
