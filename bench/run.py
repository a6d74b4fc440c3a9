"""marnsim benchmark: Monte Carlo throughput, set-up time and peak memory.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: fig7_sweep, fig8_sweep, joint_fig8, outage_slopes (see
bench/README.md).  With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics trials_per_s, setup_s and
peak_rss_mb; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run.  Full records go to bench/results/.

Every measured process is a fresh interpreter with one BLAS thread and
one harness worker, and all of them share one CPU with this process.
Set-up is timed from before the process starts to the start of its timed
phase; it is repeated SETUPS times (the extra processes stop after
set-up) and the median is reported.

trials_per_s is a rate on the reference host.  The shared host's speed
drifts by tens of percent between runs and within one, so between the
operations of a round this process times a fixed probe kernel, and each
operation's wall time is scaled by PROBE_REF_S / (mean probe time around
it).  The plain wall-clock rates are kept in the result record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUPS = 7
PROBE_REF_S = 0.06  # the probe's typical time on the reference host (2-CPU Xeon)
SETUP_ALLOWANCE_S = 5.0  # per set-up; they take well under 1 s on that host
DEADLINE_MARGIN_S = 20.0


class WorkerFailed(RuntimeError):
    pass


def deadline_s(seconds: float) -> float:
    """How long one run may take before every process it started is
    killed: the set-ups, the timed phase (it ends at the round boundary
    nearest to ``seconds``, well within twice that with its probes), and
    a margin."""
    return SETUPS * SETUP_ALLOWANCE_S + 2.0 * seconds + DEADLINE_MARGIN_S


def worker_env():
    env = dict(os.environ, MARN_SIM_WORKERS="1")
    env.update({var: "1" for var in ONE_THREAD})
    return env


def make_probe():
    """The host-speed probe: batched complex matmul and ufuncs on fixed
    arrays, all into preallocated outputs.  One part is cache-resident
    (1024 x 8 x 8, compute-bound); the other streams arrays of the
    workloads' batch shape (4096 x 12 x 12, ~9 MB each), so memory speed
    counts too.  It touches no marnsim code and allocates nothing, so its
    time follows the host and not the state of any heap.  Returns a
    function giving the faster of two passes in seconds."""
    import numpy as np

    rng = np.random.default_rng(0)

    def operands(shape):
        a, b = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 8 for _ in "ab")
        return a, b, np.empty_like(a), np.empty(shape)

    small, large = operands((1024, 8, 8)), operands((4096, 12, 12))

    def part(a, b, c, m, reps):
        for _ in range(reps):
            np.matmul(a, b, out=c)
            np.multiply(c, 0.5, out=c)
            np.add(c, a, out=c)
            np.abs(c, out=m)

    def once():
        t0 = time.perf_counter()
        part(*small, 30)
        part(*large, 3)
        return time.perf_counter() - t0

    def probe():
        return min(once(), once())

    probe()  # first touch of the arrays
    return probe


def run_worker(args, deadline, setup_only=False, probe=None):
    """Start one worker and serve it until it exits.  An untraced worker
    asks for ``probe`` around each of its operations.

    Returns (set-up seconds, result record or None, probe seconds).
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    setup, record, probes = None, None, []
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=worker_env()
    )
    timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            msg = json.loads(line)
            if "ready" in msg:
                setup = time.perf_counter() - t0
            elif "probe" in msg:
                probes.append(probe())
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                record = msg
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stdin.close()
    if code != 0 or setup is None or (record is None and not setup_only):
        raise WorkerFailed(f"worker exited with code {code} ({' '.join(cmd[2:])})")
    return setup, record, probes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("fig7_sweep", "fig8_sweep", "joint_fig8", "outage_slopes"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.perf_counter() + deadline_s(args.seconds)
    os.environ.update({var: "1" for var in ONE_THREAD})  # before numpy loads
    # One CPU for this process and its workers: the probe times the CPU the
    # operations ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = None if args.trace else make_probe()
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(run_worker(args, deadline, setup_only=True)[0])
        setup, record, probes = run_worker(args, deadline, probe=probe)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    rounds = record["rounds"]
    rates = [n / s for s, n in rounds]
    trials = sum(n for _, n in rounds)
    if args.trace:
        metrics = record["layers"]
    else:
        scaled_s = [0.0] * len(rounds)  # round times on the reference host
        for k, (i, seconds) in enumerate(record["op_seconds"]):
            scaled_s[i] += seconds * 2.0 * PROBE_REF_S / (probes[k] + probes[k + 1])
        metrics = {
            "trials_per_s": {
                "value": statistics.median(n / s for (_, n), s in zip(rounds, scaled_s)),
                "unit": "1/s",
            },
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    correct = not record["problems"] and trials > 0
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rates),
        "round_rates": rates,
        "wall_trials_per_s": statistics.median(rates),
        "probe_s": probes,
        "setups_s": setups,
        **{k: record[k] for k in record if k not in ("rounds", "layers")},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**summary, "metrics": metrics}, indent=1) + "\n")

    for msg in record["problems"]:
        print(f"check failed: {msg}", file=sys.stderr)
    for msg in record["faults"]:
        print(f"known fault, counted as failed: {msg}")
    counts = record["counts"] or {}
    totals = {
        key: sum(c[key] for c in counts.values())
        for key in ("bit_errors", "erasures")
        if all(key in c for c in counts.values())
    }
    print(f"fixed-seed counts (seed {args.seed}): {json.dumps(counts, sort_keys=True)}")
    if totals:
        print(f"fixed-seed totals (seed {args.seed}): {json.dumps(totals, sort_keys=True)}")
    kind = "traced" if args.trace else "untraced"
    print(f"{kind} wall-clock trials/s, median of {len(rates)} rounds: {statistics.median(rates):.6g}")
    if args.trace:
        print(f"layer oracles: {json.dumps(record['oracles'])}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
