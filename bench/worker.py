"""One benchmark process: set up a workload, then run its timed phase.

Started by run.py, which times set-up from before this process starts.
The protocol is JSON lines on stdout: ``{"ready": true}`` once set-up is
done (import, inputs, warm-up), ``{"probe": true}`` before the first
operation and after each operation of an untraced run (the worker then
waits for a line on stdin while run.py times its host-speed probe), and
one result object at the end.  Diagnostics go to stderr.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# joint_fig8 runs under this address-space cap: its 64-trial cells run
# well within it (~240 MB resident), the 4096-trial cell's 4 GiB array
# does not fit, and it is never above half the machine's RAM, so that
# cell raises MemoryError instead of being OOM-killed.
MEMORY_CAP_BYTES = 3 << 30


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def memory_cap() -> int:
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return min(MEMORY_CAP_BYTES, ram // 2)


def request_probe():
    """Ask run.py to time its host-speed probe now, and wait until it has."""
    emit({"probe": True})
    sys.stdin.readline()


def timed_phase(workload, seconds, clock, probe=False, tracer=None):
    """Whole rounds, at least one, until the round boundary nearest to
    ``seconds`` of operation time; returns the raw record.  Probe requests sit between
    operations, outside every operation's timing.  With a tracer, what a
    failed operation recorded is dropped, so the per-layer figures are
    those of the trials that completed."""
    rounds = []  # (seconds, trials completed) per round
    op_seconds = []  # (round, seconds) per operation, failed ones too
    attempted = failed = 0
    faults, problems = [], []
    counts = None
    elapsed = 0.0
    if probe:
        request_probe()

    def record_op(t0):
        seconds = clock() - t0
        op_seconds.append((len(rounds), seconds))
        if probe:
            request_probe()
        return seconds

    while True:
        round_s = 0.0
        trials = 0
        round_counts = {}
        for op in workload.ops:
            attempted += 1
            snap = tracer.snapshot() if tracer else None
            t0 = clock()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation, not fatal
                round_s += record_op(t0)
                failed += 1
                if tracer:
                    tracer.restore(snap)
                if isinstance(exc, MemoryError) and op.expected_fault:
                    faults.append(f"{op.label}: {op.expected_fault} ({exc})")
                else:
                    problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            round_s += record_op(t0)
            trials += op.trials
            problems.extend(op.check(result))
            round_counts[op.label] = op.counts(result)
        rounds.append((round_s, trials))
        if counts is None:
            counts = round_counts
        elif round_counts != counts:
            problems.append("aggregate counts differ between rounds of the same seed")
        elapsed += round_s
        if elapsed + elapsed / len(rounds) / 2 > seconds:
            break
    return {
        "rounds": rounds,
        "op_seconds": op_seconds,
        "attempted": attempted,
        "failed": failed,
        "faults": sorted(set(faults)),
        "problems": problems,
        "counts": counts,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "marnsim" / "__init__.py").is_file():
        print(f"error: no marnsim sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import marnsim  # noqa: F401  (the checkout's own copy)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if workload.memory_cap:
        cap = memory_cap()
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    workload.warmup()
    tracer = None
    clock = time.perf_counter
    if args.trace:
        from layers import PER_LAYER_UNITS, Tracer

        tracer = Tracer()
        tracer.install()
        clock = tracer.clock
    emit({"ready": True})
    if args.setup_only:
        return 0

    record = timed_phase(workload, args.seconds, clock, probe=not args.trace, tracer=tracer)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        tracer.uninstall()
        trials = sum(n for _, n in record["rounds"])
        values = tracer.per_layer(trials)
        record["layers"] = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        record["oracles"] = tracer.oracle_summary()
        record["problems"].extend(tracer.problems)
        record["spans"] = {k: v for k, v in tracer.stats.items() if v[0]}
    emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
