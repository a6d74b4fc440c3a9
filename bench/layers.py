"""Per-layer tracing for the benchmark's traced run.

The tracer wraps marnsim's public functions at the names their calling
module imports (``schemes.ic_stack_batch``, ``analysis.solve_psd_stack``,
...), so the program itself is unchanged.  Each wrapped call is a span;
a span's self time is its duration minus that of the wrapped calls made
inside it.  Spans are aggregated per name as they close (calls, total,
self) instead of being kept one by one.

Oracle work done on sampled calls runs with the clock paused, so it is
charged to no span and not to the traced run's wall time either.
"""

from __future__ import annotations

import functools
import time
import tracemalloc

import numpy as np

from marnsim import airlink, analysis, harness, rx_ic, schemes
from oracles import IC_RESIDUAL_TOL, candidate_vectors, exhaustive_ml, ic_residual

ML_ORACLE_CALLS = 2  # sampled ml_decode_batch calls per argument signature
ML_ORACLE_ROWS = 8  # batch elements checked per sampled call
IC_ORACLE_CALLS = 3  # sampled ic_stack_batch calls per argument signature

# span name -> (owner, attribute) it wraps; the owner is the module whose
# global the caller looks up, or the class for methods.
SPANS = {
    "complex_normal": (airlink.RngStream, "complex_normal"),
    "bits": (airlink.RngStream, "bits"),
    "modulate": (schemes, "modulate"),
    "apply_design": (schemes, "apply_design"),
    "recombine": (schemes, "recombine"),
    "dstc_channel_stacks": (schemes, "dstc_channel_stacks"),
    "tdma_channel_stacks": (schemes, "tdma_channel_stacks"),
    "gtilde": (schemes, "gtilde"),
    "analysis.dstc_channel_stacks": (analysis, "dstc_channel_stacks"),
    "analysis.tdma_channel_stacks": (analysis, "tdma_channel_stacks"),
    "analysis.gtilde": (analysis, "gtilde"),
    "ic_stack_batch": (schemes, "ic_stack_batch"),
    "analysis.ic_stack_batch": (analysis, "ic_stack_batch"),
    "ml_decode_batch": (schemes, "ml_decode_batch"),
    "solve_psd_stack": (rx_ic, "solve_psd_stack"),
    "analysis.solve_psd_stack": (analysis, "solve_psd_stack"),
    "simulate_batch": (schemes, "simulate_batch"),
    "simulate_chunk": (harness, "simulate_chunk"),
    "snr_tdma_batch": (harness, "snr_tdma_batch"),
    "snr_dstc_batch": (harness, "snr_dstc_batch"),
    "outage_diversity": (harness, "outage_diversity"),
    "run_experiment": (harness, "run_experiment"),
    "run_diversity": (harness, "run_diversity"),
}

# (metric, spans it sums, "total" or "self" time)
TIMED_LAYERS = [
    ("airlink.draw_ns_per_trial", ("complex_normal", "bits", "modulate"), "total"),
    ("relay_codec.apply_design_ns_per_trial", ("apply_design",), "total"),
    ("rx_ic.recombine_ns_per_trial", ("recombine",), "total"),
    (
        "rx_ic.channel_stacks_ns_per_trial",
        (
            "dstc_channel_stacks", "tdma_channel_stacks", "gtilde",
            "analysis.dstc_channel_stacks", "analysis.tdma_channel_stacks", "analysis.gtilde",
        ),
        "total",
    ),
    ("rx_ic.ic_stack_batch_ns_per_trial", ("ic_stack_batch", "analysis.ic_stack_batch"), "total"),
    ("rx_ic.ml_decode_batch_self_ns_per_trial", ("ml_decode_batch",), "self"),
    ("numerics.solve_psd_stack_ns_per_trial", ("solve_psd_stack", "analysis.solve_psd_stack"), "total"),
    ("schemes.simulate_batch_self_ns_per_trial", ("simulate_batch",), "self"),
    ("analysis.snr_batch_self_ns_per_trial", ("snr_tdma_batch", "snr_dstc_batch"), "self"),
    ("analysis.outage_diversity_self_ns_per_trial", ("outage_diversity",), "self"),
    ("harness.self_ns_per_trial", ("run_experiment", "run_diversity"), "self"),
]

# Every per-layer metric with its unit; BENCHMARK.json lists the same.
PER_LAYER_UNITS = {name: "ns/trial" for name, _, _ in TIMED_LAYERS}
PER_LAYER_UNITS.update(
    {
        "rx_ic.ml_decode_batch_peak_mb": "MB",
        "numerics.solve_psd_stack_calls_per_chunk": "calls/chunk",
        "numerics.solve_psd_stack_flops_per_trial": "flop/trial",
        "schemes.resample_rounds": "count",
        "schemes.erased_trials": "count",
    }
)


def solve_flops(a, b) -> float:
    """Real flops of a batched complex LU solve, computed from the shapes:
    8n^3/3 for the factorisation and 8n^2 per right-hand side for the two
    triangular solves, per matrix."""
    a_shape = np.shape(a)
    n = a_shape[-1]
    batch = int(np.prod(a_shape[:-2], dtype=np.int64))
    k = 1 if np.ndim(b) == len(a_shape) - 1 else np.shape(b)[-1]
    return batch * (8.0 * n**3 / 3.0 + 8.0 * n * n * k)


class Tracer:
    """Span aggregation plus the counters and oracles of the traced run."""

    def __init__(self):
        self.paused = 0.0
        self.muted = False  # set while hooks run: wrapped calls are not recorded
        self.stack = []  # open spans: [start, time of wrapped children]
        self.stats = {}  # span name -> [calls, total s, self s]
        self.saved = []
        self.flops = 0.0
        self.erased = 0
        self.ml_peak_bytes = 0
        self.sampled = {}  # (layer, argument signature) -> oracle calls so far
        self.ml_rows = 0
        self.ml_mismatches = 0
        self.ic_calls = 0
        self.ic_worst = 0.0
        self.problems = []

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def _paused(self, fn, *args):
        t0 = time.perf_counter()
        self.muted = True
        try:
            return fn(*args)
        finally:
            self.muted = False
            self.paused += time.perf_counter() - t0

    def _wrap(self, name, orig, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self.muted:
                return orig(*args, **kwargs)
            frame = [self.clock(), 0.0]
            stack.append(frame)
            try:
                out = orig(*args, **kwargs)
            finally:
                stack.pop()
                dur = self.clock() - frame[0]
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                self._paused(after, orig, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        hooks = {
            "ml_decode_batch": self._after_ml_decode,
            "ic_stack_batch": self._after_ic,
            "analysis.ic_stack_batch": self._after_ic,
            "solve_psd_stack": self._after_solve,
            "analysis.solve_psd_stack": self._after_solve,
            "simulate_chunk": self._after_chunk,
        }
        for name, (owner, attr) in SPANS.items():
            orig = getattr(owner, attr)
            self.saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig, hooks.get(name)))

    def uninstall(self):
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved.clear()

    def snapshot(self):
        """The figures the per-layer metrics are computed from."""
        stats = {name: list(v) for name, v in self.stats.items()}
        return stats, self.flops, self.erased, self.ml_peak_bytes

    def restore(self, snap):
        """Drop what was recorded since ``snap`` was taken.  The wrappers
        hold the per-name lists, so those are refilled in place."""
        stats, self.flops, self.erased, self.ml_peak_bytes = snap
        for name, values in stats.items():
            self.stats[name][:] = values

    # -- hooks, run with the clock paused ---------------------------------

    def _after_solve(self, orig, args, kwargs, out):
        self.flops += solve_flops(args[0], args[1])

    def _after_chunk(self, orig, args, kwargs, out):
        self.erased += int(np.count_nonzero(out[1]))

    def _after_ic(self, orig, args, kwargs, out):
        channels, target = args
        key = ("ic", np.shape(channels), target)
        seen = self.sampled.get(key, 0)
        if seen >= IC_ORACLE_CALLS:
            return
        self.sampled[key] = seen + 1
        bmat, bad = out
        worst = ic_residual(channels, bmat, target, bad)
        self.ic_calls += 1
        self.ic_worst = max(self.ic_worst, worst)
        if not worst <= IC_RESIDUAL_TOL:
            self.problems.append(
                f"ic_stack_batch{np.shape(channels)} target {target}: cancelled-source "
                f"residual {worst:.2e} > {IC_RESIDUAL_TOL:g}"
            )

    def _after_ml_decode(self, orig, args, kwargs, out):
        obs, h, r, scale, spec, const = args[:6]
        key = ("ml", np.shape(h), spec.n_symbols, const.order)
        seen = self.sampled.get(key, 0)
        if seen >= ML_ORACLE_CALLS:
            return
        self.sampled[key] = seen + 1
        tracemalloc.start()
        try:
            orig(*args, **kwargs)
            self.ml_peak_bytes = max(self.ml_peak_bytes, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        combos, sv = candidate_vectors(spec, const)
        obs2 = np.reshape(obs, (-1, np.shape(obs)[-1]))
        h2 = np.reshape(h, (-1,) + np.shape(h)[-2:])
        r2 = np.reshape(r, (-1,) + np.shape(r)[-2:])
        got = np.reshape(out, (-1, np.shape(out)[-1]))
        rows = np.unique(np.linspace(0, obs2.shape[0] - 1, ML_ORACLE_ROWS).astype(int))
        for i in rows:
            want = exhaustive_ml(obs2[i], h2[i], r2[i], scale, combos, sv)
            self.ml_rows += 1
            if not np.array_equal(want, got[i]):
                self.ml_mismatches += 1
                self.problems.append(
                    f"ml_decode_batch{np.shape(h)} row {i}: decided {got[i].tolist()}, "
                    f"exhaustive ML gives {want.tolist()}"
                )

    # -- results ------------------------------------------------------------

    def per_layer(self, trials: int) -> dict:
        """Every per-layer metric over ``trials`` traced trials."""

        def col(names, k):  # k: 0 calls, 1 total seconds, 2 self seconds
            return sum(self.stats[n][k] for n in names if n in self.stats)

        out = {}
        for metric, names, kind in TIMED_LAYERS:
            out[metric] = col(names, 1 if kind == "total" else 2) * 1e9 / trials
        # A chunk is the harness's unit of work: one simulate_chunk call, or
        # one SNR-sampler batch on the outage workload.
        chunks = col(("simulate_chunk", "snr_tdma_batch", "snr_dstc_batch"), 0)
        solves = col(("solve_psd_stack", "analysis.solve_psd_stack"), 0)
        out["rx_ic.ml_decode_batch_peak_mb"] = self.ml_peak_bytes / 1e6
        out["numerics.solve_psd_stack_calls_per_chunk"] = solves / chunks if chunks else 0.0
        out["numerics.solve_psd_stack_flops_per_trial"] = self.flops / trials
        out["schemes.resample_rounds"] = col(("simulate_batch",), 0) - col(("simulate_chunk",), 0)
        out["schemes.erased_trials"] = self.erased
        return out

    def oracle_summary(self) -> dict:
        return {
            "ml_decode_rows_checked": self.ml_rows,
            "ml_decode_mismatches": self.ml_mismatches,
            "ic_calls_checked": self.ic_calls,
            "ic_worst_residual": self.ic_worst,
        }
