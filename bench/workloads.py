"""The benchmark's four workloads and the checks on their outputs.

A workload is a fixed list of operations; one *round* runs each of them
once.  Every BER cell stops on ``max_trials`` alone (``min_errors`` is set
out of reach), so the work a round does does not depend on the BER the
program produces.  All inputs derive from the ``--seed`` argument through
the harness's counter-based streams, so the same seed gives the same
inputs and the same outputs.

The checks recompute what they compare against (block lengths, Wilson
intervals, the paper's diversity formulas) instead of calling the
program's own helpers for them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

from marnsim import harness
from marnsim.airlink import NetworkConfig
from marnsim.harness import COMPARISON_ORDERS, ExperimentSpec, canned_spec
from marnsim.schemes import SchemeId

# min_errors that no cell reaches, so every cell stops on max_trials.
NO_ERROR_STOP = 1 << 62

# The harness's chunk size (harness.CHUNK_TRIALS): each sweep cell is one
# chunk of the batch size `marnsim compare` runs at, and so is the joint
# cell that fails today (it needs ~11 GB).
CHUNK_TRIALS = 4096
JOINT_TRIALS = 64  # per short cell; ~180 MB of joint-search temporaries
JOINT_SNR_DB = (8.0, 20.0)
JOINT_CHUNK_SNR_DB = 20.0
OUTAGE_TDMA_DRAWS = 800_000  # fewest draws that give 3 usable epsilon points
OUTAGE_DSTC_DRAWS = 200_000
PILOT_DRAWS = 20_000  # run_diversity's fixed pilot batch, counted as draws

TDMA_SLOPE_TOL = 0.5
DSTC_SLOPE_SLACK = 0.3
Z95 = 1.959963984540054


@dataclass
class Op:
    """One operation of a round: it either completes ``trials`` trials
    and passes ``check``, or raises."""

    label: str
    run: Callable
    trials: int
    check: Callable  # result -> list of problem strings
    counts: Callable  # result -> fixed-seed aggregate counts (reported only)
    expected_fault: str = ""  # known program fault this op hits today


@dataclass
class Workload:
    name: str
    ops: list
    warmup: Callable
    memory_cap: bool = False  # run under RLIMIT_AS


# ---------------------------------------------------------------------------
# Independent references


def block_length(m: int) -> int:
    """Codeword slots of the distributed STBC on m relay antennas:
    1 antenna sends the symbol, 2 use Alamouti, 3-4 the quasi-orthogonal
    4-slot code."""
    if m == 1:
        return 1
    if m == 2:
        return 2
    if m in (3, 4):
        return 4
    raise ValueError(f"no block length for {m} antennas")


def coded_antennas(scheme: SchemeId, J: int, M: int) -> int:
    """Antennas one codeword spans: a group of M/J for the TDMA-uplink
    schemes, all M otherwise."""
    if scheme in (SchemeId.TdmaIcRec, SchemeId.DecodeRelayIcDest):
        return M // J
    return M


def wilson(k: int, n: int, z: float = Z95):
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return center - half, center + half


def tdma_diversity(J: int, M: int, N: int) -> int:
    return min(M, (M // J) * (N - J + 1))


def dstc_diversity_bound(J: int, M: int) -> int:
    return M - J + 1


# ---------------------------------------------------------------------------
# Checks


def check_ber_points(points, spec: ExperimentSpec):
    problems = []
    curves = {}
    for p in points:
        order = spec.order_for(p.scheme)
        T = block_length(coded_antennas(p.scheme, p.J, p.M))
        want_bits = p.trials * p.J * T * int(round(math.log2(order)))
        tag = f"{p.scheme.value} ({p.J},{p.M},{p.N}) {p.snr_db:g} dB"
        if p.trials != spec.max_trials:
            problems.append(f"{tag}: {p.trials} trials, requested {spec.max_trials}")
        if p.erasures != 0:
            problems.append(f"{tag}: {p.erasures} erasures")
        if p.bits != want_bits:
            problems.append(f"{tag}: {p.bits} bits, expected {want_bits}")
        if not 0 <= p.bit_errors <= p.bits:
            problems.append(f"{tag}: {p.bit_errors} bit errors out of {p.bits}")
        curves.setdefault((p.scheme, p.J, p.M, p.N), []).append(p)
    want_cells = len(spec.schemes) * len(spec.configs) * len(spec.snr_db)
    if len(points) != want_cells:
        problems.append(f"{len(points)} cells, expected {want_cells}")
    for (scheme, J, M, N), pts in curves.items():
        pts = sorted(pts, key=lambda q: q.snr_db)
        tag = f"{scheme.value} ({J},{M},{N})"
        if pts[0].bits == 0:
            continue  # reported by the accounting check above
        low = pts[0].bit_errors / pts[0].bits
        if not 0.0 < low <= 0.5:
            problems.append(f"{tag}: BER {low:.3e} at its lowest SNR is outside (0, 0.5]")
        ci = [wilson(q.bit_errors, q.bits) for q in pts]
        for i in range(len(pts)):
            for k in range(i + 1, len(pts)):
                if ci[k][0] > ci[i][1]:
                    problems.append(
                        f"{tag}: BER rises from {pts[i].snr_db:g} dB to {pts[k].snr_db:g} dB "
                        f"beyond the 95% Wilson intervals"
                    )
    return problems


def ber_counts(points):
    return {
        "bit_errors": sum(p.bit_errors for p in points),
        "erasures": sum(p.erasures for p in points),
    }


def check_slope(est, label, lo, hi, trials):
    if not math.isfinite(est.slope):
        return [f"{label}: fewer than 3 usable epsilon points from {trials} draws"]
    if not lo <= est.slope <= hi:
        return [f"{label}: outage slope {est.slope:.3f} outside [{lo:g}, {hi:g}]"]
    return []


def outage_counts(est):
    return {
        "slope": est.slope,
        "outage_events": [k for _, k, _ in est.points],
    }


# ---------------------------------------------------------------------------
# Workload definitions


def _ber_op(label, spec, expected_fault=""):
    n_cells = len(spec.schemes) * len(spec.configs) * len(spec.snr_db)
    return Op(
        label,
        lambda: harness.run_experiment(spec),
        n_cells * spec.max_trials,
        lambda pts: check_ber_points(pts, spec),
        ber_counts,
        expected_fault,
    )


def _warm_spec(spec: ExperimentSpec) -> ExperimentSpec:
    """One tiny cell per scheme, so each kernel's code path runs once."""
    return dataclasses.replace(spec, snr_db=spec.snr_db[:1], max_trials=4)


def _sweep(name, canned, schemes, trials, seed):
    """One operation per scheme: its 12-point curve through run_experiment."""
    spec = canned_spec(canned, seed=seed, min_errors=NO_ERROR_STOP, max_trials=trials, workers=1)
    spec = dataclasses.replace(spec, schemes=schemes)
    ops = [
        _ber_op(f"{name}/{scheme.value}", dataclasses.replace(spec, schemes=(scheme,)))
        for scheme in schemes
    ]
    warm = _warm_spec(spec)
    return Workload(name, ops, lambda: harness.run_experiment(warm))


def fig7_sweep(seed: int) -> Workload:
    return _sweep("fig7_sweep", "fig7", tuple(SchemeId), CHUNK_TRIALS, seed)


def fig8_sweep(seed: int) -> Workload:
    schemes = tuple(s for s in SchemeId if s is not SchemeId.ConcurrentJoint)
    return _sweep("fig8_sweep", "fig8", schemes, CHUNK_TRIALS, seed)


def joint_fig8(seed: int) -> Workload:
    base = ExperimentSpec(
        (SchemeId.ConcurrentJoint,),
        ((2, 4, 3),),
        JOINT_SNR_DB,
        orders={SchemeId.ConcurrentJoint: COMPARISON_ORDERS[SchemeId.ConcurrentJoint]},
        min_errors=NO_ERROR_STOP,
        max_trials=JOINT_TRIALS,
        seed=seed,
        workers=1,
    )
    chunk = dataclasses.replace(base, snr_db=(JOINT_CHUNK_SNR_DB,), max_trials=CHUNK_TRIALS)
    ops = [
        _ber_op("joint_fig8/short_cells", base),
        _ber_op(
            "joint_fig8/4096_trial_cell",
            chunk,
            expected_fault=(
                "MemoryError: concurrent_joint at (2,4,3) QPSK materialises a "
                "4096 x 65536 complex joint-search array in ml_decode_batch"
            ),
        ),
    ]
    warm = _warm_spec(base)
    return Workload("joint_fig8", ops, lambda: harness.run_experiment(warm), memory_cap=True)


def _outage_op(label, scheme, cfg, draws, seed, lo, hi):
    return Op(
        label,
        lambda: harness.run_diversity(scheme, cfg, trials=draws, seed=seed),
        draws + PILOT_DRAWS,
        lambda est: check_slope(est, label, lo, hi, draws),
        outage_counts,
    )


def outage_slopes(seed: int) -> Workload:
    # P = 20 dB, the diversity command's default; slopes do not depend on it.
    tdma_cfg = NetworkConfig(2, 4, 3, 1e2)
    dstc_cfg = NetworkConfig(2, 2, 3, 1e2)
    d_tdma = tdma_diversity(2, 4, 3)
    d_dstc = dstc_diversity_bound(2, 2)
    ops = [
        _outage_op(
            "outage_slopes/tdma_icrec(2,4,3)", SchemeId.TdmaIcRec, tdma_cfg,
            OUTAGE_TDMA_DRAWS, seed, d_tdma - TDMA_SLOPE_TOL, d_tdma + TDMA_SLOPE_TOL,
        ),
        _outage_op(
            "outage_slopes/dstc_icrec(2,2,3)", SchemeId.DstcIcRec, dstc_cfg,
            OUTAGE_DSTC_DRAWS, seed, 0.0, d_dstc + DSTC_SLOPE_SLACK,
        ),
    ]

    def warmup():
        # A given eps_start skips the fixed 20k-draw pilot: set-up stays minimal.
        harness.run_diversity(SchemeId.TdmaIcRec, tdma_cfg, trials=2000, seed=seed, eps_start=1.0)
        harness.run_diversity(SchemeId.DstcIcRec, dstc_cfg, trials=2000, seed=seed, eps_start=1.0)

    return Workload("outage_slopes", ops, warmup)


WORKLOADS = {
    "fig7_sweep": fig7_sweep,
    "fig8_sweep": fig8_sweep,
    "joint_fig8": joint_fig8,
    "outage_slopes": outage_slopes,
}
