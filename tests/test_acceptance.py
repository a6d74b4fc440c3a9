"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints "[acceptance N] PASS/FAIL: ..." so the full gate status
is visible in the pytest log.  Statistical criteria use fixed seeds and
SNR grids calibrated so the measured slopes sit inside the stated bands
with margin.
"""

import io
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from marnsim.airlink import NetworkConfig, RngStream
from marnsim.analysis import (
    ber_slope,
    lemma1_composite,
    make_eps_grid,
    outage_diversity,
    snr_dstc_batch,
    snr_tdma_batch,
    snr_upper_bound_dstc,
)
from marnsim.harness import ExperimentSpec, run_experiment
from marnsim.rx_ic import ic_stack_batch, pair_blocks, tdma_channel_stacks
from marnsim.schemes import SchemeId, post_ic_snr, scheme_meta
from marnsim.selftest import run_selftest

pytestmark = pytest.mark.slow


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance {num}: {detail}"


def _curve_slopes(points, window=4):
    curves = {}
    for p in points:
        curves.setdefault((p.scheme, p.J, p.M, p.N), []).append(p)
    out = {}
    for key, pts in curves.items():
        pts = sorted(pts, key=lambda q: q.snr_db)
        out[key] = (ber_slope([(p.snr_db, p.ber, p.bit_errors) for p in pts], window), pts)
    return out


def test_criterion_01_closed_form_equals_direct(capsys):
    # Closed-form TDMA-uplink SNR vs the simulated post-IC quadratic form,
    # 1e4 draws per config, relative error <= 1e-8, under a minute.
    t0 = time.perf_counter()
    worst = 0.0
    for j, m, n in [(2, 4, 3), (2, 8, 2)]:
        cfg = NetworkConfig(j, m, n, 10.0 ** 2.5)
        rng = RngStream(11, m)
        draws = [(rng.complex_normal(m, j), rng.complex_normal(m, n)) for _ in range(10_000)]
        f, g = (np.stack(d) for d in zip(*draws))
        a = snr_tdma_batch(f, g, cfg)
        b = post_ic_snr(SchemeId.TdmaIcRec, f, g, cfg)
        worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-30))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(capsys, 1, ok, f"max relative error {worst:.2e} (tol 1e-8), {elapsed:.1f} s")


def test_criterion_02_zero_forcing_completeness(capsys):
    # The IC matrix annihilates every cancelled source's stacked channel:
    # ||B G_j|| / ||G_j|| <= 1e-9 over 1e4 draws, J in {2,3}, N in J..5.
    t0 = time.perf_counter()
    worst = 0.0
    for j in (2, 3):
        for n in range(j, 6):
            rng = RngStream(12, j * 8 + n)
            g = rng.complex_normal(10_000, j, n)  # M = J, one antenna per source
            [stacks] = pair_blocks(tdma_channel_stacks(g, j), 1)
            bmat, bad = ic_stack_batch(stacks, 0)
            for jj in range(1, j):
                num = np.linalg.norm(bmat @ stacks[:, jj], axis=(-2, -1))
                den = np.linalg.norm(stacks[:, jj], axis=(-2, -1))
                worst = max(worst, float((num / den)[~bad].max()))
            # batch-of-one spot check on a subsample
            for i in range(100):
                b = ic_stack_batch(stacks[i : i + 1], 0)[0][0]
                for jj in range(1, j):
                    ratio = np.linalg.norm(b @ stacks[i, jj]) / np.linalg.norm(
                        stacks[i, jj]
                    )
                    worst = max(worst, float(ratio))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(capsys, 2, ok, f"max residual ratio {worst:.2e} (tol 1e-9), {elapsed:.1f} s")


def test_criterion_03_tdma_slopes(capsys):
    # Measured BER slopes for the TDMA-uplink scheme match
    # min(M, floor(M/J) * (N - J + 1)).
    cases = [
        ((2, 2, 2), (14.0, 18.0, 22.0, 26.0), 1.0, 0.35),
        ((2, 2, 3), (12.0, 14.0, 16.0, 18.0, 20.0), 2.0, 0.35),
        ((3, 3, 3), (14.0, 18.0, 22.0, 26.0), 1.0, 0.35),
        ((2, 4, 3), (10.0, 12.0, 14.0, 16.0), 4.0, 0.5),
    ]
    details = []
    ok = True
    for cfg3, grid, expect, tol in cases:
        spec = ExperimentSpec(
            (SchemeId.TdmaIcRec,),
            (cfg3,),
            grid,
            default_order=2,
            min_errors=250,
            max_trials=8_000_000,
            seed=0,
        )
        points = run_experiment(spec)
        ((est, pts),) = _curve_slopes(points).values()
        top = pts[-4:]
        enough = all(p.bit_errors >= 200 for p in top)
        ok &= enough and abs(est.slope - expect) <= tol
        details.append(f"{cfg3}: {est.slope:.2f} (want {expect:g}±{tol:g})")
    _report(capsys, 3, ok, "; ".join(details))


def test_criterion_04_dstc_slope_bound(capsys):
    # Concurrent-uplink slopes: bounded by M - J + 1, achieved for the
    # listed configs; (2,4,3) lands in [2.3, 3.3] due to the log factor.
    cases = [
        ((2, 2, 2), (20.0, 24.0, 28.0, 32.0), 1.0, 2_000_000),
        ((2, 2, 3), (20.0, 24.0, 28.0, 32.0), 1.0, 2_000_000),
        ((2, 2, 4), (20.0, 24.0, 28.0, 32.0), 1.0, 2_000_000),
        ((3, 4, 3), (29.0, 32.0, 35.0, 38.0), 2.0, 4_000_000),
    ]
    details = []
    ok = True
    for cfg3, grid, bound, max_trials in cases:
        spec = ExperimentSpec(
            (SchemeId.DstcIcRec,),
            (cfg3,),
            grid,
            default_order=2,
            min_errors=250,
            max_trials=max_trials,
            seed=0,
        )
        ((est, _),) = _curve_slopes(run_experiment(spec)).values()
        ok &= bound - 0.35 <= est.slope <= bound + 0.3
        details.append(f"{cfg3}: {est.slope:.2f} (bound {bound:g})")
    spec = ExperimentSpec(
        (SchemeId.DstcIcRec,),
        ((2, 4, 3),),
        (13.0, 16.0, 19.0, 22.0),
        default_order=2,
        min_errors=250,
        max_trials=4_000_000,
        seed=0,
    )
    ((est, _),) = _curve_slopes(run_experiment(spec)).values()
    ok &= 2.3 <= est.slope <= 3.3
    details.append(f"(2, 4, 3): {est.slope:.2f} (want [2.3, 3.3])")
    _report(capsys, 4, ok, "; ".join(details))


def test_criterion_05_upper_bound_dominates(capsys):
    # Channel-only SNR upper bound >= actual post-IC SNR, 1e4 draws, no
    # violations.
    cfg = NetworkConfig(2, 2, 3, 10.0 ** 2.0)
    rng = RngStream(13)
    f = rng.complex_normal(10_000, 2, 2)
    g = rng.complex_normal(10_000, 2, 3)
    gamma = snr_dstc_batch(f, g, cfg)
    bounds = snr_upper_bound_dstc(f, g, cfg)
    violations = int(np.sum(gamma > bounds * (1.0 + 1e-9) + 1e-12))
    ok = violations == 0
    _report(capsys, 5, ok, f"{violations} violations over 10000 draws")


def test_criterion_06_rate_matched_gap(capsys):
    # At 1 bit/source/channel use in the (2,2,3) network, the TDMA-uplink
    # scheme (8PSK) beats full TDMA (16PSK) at every SNR point, with a
    # 5 +- 2 dB gap at BER 1e-3.
    spec = ExperimentSpec(
        (SchemeId.TdmaIcRec, SchemeId.FullTdmaDstc),
        ((2, 2, 3),),
        tuple(float(s) for s in range(14, 36, 3)),
        orders={SchemeId.TdmaIcRec: 8, SchemeId.FullTdmaDstc: 16},
        min_errors=300,
        max_trials=2_000_000,
        seed=0,
    )
    curves = {}
    for p in run_experiment(spec):
        curves.setdefault(p.scheme, []).append(p)
    s2 = sorted(curves[SchemeId.TdmaIcRec], key=lambda p: p.snr_db)
    s4 = sorted(curves[SchemeId.FullTdmaDstc], key=lambda p: p.snr_db)
    beats = all(a.ber < b.ber for a, b in zip(s2, s4))

    def crossing(pts, level=1e-3):
        xs = [p.snr_db for p in pts]
        ys = [math.log10(p.ber) for p in pts if p.ber > 0]
        target = math.log10(level)
        for k in range(len(ys) - 1):
            if ys[k] >= target >= ys[k + 1]:
                frac = (ys[k] - target) / (ys[k] - ys[k + 1])
                return xs[k] + frac * (xs[k + 1] - xs[k])
        return None

    c2, c4 = crossing(s2), crossing(s4)
    gap = None if c2 is None or c4 is None else c4 - c2
    ok = beats and gap is not None and 3.0 <= gap <= 7.0
    _report(
        capsys,
        6,
        ok,
        f"beats at all points: {beats}; gap at BER 1e-3: "
        f"{'n/a' if gap is None else f'{gap:.2f} dB'} (want 5±2)",
    )


def test_criterion_07_high_snr_ordering(capsys):
    # (2,2,2) network at 1 bit/source/channel use: full TDMA has the
    # lowest BER of the four linear schemes at >= 28 dB; the other three
    # have slope approximately 1.
    linear = (
        SchemeId.DstcIcRec,
        SchemeId.TdmaIcRec,
        SchemeId.IcRelayTdma,
        SchemeId.FullTdmaDstc,
    )
    spec = ExperimentSpec(
        linear,
        ((2, 2, 2),),
        (16.0, 20.0, 24.0, 28.0, 32.0, 36.0, 40.0),
        orders={
            SchemeId.DstcIcRec: 4,
            SchemeId.TdmaIcRec: 8,
            SchemeId.IcRelayTdma: 8,
            SchemeId.FullTdmaDstc: 16,
        },
        min_errors=250,
        max_trials=2_000_000,
        seed=0,
    )
    curves = {}
    for p in run_experiment(spec):
        curves.setdefault(p.scheme, {})[p.snr_db] = p
    lowest = all(
        curves[SchemeId.FullTdmaDstc][snr].ber
        < min(curves[s][snr].ber for s in linear[:3])
        for snr in (28.0, 32.0, 36.0, 40.0)
    )
    details = [f"scheme4 lowest at >=28 dB: {lowest}"]
    ok = lowest
    for s in linear[:3]:
        pts = sorted(curves[s].values(), key=lambda p: p.snr_db)
        est = ber_slope([(p.snr_db, p.ber, p.bit_errors) for p in pts], 4)
        ok &= abs(est.slope - 1.0) <= 0.3
        details.append(f"{s.value} slope {est.slope:.2f}")
    _report(capsys, 7, ok, "; ".join(details))


def test_criterion_08_composite_outage_slope(capsys):
    # Harmonic-style composite of a branch SNR and a shared second-hop SNR
    # has outage slope min(d1, d2).
    details = []
    ok = True
    for idx, (d1, d2) in enumerate([(2, 4), (4, 2), (2, 2)]):
        comp = lemma1_composite(
            [lambda stream, n, k=d1: stream.generator.gamma(k, 1.0, n)],
            lambda stream, n, k=d2: stream.generator.gamma(k, 1.0, n),
        )
        pilot = comp(RngStream(14, idx), 20_000)
        grid = make_eps_grid(float(np.quantile(pilot[pilot > 0], 0.02)), 12)
        est = outage_diversity(comp, grid, 1_000_000, RngStream(15, idx))
        expect = min(d1, d2)
        ok &= abs(est.slope - expect) <= 0.25
        details.append(f"({d1},{d2}): {est.slope:.2f} (want {expect}±0.25)")
    _report(capsys, 8, ok, "; ".join(details))


def test_criterion_09_structural_selftest(capsys):
    t0 = time.perf_counter()
    buf = io.StringIO()
    ok_all = run_selftest(0, out=buf)
    elapsed = time.perf_counter() - t0
    checks = buf.getvalue().strip().splitlines()
    ok = ok_all and elapsed < 300.0
    _report(capsys, 9, ok, f"{len(checks)} checks, all green: {ok_all}, {elapsed:.1f} s")


def test_criterion_10_metadata_table(capsys):
    # Exhaustive (rate, CSI, diversity-claim) check for the four linear
    # schemes over all J <= min(M, N) <= 8, exact rational comparison.
    ok = True
    bad = None
    count = 0
    for m in range(1, 9):
        for n in range(1, 9):
            for j in range(1, min(m, n) + 1):
                rows = {
                    SchemeId.DstcIcRec: (Fraction(1, 2), False, m - j + 1),
                    SchemeId.TdmaIcRec: (
                        Fraction(1, j + 1),
                        True,
                        min(m, (m // j) * (n - j + 1)),
                    ),
                    SchemeId.IcRelayTdma: (Fraction(1, j + 1), True, m - j + 1),
                    SchemeId.FullTdmaDstc: (Fraction(1, 2 * j), False, m),
                }
                for scheme, (rate, csi, claim) in rows.items():
                    meta = scheme_meta(scheme, j, m, n)
                    count += 1
                    good = (
                        meta.symbol_rate == rate
                        and meta.relay_backward_csi == csi
                        and meta.diversity_claim == claim
                    )
                    if scheme is SchemeId.DstcIcRec:
                        good &= meta.claim_kind == "upper_bound"
                    if scheme is SchemeId.TdmaIcRec:
                        good &= meta.claim_kind == "achieved"
                    if not good and bad is None:
                        bad = (scheme.value, j, m, n)
                    ok &= good
    detail = f"{count} rows checked" + ("" if ok else f"; first mismatch {bad}")
    _report(capsys, 10, ok, detail)
