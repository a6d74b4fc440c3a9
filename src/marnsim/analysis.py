"""Closed-form SNR expressions and diversity-order estimators.

The TDMA-uplink scheme admits an exact receive-SNR formula: with
x = sum_i |f_i|^2 (uplink gain of the target) and y the quadratic form of
the target's stacked downlink channel through the zero-forcing projector,
the post-IC whitened SNR is the scaled harmonic mean x y / (x + c^2 y)
(``snr_tdma_batch``).  Verifying this equality against the simulated
system (``schemes.post_ic_snr``, the kernel's own front end) exercises
the whole IC and covariance pipeline at once, which is why it is a
primary oracle.  The concurrent uplink (M = 2) has the same pair: the
explicit-IC ``snr_dstc_batch`` against ``post_ic_snr`` of
``dstc_icrec``.  Each SNR takes (n, M, J) / (n, M, N) channel draws and
returns (n,) values; one draw is a batch of one.

The outage samplers (``harness.make_gamma_sampler``) run ``post_ic_snr``,
one ``CHUNK_TRIALS`` tile of draws at a time; the dense closed forms
stay as their independent oracle.

Diversity orders are estimated two ways: from the small-epsilon slope of
the SNR outage probability, and from the high-SNR slope of measured BER
curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .airlink import NetworkConfig, RngStream
from .numerics import UsageError, dagger, solve_psd_stack, zf_residual
from .relay_codec import dstc_design, dstc_power_scale, tdma_power_scale
from .rx_ic import (
    dstc_channel_stacks,
    gtilde,
    ic_stack_batch,
    noise_cov_forwarded,
    pair_blocks,
    tdma_channel_stacks,
)

__all__ = [
    "DiversityEstimate",
    "whitened_snr",
    "snr_upper_bound_dstc",
    "snr_tdma_batch",
    "snr_dstc_batch",
    "outage_diversity",
    "make_eps_grid",
    "ber_slope",
    "lemma1_composite",
]


@dataclass(frozen=True)
class DiversityEstimate:
    """Fitted log-log slope with its regression standard error."""

    slope: float
    stderr: float
    fit_range: tuple
    points: tuple


def whitened_snr(h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Whitened receive SNR h* R^{-1} h of (..., K) channel columns under
    (..., K, K) noise covariances, clipped at 0."""
    w = solve_psd_stack(r, h)
    return np.maximum(np.einsum("...k,...k->...", np.conj(h), w).real, 0.0)


def snr_upper_bound_dstc(F: np.ndarray, G: np.ndarray, cfg: NetworkConfig, target: int = 0) -> np.ndarray:
    """Channel-only upper bound (n,) on the concurrent-uplink receive SNR
    of (n, M, J) / (n, M, N) channel draws:

    bound = trace(Gt* Gt) * f_t* Theta f_t

    with Gt the relay-noise mixing matrix (trace = 2 * sum |g_in|^2) and
    Theta the projector onto the orthogonal complement of the other
    sources' uplink columns, so that f_t* Theta f_t is the target's
    zero-forcing residual (``zf_residual``).  Dominates the actual
    post-IC SNR on every draw; its diversity order caps the scheme's at
    M - J + 1.
    """
    if cfg.M != 2:
        raise UsageError(f"upper bound covers M=2, got M={cfg.M}")
    g_total = 2.0 * np.sum(np.abs(G) ** 2, axis=(-2, -1))
    return g_total * zf_residual(np.moveaxis(F, 0, -1), target)


def snr_tdma_batch(F: np.ndarray, G: np.ndarray, cfg: NetworkConfig, target: int = 0) -> np.ndarray:
    """Closed-form TDMA-uplink SNR (n,) over (n, M, J) / (n, M, N)
    channel draws, any M >= J; degenerate draws come back as 0.

    gamma = x y / (x + c^2 y) summed over splits (halved for the 4-slot
    split pair, whose per-split variances double), with
    x = sum_i |f_i|^2 and y = g* B* (B B*)^{-1} B g for the stacked first
    column g of the target's downlink blocks and B its explicit IC
    matrix.  Equals post_ic_snr of tdma_icrec to numerical precision; the
    equality encodes the zero-forcing projector identity and the Alamouti
    diagonality of the whitened Gram matrix.
    """
    x = np.sum(np.abs(F[..., target]) ** 2, axis=-1)
    c = tdma_power_scale(cfg.P, cfg.M)
    T = dstc_design(cfg.M // cfg.J).T
    kappa = 2.0 if T == 4 else 1.0
    gamma = np.zeros(x.shape)
    for split in pair_blocks(tdma_channel_stacks(G, cfg.J), T):  # the pairs are freed before the IC runs
        bmat, bad = ic_stack_batch(split, target)
        bg = (bmat @ split[:, target])[..., 0]
        y = whitened_snr(bg, bmat @ dagger(bmat))
        term = np.where(x > 0, x * y / np.maximum(x + c * c * y, 1e-300), 0.0)
        gamma += np.where(bad, 0.0, term) / kappa
    return gamma


def snr_dstc_batch(F: np.ndarray, G: np.ndarray, cfg: NetworkConfig, target: int = 0) -> np.ndarray:
    """Vectorized post-IC concurrent-uplink SNR (2-antenna relay)."""
    if cfg.M != 2:
        raise UsageError(f"direct SNR helper covers M=2, got M={cfg.M}")
    [split] = pair_blocks(dstc_channel_stacks(F, G), 2)
    bmat, bad = ic_stack_batch(split, target)
    h = (bmat @ split[:, target])[..., 0]
    c = dstc_power_scale(cfg.P, cfg.M, cfg.J)
    r = noise_cov_forwarded(gtilde(G), c, 1.0, bmat)
    return np.where(bad, 0.0, whitened_snr(h, r))


# ---------------------------------------------------------------------------
# Diversity estimators

EPS_FACTOR = 2.0  # ratio of neighbouring epsilon grid points
MIN_EVENTS = 50  # outage events a grid point needs to enter the fit
MIN_BIT_ERRORS = 100  # bit errors a BER point needs to enter the fit
OUTAGE_BATCH = 200_000  # sampler draws per call


def make_eps_grid(start: float, count: int):
    """Decreasing geometric epsilon grid start, start/EPS_FACTOR, ..."""
    if start <= 0 or count < 1:
        raise UsageError("need start > 0, count >= 1")
    return start / EPS_FACTOR ** np.arange(count)


def outage_diversity(sampler, eps_grid, trials: int, stream: RngStream = None) -> DiversityEstimate:
    """Small-epsilon slope of log P(gamma < eps) vs log eps.

    ``sampler(stream, n)`` returns n gamma draws, at most OUTAGE_BATCH per
    call.  Points with fewer than MIN_EVENTS outage events are dropped;
    the weighted least-squares fit uses per-point event counts as weights.
    Fewer than 3 usable points yields a flagged (NaN) estimate.
    """
    if trials < 1:
        raise UsageError(f"need at least one trial, got {trials}")
    eps = np.sort(np.asarray(eps_grid, dtype=float))[::-1]
    if eps.size < 1 or eps[-1] <= 0:
        raise UsageError("epsilon grid must be positive")
    stream = stream if stream is not None else RngStream(0)
    counts = np.zeros(eps.size, dtype=np.int64)
    done = 0
    while done < trials:
        n = min(OUTAGE_BATCH, trials - done)
        g = np.asarray(sampler(stream, n), dtype=float)
        counts += np.sum(g[:, None] < eps[None, :], axis=0)
        done += n
    keep = counts >= MIN_EVENTS
    pts = tuple(
        (float(e), int(k), float(k) / trials) for e, k in zip(eps[keep], counts[keep])
    )
    if keep.sum() < 3:
        return DiversityEstimate(float("nan"), float("nan"), (float(eps[-1]), float(eps[0])), pts)
    x = np.log(eps[keep])
    y = np.log(counts[keep] / trials)
    w = counts[keep].astype(float)
    slope, stderr = _wls_slope(x, y, w)
    return DiversityEstimate(slope, stderr, (float(eps[keep].min()), float(eps[keep].max())), pts)


def _wls_slope(x, y, w):
    wsum = w.sum()
    xm = np.sum(w * x) / wsum
    ym = np.sum(w * y) / wsum
    sxx = np.sum(w * (x - xm) ** 2)
    if sxx <= 0:
        return float("nan"), float("nan")
    slope = np.sum(w * (x - xm) * (y - ym)) / sxx
    resid = y - ym - slope * (x - xm)
    dof = max(len(x) - 2, 1)
    s2 = np.sum(w * resid**2) / dof
    return float(slope), float(math.sqrt(s2 / sxx))


def ber_slope(points, window: int = 4) -> DiversityEstimate:
    """High-SNR diversity from measured BER points.

    ``points`` are (snr_db, ber) or (snr_db, ber, bit_errors) tuples; the
    fit covers the top ``window`` SNR points and returns the slope of
    -log10(BER) against snr_db/10 (decades per decade of SNR).
    """
    pts = sorted((tuple(p) for p in points), key=lambda p: p[0])
    if len(pts) < 3:
        raise UsageError("need at least 3 BER points")
    for p in pts:
        if not p[1] > 0:
            raise UsageError(f"BER must be positive, got {p[1]} at {p[0]} dB")
        if len(p) > 2 and p[2] < MIN_BIT_ERRORS:
            raise UsageError(f"point at {p[0]} dB has only {p[2]} bit errors")
    top = pts[-window:] if window and window >= 3 else pts
    x = np.array([p[0] / 10.0 for p in top])
    y = np.array([-math.log10(p[1]) for p in top])
    w = np.ones_like(x)
    slope, stderr = _wls_slope(x, y, w)
    return DiversityEstimate(slope, stderr, (float(top[0][0]), float(top[-1][0])), tuple(top))


def lemma1_composite(g_samplers, gamma_g_sampler):
    """Sampler for the two-hop composite SNR

    gamma = sum_n gamma_n * gamma_g / (gamma_n + gamma_g)

    with one shared gamma_g draw per sample and the 0/0 case defined as 0.
    The composite's diversity is min over the inputs' diversities.
    """
    if len(g_samplers) < 1:
        raise UsageError("need at least one per-branch sampler")

    def sampler(stream: RngStream, n: int) -> np.ndarray:
        gg = np.asarray(gamma_g_sampler(stream, n), dtype=float)
        total = np.zeros(n)
        for gs in g_samplers:
            gn = np.asarray(gs(stream, n), dtype=float)
            denom = gn + gg
            with np.errstate(invalid="ignore", divide="ignore"):
                term = np.where(denom > 0, gn * gg / np.where(denom > 0, denom, 1.0), 0.0)
            total += term
        return total

    return sampler
