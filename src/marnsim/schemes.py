"""End-to-end transmission schemes.

Six two-hop protocols over the same J x M x N network, all at the same
per-node power P:

1. dstc_icrec       concurrent uplink, distributed space-time code at the
                    relay, zero-forcing IC at the destination
2. tdma_icrec       TDMA uplink with MRC at the relay, concurrent coded
                    downlink on disjoint antenna groups, IC at the
                    destination
3. ic_relay_tdma    concurrent uplink, zero-forcing separation at the
                    relay, per-source coded downlink in TDMA
4. full_tdma_dstc   fully orthogonal: each source gets both hops alone
5. decode_relay     tdma_icrec with a hard ML decision at the relay
6. concurrent_joint dstc_icrec front end, joint ML over all sources, no IC

Every scheme is a composition of shared stages over a leading trial axis:
the uplink draw, a relay operation, the downlink and its recombination,
then one decode tail (optional zero-forcing IC, one of the two noise
covariance stages of ``rx_ic``, whitened ML and the error count).  The
schemes differ only in the relay operation and in how the relay noise
reaches the destination.  simulate_chunk adds the resampling of
degenerate channel draws.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .airlink import Constellation, NetworkConfig, RngStream, modulate
from .numerics import UsageError
from .relay_codec import (
    apply_design,
    dstc_design,
    dstc_power_scale,
    tdma_power_scale,
)
from .rx_ic import (
    DEGENERATE_TOL,
    default_rotation,
    dstc_channel_stacks,
    gtilde,
    ic_stack_batch,
    ml_decode_batch,
    noise_cov_forwarded,
    noise_cov_on_target,
    recombine,
    split_slices,
    symbol_spec,
    tdma_channel_stacks,
)

__all__ = [
    "SchemeId",
    "SchemeMeta",
    "scheme_meta",
    "int_free_condition",
    "block_length",
    "bits_per_channel_use",
    "relay_hard_decision",
    "relay_forward_groups",
    "simulate_batch",
    "simulate_chunk",
    "MAX_RESAMPLES",
]

MAX_RESAMPLES = 10


class SchemeId(enum.Enum):
    DstcIcRec = "dstc_icrec"
    TdmaIcRec = "tdma_icrec"
    IcRelayTdma = "ic_relay_tdma"
    FullTdmaDstc = "full_tdma_dstc"
    DecodeRelayIcDest = "decode_relay"
    ConcurrentJoint = "concurrent_joint"

    @classmethod
    def parse(cls, name: str) -> "SchemeId":
        """Accepts canonical names, enum member names, and scheme1..6."""
        order = list(cls)
        low = name.strip().lower()
        if low.startswith("scheme") and low[6:].isdigit():
            k = int(low[6:])
            if 1 <= k <= len(order):
                return order[k - 1]
            raise UsageError(f"unknown scheme number {k}")
        for member in order:
            if low in (member.value, member.name.lower()):
                return member
        raise UsageError(f"unknown scheme name {name!r}")

    @property
    def number(self) -> int:
        return list(type(self)).index(self) + 1


@dataclass(frozen=True)
class SchemeMeta:
    """Published characteristics of one scheme at a given (J, M, N)."""

    symbol_rate: Fraction
    relay_backward_csi: bool
    diversity_claim: int
    claim_kind: str  # "upper_bound" or "achieved"


def scheme_meta(scheme: SchemeId, J: int, M: int, N: int) -> SchemeMeta:
    """Symbol rate (symbols/source/channel use over both hops), relay CSI
    requirement, and the claimed diversity order for one scheme."""
    if J < 1 or J > min(M, N):
        raise UsageError(f"need 1 <= J <= min(M, N), got J={J}, M={M}, N={N}")
    tdma_div = min(M, (M // J) * (N - J + 1))
    table = {
        SchemeId.DstcIcRec: (Fraction(1, 2), False, M - J + 1, "upper_bound"),
        SchemeId.TdmaIcRec: (Fraction(1, J + 1), True, tdma_div, "achieved"),
        SchemeId.IcRelayTdma: (Fraction(1, J + 1), True, M - J + 1, "achieved"),
        SchemeId.FullTdmaDstc: (Fraction(1, 2 * J), False, M, "achieved"),
        SchemeId.DecodeRelayIcDest: (Fraction(1, J + 1), True, tdma_div, "achieved"),
        SchemeId.ConcurrentJoint: (Fraction(1, 2), False, min(M, M - J + 2), "achieved"),
    }
    return SchemeMeta(*table[scheme])


def int_free_condition(J: int, M: int, N: int) -> bool:
    """True iff the destination has enough antennas for the TDMA-uplink
    scheme to reach the interference-free diversity M:
    N >= M / floor(M/J) + J - 1."""
    if J < 1 or J > M:
        raise UsageError(f"need 1 <= J <= M, got J={J}, M={M}")
    return Fraction(N) >= Fraction(M, M // J) + J - 1


def block_length(scheme: SchemeId, J: int, M: int) -> int:
    """Symbols per source per codeword block (downlink slot count)."""
    if scheme in (SchemeId.TdmaIcRec, SchemeId.DecodeRelayIcDest):
        return dstc_design(M // J).T
    return dstc_design(M).T


# ---------------------------------------------------------------------------
# Shared stages


def _draw_symbols(const: Constellation, T: int, stream: RngStream, n: int, J: int):
    """Random source bits and their symbols; for 4-slot codewords the
    second symbol pair uses the rotated constellation."""
    b = const.bits_per_symbol
    bits = stream.bits(n, J, T * b)
    s = modulate(bits, const)
    if T == 4:
        s = s.copy()
        s[..., 2:] = s[..., 2:] * np.exp(1j * default_rotation(const.order))
    return bits, s


def relay_hard_decision(soft: np.ndarray, const: Constellation, P: float) -> np.ndarray:
    """Hard ML decision at the relay on (..., T) soft estimates
    sqrt(P) s + noise: each slot becomes sqrt(P) times the nearest point of
    its (possibly rotated) constellation, ties to the lowest index."""
    T = soft.shape[-1]
    hard = np.empty(soft.shape, dtype=complex)
    rots = [default_rotation(const.order) if f else 0.0 for f in symbol_spec(T).rotated]
    for t in range(T):
        ct = const.rotated(rots[t]) if rots[t] else const
        hard[..., t] = math.sqrt(P) * ct.points[ct.nearest(soft[..., t] / math.sqrt(P))]
    return hard


def relay_forward_groups(est: np.ndarray, design, c: float, M: int) -> np.ndarray:
    """TDMA-uplink relay output: every source's (n, J, T) symbol estimates
    coded at once on disjoint antenna groups.

    Source j's codeword, amplified by c, occupies antennas j*g .. (j+1)*g - 1
    with g = design.m_used; antennas past J*g stay silent.  Returns the
    (n, M, T) relay transmit block.
    """
    n, J, T = est.shape
    gs = design.m_used
    if J * gs > M:
        raise UsageError(f"{J} groups of {gs} antennas exceed M={M}")
    x_relay = np.zeros((n, M, T), dtype=complex)
    for j in range(J):
        grp = np.broadcast_to(est[:, j, None, :], (n, gs, T))
        x_relay[:, j * gs : (j + 1) * gs, :] = c * apply_design(design, grp)
    return x_relay


def _downlink(x_relay: np.ndarray, G: np.ndarray, stream: RngStream):
    """Second hop: (n, M, T) relay output through (n, M, N) channels."""
    n, _, T = x_relay.shape
    N = G.shape[-1]
    return np.einsum("nmt,nmo->not", x_relay, G) + stream.complex_normal(n, N, T)


def _assemble(parts):
    """Stack per-split (obs, H, R) into one block-diagonal system."""
    if len(parts) == 1:
        return parts[0]
    (o1, h1, r1), (o2, h2, r2) = parts
    k1, k2 = o1.shape[-1], o2.shape[-1]
    obs = np.concatenate([o1, o2], axis=-1)
    h = np.zeros(obs.shape[:-1] + (k1 + k2, 4), dtype=complex)
    h[..., :k1, 0:2] = h1
    h[..., k1:, 2:4] = h2
    r = np.zeros(obs.shape[:-1] + (k1 + k2, k1 + k2), dtype=complex)
    r[..., :k1, :k1] = r1
    r[..., k1:, k1:] = r2
    return obs, h, r


def _count_errors(idx: np.ndarray, sent_bits: np.ndarray, const: Constellation):
    """Bit errors of decoded symbol indices (n, T) vs sent bits (n, T*b)."""
    dec = const.labels[idx].reshape(idx.shape[0], -1)
    return np.sum(dec != sent_bits, axis=-1)


def _decode(stacks, obs, target, cov, scale, const, sent_bits, bad=None):
    """Shared decode tail: bit errors (n,) of one source.

    ``stacks`` (n, J, rows, t) and ``obs`` (n, rows) are the recombined
    system.  Given a ``bad`` mask, each split first cancels every other
    source by zero-forcing IC and ORs its degenerate draws into the mask;
    without one the splits go to the decoder as they are.
    ``cov(bmat, bh)`` is a split's noise covariance from its IC matrix
    (None without IC) and the target's projected channel.
    """
    parts = []
    for rows, cols in split_slices(stacks):
        ch_s, obs_s = stacks[..., rows, cols], obs[..., rows]
        if bad is None:
            bmat, hp = None, ch_s[:, target]
        else:
            bmat, bd = ic_stack_batch(ch_s, target)
            bad |= bd
            obs_s = np.einsum("nrk,nk->nr", bmat, obs_s)
            hp = bmat @ ch_s[:, target]
        parts.append((obs_s, hp, cov(bmat, hp)))
    obs_t, h_t, r_t = _assemble(parts)
    idx = ml_decode_batch(obs_t, h_t, r_t, scale, symbol_spec(stacks.shape[-1]), const)
    return _count_errors(idx, sent_bits, const)


# ---------------------------------------------------------------------------
# Scheme kernels


def _kernel_dstc(cfg, const, stream, n, joint: bool):
    J, M, N, P = cfg.J, cfg.M, cfg.N, cfg.P
    if M not in (2, 3, 4):
        raise UsageError(f"concurrent-uplink schemes support M in 2..4, got {M}")
    design = dstc_design(M)
    T = design.T
    c = dstc_power_scale(P, M, J)
    kappa = 2.0 if T == 4 else 1.0
    F = stream.complex_normal(n, M, J)
    G = stream.complex_normal(n, M, N)
    bits, s = _draw_symbols(const, T, stream, n, J)
    r = math.sqrt(P) * np.einsum("nmj,njt->nmt", F, s) + stream.complex_normal(n, M, T)
    raw = _downlink(c * apply_design(design, r), G, stream)
    obs = recombine(raw, T)
    stacks = dstc_channel_stacks(F, G)
    scale = math.sqrt(P) * c
    errors = np.zeros((n, J), dtype=np.int64)
    bad = np.zeros(n, dtype=bool)

    if joint:
        if const.order ** (J * T) > 1 << 20:
            raise UsageError("joint search space exceeds 2^20 hypotheses")
        spec = symbol_spec(T)
        h_all = np.concatenate([stacks[:, j] for j in range(J)], axis=-1)
        gt = gtilde(G)
        r_half = noise_cov_forwarded(gt, c, kappa)
        if T == 4:
            r_pre = np.zeros((n, 4 * N, 4 * N), dtype=complex)
            r_pre[:, : 2 * N, : 2 * N] = r_half
            r_pre[:, 2 * N :, 2 * N :] = r_half
        else:
            r_pre = r_half
        entries, rotated = [], []
        for j in range(J):
            entries.extend(spec.shifted(j * spec.n_symbols).entries)
            rotated.extend(spec.rotated)
        jspec = type(spec)(J * spec.n_symbols, tuple(entries), tuple(rotated))
        idx = ml_decode_batch(obs, h_all, r_pre, scale, jspec, const)
        for j in range(J):
            errors[:, j] = _count_errors(
                idx[:, j * spec.n_symbols : (j + 1) * spec.n_symbols], bits[:, j], const
            )
        return errors, bad

    gt = gtilde(G)
    for j in range(J):
        errors[:, j] = _decode(
            stacks, obs, j, lambda b, bh: noise_cov_forwarded(gt, c, kappa, b),
            scale, const, bits[:, j], bad,
        )
    return errors, bad


def _kernel_tdma(cfg, const, stream, n, hard_relay: bool):
    J, M, N, P = cfg.J, cfg.M, cfg.N, cfg.P
    gs = M // J
    if gs not in (1, 2, 3, 4):
        raise UsageError(f"TDMA-uplink schemes support group size 1..4, got {gs}")
    design = dstc_design(gs)
    T = design.T
    c1 = tdma_power_scale(P, M)
    kappa = 2.0 if T == 4 else 1.0
    F = stream.complex_normal(n, M, J)
    G = stream.complex_normal(n, M, N)
    bits, s = _draw_symbols(const, T, stream, n, J)
    x = np.sum(np.abs(F) ** 2, axis=1)  # (n, J)
    bad = np.sqrt(x).min(axis=-1) < DEGENERATE_TOL
    x = np.maximum(x, DEGENERATE_TOL**2)
    # MRC output is exactly sqrt(P) s + CN(0, 1/x) per slot given F.
    vhat = stream.complex_normal(n, J, T) / np.sqrt(x)[..., None]
    soft = math.sqrt(P) * s + vhat
    if hard_relay:
        rhat, c_fwd, s_relay = relay_hard_decision(soft, const, P), 1.0 / math.sqrt(M), None
    else:
        # the forwarded combining noise, c1^2 / x, reaches the destination
        # on each source's own channel
        rhat, c_fwd, s_relay = soft, c1, c1 * c1 / x
    raw = _downlink(relay_forward_groups(rhat, design, c_fwd, M), G, stream)
    obs = recombine(raw, T)
    stacks = tdma_channel_stacks(G, J)
    scale = math.sqrt(P) * c_fwd
    errors = np.zeros((n, J), dtype=np.int64)
    for j in range(J):
        s_j = None if s_relay is None else s_relay[:, j]
        errors[:, j] = _decode(
            stacks, obs, j, lambda b, bh: noise_cov_on_target(bh, kappa, s_j, b),
            scale, const, bits[:, j], bad,
        )
    return errors, bad


def _kernel_ic_relay(cfg, const, stream, n):
    J, M, N, P = cfg.J, cfg.M, cfg.N, cfg.P
    if M not in (1, 2, 3, 4):
        raise UsageError(f"per-source downlink coding supports M in 1..4, got {M}")
    design = dstc_design(M)
    T = design.T
    c3 = tdma_power_scale(P, M)
    kappa = 2.0 if T == 4 else 1.0
    F = stream.complex_normal(n, M, J)
    G = stream.complex_normal(n, M, N)
    bits, s = _draw_symbols(const, T, stream, n, J)
    # ZF separation at the relay: project f_j off the other sources'
    # uplink columns; the residual norm sets the post-separation noise.
    npj = np.empty((n, J))
    for j in range(J):
        fj = F[:, :, j]
        if J == 1:
            resid = fj
        else:
            others = np.delete(F, j, axis=2)
            u, _, _ = np.linalg.svd(others, full_matrices=False)
            resid = fj - np.einsum("nmk,nk->nm", u, np.einsum("nmk,nm->nk", np.conj(u), fj))
        npj[:, j] = np.sum(np.abs(resid) ** 2, axis=-1)
    bad = np.sqrt(npj).min(axis=-1) < DEGENERATE_TOL
    npj = np.maximum(npj, DEGENERATE_TOL**2)
    eta = stream.complex_normal(n, J, T) / np.sqrt(npj)[..., None]
    z = math.sqrt(P) * s + eta
    stacks = tdma_channel_stacks(G, 1)  # single-source, full-M blocks
    scale = math.sqrt(P) * c3
    errors = np.zeros((n, J), dtype=np.int64)
    for j in range(J):
        grp = np.broadcast_to(z[:, j, None, :], (n, M, T))
        raw = _downlink(c3 * apply_design(design, grp), G, stream)
        obs = recombine(raw, T)
        s_j = c3 * c3 / npj[:, j]
        errors[:, j] = _decode(
            stacks, obs, 0, lambda b, bh: noise_cov_on_target(bh, kappa, s_j),
            scale, const, bits[:, j],
        )
    return errors, bad


def _kernel_full_tdma(cfg, const, stream, n):
    J, M, N, P = cfg.J, cfg.M, cfg.N, cfg.P
    if M not in (1, 2, 3, 4):
        raise UsageError(f"single-source coding supports M in 1..4, got {M}")
    design = dstc_design(M)
    T = design.T
    c4 = dstc_power_scale(P, M, 1)
    kappa = 2.0 if T == 4 else 1.0
    F = stream.complex_normal(n, M, J)
    G = stream.complex_normal(n, M, N)
    bits, s = _draw_symbols(const, T, stream, n, J)
    relay_cov = noise_cov_forwarded(gtilde(G), c4, kappa)
    scale = math.sqrt(P) * c4
    errors = np.zeros((n, J), dtype=np.int64)
    bad = np.zeros(n, dtype=bool)
    for j in range(J):
        r = math.sqrt(P) * F[:, :, j, None] * s[:, j, None, :] + stream.complex_normal(n, M, T)
        raw = _downlink(c4 * apply_design(design, r), G, stream)
        obs = recombine(raw, T)
        stacks = dstc_channel_stacks(F[:, :, j : j + 1], G)
        errors[:, j] = _decode(stacks, obs, 0, lambda b, bh: relay_cov, scale, const, bits[:, j])
    return errors, bad


def simulate_batch(scheme: SchemeId, cfg: NetworkConfig, const: Constellation, stream: RngStream, n: int):
    """Run n independent end-to-end trials of one scheme.

    Returns (errors, bad): per-source bit error counts (n, J) and a mask
    of trials that hit a degenerate channel draw and must be resampled.
    Deterministic given the stream.
    """
    if scheme is SchemeId.DstcIcRec:
        return _kernel_dstc(cfg, const, stream, n, joint=False)
    if scheme is SchemeId.ConcurrentJoint:
        return _kernel_dstc(cfg, const, stream, n, joint=True)
    if scheme is SchemeId.TdmaIcRec:
        return _kernel_tdma(cfg, const, stream, n, hard_relay=False)
    if scheme is SchemeId.DecodeRelayIcDest:
        return _kernel_tdma(cfg, const, stream, n, hard_relay=True)
    if scheme is SchemeId.IcRelayTdma:
        return _kernel_ic_relay(cfg, const, stream, n)
    if scheme is SchemeId.FullTdmaDstc:
        return _kernel_full_tdma(cfg, const, stream, n)
    raise UsageError(f"unknown scheme {scheme!r}")


def simulate_chunk(scheme: SchemeId, cfg: NetworkConfig, const: Constellation, stream: RngStream, n: int):
    """simulate_batch plus the degenerate-draw resampling policy.

    Bad trials are redrawn from derived substreams, up to MAX_RESAMPLES
    rounds; whatever remains is erased.  Returns (errors (n, J),
    erased mask (n,)).
    """
    errors, bad = simulate_batch(scheme, cfg, const, stream, n)
    rounds = 0
    while np.any(bad) and rounds < MAX_RESAMPLES:
        rounds += 1
        idx = np.flatnonzero(bad)
        err2, bad2 = simulate_batch(scheme, cfg, const, stream.substream(rounds), len(idx))
        errors[idx] = err2
        bad[idx] = bad2
    return errors, bad


def bits_per_channel_use(scheme: SchemeId, J: int, M: int, N: int, order: int) -> Fraction:
    """Information rate in bits/source/channel use for a PSK order."""
    meta = scheme_meta(scheme, J, M, N)
    return meta.symbol_rate * int(round(math.log2(order)))
