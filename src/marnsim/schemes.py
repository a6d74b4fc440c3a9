"""End-to-end transmission schemes.

Six two-hop protocols over the same J x M x N network, all at the same
per-node power P.  Each is a row of ``_ROWS``: one of two relay
families, whether the J sources share one downlink group or each gets
its own, and the family's relay option.

  scheme             family  uplink      downlink  relay option
  1 dstc_icrec       AF      concurrent  shared    -
  2 tdma_icrec       EF      TDMA        shared    MRC estimates
  3 ic_relay_tdma    EF      concurrent  own       zero-forcing estimates
  4 full_tdma_dstc   AF      TDMA        own       -
  5 decode_relay     EF      TDMA        shared    MRC, then hard decision
  6 concurrent_joint AF      concurrent  shared    joint ML, no IC

Amplify-and-forward (AF): the sources of a downlink group transmit at
once, and the relay applies the M-antenna distributed space-time code to
what it receives, forwarding its own noise (``noise_cov_forwarded``).
Estimate-and-forward (EF): the relay estimates each source's symbols
(MRC over a TDMA uplink, or zero-forcing separation of a concurrent one)
and codes each group's estimates on disjoint groups of M // (group size)
antennas; the estimates' noise rides on the target's channel
(``noise_cov_on_target``).  All rows but concurrent_joint end in one
decode tail: zero-forcing IC when a group holds several sources,
component-wise whitened ML, the error count.  simulate_chunk adds the
resampling of degenerate channel draws.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .airlink import Constellation, NetworkConfig, RngStream, make_psk, modulate
from .numerics import UsageError
from .relay_codec import (
    apply_design,
    dstc_design,
    dstc_power_scale,
    tdma_power_scale,
)
from .rx_ic import (
    DEGENERATE_TOL,
    SymbolSpec,
    block_diag,
    default_rotation,
    dstc_channel_stacks,
    gtilde,
    ic_stack_batch,
    joint_ml_decode_batch,
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
    "check_supported",
    "bits_per_channel_use",
    "relay_hard_decision",
    "relay_forward_groups",
    "relay_zf_gains",
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
    return dstc_design(_ROWS[scheme].code_antennas(J, M)).T


def check_supported(scheme: SchemeId, J: int, M: int, order: int) -> None:
    """Raise UsageError unless ``scheme`` supports J sources, M relay
    antennas and PSK of ``order``; called before any trial is drawn."""
    make_psk(order)
    row = _ROWS[scheme]
    m = row.code_antennas(J, M)
    if row.kernel is _amplify_forward and M not in (2, 3, 4):
        raise UsageError(f"{scheme.value} supports M in 2..4, got {M}")
    if m not in (1, 2, 3, 4):
        raise UsageError(f"{scheme.value} supports relay antenna groups of 1..4, got {m}")
    if row.joint and order ** (J * dstc_design(m).T) > 1 << 20:
        raise UsageError("joint search space exceeds 2^20 hypotheses")


# ---------------------------------------------------------------------------
# Shared stages


def _draw_trials(cfg: NetworkConfig, const: Constellation, T: int, stream: RngStream, n: int):
    """Uplink F (n, M, J), downlink G (n, M, N), source bits and their
    symbols; the slots that ``symbol_spec(T)`` marks rotated use the
    rotated constellation."""
    F = stream.complex_normal(n, cfg.M, cfg.J)
    G = stream.complex_normal(n, cfg.M, cfg.N)
    bits = stream.bits(n, cfg.J, T * const.bits_per_symbol)
    s = modulate(bits, const)
    s[..., np.array(symbol_spec(T).rotated)] *= np.exp(1j * default_rotation(const.order))
    return F, G, bits, s


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
    """Estimate-and-forward relay output: every source's (n, J, T) symbol
    estimates coded at once on disjoint antenna groups.

    Source j's codeword, amplified by c, occupies antennas j*g .. (j+1)*g - 1
    with g = design.m_used; antennas past J*g stay silent.  Returns the
    (n, M, T) relay transmit block.
    """
    n, J, T = est.shape
    gs = design.m_used
    if J * gs > M:
        raise UsageError(f"{J} groups of {gs} antennas exceed M={M}")
    grp = np.broadcast_to(est[:, :, None, :], (n, J, gs, T))
    x_relay = (c * apply_design(design, grp)).reshape(n, J * gs, T)
    return np.pad(x_relay, ((0, 0), (0, M - J * gs), (0, 0)))


def relay_zf_gains(F: np.ndarray) -> np.ndarray:
    """Zero-forcing separation at the relay: (n, J) residual powers
    ||f_j - Q_j Q_j* f_j||^2 of each source's (n, M, J) uplink column
    projected off the other sources' columns (orthonormal basis Q_j).
    The residual power sets the noise of the separated symbols."""
    n, _, J = F.shape
    npj = np.empty((n, J))
    for j in range(J):
        fj = F[:, :, j]
        u = np.linalg.qr(np.delete(F, j, axis=2))[0]  # (n, M, 0) when J = 1
        resid = fj - np.einsum("nmk,nk->nm", u, np.einsum("nmk,nm->nk", np.conj(u), fj))
        npj[:, j] = np.sum(np.abs(resid) ** 2, axis=-1)
    return npj


def _mrc_gains(F: np.ndarray) -> np.ndarray:
    """Maximum-ratio combining at the relay: (n, J) gains sum_i |f_ij|^2."""
    return np.sum(np.abs(F) ** 2, axis=1)


def _downlink(x_relay: np.ndarray, G: np.ndarray, stream: RngStream):
    """Second hop: (n, M, T) relay output through (n, M, N) channels."""
    n, _, T = x_relay.shape
    return np.einsum("nmt,nmo->not", x_relay, G) + stream.complex_normal(n, G.shape[-1], T)


def _assemble(parts):
    """Stack per-split (obs, H, R) into one block-diagonal system."""
    if len(parts) == 1:
        return parts[0]
    obs, h, r = zip(*parts)
    return np.concatenate(obs, axis=-1), block_diag(*h), block_diag(*r)


def _count_errors(idx: np.ndarray, sent_bits: np.ndarray, const: Constellation):
    """Bit errors of decoded symbol indices (..., T) vs sent bits (..., T*b)."""
    dec = const.labels[idx].reshape(*idx.shape[:-1], -1)
    return np.sum(dec != sent_bits, axis=-1)


def _decode(stacks, obs, cov, scale, const, bits):
    """Shared decode tail of every source in the recombined system
    ``stacks`` (n, J, rows, t), ``obs`` (n, rows) that sent ``bits``
    (n, J, T*b): (bit errors (n, J), bad (n,)).

    With more than one source, each split first cancels every other
    source by zero-forcing IC, and ``bad`` flags the draws whose IC hit a
    degenerate block.  ``cov(j, bmat, bh)`` is a split's noise covariance
    for target j from its IC matrix (None without IC) and the target's
    projected channel.
    """
    n, J = stacks.shape[:2]
    errors = np.zeros((n, J), dtype=np.int64)
    bad = np.zeros(n, dtype=bool)
    for j in range(J):
        parts = []
        for rows, cols in split_slices(stacks):
            ch_s, obs_s = stacks[..., rows, cols], obs[..., rows]
            if J == 1:
                bmat, hp = None, ch_s[:, j]
            else:
                bmat, bd = ic_stack_batch(ch_s, j)
                bad |= bd
                obs_s = np.einsum("nrk,nk->nr", bmat, obs_s)
                hp = bmat @ ch_s[:, j]
            parts.append((obs_s, hp, cov(j, bmat, hp)))
        idx = ml_decode_batch(*_assemble(parts), scale, symbol_spec(stacks.shape[-1]), const)
        errors[:, j] = _count_errors(idx, bits[:, j], const)
    return errors, bad


def _joint_decode(stacks, obs, cov, scale, const, bits):
    """concurrent_joint's receiver, same arguments and result as
    ``_decode``: no IC, whitened ML over every symbol tuple of all
    sources at once."""
    n, J, _, T = stacks.shape
    spec = symbol_spec(T)
    h_all = np.concatenate([stacks[:, j] for j in range(J)], axis=-1)
    r_half = cov(None, None, None)
    r_pre = block_diag(r_half, r_half) if T == 4 else r_half
    entries = sum((spec.shifted(j * spec.n_symbols).entries for j in range(J)), ())
    jspec = SymbolSpec(J * spec.n_symbols, entries, spec.rotated * J)
    idx = joint_ml_decode_batch(obs, h_all, r_pre, scale, jspec, const)
    return _count_errors(idx.reshape(n, J, -1), bits, const), np.zeros(n, dtype=bool)


# ---------------------------------------------------------------------------
# The two relay families


def _amplify_forward(row, cfg, const, stream, n):
    """The sources of each downlink group transmit at once and the relay
    applies the M-antenna DSTC to what it receives, relay noise included."""
    M, P = cfg.M, cfg.P
    design = dstc_design(M)
    T = design.T
    c = dstc_power_scale(P, M, row.group_size(cfg.J))
    kappa = 2.0 if T == 4 else 1.0
    F, G, bits, s = _draw_trials(cfg, const, T, stream, n)
    if row.joint or row.group_size(cfg.J) == 1:  # no IC: one covariance for every split
        r0 = noise_cov_forwarded(gtilde(G), c, kappa)
        cov = lambda j, b, bh: r0  # noqa: E731
    else:
        gt = gtilde(G)
        cov = lambda j, b, bh: noise_cov_forwarded(gt, c, kappa, b)  # noqa: E731
    decode = _joint_decode if row.joint else _decode
    errors = np.zeros((n, cfg.J), dtype=np.int64)
    bad = np.zeros(n, dtype=bool)
    for grp in row.groups(cfg.J):
        r = math.sqrt(P) * np.einsum("nmj,njt->nmt", F[:, :, grp], s[:, grp])
        r = r + stream.complex_normal(n, M, T)
        obs = recombine(_downlink(c * apply_design(design, r), G, stream), T)
        stacks = dstc_channel_stacks(F[:, :, grp], G)
        errors[:, grp], bad_g = decode(stacks, obs, cov, math.sqrt(P) * c, const, bits[:, grp])
        bad |= bad_g
    return errors, bad


def _estimate_forward(row, cfg, const, stream, n):
    """The relay estimates each source's symbols and codes each downlink
    group's estimates on disjoint antenna groups; the estimates' noise
    rides on the target's own downlink channel."""
    J, M, P = cfg.J, cfg.M, cfg.P
    design = dstc_design(row.code_antennas(J, M))
    T = design.T
    c = tdma_power_scale(P, M)
    kappa = 2.0 if T == 4 else 1.0
    F, G, bits, s = _draw_trials(cfg, const, T, stream, n)
    gains = row.gains(F)  # (n, J)
    bad = np.sqrt(gains).min(axis=-1) < DEGENERATE_TOL
    gains = np.maximum(gains, DEGENERATE_TOL**2)
    # The relay's estimate is exactly sqrt(P) s + CN(0, 1/gain) per slot given F.
    est = math.sqrt(P) * s + stream.complex_normal(n, J, T) / np.sqrt(gains)[..., None]
    if row.hard:  # a hard decision forwards no noise
        est, c, s_relay = relay_hard_decision(est, const, P), 1.0 / math.sqrt(M), [None] * J
    else:  # forwarded estimation noise of variance c^2 / gain
        s_relay = list((c * c / gains).T)
    stacks = tdma_channel_stacks(G, row.group_size(J))
    errors = np.zeros((n, J), dtype=np.int64)
    for grp in row.groups(J):
        raw = _downlink(relay_forward_groups(est[:, grp], design, c, M), G, stream)
        s_g = s_relay[grp]
        errors[:, grp], bad_g = _decode(
            stacks, recombine(raw, T), lambda j, b, bh: noise_cov_on_target(bh, kappa, s_g[j], b),
            math.sqrt(P) * c, const, bits[:, grp],
        )
        bad |= bad_g
    return errors, bad


class _Row(NamedTuple):
    """One scheme: its relay family and one choice per stage."""

    kernel: object  # _amplify_forward or _estimate_forward
    shared_downlink: bool  # all J sources in one downlink group, or one group each
    gains: object = None  # estimate-and-forward: per-source relay gains from F
    hard: bool = False  # estimate-and-forward: forward hard decisions
    joint: bool = False  # amplify-and-forward: joint ML over the group, no IC

    def group_size(self, J):
        return J if self.shared_downlink else 1

    def groups(self, J):
        k = self.group_size(J)
        return [slice(i, i + k) for i in range(0, J, k)]

    def code_antennas(self, J, M):
        """Relay antennas whose code carries one source."""
        return M if self.kernel is _amplify_forward else M // self.group_size(J)


_ROWS = {
    SchemeId.DstcIcRec: _Row(_amplify_forward, True),
    SchemeId.TdmaIcRec: _Row(_estimate_forward, True, _mrc_gains),
    SchemeId.IcRelayTdma: _Row(_estimate_forward, False, relay_zf_gains),
    SchemeId.FullTdmaDstc: _Row(_amplify_forward, False),
    SchemeId.DecodeRelayIcDest: _Row(_estimate_forward, True, _mrc_gains, hard=True),
    SchemeId.ConcurrentJoint: _Row(_amplify_forward, True, joint=True),
}


def simulate_batch(scheme: SchemeId, cfg: NetworkConfig, const: Constellation, stream: RngStream, n: int):
    """Run n independent end-to-end trials of one scheme.

    Returns (errors, bad): per-source bit error counts (n, J) and a mask
    of trials that hit a degenerate channel draw and must be resampled.
    Deterministic given the stream; an unsupported cell raises UsageError
    before any draw.
    """
    check_supported(scheme, cfg.J, cfg.M, const.order)
    row = _ROWS[scheme]
    return row.kernel(row, cfg, const, stream, n)


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
