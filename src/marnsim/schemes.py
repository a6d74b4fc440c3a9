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
antennas; the estimates' noise rides on the target's channel (the
``sigma`` of ``schur_pairs``).  Each kernel runs with the batch axis last
from the draws on: the uplink and the downlink are sums of J or M
elementwise products, the relay codes (antenna, slot, n) blocks, and
``recombine`` returns each split's observation pairs.  Every row decodes
in pair arithmetic over the batch axis (see ``rx_ic``): every block of a
split is a pair Q(a, b) = [[a, -conj(b)], [b, conj(a)]] (times
diag(1, -1) in the splits of the 4-slot codeword, a scalar for
single-antenna groups), and the channel builders return each split's
pairs directly, batch axis last; the kernel passes the block length T
along with them.  Each split is whitened once for all sources of the
group into a Gram system of pairs, the noise covariance before IC being
the blocks Q(x, 0) of one N x N inverse per trial for AF, eliminated
elementwise over the batch, and a multiple of I for EF.  Zero-forcing IC
of each source is the Schur complement of that system, interferer by
interferer on real pivots, with the EF target's own relay noise; each
split's Gram is then a real multiple of I, so a PSK slicer decides (per
symbol, or one slice per candidate of the other symbol of a
quasi-orthogonal pair); then the error count.  concurrent_joint cancels
nothing: it lays the same Gram systems out densely and searches every
symbol tuple of all sources at once.

Every stage allocates its own arrays, and each array dies when its stage
returns or, in the kernels, is deleted once dead, so that a hop's arrays
are freed before the next hop allocates.  The heap policy that
``numerics`` sets on import keeps the freed blocks for the next batch, so
a steady-state batch faults in almost no fresh pages.

simulate_chunk adds the resampling of degenerate channel draws.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .airlink import Constellation, NetworkConfig, RngStream, draw_channels_batch, make_psk, modulate, nearest_psk
from .numerics import NumericError, UsageError
from .relay_codec import (
    apply_design,
    dstc_design,
    dstc_power_scale,
    tdma_power_scale,
)
from .rx_ic import (
    DEGENERATE_TOL,
    SymbolSpec,
    default_rotation,
    dstc_channel_stacks,
    forwarded_inverse,
    gram_pairs,
    gtilde,  # noqa: F401  bench/layers.py traces the channel stacks under this name
    ic_stack_batch,  # noqa: F401  bench/layers.py traces the IC under this name
    joint_search,
    ml_decode_batch,  # noqa: F401  bench/layers.py traces the decoder under this name
    psk_slicer,
    recombine,
    schur_pairs,
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
    "relay_hard_decision",
    "relay_forward_groups",
    "relay_zf_gains",
    "simulate_batch",
    "simulate_chunk",
    "post_ic_snr",
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
    """Symbols per source per codeword block (downlink slot count); it
    depends on neither N nor P."""
    return _ROWS[scheme].link(NetworkConfig(J, M, J, 1.0))[0].T


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
    F, G = draw_channels_batch(cfg, stream, n)
    bits = stream.bits(n, cfg.J, T * const.bits_per_symbol)
    s = modulate(bits, const)
    s[..., np.array(symbol_spec(T).rotated)] *= np.exp(1j * default_rotation(const.order))
    return F, G, bits, s


def relay_hard_decision(soft: np.ndarray, const: Constellation, P: float) -> np.ndarray:
    """Hard ML decision at the relay on (..., T) soft estimates
    sqrt(P) s + noise: each slot becomes sqrt(P) times the nearest point of
    its (possibly rotated) constellation, by the destination slicer's
    nearest-angle rule (0 at the origin)."""
    turn = np.exp(1j * default_rotation(const.order) * np.array(symbol_spec(soft.shape[-1]).rotated))
    return math.sqrt(P) * (const.points[nearest_psk(soft * np.conj(turn), const.order)] * turn)


def relay_forward_groups(est: np.ndarray, design, c: float, M: int) -> np.ndarray:
    """Estimate-and-forward relay output: every source's (J, T, ...)
    symbol estimates, batch axes last, coded on disjoint antenna groups.

    Source j's codeword, amplified by c, occupies antennas j*g .. (j+1)*g - 1
    with g = design.m_used; antennas past J*g stay silent.  Returns the
    (M, T, ...) relay transmit block.
    """
    J, gs = len(est), design.m_used
    if J * gs > M:
        raise UsageError(f"{J} groups of {gs} antennas exceed M={M}")
    out = np.zeros((M,) + est.shape[1:], dtype=complex)
    for j in range(J):
        grp = np.broadcast_to(est[j], (gs,) + est.shape[1:])
        np.multiply(c, apply_design(design, grp), out=out[j * gs : (j + 1) * gs])
    return out


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
    """Maximum-ratio combining at the relay: (n, J) gains sum_i |f_ij|^2,
    accumulated over the M relay antennas in place, one source at a time
    so that each loop runs over the n draws (on an (n, J) slice of F,
    numpy's inner loop has length J)."""
    n, M, J = F.shape
    x, tmp = np.empty((J, n)), np.empty(n)
    for j in range(J):
        np.square(np.abs(F[:, 0, j], out=x[j]), out=x[j])
        for i in range(1, M):
            x[j] += np.square(np.abs(F[:, i, j], out=tmp), out=tmp)
    return x.T


def _through(h: np.ndarray, x: np.ndarray, stream: RngStream):
    """One hop: (K, T, n) transmit blocks through (K, O, n) channels,
    received as (O, T, n) samples h^T x plus unit noise, summed over the K
    transmitters as elementwise products; the noise is drawn (n, O, T)
    and viewed batch-last."""
    out = np.multiply(h[0, :, None], x[0])
    tmp = np.empty_like(out)
    for k in range(1, len(h)):
        out += np.multiply(h[k, :, None], x[k], out=tmp)
    del tmp
    O, T, n = out.shape
    out += np.moveaxis(stream.complex_normal(n, O, T), 0, -1)
    return out


def _count_errors(idx: np.ndarray, sent_bits: np.ndarray, const: Constellation):
    """Bit errors of decoded symbol indices (..., T) vs sent bits (..., T*b)."""
    dec = const.labels[idx].reshape(*idx.shape[:-1], -1)
    return np.sum(dec != sent_bits, axis=-1)


def _decode(pairs, T, obs, r0_inv, scale, const, bits, sigma=None):
    """Shared decode tail of every source in the recombined system of
    channel ``pairs`` (S, 2, K, J, n) of a T-slot block and observation
    pairs ``obs`` (S, 2, K, n) (``recombine``) that sent ``bits``
    (n, J, T*b): (bit errors (n, J), bad (n,)).

    Each split becomes one Gram system of all J sources under the noise
    covariance R0 before IC, whose inverse ``r0_inv`` the splits share: a
    scalar multiple of I, or the (N, N, n) x of the blocks Q(x, 0) of
    R0^-1 (``forwarded_inverse``).  Each source is cancelled from the
    others as a Schur complement of it, with its own relay noise
    sigma[:, j] h h* added when ``sigma`` (n, J) is given; its splits'
    Grams are then real multiples of I and a PSK slicer decides.  With
    more than one source, ``bad`` flags the draws where some source's
    block Q(a, b) in a split fades: |a|^2 + |b|^2 below DEGENERATE_TOL^2.
    """
    J, n = pairs.shape[-2:]
    errors = np.zeros((n, J), dtype=np.int64)
    bad = np.zeros(n, dtype=bool)
    if J > 1:
        power, tmp = np.abs(pairs[:, 0]), np.abs(pairs[:, 1])  # (S, K, J, n)
        np.square(power, out=power)
        power += np.square(tmp, out=tmp)
        bad = power.min(axis=(0, 1, 2)) < DEGENERATE_TOL**2
        del power, tmp
    systems = [gram_pairs(split, o, r0_inv) for split, o in zip(pairs, obs)]
    for j in range(J):
        s_j = None if sigma is None else sigma[:, j]
        w, g = zip(*(schur_pairs(p, q, j, T, s_j) for p, q in systems))
        idx = psk_slicer(scale * np.concatenate(w), scale * scale * np.stack(g), const)
        errors[:, j] = _count_errors(idx, bits[:, j], const)
    return errors, bad


def _joint_decode(pairs, T, obs, r0_inv, scale, const, bits):
    """concurrent_joint's receiver, same arguments and result as
    ``_decode``: no IC, but ML over every symbol tuple of all sources at
    once on the whitened (w, Q) of the splits' Gram systems, laid out
    densely: source by source, each source's entries in ``symbol_spec(T)``
    order, block diagonal over the splits, which share no noise.  A split
    of T = 4 has blocks Q(a, b) D with D = diag(1, -1), and
    D Q(p, q) D = Q(p, -q)."""
    J, n = pairs.shape[-2:]
    S, e = len(pairs), J * T
    w = np.zeros((n, J, S, 2), dtype=complex)
    g = np.zeros((n, J, S, 2, J, S, 2), dtype=complex)
    for s, (split, o) in enumerate(zip(pairs, obs)):
        p, q = (x.transpose(2, 0, 1) for x in gram_pairs(split, o, r0_inv))  # (n, J, J + 1)
        q = -q if T == 4 else q
        w[:, :, s, 0], w[:, :, s, 1] = p[..., J], q[..., J]
        g[:, :, s, 0, :, s, 0], g[:, :, s, 1, :, s, 1] = p[..., :J], np.conj(p[..., :J])
        g[:, :, s, 1, :, s, 0], g[:, :, s, 0, :, s, 1] = q[..., :J], -np.conj(q[..., :J])
    spec = symbol_spec(T)
    entries = sum((spec.shifted(j * spec.n_symbols).entries for j in range(J)), ())
    jspec = SymbolSpec(J * spec.n_symbols, entries, spec.rotated * J)
    idx = joint_search(scale * w.reshape(n, e), scale * scale * g.reshape(n, e, e), jspec, const)
    return _count_errors(idx.reshape(n, J, -1), bits, const), np.zeros(n, dtype=bool)


# ---------------------------------------------------------------------------
# The two relay families


def _amplify_forward(row, cfg, const, stream, n):
    """The sources of each downlink group transmit at once and the relay
    applies the M-antenna DSTC to what it receives, relay noise included."""
    P = cfg.P
    design, c, kappa = row.link(cfg)
    T = design.T
    F, G, bits, s = _draw_trials(cfg, const, T, stream, n)
    # batch-last and contiguous for the elementwise products
    ft = np.ascontiguousarray(F.transpose(2, 1, 0))  # (J, M, n)
    g, s = (np.ascontiguousarray(np.moveaxis(x, 0, -1)) for x in (G, s))  # (M, N, n), (J, T, n)
    del F, G
    # R0^-1 has blocks Q(x, 0), shared by every source and split
    r0_inv = forwarded_inverse(g, c, kappa)
    decode = _joint_decode if row.joint else _decode
    errors = np.zeros((n, cfg.J), dtype=np.int64)
    bad = np.zeros(n, dtype=bool)
    for grp in row.groups(cfg.J):
        x_relay = apply_design(design, _through(ft[grp], math.sqrt(P) * s[grp], stream))
        x_relay *= c
        obs = recombine(_through(g, x_relay, stream), T)
        pairs = dstc_channel_stacks(ft[grp].transpose(2, 1, 0), g.transpose(2, 0, 1))
        errors[:, grp], bad_g = decode(pairs, T, obs, r0_inv, math.sqrt(P) * c, const, bits[:, grp])
        bad |= bad_g
    return errors, bad


def _estimate_forward(row, cfg, const, stream, n):
    """The relay estimates each source's symbols and codes each downlink
    group's estimates on disjoint antenna groups; the estimates' noise
    rides on the target's own downlink channel."""
    J, M, P = cfg.J, cfg.M, cfg.P
    design, c, kappa = row.link(cfg)
    T = design.T
    F, G, bits, s = _draw_trials(cfg, const, T, stream, n)
    gains = row.gains(F)  # (n, J)
    g = np.ascontiguousarray(np.moveaxis(G, 0, -1))  # (M, N, n)
    del F, G
    bad = np.sqrt(gains).min(axis=-1) < DEGENERATE_TOL
    gains = np.maximum(gains, DEGENERATE_TOL**2)
    # The relay's estimate is exactly sqrt(P) s + CN(0, 1/gain) per slot given F.
    est = stream.complex_normal(n, J, T)
    est /= np.sqrt(gains)[..., None]
    est += math.sqrt(P) * s
    if row.hard:  # a hard decision forwards no noise
        est, c, sigma = relay_hard_decision(est, const, P), 1.0 / math.sqrt(M), None
    else:  # R = kappa (I + (c^2 / gain) h h*) with h the target's channel
        sigma = kappa * c * c / gains
    est = np.moveaxis(est, 0, -1)  # (J, T, n)
    pairs = tdma_channel_stacks(g.transpose(2, 0, 1), row.group_size(J))
    errors = np.zeros((n, J), dtype=np.int64)
    for grp in row.groups(J):
        obs = recombine(_through(g, relay_forward_groups(est[grp], design, c, M), stream), T)
        s_g = None if sigma is None else sigma[:, grp]
        errors[:, grp], bad_g = _decode(pairs, T, obs, 1.0 / kappa, math.sqrt(P) * c, const, bits[:, grp], s_g)
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

    def link(self, cfg):
        """(design, c, kappa): the relay code of one source, the relay's
        amplification and the noise scale of each split (2 in the splits
        of the 4-slot codeword, else 1)."""
        design = dstc_design(self.code_antennas(cfg.J, cfg.M))
        af = self.kernel is _amplify_forward
        c = dstc_power_scale(cfg.P, cfg.M, self.group_size(cfg.J)) if af else tdma_power_scale(cfg.P, cfg.M)
        return design, c, 2.0 if design.T == 4 else 1.0


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


def post_ic_snr(scheme: SchemeId, F: np.ndarray, G: np.ndarray, cfg: NetworkConfig, target: int = 0) -> np.ndarray:
    """Post-IC SNR (n,) of source ``target`` on (n, M, J) / (n, M, N)
    channel draws: its kernel's front end with no noise and no decision,
    i.e. each split's Gram system on zero observations (R0^-1 of the
    forwarded noise, or the relay's estimation noise kappa c^2 / gain on
    the target) and the Schur complement's gamma, at scale 1 and summed
    over the splits; the kernel's slicer receives scale^2 times each.
    UsageError for a hard relay decision or joint ML (no post-IC SNR), a
    cell ``check_supported`` refuses, or a target outside 0..J-1;
    NumericError on a zero relay gain (an all-zero uplink column)."""
    row = _ROWS[scheme]
    check_supported(scheme, cfg.J, cfg.M, 2)  # no decision, so any PSK order
    if row.hard or row.joint:
        raise UsageError(f"{scheme.value} has no post-IC SNR")
    if not 0 <= target < cfg.J:
        raise UsageError(f"target {target} is not a source of J={cfg.J}")
    design, c, kappa = row.link(cfg)
    grp = row.groups(cfg.J)[target // row.group_size(cfg.J)]
    if row.kernel is _amplify_forward:
        r0_inv = forwarded_inverse(np.ascontiguousarray(np.moveaxis(G, 0, -1)), c, kappa)  # G as (M, N, n)
        pairs, sigma = dstc_channel_stacks(F[..., grp], G), None
    else:
        gain = row.gains(F)[:, target]
        if np.any(gain == 0.0):
            raise NumericError("all-zero uplink column")
        r0_inv, sigma = 1.0 / kappa, kappa * c * c / gain
        pairs = tdma_channel_stacks(G, row.group_size(cfg.J))
    gamma = np.zeros(len(F))
    for split in pairs:
        p, q = gram_pairs(split, np.zeros((2, split.shape[1], len(F))), r0_inv)
        gamma += schur_pairs(p, q, target - grp.start, design.T, sigma)[1]
    return gamma

