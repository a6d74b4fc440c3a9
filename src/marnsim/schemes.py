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

The IC rows write every large array into a retained workspace
(``numerics.Workspace``): named buffers, and one scratch store that the
stages share.  ``simulate_batch`` keeps one per thread while batches
repeat its (scheme, J, M, N, order, n) key, so a steady-state batch
allocates almost nothing and faults in no fresh pages.  A buffer is
rewritten only once what it held is dead: a stage's scratch dies when
the stage returns, and the kernels reuse their named buffers as listed
above ``_amplify_forward``.  A batch with another key drops the held
workspace before it allocates its own; concurrent_joint, whose search
dominates, takes none and drops the held one.

simulate_chunk adds the resampling of degenerate channel draws.
"""

from __future__ import annotations

import enum
import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .airlink import Constellation, NetworkConfig, RngStream, draw_channels_batch, make_psk, modulate, nearest_psk
from .numerics import FRESH, UsageError, Workspace
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
    "bits_per_channel_use",
    "relay_hard_decision",
    "relay_forward_groups",
    "relay_zf_gains",
    "simulate_batch",
    "simulate_chunk",
    "retained_workspace",
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


def _draw_trials(cfg: NetworkConfig, const: Constellation, T: int, stream: RngStream, n: int, *, ws):
    """Uplink F (n, M, J), downlink G (n, M, N), source bits and their
    symbols; the slots that ``symbol_spec(T)`` marks rotated use the
    rotated constellation.  F and G are ``ws`` scratch."""
    out = ws.scratch(((n, cfg.M, cfg.J), complex), ((n, cfg.M, cfg.N), complex))
    F, G = draw_channels_batch(cfg, stream, n, out=out)
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


def relay_forward_groups(est: np.ndarray, design, c: float, M: int, out=None) -> np.ndarray:
    """Estimate-and-forward relay output: every source's (J, T, ...)
    symbol estimates, batch axes last, coded on disjoint antenna groups.

    Source j's codeword, amplified by c, occupies antennas j*g .. (j+1)*g - 1
    with g = design.m_used; antennas past J*g stay silent.  Returns the
    (M, T, ...) relay transmit block, written into ``out`` when given.
    """
    J, gs = len(est), design.m_used
    if J * gs > M:
        raise UsageError(f"{J} groups of {gs} antennas exceed M={M}")
    if out is None:
        out = np.empty((M,) + est.shape[1:], dtype=complex)
    out[J * gs :] = 0.0
    for j in range(J):
        grp = np.broadcast_to(est[j], (gs,) + est.shape[1:])
        block = out[j * gs : (j + 1) * gs]
        np.multiply(c, apply_design(design, grp, out=block), out=block)
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
    """Maximum-ratio combining at the relay: (n, J) gains sum_i |f_ij|^2."""
    return np.sum(np.abs(F) ** 2, axis=1)


def _through(h: np.ndarray, x: np.ndarray, stream: RngStream, out, ws):
    """One hop: (K, T, n) transmit blocks through (K, O, n) channels,
    received into ``out`` as (O, T, n) samples h^T x plus unit noise,
    summed over the K transmitters as elementwise products; the noise is
    drawn (n, O, T) into ``ws`` scratch and viewed batch-last."""
    (_, O, n), T = h.shape, x.shape[1]
    tmp, noise = ws.scratch(((O, T, n), complex), ((n, O, T), complex))
    np.multiply(h[0, :, None], x[0], out=out)
    for k in range(1, len(h)):
        out += np.multiply(h[k, :, None], x[k], out=tmp)
    out += np.moveaxis(stream.complex_normal(n, O, T, out=noise), 0, -1)
    return out


def _count_errors(idx: np.ndarray, sent_bits: np.ndarray, const: Constellation):
    """Bit errors of decoded symbol indices (..., T) vs sent bits (..., T*b)."""
    dec = const.labels[idx].reshape(*idx.shape[:-1], -1)
    return np.sum(dec != sent_bits, axis=-1)


def _decode(pairs, T, obs, r0_inv, scale, const, bits, sigma=None, *, ws):
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
    The Gram systems are the buffer "gram" of ``ws``, which also holds
    every stage's scratch.
    """
    J, n = pairs.shape[-2:]
    errors = np.zeros((n, J), dtype=np.int64)
    bad = np.zeros(n, dtype=bool)
    if J > 1:
        power, tmp = ws.scratch(*[(pairs.shape[:1] + pairs.shape[2:], float)] * 2)  # (S, K, J, n)
        np.square(np.abs(pairs[:, 0], out=power), out=power)
        power += np.square(np.abs(pairs[:, 1], out=tmp), out=tmp)
        bad = power.min(axis=(0, 1, 2)) < DEGENERATE_TOL**2
    systems = ws.get("gram", (len(pairs), 2, J, J + 1, n))
    for split, o, system in zip(pairs, obs, systems):
        gram_pairs(split, o, r0_inv, out=system, ws=ws)
    for j in range(J):
        s_j = None if sigma is None else sigma[:, j]
        w, g = zip(*(schur_pairs(p, q, j, T, s_j, ws=ws) for p, q in systems))
        idx = psk_slicer(scale * np.concatenate(w), scale * scale * np.stack(g), const, ws=ws)
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


# A kernel's buffers in its workspace: "ft", "g" and "s" hold the draws
# batch-last, "r0_inv" the shared R0^-1.  "x" holds a hop's input and
# then the observation pairs, "y" a hop's output and then the channel
# pairs: each is written only once what it held before is dead.


def _amplify_forward(row, cfg, const, stream, n, ws):
    """The sources of each downlink group transmit at once and the relay
    applies the M-antenna DSTC to what it receives, relay noise included."""
    J, M, N, P = cfg.J, cfg.M, cfg.N, cfg.P
    design = dstc_design(M)
    T = design.T
    S = 2 if T == 4 else 1
    c = dstc_power_scale(P, M, row.group_size(J))
    kappa = 2.0 if T == 4 else 1.0
    F, G, bits, s = _draw_trials(cfg, const, T, stream, n, ws=ws)
    # batch-last and contiguous for the elementwise products
    ft, g, st = ws.get("ft", (J, M, n)), ws.get("g", (M, N, n)), ws.get("s", (J, T, n))
    np.copyto(ft, F.transpose(2, 1, 0))
    np.copyto(g, np.moveaxis(G, 0, -1))
    np.copyto(st, np.moveaxis(s, 0, -1))
    # R0^-1 has blocks Q(x, 0), shared by every source and split
    r0_inv = forwarded_inverse(g, c, kappa, out=ws.get("r0_inv", (N, N, n)), ws=ws)
    decode = _joint_decode if row.joint else functools.partial(_decode, ws=ws)
    errors = np.zeros((n, J), dtype=np.int64)
    bad = np.zeros(n, dtype=bool)
    for grp in row.groups(J):
        k = grp.stop - grp.start
        x = np.multiply(math.sqrt(P), st[grp], out=ws.get("x", (k, T, n)))
        up = _through(ft[grp], x, stream, out=ws.get("y", (M, T, n)), ws=ws)
        x_relay = apply_design(design, up, out=ws.get("x", (M, T, n)))
        x_relay *= c
        down = _through(g, x_relay, stream, out=ws.get("y", (N, T, n)), ws=ws)
        obs = recombine(down, T, out=ws.get("x", (S, 2, N, n)))
        pairs = dstc_channel_stacks(
            ft[grp].transpose(2, 1, 0), g.transpose(2, 0, 1), out=ws.get("y", (S, 2, N, k, n)), ws=ws
        )
        errors[:, grp], bad_g = decode(pairs, T, obs, r0_inv, math.sqrt(P) * c, const, bits[:, grp])
        bad |= bad_g
    return errors, bad


def _estimate_forward(row, cfg, const, stream, n, ws):
    """The relay estimates each source's symbols and codes each downlink
    group's estimates on disjoint antenna groups; the estimates' noise
    rides on the target's own downlink channel."""
    J, M, N, P = cfg.J, cfg.M, cfg.N, cfg.P
    design = dstc_design(row.code_antennas(J, M))
    T = design.T
    S = 2 if T == 4 else 1
    c = tdma_power_scale(P, M)
    kappa = 2.0 if T == 4 else 1.0
    F, G, bits, s = _draw_trials(cfg, const, T, stream, n, ws=ws)
    gains = row.gains(F)  # (n, J)
    g = ws.get("g", (M, N, n))
    np.copyto(g, np.moveaxis(G, 0, -1))  # batch-last and contiguous; F and G are not read again
    bad = np.sqrt(gains).min(axis=-1) < DEGENERATE_TOL
    gains = np.maximum(gains, DEGENERATE_TOL**2)
    # The relay's estimate is exactly sqrt(P) s + CN(0, 1/gain) per slot given F.
    est = np.multiply(math.sqrt(P), s, out=ws.get("s", (n, J, T)))
    [noise] = ws.scratch(((n, J, T), complex))
    est += np.divide(stream.complex_normal(n, J, T, out=noise), np.sqrt(gains)[..., None], out=noise)
    if row.hard:  # a hard decision forwards no noise
        est, c, sigma = relay_hard_decision(est, const, P), 1.0 / math.sqrt(M), None
    else:  # R = kappa (I + (c^2 / gain) h h*) with h the target's channel
        sigma = kappa * c * c / gains
    est = np.moveaxis(est, 0, -1)  # (J, T, n)
    k = row.group_size(J)
    pairs = tdma_channel_stacks(g.transpose(2, 0, 1), k, out=ws.get("pairs", (S, 2, N, k, n)))
    errors = np.zeros((n, J), dtype=np.int64)
    for grp in row.groups(J):
        relay = relay_forward_groups(est[grp], design, c, M, out=ws.get("x", (M, T, n)))
        down = _through(g, relay, stream, out=ws.get("y", (N, T, n)), ws=ws)
        obs = recombine(down, T, out=ws.get("x", (S, 2, N, n)))
        s_g = None if sigma is None else sigma[:, grp]
        errors[:, grp], bad_g = _decode(
            pairs, T, obs, 1.0 / kappa, math.sqrt(P) * c, const, bits[:, grp], s_g, ws=ws
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


# Each thread's retained workspace (attribute "ws"), for one key at a time.
_SLOT = threading.local()


def retained_workspace():
    """The workspace that ``simulate_batch`` retains for the calling
    thread, or None."""
    return getattr(_SLOT, "ws", None)


def _workspace(key) -> Workspace:
    ws = retained_workspace()
    if ws is None or ws.key != key:
        _SLOT.ws = None  # the old key's buffers are freed before the new key's are allocated
        ws = _SLOT.ws = Workspace(key)
    return ws


def simulate_batch(scheme: SchemeId, cfg: NetworkConfig, const: Constellation, stream: RngStream, n: int):
    """Run n independent end-to-end trials of one scheme.

    Returns (errors, bad): per-source bit error counts (n, J) and a mask
    of trials that hit a degenerate channel draw and must be resampled.
    Deterministic given the stream; an unsupported cell raises UsageError
    before any draw.

    The IC rows run in the calling thread's retained workspace, kept
    while batches repeat its (scheme, J, M, N, order, n) key and replaced
    when the key changes.  concurrent_joint, whose search dominates, takes
    none and frees the retained one.
    """
    check_supported(scheme, cfg.J, cfg.M, const.order)
    row = _ROWS[scheme]
    if row.joint:
        _SLOT.ws = None
        ws = FRESH
    else:
        ws = _workspace((scheme, cfg.J, cfg.M, cfg.N, const.order, n))
    return row.kernel(row, cfg, const, stream, n, ws)


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
