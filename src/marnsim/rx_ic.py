"""Destination-side processing.

The destination never works on raw time samples directly.  It first forms
an *equivalent system*: a fixed linear recombination of the received
samples (and their conjugates) under which each source's contribution
appears through stacked 2x2 blocks with (anti-)Alamouti structure.  For a
2-antenna relay a single such system exists; for 3 or 4 relay antennas
the quasi-orthogonal codeword splits into a +/- pair of Alamouti systems
that share symbols and are decoded together.

Interference from the other sources is removed by zero-forcing IC, in
pair arithmetic.  Every t x t block of a split is a pair
Q(a, b) = [[a, -conj(b)], [b, conj(a)]]: the Alamouti blocks of t = 2,
each split of t = 4 as Q(a, b) diag(1, -1), and at t = 1 the scalar a
with b = 0.  The channel builders (``dstc_channel_stacks``,
``tdma_channel_stacks``) return only these pairs, (S, 2, K, J, ...) for
S splits of K block rows and J sources, batch axes last; callers know
the block length T.  ``recombine`` turns (N, T, ...) raw samples into
the observation's pairs (S, 2, N, ...) the same way.  The decode tail
forms each split's Gram system (Q, z) = H* R0^-1 [H | obs] once for all
of its sources (``gram_pairs``; the splits share no noise), R0 being
the noise covariance before IC: kappa W for forwarded relay noise,
whose inverse has the pair blocks Q(x, 0) of x = A^-1 / kappa, one
N x N Hermitian elimination per trial done elementwise over the batch
(``forwarded_inverse``), or kappa I.  IC of a target is the Schur
complement of the interferers' block (``schur_pairs``), by the identity
B* (B R0 B*)^-1 B = R0^-1 - R0^-1 H_I (H_I* R0^-1 H_I)^-1 H_I* R0^-1 for
any IC matrix B that nulls the interferers H_I, eliminated one
interferer at a time: each pivot is a Hermitian pair, a real scalar.
Relay noise riding on the target's channel then scales the result.
These stages are elementwise complex arithmetic on (..., n) arrays whose
batch axis is last.  Each writes its result into ``out`` and its
temporaries into the scratch of a workspace ``ws`` (``numerics.Workspace``)
when given: a kernel retains its workspace across batches, so its stages
write into pages already faulted in.  Without them a stage allocates
fresh arrays; either way it does the same arithmetic in the same order.
After IC each split's Gram is a real multiple of the identity, so a PSK
slicer decides (``psk_slicer``): per symbol for Alamouti, and for the
quasi-orthogonal pair one slice per candidate of its other symbol.
``pair_blocks`` is the one dense view of the pairs: the explicit IC
matrices (``ic_stack_batch``) and the forwarded-noise covariance
(``noise_cov_forwarded``) work on it with the batch axes first, and
build the closed-form SNR and the tests' reference systems.  The joint
receiver, which cancels nothing, reads the same Gram systems laid out
as one dense whitened system and searches every symbol tuple of all
sources at once (``joint_search``); ``ml_decode_batch`` runs the same
search on a dense (obs, h, R) system after ``whiten``.

One system is a batch of one.
Every observation entry is an explicit linear combination of raw samples;
the recombination matrices are recorded so tests can audit the
construction end to end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .airlink import Constellation, nearest_psk
from .numerics import FRESH, NumericError, UsageError, dagger, solve_psd_stack

__all__ = [
    "DEGENERATE_TOL",
    "SymbolSpec",
    "symbol_spec",
    "default_rotation",
    "recombination_matrices",
    "recombine",
    "dstc_channel_stacks",
    "tdma_channel_stacks",
    "pair_blocks",
    "gtilde",
    "ic_stack_batch",
    "noise_cov_forwarded",
    "forwarded_inverse",
    "whiten",
    "gram_pairs",
    "schur_pairs",
    "psk_slicer",
    "ml_decode_batch",
    "joint_search",
]

# Block norms below this are treated as a degenerate fade: resample the trial.
DEGENERATE_TOL = 1e-12


def default_rotation(order: int) -> float:
    """Rotation angle for the second symbol pair of quasi-orthogonal
    codewords; pi/order keeps the rotated constellation maximally apart
    from the unrotated one."""
    return math.pi / order


@dataclass(frozen=True)
class SymbolSpec:
    """How the entries of the equivalent symbol vector relate to the
    underlying transmitted symbols.

    ``entries[k]`` is a tuple of (symbol index, conjugated, sign) terms
    whose signed sum forms entry k.  ``rotated[i]`` marks symbols drawn
    from the rotated constellation.
    """

    n_symbols: int
    entries: tuple
    rotated: tuple

    def build(self, symbols: np.ndarray) -> np.ndarray:
        """Symbol vector entries from a (..., n_symbols) symbol array."""
        out = []
        for terms in self.entries:
            acc = 0.0 + 0.0j
            for idx, conj, sign in terms:
                v = np.conj(symbols[..., idx]) if conj else symbols[..., idx]
                acc = acc + sign * v
            out.append(acc)
        return np.stack(np.broadcast_arrays(*out), axis=-1)

    def shifted(self, offset: int) -> "SymbolSpec":
        entries = tuple(
            tuple((idx + offset, conj, sign) for idx, conj, sign in terms)
            for terms in self.entries
        )
        return SymbolSpec(self.n_symbols, entries, self.rotated)


def symbol_spec(T: int) -> SymbolSpec:
    """Symbol vector layout for a T-slot codeword block.

    T=2 gives the Alamouti layout (s1, conj(s2)); T=4 gives the stacked
    +/- split layout (s1+s4, conj(s3)-conj(s2), s1-s4, -conj(s3)-conj(s2))
    with the second symbol pair rotated.
    """
    if T == 1:
        return SymbolSpec(1, (((0, False, 1),),), (False,))
    if T == 2:
        return SymbolSpec(2, (((0, False, 1),), ((1, True, 1),)), (False, False))
    if T == 4:
        entries = (
            ((0, False, 1), (3, False, 1)),
            ((2, True, 1), (1, True, -1)),
            ((0, False, 1), (3, False, -1)),
            ((2, True, -1), (1, True, -1)),
        )
        return SymbolSpec(4, entries, (False, False, True, True))
    raise UsageError(f"unsupported block length T={T}")


# ---------------------------------------------------------------------------
# Sample recombination


def recombination_matrices(N: int, T: int):
    """(C1, C2) with obs = C1 raw + C2 conj(raw), raw flattened (N*T,).

    T=2 interleaves (x_n[1], conj(x_n[2])) per antenna (2N rows); T=4
    stacks the + split (x_n[1]+x_n[4], conj(x_n[2])-conj(x_n[3])) over all
    antennas followed by the - split (2N + 2N rows).
    """
    if T == 1:
        return np.eye(N, dtype=complex), np.zeros((N, N), dtype=complex)
    if T == 2:
        c1 = np.zeros((2 * N, 2 * N), dtype=complex)
        c2 = np.zeros((2 * N, 2 * N), dtype=complex)
        for n in range(N):
            c1[2 * n, 2 * n] = 1.0
            c2[2 * n + 1, 2 * n + 1] = 1.0
        return c1, c2
    if T == 4:
        c1 = np.zeros((4 * N, 4 * N), dtype=complex)
        c2 = np.zeros((4 * N, 4 * N), dtype=complex)
        for n in range(N):
            base = 4 * n
            # + split
            c1[2 * n, base + 0] = 1.0
            c1[2 * n, base + 3] = 1.0
            c2[2 * n + 1, base + 1] = 1.0
            c2[2 * n + 1, base + 2] = -1.0
            # - split
            c1[2 * N + 2 * n, base + 0] = 1.0
            c1[2 * N + 2 * n, base + 3] = -1.0
            c2[2 * N + 2 * n + 1, base + 1] = 1.0
            c2[2 * N + 2 * n + 1, base + 2] = 1.0
        return c1, c2
    raise UsageError(f"unsupported block length T={T}")


def recombine(raw: np.ndarray, T: int, out=None) -> np.ndarray:
    """Observation pairs (S, 2, N, ...) of (N, T, ...) raw samples, batch
    axes last: split s's pair (u_n, v_n) at antenna n is entries 2n and
    2n + 1 of ``recombination_matrices``' split s (u_n alone, v_n = 0, for
    T = 1).  The slots combine as the relay antennas of ``_pairs`` do:
    (x_1n, conj(x_2n)) for T = 2, and the + split (x_1n + x_4n,
    conj(x_2n - x_3n)) and the - split (x_1n - x_4n, conj(x_2n + x_3n))
    for T = 4.  Written into ``out`` when given.
    """
    raw = np.asarray(raw, dtype=complex)
    if T not in (1, 2, 4) or raw.shape[1:2] != (T,):
        raise UsageError(f"raw samples {raw.shape} are not (N, T={T}, ...) with T in 1, 2, 4")
    return _pairs(np.moveaxis(raw, 1, 0), out)


# ---------------------------------------------------------------------------
# Equivalent channel pairs


def _pairs(e: np.ndarray, out=None) -> np.ndarray:
    """Channel pairs (S, 2, N, J, ...) from the coefficients e (m, N, J, ...)
    of relay antenna i of source j's code at destination antenna n: for
    m = 1 the single split (e_1n, 0); for m = 2 (e_1n, conj(e_2n)), the
    Alamouti blocks [[e_1n, -e_2n], [conj(e_2n), conj(e_1n)]]; for m in
    {3, 4} the + split (e_1n + e_4n, conj(e_2n - e_3n)) and the - split
    (e_1n - e_4n, conj(e_2n + e_3n)) of the anti-Alamouti blocks
    [[alpha, beta], [conj(beta), -conj(alpha)]] (e_4n = 0 when m = 3).
    ``recombine`` applies the same map to the T raw slots in place of the
    m antennas.  Written into ``out`` when given.
    """
    m = len(e)
    if m not in (1, 2, 3, 4):
        raise UsageError(f"unsupported relay antenna group size {m}")
    # One batch-last output written in place: fresh temporaries cost page faults.
    if out is None:
        out = np.empty((1 if m <= 2 else 2, 2) + e.shape[1:], dtype=complex)
    if m == 1:
        out[0, 0] = e[0]
        out[0, 1] = 0.0
    elif m == 2:
        out[0, 0] = e[0]
        np.conj(e[1], out=out[0, 1])
    else:
        e4 = e[3] if m == 4 else 0.0
        np.add(e[0], e4, out=out[0, 0])
        np.subtract(e[0], e4, out=out[1, 0])
        np.conj(np.subtract(e[1], e[2], out=out[0, 1]), out=out[0, 1])
        np.conj(np.add(e[1], e[2], out=out[1, 1]), out=out[1, 1])
    return out


def dstc_channel_stacks(F: np.ndarray, G: np.ndarray, out=None, ws=FRESH) -> np.ndarray:
    """Channel pairs of the concurrent-uplink scheme.

    F is (..., M, J), G is (..., M, N).  Returns (S, 2, N, J, ...), batch
    axes last, built by ``_pairs`` from the coefficients f_ij g_in, with f
    conjugated on relay antennas 2 and 3, whose code conjugates what they
    receive: S = 1 split for M = 2 (T = 2), S = 2 for M in {3, 4} (T = 4).
    Written into ``out`` when given; the coefficients are ``ws`` scratch.
    """
    f_in = np.moveaxis(np.asarray(F, dtype=complex), (-2, -1), (0, 1))  # (M, J, ...)
    g = np.moveaxis(np.asarray(G, dtype=complex), (-2, -1), (0, 1))  # (M, N, ...)
    M, J = f_in.shape[:2]
    f, e = ws.scratch((f_in.shape, complex), ((M, g.shape[1], J) + f_in.shape[2:], complex))
    np.copyto(f, f_in)
    np.conj(f[1:3], out=f[1:3])
    return _pairs(np.multiply(f[:, None], g[:, :, None], out=e), out)


def tdma_channel_stacks(G: np.ndarray, J: int, out=None) -> np.ndarray:
    """Channel pairs of the TDMA-uplink scheme.

    Source j's group of floor(M/J) relay antennas produces pairs built
    from its second-hop coefficients g_in only.  Returns (S, 2, N, J, ...)
    as ``dstc_channel_stacks`` does, with T in {1, 2, 4} by group size,
    written into ``out`` when given.
    """
    G = np.asarray(G, dtype=complex)
    M, N = G.shape[-2:]
    gs = M // J  # 0 when J > M, which _pairs refuses
    g = G[..., : J * gs, :].reshape(*G.shape[:-2], J, gs, N)
    return _pairs(np.moveaxis(g, (-3, -2, -1), (2, 0, 1)), out)


def pair_blocks(pairs: np.ndarray, T: int) -> list:
    """Dense view of channel pairs (S, 2, K, J, ...) of a T-slot block:
    per split, the (..., J, K t, t) stack of each source's K blocks
    Q(a, b) = [[a, -conj(b)], [b, conj(a)]] (t = 2), times diag(1, -1)
    in the splits of T = 4, or the column a (t = 1).  For the explicit IC
    matrices and reference systems; the decode tail reads the pairs.
    """
    t = min(T, 2)
    axes = tuple(range(2, pairs.ndim - 2)) + (1, 0)  # (K, J, ...) -> (..., J, K)
    out = []
    for a, b in pairs:
        a, b = a.transpose(axes), b.transpose(axes)
        m = np.empty(a.shape + (t, t), dtype=complex)
        m[..., 0, 0] = a
        if t == 2:
            m[..., 1, 0] = b
            m[..., 0, 1] = np.conj(b) if T == 4 else -np.conj(b)
            m[..., 1, 1] = -np.conj(a) if T == 4 else np.conj(a)
        out.append(m.reshape(*a.shape[:-1], -1, t))
    return out


def gtilde(G: np.ndarray) -> np.ndarray:
    """Effective relay-noise mixing matrix of one split system.

    For (..., M, N) second-hop coefficients, returns (..., 2N, 2M) with
    rows 2n = (g_{1n}, 0, g_{2n}, 0, ...) and rows 2n+1 the conjugate
    pattern shifted by one column.
    """
    G = np.asarray(G, dtype=complex)
    M, N = G.shape[-2], G.shape[-1]
    out = np.zeros(G.shape[:-2] + (2 * N, 2 * M), dtype=complex)
    out[..., 0::2, 0::2] = np.swapaxes(G, -1, -2)
    out[..., 1::2, 1::2] = np.conj(np.swapaxes(G, -1, -2))
    return out


# ---------------------------------------------------------------------------
# Zero-forcing IC matrices


def ic_stack_batch(channels: np.ndarray, target: int):
    """Batched iterative IC over (..., J, K*t, t) stacked channels, one
    split of ``pair_blocks``.

    Cancels every source except ``target`` in descending source order.
    Returns (B, bad): B has shape (..., (K-J+1)*t, K*t) and ``bad`` flags
    batch elements that hit a degenerate (near-zero) block and must be
    resampled.
    """
    channels = np.asarray(channels, dtype=complex)
    J = channels.shape[-3]
    t = channels.shape[-1]
    K = channels.shape[-2] // t
    if not 0 <= target < J:
        raise UsageError(f"target {target} out of range for J={J}")
    if J > K:
        raise UsageError(f"cannot cancel {J - 1} sources with {K} block rows")
    lead = channels.shape[:-3]
    bad = np.zeros(lead, dtype=bool)
    order = [j for j in range(J - 1, -1, -1) if j != target]
    if not order:
        return np.broadcast_to(np.eye(K * t, dtype=complex), lead + (K * t, K * t)).copy(), bad
    # Each stage cancels source q from the k block rows left by the stages
    # before it; the remaining channels are projected only for a next stage.
    bmat, cur = None, channels
    for k, q in zip(range(K, 0, -1), order):
        blocks = cur[..., q, :, :].reshape(*lead, k, t, t)
        norms = np.sum(np.abs(blocks) ** 2, axis=(-2, -1))  # (..., k)
        bad |= np.sqrt(norms).min(axis=-1) < DEGENERATE_TOL
        norms = np.maximum(norms, DEGENERATE_TOL**2)
        scaled = (t / norms)[..., None, None] * dagger(blocks)  # (..., k, t, t)
        bi = np.zeros(lead + ((k - 1) * t, k * t), dtype=complex)
        for p in range(k - 1):
            bi[..., p * t : (p + 1) * t, 0:t] = -scaled[..., 0, :, :]
            bi[..., p * t : (p + 1) * t, (p + 1) * t : (p + 2) * t] = scaled[..., p + 1, :, :]
        bmat = bi if bmat is None else bi @ bmat
        if q != order[-1]:
            cur = bi[..., None, :, :] @ cur
    return bmat, bad


# ---------------------------------------------------------------------------
# Noise covariances
#
# kappa is 1 for one Alamouti system and 2 for each split of the 4-slot
# codeword, whose recombination adds two unit-variance samples.  B is the
# IC matrix; None stands for the identity (no cancellation).


def noise_cov_forwarded(gt, c: float, kappa: float, bmat=None) -> np.ndarray:
    """Noise covariance when the relay forwards all of its own noise:

    R = kappa (c^2 B Gt (B Gt)* + B B*)

    with Gt = gtilde(G) mixing the relay noise amplified by c into the
    recombined samples, plus unit destination noise.
    """
    if bmat is None:
        return kappa * (c * c * gt @ dagger(gt) + np.eye(gt.shape[-2]))
    bg = bmat @ gt
    return kappa * (c * c * bg @ dagger(bg) + bmat @ dagger(bmat))


def forwarded_inverse(g: np.ndarray, c: float, kappa: float, out=None, ws=FRESH) -> np.ndarray:
    """x = A^-1 / kappa (N, N, ...) of A = c^2 G^T conj(G) + I, from
    downlink coefficients g (M, N, ...) with the batch axes last.
    W = c^2 Gt Gt* + I with Gt = gtilde(G) carries A on its even and
    conj(A) on its odd rows and columns: Gt's even rows carry G^T and its
    odd rows conj(G^T) on disjoint columns.  So
    noise_cov_forwarded(gtilde(G), c, kappa, B) = kappa B W B*, and the
    2 x 2 blocks of R0^-1 before IC are Q(x, 0).

    A is inverted in place by Gauss-Jordan elimination, elementwise over
    the batch axes, in ``out`` when given, with ``ws`` scratch.  A is I
    plus a PSD matrix, so every pivot is real and at least 1: no pivoting
    is needed.
    """
    M, N = g.shape[:2]
    a = np.empty((N, N) + g.shape[2:], dtype=complex) if out is None else out
    a[...] = 0.0
    tmp, gc, row, col = ws.scratch((a.shape, complex), (g.shape, complex), *[(a.shape[1:], complex)] * 2)
    np.conj(g, out=gc)
    for m in range(M):
        a += np.multiply(g[m, :, None], gc[m, None, :], out=tmp)
    a *= c * c
    for k in range(N):
        a[k, k] += 1.0
    for k in range(N):
        d = 1.0 / a[k, k].real
        np.multiply(a[k], d, out=row)
        col[...] = a[:, k]
        a -= np.multiply(col[:, None], row[None, :], out=tmp)
        a[k] = row
        np.multiply(col, -d, out=a[:, k])
        a[k, k] = d
    a /= kappa
    return a


# ---------------------------------------------------------------------------
# Whitening: an (obs, h, R) system becomes its matched filter
# w = scale h* R^-1 obs and Gram q = scale^2 h* R^-1 h.


def _checked(w, q):
    """(w, q), or NumericError when either is not finite."""
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(q))):
        raise NumericError("non-finite whitened metric; resample trial")
    return w, q


def whiten(obs, h, r, scale):
    """Whitened matched filter w = scale h* R^-1 obs and Gram
    q = scale^2 h* R^-1 h of obs (..., K), h (..., K, t), r (..., K, K):
    one factorization of r whitens the channel and the observation."""
    obs = np.asarray(obs, dtype=complex)
    h = np.asarray(h, dtype=complex)
    r = np.asarray(r, dtype=complex)
    t = h.shape[-1]
    hx = dagger(h) @ solve_psd_stack(r, np.concatenate([h, obs[..., None]], axis=-1))
    return _checked(scale * hx[..., t], scale * scale * hx[..., :t])


# ---------------------------------------------------------------------------
# The decode tail in pair arithmetic
#
# A block's pair (a, b) is its first column.  Pairs multiply as
# Q(a, b) Q(c, d) = Q(ac - conj(b) d, bc + conj(a) d), Q(a, b)* = Q(conj(a), -b),
# and a vector (u, v) is the first column of Q(u, v).

# Floor of a pivot: an interferer whose channel is zero has g = 0 and an
# all-zero row, which then eliminates to 0 instead of NaN.
_PIVOT_FLOOR = 1e-300


def gram_pairs(split, obs, r0_inv, out=None, ws=FRESH):
    """Gram system (Q, z) = H* R0^-1 [H | obs] of one split for all J of
    its sources, as pairs (p, q) (J, J + 1, n): Q_jk = Q(p_jk, q_jk) and
    z_j = (p_jJ, q_jJ).

    ``split`` (2, K, J, n), one split of a builder's pairs, holds the
    pairs (a_rj, b_rj) of each source's K blocks r, and ``obs`` (2, K, n),
    the same split of ``recombine``'s pairs, the observation's (u_r, v_r).
    ``r0_inv`` is a scalar multiple of the identity or the (K, K, n) x of
    the blocks Q(x_rs, 0) of R0^-1: then (a', b') = (x a, conj(x) b), and
    Q_jk = sum_r Q(a_rj, b_rj)* Q(a'_rk, b'_rk) has
    p = sum_r conj(a) a' + conj(b) b' and q = sum_r a b' - b a'.
    Every product is written into ``ws`` scratch and then accumulated:
    fresh temporaries cost page faults.  ``out`` (2, J, J + 1, n), when
    given, receives (p, q).
    """
    K, J, n = split.shape[1:]
    full = np.ndim(r0_inv) > 0
    # (block row, source or obs, trial) arrays, the products (K rows for
    # a full r0_inv, then J), one block row's conjugated sources, conj(x)
    a, b, ax, bx, tmp, ac, bc, xc = ws.scratch(
        *[((K, J + 1, n), complex)] * 4,
        ((max(K, J) if full else J, J + 1, n), complex),
        *[((J, 1, n), complex)] * 2,
        ((K, K, 1, n) if full else (0,), complex),
    )
    a[:, :J], b[:, :J] = split
    a[:, J], b[:, J] = obs
    if full:  # a'_r = sum_s x_rs a_s, b'_r = sum_s conj(x_rs) b_s
        x = r0_inv[:, :, None]
        np.conj(x, out=xc)
        np.multiply(x[:, 0], a[0], out=ax)
        np.multiply(xc[:, 0], b[0], out=bx)
        for s in range(1, K):
            ax += np.multiply(x[:, s], a[s], out=tmp[:K])
            bx += np.multiply(xc[:, s], b[s], out=tmp[:K])
    else:
        np.multiply(r0_inv, a, out=ax)
        np.multiply(r0_inv, b, out=bx)
    # Accumulate over block rows r: each term is a (J, J + 1, n) array.
    p, q = (np.empty((J, J + 1, n), dtype=complex) for _ in "pq") if out is None else out
    prod = tmp[:J]
    for r in range(K):
        np.conj(a[r, :J, None], out=ac)
        np.conj(b[r, :J, None], out=bc)
        if r:
            p += np.multiply(ac, ax[r], out=prod)
            q += np.multiply(a[r, :J, None], bx[r], out=prod)
        else:
            np.multiply(ac, ax[r], out=p)
            np.multiply(a[r, :J, None], bx[r], out=q)
        p += np.multiply(bc, bx[r], out=prod)
        q -= np.multiply(b[r, :J, None], ax[r], out=prod)
    return p, q


def schur_pairs(p, q, target, T, sigma=None, ws=FRESH):
    """Whitened (w, gamma) of source ``target`` (scale 1) after
    zero-forcing IC, the Schur complement of the interferers' block of a
    ``gram_pairs`` system: the interferers are eliminated one at a time,
    each pivot a Hermitian pair Q(g, 0) with g real.  The target's Gram
    is then gamma I with gamma (n,), and w (min(T, 2), n) its matched
    filter, T being the block length; the splits of T = 4 are
    Q(a, b) diag(1, -1), so their second entry changes sign.  sigma (n,)
    adds the target's own noise sigma h h* to R0, which scales both by
    1 / (1 + sigma gamma).  NumericError when not finite.  The system is
    copied into ``ws`` scratch and eliminated there.
    """
    J = p.shape[0]
    order = [k for k in range(J) if k != target] + [target]
    p_in, q_in = p, q
    p, q = ws.scratch(*[((J, J + 1) + p.shape[2:], complex)] * 2)
    for i, k in enumerate(order):  # p[np.ix_(order, order + [J])]; mode "raise" would buffer
        np.take(p_in[k], order + [J], axis=0, out=p[i], mode="wrap")
        np.take(q_in[k], order + [J], axis=0, out=q[i], mode="wrap")
    for k in range(J - 1):
        g = np.maximum(p[k, k].real, _PIVOT_FLOOR)
        ra, rb = p[k + 1 :, k, None] / g, q[k + 1 :, k, None] / g
        ca, cb = p[k, None, k + 1 :], q[k, None, k + 1 :]
        p[k + 1 :, k + 1 :] -= ra * ca - np.conj(rb) * cb
        q[k + 1 :, k + 1 :] -= rb * ca + np.conj(ra) * cb
    gamma = p[-1, -2].real.copy()  # out of the scratch, which the next call rewrites
    w = np.stack([p[-1, -1], -q[-1, -1] if T == 4 else q[-1, -1]][: min(T, 2)])
    if sigma is not None:
        f = 1.0 / (1.0 + sigma * gamma)
        w, gamma = f * w, f * gamma
    return _checked(w, gamma)


def _pair_slice(wa, wb, ga, gb, c: Constellation, ws=FRESH):
    """ML (x, y) indices of x + y seen as wa under Gram ga and x - y as wb
    under gb, x from ``c`` and y from its rotated copy: for each y, slice
    x on (wa + wb) - (ga - gb) y, then keep the y of least pair metric

      ga |x + y|^2 + gb |x - y|^2 - 2 Re(conj(x + y) wa + conj(x - y) wb),

    its (order, n) terms accumulated in ``ws`` scratch in that order."""
    rot = default_rotation(c.order)
    ys = c.rotated(rot).points[:, None]
    shape = (c.order,) + np.shape(wa)
    plus, minus, metric, t1, t2, xi = ws.scratch(
        *[(shape, complex)] * 2, *[(shape, float)] * 3, (shape, np.int64)
    )
    np.subtract(wa + wb, np.multiply(ga - gb, ys, out=plus), out=plus)
    nearest_psk(plus, c.order, out=(metric, xi))
    np.take(c.points, xi, out=minus, mode="wrap")  # the x of each y; mode "raise" would buffer
    np.add(minus, ys, out=plus)
    np.subtract(minus, ys, out=minus)
    np.add(np.square(plus.real, out=metric), np.square(plus.imag, out=t1), out=metric)
    metric *= ga
    np.add(np.square(minus.real, out=t1), np.square(minus.imag, out=t2), out=t1)
    t1 *= gb
    metric += t1
    np.multiply(plus.real, wa.real, out=t1)
    t1 += np.multiply(plus.imag, wa.imag, out=t2)
    t1 += np.multiply(minus.real, wb.real, out=t2)
    t1 += np.multiply(minus.imag, wb.imag, out=t2)
    t1 *= 2.0
    metric -= t1
    yi = np.argmin(metric, axis=0)
    return np.take_along_axis(xi, yi[None], axis=0)[0], yi


def psk_slicer(w, gamma, c: Constellation, ws=FRESH):
    """ML decisions (n, T) of the T = E symbols of ``symbol_spec(T)``
    from the post-IC matched filter w (E, n) of the splits' entries,
    each split's Gram gamma_s I (gamma (S, n)).

    T <= 2 slices each symbol on its own entry (s2 on the conjugate of
    conj(s2)'s).  T = 4 slices each pair component {s1, s4} and {s2, s3}:
    ``order`` metrics per component instead of order^2, in ``ws``
    scratch.
    """
    if len(w) < 4:
        y = w.copy()
        y[1:] = np.conj(y[1:])
        return nearest_psk(y, c.order).T
    s1, s4 = _pair_slice(w[0], w[2], gamma[0], gamma[1], c, ws=ws)
    # conj(s3) - conj(s2) = -conj(s2 - s3) and -conj(s3) - conj(s2) = -conj(s2 + s3)
    s2, s3 = _pair_slice(-np.conj(w[3]), -np.conj(w[1]), gamma[1], gamma[0], c, ws=ws)
    return np.stack([s1, s2, s3, s4], axis=-1)


# ---------------------------------------------------------------------------
# ML decoding


def _candidate_table(spec: SymbolSpec, c: Constellation):
    """Every symbol-index tuple of ``spec`` and the entry values it
    induces.  Enumeration is lexicographic in symbol indices so argmin
    tie-breaking lands on the lowest indices."""
    rot = c.rotated(default_rotation(c.order))
    combos = np.array(list(itertools.product(range(c.order), repeat=spec.n_symbols)), dtype=np.int64)
    points = np.stack([(rot if f else c).points[combos[:, k]] for k, f in enumerate(spec.rotated)], axis=-1)
    sv = np.zeros((len(combos), len(spec.entries)), dtype=complex)
    for k, terms in enumerate(spec.entries):
        for idx, conj, sign in terms:
            sv[:, k] += sign * (np.conj(points[:, idx]) if conj else points[:, idx])
    return combos, sv


def ml_decode_batch(obs, h, r, scale, spec: SymbolSpec, c: Constellation):
    """Exhaustive whitened ML over a batch of equivalent systems:
    ``whiten`` followed by ``joint_search``.

    obs (..., K), h (..., K, t), r (..., K, K).  Returns decoded symbol
    indices (..., n_symbols).
    """
    return joint_search(*whiten(obs, h, r, scale), spec, c)


def joint_search(w, q, spec: SymbolSpec, c: Constellation):
    """ML decisions (..., n_symbols) over every symbol tuple of ``spec`` at
    once, from the whitened matched filter w (..., E) and Gram q
    (..., E, E) of the E entries of ``spec``; the search holds
    (..., order^n_symbols) metrics.
    """
    combos, sv = _candidate_table(spec, c)
    quad = np.einsum("ce,...ef,cf->...c", np.conj(sv), q, sv).real
    lin = 2.0 * np.einsum("ce,...e->...c", np.conj(sv), w).real
    best = np.argmin(quad - lin, axis=-1)
    return combos[best]
