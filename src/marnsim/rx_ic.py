"""Destination-side processing.

The destination never works on raw time samples directly.  It first forms
an *equivalent system*: a fixed linear recombination of the received
samples (and their conjugates) under which each source's contribution
appears through stacked 2x2 blocks with (anti-)Alamouti structure.  For a
2-antenna relay a single such system exists; for 3 or 4 relay antennas
the quasi-orthogonal codeword splits into a +/- pair of Alamouti systems
that share symbols and are decoded together.

Interference from the other sources is then removed by a zero-forcing IC
matrix built from cross-scaled conjugate blocks; the block identity
H* H = (||H||_F^2 / t) I for family members makes each row exactly null
the unwanted source.  Decoding whitens with the exact post-IC noise
covariance, which takes one of two forms by how the relay noise reaches
the destination, and searches symbol components independently
(symbol-wise for Alamouti, pair-wise for the quasi-orthogonal split).

Every stage works on leading batch axes; one system is a batch of one.
Every observation entry is an explicit linear combination of raw samples;
the recombination matrices are recorded so tests can audit the
construction end to end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .airlink import Constellation
from .numerics import NumericError, UsageError, dagger, solve_psd_stack

__all__ = [
    "DEGENERATE_TOL",
    "SymbolSpec",
    "symbol_spec",
    "default_rotation",
    "recombination_matrices",
    "recombine",
    "split_slices",
    "dstc_channel_stacks",
    "tdma_channel_stacks",
    "gtilde",
    "ic_stack_batch",
    "noise_cov_forwarded",
    "noise_cov_on_target",
    "ml_decode_batch",
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


def recombine(raw: np.ndarray, T: int) -> np.ndarray:
    """Apply the sample recombination to (..., N, T) raw samples."""
    raw = np.asarray(raw, dtype=complex)
    if raw.shape[-1] != T:
        raise UsageError(f"raw block length {raw.shape[-1]} != T={T}")
    if T == 1:
        return raw[..., 0]
    if T == 2:
        return np.stack([raw[..., 0], np.conj(raw[..., 1])], axis=-1).reshape(
            *raw.shape[:-2], -1
        )
    if T == 4:
        plus = np.stack(
            [raw[..., 0] + raw[..., 3], np.conj(raw[..., 1]) - np.conj(raw[..., 2])],
            axis=-1,
        ).reshape(*raw.shape[:-2], -1)
        minus = np.stack(
            [raw[..., 0] - raw[..., 3], np.conj(raw[..., 1]) + np.conj(raw[..., 2])],
            axis=-1,
        ).reshape(*raw.shape[:-2], -1)
        return np.concatenate([plus, minus], axis=-1)
    raise UsageError(f"unsupported block length T={T}")


def split_slices(stacks: np.ndarray):
    """(rows, columns) index of each Alamouti system in a stacked system.

    Stacks with t <= 2 columns are one system.  The t = 4 stacks of the
    quasi-orthogonal codeword hold the + split (first half of the rows,
    columns 0:2) and the - split (second half, columns 2:4); the two
    share no noise.  Index a split as ``stacks[..., rows, cols]`` and its
    observation as ``obs[..., rows]``.
    """
    if stacks.shape[-1] in (1, 2):
        return [(slice(None), slice(None))]
    half = stacks.shape[-2] // 2
    return [(slice(None, half), slice(0, 2)), (slice(half, None), slice(2, 4))]


# ---------------------------------------------------------------------------
# Equivalent channel blocks


def _alamouti_block(a, b):
    """Stack [[a, -conj(b)], [b, conj(a)]] over leading axes -> (..., 2, 2)."""
    row0 = np.stack([a, -np.conj(b)], axis=-1)
    row1 = np.stack([b, np.conj(a)], axis=-1)
    return np.stack([row0, row1], axis=-2)


def _anti_alamouti_block(alpha, beta):
    """Stack [[alpha, beta], [conj(beta), -conj(alpha)]] -> (..., 2, 2)."""
    row0 = np.stack([alpha, beta], axis=-1)
    row1 = np.stack([np.conj(beta), -np.conj(alpha)], axis=-1)
    return np.stack([row0, row1], axis=-2)


def dstc_channel_stacks(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Stacked equivalent channels for the concurrent-uplink scheme.

    F is (..., M, J), G is (..., M, N).  Returns (..., J, rows, t):
    for M=2, rows=2N and t=2 with blocks
    [[f1 g1n, -conj(f2) g2n], [f2 conj(g2n), conj(f1 g1n)]]; for M in
    {3, 4}, rows=4N and t=4 with the +/- split blocks occupying disjoint
    column pairs (missing fourth antenna enters as zero).
    """
    F = np.asarray(F, dtype=complex)
    G = np.asarray(G, dtype=complex)
    M = F.shape[-2]
    N = G.shape[-1]
    fj = np.moveaxis(F, -1, -2)[..., :, :, None]  # (..., J, M, 1)
    g = G[..., None, :, :]  # (..., 1, M, N)
    if M == 2:
        a = fj[..., 0, :] * g[..., 0, :]  # (..., J, N)
        b = fj[..., 1, :] * np.conj(g[..., 1, :])
        blocks = _alamouti_block(a, b)  # (..., J, N, 2, 2)
        return blocks.reshape(*blocks.shape[:-3], 2 * N, 2)
    if M in (3, 4):
        a1 = fj[..., 0, :] * g[..., 0, :]
        b2 = np.conj(fj[..., 1, :]) * g[..., 1, :]
        b3 = np.conj(fj[..., 2, :]) * g[..., 2, :]
        a4 = fj[..., 3, :] * g[..., 3, :] if M == 4 else np.zeros_like(a1)
        plus = _anti_alamouti_block(a1 + a4, b2 - b3)
        minus = _anti_alamouti_block(a1 - a4, b2 + b3)
        plus = plus.reshape(*plus.shape[:-3], 2 * N, 2)
        minus = minus.reshape(*minus.shape[:-3], 2 * N, 2)
        h = np.zeros(plus.shape[:-2] + (4 * N, 4), dtype=complex)
        h[..., : 2 * N, 0:2] = plus
        h[..., 2 * N :, 2:4] = minus
        return h
    raise UsageError(f"unsupported relay antenna count M={M}")


def tdma_channel_stacks(G: np.ndarray, J: int) -> np.ndarray:
    """Stacked equivalent channels for the TDMA-uplink scheme.

    Source j's group of floor(M/J) relay antennas produces blocks built
    from second-hop coefficients only.  Returns (..., J, rows, t) with
    t in {1, 2, 4} by group size.
    """
    G = np.asarray(G, dtype=complex)
    M = G.shape[-2]
    N = G.shape[-1]
    gs = M // J
    if gs < 1:
        raise UsageError(f"J={J} exceeds M={M}")
    stacks = []
    for j in range(J):
        cols = G[..., j * gs : (j + 1) * gs, :]  # (..., gs, N)
        if gs == 1:
            h = cols[..., 0, :, None]  # (..., N, 1)
        elif gs == 2:
            blocks = _alamouti_block(cols[..., 0, :], np.conj(cols[..., 1, :]))
            h = blocks.reshape(*blocks.shape[:-3], 2 * N, 2)
        elif gs in (3, 4):
            g4 = cols[..., 3, :] if gs == 4 else np.zeros_like(cols[..., 0, :])
            plus = _anti_alamouti_block(cols[..., 0, :] + g4, cols[..., 1, :] - cols[..., 2, :])
            minus = _anti_alamouti_block(cols[..., 0, :] - g4, cols[..., 1, :] + cols[..., 2, :])
            plus = plus.reshape(*plus.shape[:-3], 2 * N, 2)
            minus = minus.reshape(*minus.shape[:-3], 2 * N, 2)
            h = np.zeros(plus.shape[:-2] + (4 * N, 4), dtype=complex)
            h[..., : 2 * N, 0:2] = plus
            h[..., 2 * N :, 2:4] = minus
        else:
            raise UsageError(f"unsupported antenna group size {gs}")
        stacks.append(h)
    return np.stack(stacks, axis=-3)


def gtilde(G: np.ndarray) -> np.ndarray:
    """Effective relay-noise mixing matrix of one split system.

    For (..., M, N) second-hop coefficients, returns (..., 2N, 2M) with
    rows 2n = (g_{1n}, 0, g_{2n}, 0, ...) and rows 2n+1 the conjugate
    pattern shifted by one column.
    """
    G = np.asarray(G, dtype=complex)
    M, N = G.shape[-2], G.shape[-1]
    out = np.zeros(G.shape[:-2] + (2 * N, 2 * M), dtype=complex)
    for n in range(N):
        for i in range(M):
            out[..., 2 * n, 2 * i] = G[..., i, n]
            out[..., 2 * n + 1, 2 * i + 1] = np.conj(G[..., i, n])
    return out


# ---------------------------------------------------------------------------
# Zero-forcing IC matrices


def ic_stack_batch(channels: np.ndarray, target: int):
    """Batched iterative IC over (..., J, K*t, t) stacked channels.

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
    bmat = np.broadcast_to(np.eye(K * t, dtype=complex), lead + (K * t, K * t)).copy()
    cur = channels.copy()
    bad = np.zeros(lead, dtype=bool)
    order = [j for j in range(J - 1, -1, -1) if j != target]
    k = K
    for q in order:
        stack = cur[..., q, : k * t, :]  # (..., k*t, t)
        blocks = stack.reshape(*lead, k, t, t)
        norms = np.sum(np.abs(blocks) ** 2, axis=(-2, -1))  # (..., k)
        bad |= np.sqrt(norms).min(axis=-1) < DEGENERATE_TOL
        norms = np.maximum(norms, DEGENERATE_TOL**2)
        scaled = (t / norms)[..., None, None] * dagger(blocks)  # (..., k, t, t)
        bi = np.zeros(lead + ((k - 1) * t, k * t), dtype=complex)
        for p in range(k - 1):
            bi[..., p * t : (p + 1) * t, 0:t] = -scaled[..., 0, :, :]
            bi[..., p * t : (p + 1) * t, (p + 1) * t : (p + 2) * t] = scaled[..., p + 1, :, :]
        bmat = bi @ bmat[..., : k * t, :]
        cur = bi[..., None, :, :] @ cur[..., : k * t, :]
        k -= 1
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


def noise_cov_on_target(bh, kappa: float, s=None, bmat=None) -> np.ndarray:
    """Noise covariance when the relay noise rides on the target's channel:

    R = kappa (B B* + s (B H)(B H)*)

    with bh = B H the target's (projected) stacked channel and s (...,)
    the per-trial variance of the relay noise in the forwarded symbols.
    IC removes the interferers' relay noise with their signal.  s = None
    leaves out the relay term (a hard decision forwards no noise).
    """
    r = np.eye(bh.shape[-2]) if bmat is None else bmat @ dagger(bmat)
    if s is not None:
        r = r + s[..., None, None] * (bh @ dagger(bh))
    return kappa * r


# ---------------------------------------------------------------------------
# ML decoding


def _symbol_components(spec: SymbolSpec):
    """Partition symbols into groups coupled through shared entries."""
    parent = list(range(spec.n_symbols))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for terms in spec.entries:
        idxs = [idx for idx, _, _ in terms]
        for other in idxs[1:]:
            parent[find(idxs[0])] = find(other)
    groups = {}
    for i in range(spec.n_symbols):
        groups.setdefault(find(i), []).append(i)
    comps = []
    for syms in groups.values():
        entries = [
            k
            for k, terms in enumerate(spec.entries)
            if all(idx in syms for idx, _, _ in terms)
        ]
        comps.append((sorted(syms), entries))
    comps.sort()
    return comps


def _candidate_table(spec: SymbolSpec, syms, entries, c: Constellation):
    """All symbol-index combinations for one component and the entry
    values they induce.  Enumeration is lexicographic in symbol indices so
    argmin tie-breaking lands on the lowest indices."""
    consts = [
        c.rotated(default_rotation(c.order)) if spec.rotated[i] else c for i in syms
    ]
    combos = np.array(list(itertools.product(*(range(c.order) for _ in syms))), dtype=np.int64)
    points = np.stack(
        [consts[k].points[combos[:, k]] for k in range(len(syms))], axis=-1
    )  # (n_cand, |syms|)
    pos = {s: k for k, s in enumerate(syms)}
    sv = np.zeros((combos.shape[0], len(entries)), dtype=complex)
    for out_k, ent in enumerate(entries):
        for idx, conj, sign in spec.entries[ent]:
            v = points[:, pos[idx]]
            sv[:, out_k] += sign * (np.conj(v) if conj else v)
    return combos, sv


def ml_decode_batch(obs, h, r, scale, spec: SymbolSpec, c: Constellation, diag_tol=1e-8):
    """Whitened ML over a batch of equivalent systems.

    obs (..., K), h (..., K, t), r (..., K, K).  Returns decoded symbol
    indices (..., n_symbols).  Symbols are searched per coupled component;
    a batch element whose cross-component coupling is not negligible falls
    back to an exhaustive joint search.
    """
    obs = np.asarray(obs, dtype=complex)
    h = np.asarray(h, dtype=complex)
    r = np.asarray(r, dtype=complex)
    ri_obs = solve_psd_stack(r, obs)
    ri_h = solve_psd_stack(r, h)
    w = scale * np.einsum("...kt,...k->...t", np.conj(h), ri_obs)
    q = scale * scale * dagger(h) @ ri_h
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(q))):
        raise NumericError("non-finite whitened metric; resample trial")
    comps = _symbol_components(spec)
    out = np.zeros(obs.shape[:-1] + (spec.n_symbols,), dtype=np.int64)
    # Cross-component couplings must be negligible for the decomposition.
    t = q.shape[-1]
    comp_of = np.zeros(t, dtype=np.int64)
    for ci, (_, entries) in enumerate(comps):
        comp_of[entries] = ci
    diag = np.sqrt(np.maximum(np.einsum("...ii->...i", q).real, 0.0))
    cross = comp_of[:, None] != comp_of[None, :]
    bound = diag_tol * diag[..., :, None] * diag[..., None, :] + 1e-30
    violated = np.any(np.abs(q) * cross > bound, axis=(-2, -1))
    for syms, entries in comps:
        combos, sv = _candidate_table(spec, syms, entries, c)
        qc = q[..., entries, :][..., :, entries]
        wc = w[..., entries]
        quad = np.einsum("ce,...ef,cf->...c", np.conj(sv), qc, sv).real
        lin = 2.0 * np.einsum("ce,...e->...c", np.conj(sv), wc).real
        best = np.argmin(quad - lin, axis=-1)
        out[..., syms] = combos[best]
    if np.any(violated):
        joint_syms = sorted(range(spec.n_symbols))
        joint_entries = list(range(len(spec.entries)))
        combos, sv = _candidate_table(spec, joint_syms, joint_entries, c)
        quad = np.einsum("ce,...ef,cf->...c", np.conj(sv), q, sv).real
        lin = 2.0 * np.einsum("ce,...e->...c", np.conj(sv), w).real
        best = np.argmin(quad - lin, axis=-1)
        joint = combos[best]
        out = np.where(violated[..., None], joint, out)
    return out
