"""The decode tail's Gram system and Schur-complement IC as complex
matrices, the reference for the pair stages of ``marnsim.rx_ic``.

One split's Gram system is (Q, z) = H* R0^-1 [H | obs] for all of its
sources, and zero-forcing IC of a target is the Schur complement of the
interferers' block, solved with ``solve_psd_stack``.  ``interleave``
embeds the pair blocks Q(x, 0) of R0^-1 as a complex matrix, and
``forwarded_core`` is the dense A whose LAPACK inverse is the reference
for ``forwarded_inverse``.  ``dense_obs`` and ``obs_pairs`` convert
between ``recombine``'s observation pairs and the dense recombined
observation of ``recombination_matrices``.

``null_space_projector`` is the SVD projector onto the orthogonal
complement of a column space, the reference for the zero-forcing
residual ``numerics.zf_residual`` and for the explicit IC matrices.

The dense helpers that no kernel runs live here too: ``block_diag``,
the explicit IC path's on-target covariance ``noise_cov_on_target``,
``component_search``, exhaustive ML one symbol component at a time,
the reference for the PSK slicer, and ``einsum_search``, the joint
search scored term by term, the reference for ``joint_search``.
"""

import itertools

import numpy as np

from marnsim.numerics import NumericError, UsageError, dagger, solve_psd_stack
from marnsim.rx_ic import SymbolSpec, default_rotation, joint_search

# Singular values / pivots below RANK_TOL * (largest value) count as zero.
RANK_TOL = 1e-10


def null_space_projector(columns) -> np.ndarray:
    """Projector (..., n, n) onto the orthogonal complement of the column
    space of each (..., n, k) matrix: Hermitian and idempotent.

    Rank deficiency (repeated or dependent columns) is handled through an
    SVD with a drop tolerance relative to each matrix's largest singular
    value, so nearly-parallel channel draws do not blow up the projector.
    """
    a = np.asarray(columns, dtype=complex)
    if a.ndim < 2:
        raise UsageError("columns must be an (..., n, k) array")
    n, k = a.shape[-2:]
    if k >= n:
        raise UsageError(f"need fewer columns than rows, got {n}x{k}")
    if not np.all(np.isfinite(a)):
        raise NumericError("non-finite entries in columns")
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    basis = u * (s > RANK_TOL * s[..., :1])[..., None, :]  # dropped directions zeroed
    p = np.eye(n, dtype=complex) - basis @ dagger(basis)
    # Symmetrize away the last few ulps so the invariant checks are exact.
    return 0.5 * (p + dagger(p))


def block_diag(*blocks):
    """Zero-padded block diagonal of (..., r_k, c_k) matrices that share
    their leading axes."""
    r = np.cumsum([0] + [b.shape[-2] for b in blocks])
    c = np.cumsum([0] + [b.shape[-1] for b in blocks])
    out = np.zeros(blocks[0].shape[:-2] + (r[-1], c[-1]), dtype=complex)
    for k, b in enumerate(blocks):
        out[..., r[k] : r[k + 1], c[k] : c[k + 1]] = b
    return out


def noise_cov_on_target(bh, kappa, s=None, bmat=None):
    """Post-IC noise covariance when the relay noise rides on the target's
    channel: R = kappa (B B* + s (B H)(B H)*), with bh = B H the target's
    projected channel and s (...,) the per-trial relay noise variance in
    the forwarded symbols; s = None leaves out the relay term and
    bmat = None stands for the identity."""
    k = bh.shape[-2]
    r = np.broadcast_to(np.eye(k), bh.shape[:-2] + (k, k)) if bmat is None else bmat @ dagger(bmat)
    if s is not None:
        r = r + s[..., None, None] * (bh @ dagger(bh))
    return kappa * r


def _components(spec):
    """(symbols, entries) of each group of ``spec``'s symbols coupled
    through shared entries, in symbol order."""
    comps = []
    for k, terms in enumerate(spec.entries):
        syms, ents = {idx for idx, _, _ in terms}, [k]
        for other in [g for g in comps if g[0] & syms]:
            comps.remove(other)
            syms, ents = syms | other[0], ents + other[1]
        comps.append((syms, ents))
    return sorted((sorted(syms), sorted(ents)) for syms, ents in comps)


def component_search(w, q, spec, c):
    """ML decisions (..., n_symbols) from the whitened (w, q) of ``spec``'s
    entries, searched one symbol component at a time: ``joint_search`` on
    each component's entries, ignoring any Gram coupling between
    components."""
    out = np.zeros(w.shape[:-1] + (spec.n_symbols,), dtype=np.int64)
    for syms, ents in _components(spec):
        pos = {s: k for k, s in enumerate(syms)}
        entries = tuple(tuple((pos[i], cj, sign) for i, cj, sign in spec.entries[e]) for e in ents)
        sub = SymbolSpec(len(syms), entries, tuple(spec.rotated[i] for i in syms))
        out[..., syms] = joint_search(w[..., ents], q[..., ents, :][..., :, ents], sub, c)
    return out


def einsum_search(w, q, spec, c):
    """ML decisions (..., n_symbols) of ``joint_search``'s arguments,
    scored as Re(sv* q sv) - 2 Re(sv* w) over the entry values sv of
    every symbol tuple, listed by ``itertools.product``: ties go to the
    lowest tuple."""
    rot = c.rotated(default_rotation(c.order))
    combos = np.array(list(itertools.product(range(c.order), repeat=spec.n_symbols)), dtype=np.int64)
    points = np.stack([(rot if f else c).points[combos[:, k]] for k, f in enumerate(spec.rotated)], axis=-1)
    sv = np.zeros((len(combos), len(spec.entries)), dtype=complex)
    for k, terms in enumerate(spec.entries):
        for idx, conj, sign in terms:
            sv[:, k] += sign * (np.conj(points[:, idx]) if conj else points[:, idx])
    quad = np.einsum("ce,...ef,cf->...c", np.conj(sv), q, sv).real
    lin = 2.0 * np.einsum("ce,...e->...c", np.conj(sv), w).real
    return combos[np.argmin(quad - lin, axis=-1)]


def interleave(a):
    """W (..., 2N, 2N) with a on the even and conj(a) on the odd rows and
    columns, from (..., N, N) a."""
    k = a.shape[-1]
    out = np.zeros(a.shape[:-2] + (2 * k, 2 * k), dtype=complex)
    out[..., 0::2, 0::2] = a
    out[..., 1::2, 1::2] = np.conj(a)
    return out


def dense_obs(obs, T):
    """The recombined observation (..., S K t) of observation pairs
    (S, 2, K, ...) of a T-slot block, batch axes first: entry s K t + r t
    + e of split s is obs[s, e, r] (t = 1 keeps u_r alone)."""
    S, _, K = obs.shape[:3]
    t = min(T, 2)
    d = np.moveaxis(obs[:, :t], (0, 1, 2), (-3, -1, -2))  # (..., S, K, t)
    return d.reshape(*d.shape[:-3], S * K * t)


def obs_pairs(obs, t):
    """Observation pairs (2, K, ...) of one split's recombined observation
    (..., K t), batch axes first: (u_r, v_r) are entries r t and r t + 1,
    v_r = 0 for t = 1."""
    o = np.moveaxis(np.asarray(obs, dtype=complex), -1, 0)
    return np.stack([o, np.zeros_like(o)]) if t == 1 else np.stack([o[0::2], o[1::2]])


def forwarded_core(G, c):
    """A = c^2 G^T conj(G) + I (..., N, N) of (..., M, N) downlink
    coefficients, batch axes first: R0 before IC is kappa interleave(A)."""
    return c * c * (np.swapaxes(G, -1, -2) @ np.conj(G)) + np.eye(G.shape[-1])


def gram_system(stacks, obs, r0_inv):
    """Gram system (Q, z) = H* R0^-1 [H | obs] of one split for all of
    its sources: stacks (..., J, K, t) give H (..., K, J t), source j on
    columns j t .. (j + 1) t - 1; obs is (..., K) and r0_inv (..., K, K)
    or a scalar multiple of the identity."""
    *lead, J, K, t = stacks.shape
    h = np.moveaxis(stacks, -3, -2).reshape(*lead, K, J * t)
    a = np.concatenate([h, obs[..., None]], axis=-1)
    g = dagger(h) @ (r0_inv @ a) if np.ndim(r0_inv) else r0_inv * (dagger(h) @ a)
    return g[..., :-1], g[..., -1]


def schur_ic(q, z, target, t, sigma=None):
    """Whitened (w, q) of source ``target`` (scale 1) after zero-forcing
    IC: q = Q_jj - Q_jI Q_II^-1 Q_Ij and w = z_j - Q_jI Q_II^-1 z_I (Q_jj
    and z_j for one source).  sigma (...,) adds the target's own noise
    sigma h_j h_j* to R0; as q = y I, both then scale by 1 / (1 + sigma y)."""
    own = slice(target * t, (target + 1) * t)
    rest = np.r_[: target * t, (target + 1) * t : q.shape[-1]]
    w, qj = z[..., own], q[..., own, own]
    if rest.size:
        rhs = np.concatenate([q[..., rest, own], z[..., rest, None]], axis=-1)
        y = q[..., own, rest] @ solve_psd_stack(q[..., rest[:, None], rest], rhs)
        w, qj = w - y[..., t], qj - y[..., :t]
    if sigma is not None:
        f = 1.0 / (1.0 + sigma * np.einsum("...ii->...", qj).real / t)
        w, qj = f[..., None] * w, f[..., None, None] * qj
    return w, qj
