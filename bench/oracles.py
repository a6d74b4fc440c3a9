"""Reference computations for the traced run's layer oracles.

Both are written from the definitions, not from the program's code:
the decoder oracle searches every hypothesis of the whitened ML metric,
and the IC oracle measures how much of each cancelled source survives
the zero-forcing matrix.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

IC_RESIDUAL_TOL = 1e-9


def candidate_vectors(spec, const):
    """Every symbol-index tuple (lexicographic) and the equivalent symbol
    vector it induces under ``spec``.  Symbols marked rotated use the
    constellation turned by pi/order, the rotation the quasi-orthogonal
    code pairs with its second symbol pair."""
    n = spec.n_symbols
    combos = np.array(list(itertools.product(range(const.order), repeat=n)), dtype=np.int64)
    turn = np.exp(1j * math.pi / const.order)
    pts = const.points[combos] * np.where(np.asarray(spec.rotated), turn, 1.0)
    sv = np.zeros((combos.shape[0], len(spec.entries)), dtype=complex)
    for k, terms in enumerate(spec.entries):
        for idx, conj, sign in terms:
            sv[:, k] += sign * (np.conj(pts[:, idx]) if conj else pts[:, idx])
    return combos, sv


def exhaustive_ml(obs, h, r, scale, combos, sv):
    """argmin over all hypotheses of ||L^-1 (obs - scale h s)||^2 with
    r = L L^H, for one system: obs (K,), h (K, t), r (K, K)."""
    low = np.linalg.cholesky(r)
    z = np.linalg.solve(low, obs)
    a = np.linalg.solve(low, h)
    resid = z[None, :] - scale * sv @ a.T
    metric = np.sum(resid.real**2 + resid.imag**2, axis=-1)
    return combos[np.argmin(metric)]


def ic_residual(channels, bmat, target, bad):
    """Largest ||B H_q||_F / (||B||_F ||H_q||_F) over the cancelled
    sources q != target and the non-degenerate batch elements."""
    channels = np.asarray(channels)
    J = channels.shape[-3]
    keep = ~np.asarray(bad, dtype=bool).reshape(-1)
    b = bmat.reshape(-1, *bmat.shape[-2:])[keep]
    hs = channels.reshape(-1, *channels.shape[-3:])[keep]
    worst = 0.0
    bnorm = np.linalg.norm(b, axis=(-2, -1))
    for q in range(J):
        if q == target:
            continue
        hq = hs[:, q]
        num = np.linalg.norm(b @ hq, axis=(-2, -1))
        den = bnorm * np.linalg.norm(hq, axis=(-2, -1))
        if num.size:
            worst = max(worst, float(np.max(num / den)))
    return worst
