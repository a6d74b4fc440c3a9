"""Noise-covariance probe shared by the exact propagation tests."""

import numpy as np


def propagate_noise_cov(linmap, n_inputs: int, out_dim: int):
    """Covariance of ``linmap`` applied to n i.i.d. CN(0,1) scalars.

    ``linmap(v)`` must be complex-linear in (v, conj(v)); the two halves
    are separated by probing with e_k and i e_k.  Returns (R, pseudo)
    where pseudo is the pseudo-covariance E[n n^T] (zero for circular
    output noise).
    """
    l1 = np.zeros((out_dim, n_inputs), dtype=complex)
    l2 = np.zeros((out_dim, n_inputs), dtype=complex)
    for k in range(n_inputs):
        e = np.zeros(n_inputs, dtype=complex)
        e[k] = 1.0
        a = np.asarray(linmap(e), dtype=complex)
        e[k] = 1.0j
        b = np.asarray(linmap(e), dtype=complex)
        l1[:, k] = 0.5 * (a - 1.0j * b)
        l2[:, k] = 0.5 * (a + 1.0j * b)
    r = l1 @ np.conj(l1.T) + l2 @ np.conj(l2.T)
    pseudo = l1 @ l2.T + l2 @ l1.T
    return r, pseudo
