"""Structural self-checks runnable from the command line.

Each check exercises one algebraic pillar the simulator rests on: the
closure of the Alamouti matrix family, the diagonality that makes
symbol-wise decoding optimal (the kernels' Schur-complement Gram against
the explicit post-IC whitening), the sample-recombination bookkeeping,
the kernels' whitening stages against Monte Carlo noise pushed through
the relay, the kernels' pair decoder against exhaustive ML on the
explicit post-IC systems, and the relay power normalization.  All checks
are deterministic for a given seed.
"""

from __future__ import annotations

import math

import numpy as np

from .airlink import NetworkConfig, RngStream, make_psk, modulate
from .numerics import dagger, is_alamouti
from .relay_codec import apply_design, dstc_design, dstc_power_scale, tdma_power_scale
from .rx_ic import (
    dstc_channel_stacks,
    forwarded_inverse,
    gram_pairs,
    gtilde,
    ic_stack_batch,
    ml_decode_batch,
    noise_cov_forwarded,
    pair_blocks,
    psk_slicer,
    recombination_matrices,
    recombine,
    schur_pairs,
    symbol_spec,
    tdma_channel_stacks,
    whiten,
)
from .schemes import relay_forward_groups

__all__ = ["run_selftest", "ALL_CHECKS"]


def _family(rng, n):
    """n random members [[a, -conj(b)], [b, conj(a)]]: the dense view of
    n one-block pairs (a, b)."""
    return pair_blocks(rng.complex_normal(1, 2, 1, 1, n), 2)[0][:, 0]


def check_alamouti_closure(seed=0):
    """Products, real-scalar multiples, sums, and adjoints of family
    members stay in the family (1000 random pairs)."""
    rng = RngStream(seed, 101)
    x = _family(rng, 1000)
    y = _family(rng, 1000)
    scal = rng.generator.standard_normal(1000)
    closed = np.logical_and.reduce(
        [is_alamouti(m) for m in (x @ y, x + y, scal[:, None, None] * x, dagger(x))]
    )
    if not closed.all():
        return False, f"closure violated at pair {int(np.argmin(closed))}"
    return True, "1000 pairs closed under product, sum, real scaling, adjoint"


def check_hermitian_diagonality(seed=0):
    """A Hermitian family member is a real multiple of the identity, and
    the explicit whitened Gram (B h)* R^-1 (B h) of random TDMA-uplink
    post-IC systems (``whiten``) equals the gamma I of the kernels'
    ``gram_pairs`` and ``schur_pairs`` on the same draws, for both
    sources."""
    rng = RngStream(seed, 102)
    m = _family(rng, 1000)
    gram = m @ dagger(m)
    off = np.abs(gram[:, 0, 1]).max() + np.abs(gram[:, 1, 0]).max()
    diag_dev = np.abs(gram[:, 0, 0] - gram[:, 1, 1]).max()
    imag_dev = np.abs(gram[:, 0, 0].imag).max()
    scale = np.abs(gram).max()
    if max(off, diag_dev, imag_dev) > 1e-10 * scale:
        return False, "Gram of family member is not a real multiple of I"
    # pipeline version: R = B B* + s (B h)(B h)* with the relay noise s on the target
    cfg = NetworkConfig(2, 4, 3, 100.0)
    f = rng.complex_normal(1000, cfg.M, cfg.J)
    g = rng.complex_normal(1000, cfg.M, cfg.N)
    pairs = tdma_channel_stacks(g, cfg.J)
    [stacks] = pair_blocks(pairs, 2)
    c1 = tdma_power_scale(cfg.P, cfg.M)
    sigma = c1 * c1 / np.sum(np.abs(f) ** 2, axis=1)  # (n, J)
    p, q = gram_pairs(pairs[0], np.zeros((2, cfg.N, 1000), dtype=complex), 1.0)
    worst = 0.0
    for j in range(cfg.J):
        bmat, _ = ic_stack_batch(stacks, j)
        bh = bmat @ stacks[:, j]
        r = bmat @ dagger(bmat) + sigma[:, j, None, None] * (bh @ dagger(bh))
        explicit = whiten(np.zeros(bh.shape[:-1]), bh, r, 1.0)[1]
        gamma = schur_pairs(p, q, j, 2, sigma[:, j])[1]
        dev = np.abs(explicit - gamma[:, None, None] * np.eye(2)).max(axis=(1, 2)) / gamma
        worst = max(worst, float(dev.max()))
    if worst > 1e-10:
        return False, f"explicit whitened Gram off the pair stages' gamma I by {worst:.2e}"
    return True, f"explicit whitened Gram equals the pair stages' gamma I within {worst:.2e} over 1000 channels"


def check_recombination_audit(seed=0):
    """Every equivalent-system observation equals the recorded linear
    combination of raw destination samples to 1e-12."""
    rng = RngStream(seed, 103)
    worst = 0.0
    for T, N in ((1, 3), (2, 3), (4, 2), (4, 3), (4, 4)):
        raw = rng.complex_normal(50, N, T)
        c1, c2 = recombination_matrices(N, T)
        obs = recombine(np.moveaxis(raw, 0, -1), T)
        flat = raw.reshape(50, -1)
        ref = flat @ c1.T + np.conj(flat) @ c2.T
        worst = max(worst, float(np.abs(_dense(obs, T) - ref).max()))
        worst = max(worst, float(np.abs(obs[:, T:]).max(initial=0.0)))  # T = 1 leaves v = 0
    ok = worst <= 1e-12
    return ok, f"max audit deviation {worst:.2e} (tolerance 1e-12)"


def _dense(obs, T):
    """The recombined observation (n, S K t) of ``recombine``'s pairs
    (S, 2, K, n), in ``recombination_matrices``' entry order."""
    t = min(T, 2)
    return np.moveaxis(obs[:, :t], (0, 1, 2), (1, 3, 2)).reshape(obs.shape[-1], -1)


def _whitened_noise_deviation(pairs, obs, r0_inv, T, sigma=None):
    """Worst deviation, relative to gamma, of the sample covariance of the
    whitened noise w that the slicer sees from gamma I, over every split
    and source: ``pairs`` (S, 2, K, J, 1) of one channel draw, ``obs``
    (S, 2, K, trials) the recombined noise alone, and ``sigma`` (J,) each
    source's own relay-noise term (or None)."""
    trials = obs.shape[-1]
    worst = 0.0
    for split, o in zip(pairs, obs):
        p, q = gram_pairs(np.broadcast_to(split, split.shape[:-1] + (trials,)), o, r0_inv)
        for j in range(split.shape[-2]):
            w, gamma = schur_pairs(p, q, j, T, None if sigma is None else sigma[j])
            cov = w @ np.conj(w).T / trials
            worst = max(worst, float(np.abs(cov - gamma[0] * np.eye(len(w))).max() / gamma[0]))
    return worst


def check_noise_covariance(seed=0, trials=100_000):
    """Noise simulated through the relay, the downlink and ``recombine``,
    whitened by the kernels' ``gram_pairs`` and ``schur_pairs`` (with
    ``forwarded_inverse`` for amplify-and-forward, and the target's relay
    noise sigma for estimate-and-forward), has sample covariance gamma I
    in every split, within 3% of gamma."""
    rng = RngStream(seed, 104)
    msgs = []
    P = 31.62
    for family, J, M, N in (("AF", 2, 2, 3), ("AF", 2, 4, 3), ("EF", 2, 4, 3), ("EF", 2, 8, 3)):
        f, g = rng.complex_normal(M, J), rng.complex_normal(M, N)
        design = dstc_design(M if family == "AF" else M // J)
        T = design.T
        kappa = 2.0 if T == 4 else 1.0
        if family == "AF":
            c = dstc_power_scale(P, M, J)
            x = c * apply_design(design, np.moveaxis(rng.complex_normal(trials, M, T), 0, -1))
            pairs, sigma = dstc_channel_stacks(f[None], g[None]), None
            r0_inv = forwarded_inverse(g[..., None], c, kappa)
        else:
            c = tdma_power_scale(P, M)
            gains = np.sum(np.abs(f) ** 2, axis=0)
            est_noise = rng.complex_normal(trials, J, T) / np.sqrt(gains)[:, None]
            x = relay_forward_groups(np.moveaxis(est_noise, 0, -1), design, c, M)
            pairs, r0_inv, sigma = tdma_channel_stacks(g[None], J), 1.0 / kappa, kappa * c * c / gains
        raw = np.einsum("mtk,mn->ntk", x, g) + np.moveaxis(rng.complex_normal(trials, N, T), 0, -1)
        dev = _whitened_noise_deviation(pairs, recombine(raw, T), r0_inv, T, sigma)
        msgs.append(f"{family} ({J},{M},{N}) whitened-noise deviation {dev:.3f}")
        if dev > 0.03:
            return False, msgs[-1]
    return True, "; ".join(msgs)


def check_ml_agreement(seed=0, instances=1000):
    """The kernels' decoder (``gram_pairs``, ``schur_pairs``, then
    ``psk_slicer``) run from the pre-IC observation equals the exhaustive
    whitened ML decoder ``ml_decode_batch`` on the explicit post-IC system
    (``ic_stack_batch`` and ``noise_cov_forwarded`` on the dense view),
    for both sources of noisy concurrent-uplink draws (J=2, M=2, N=2)."""
    rng = RngStream(seed, 105)
    cfg = NetworkConfig(2, 2, 2, 10.0)
    c = dstc_power_scale(cfg.P, cfg.M, cfg.J)
    scale = math.sqrt(cfg.P) * c
    spec = symbol_spec(2)
    for order in (2, 4):
        const = make_psk(order)
        f = rng.complex_normal(instances, cfg.M, cfg.J)
        g = rng.complex_normal(instances, cfg.M, cfg.N)
        pairs = dstc_channel_stacks(f, g)
        [stacks] = pair_blocks(pairs, 2)
        sv = spec.build(modulate(rng.bits(instances, cfg.J, 2 * const.bits_per_symbol), const))
        r0 = noise_cov_forwarded(gtilde(g), c, 1.0)
        # colored noise with exactly the covariance R0 via its Cholesky root
        noise = np.einsum("nij,nj->ni", np.linalg.cholesky(r0), rng.complex_normal(instances, 2 * cfg.N))
        obs = scale * np.einsum("njrk,njk->nr", stacks, sv) + noise
        o = np.stack([obs[:, 0::2].T, obs[:, 1::2].T])  # the observation pairs (u, v)
        p, q = gram_pairs(pairs[0], o, forwarded_inverse(np.moveaxis(g, 0, -1), c, 1.0))
        for target in range(cfg.J):
            w, gamma = schur_pairs(p, q, target, 2)
            got = psk_slicer(scale * w, scale * scale * gamma[None], const)
            bmat, bad = ic_stack_batch(stacks, target)
            r = noise_cov_forwarded(gtilde(g), c, 1.0, bmat)
            bobs, bh = np.einsum("nrk,nk->nr", bmat, obs), bmat @ stacks[:, target]
            brute = ml_decode_batch(bobs, bh, r, scale, spec, const)
            if not np.array_equal(got[~bad], brute[~bad]):
                k = int(np.nonzero(np.any(got != brute, axis=1) & ~bad)[0][0])
                return False, f"ML disagreement at instance {k}, source {target}, order {order}"
    return True, "pair decoder equals ml_decode_batch on the explicit post-IC systems (BPSK, QPSK, both sources)"


def check_power_normalization(seed=0, trials=100_000):
    """Average total relay transmit power per slot stays within 2% of P
    under protocol-distributed inputs."""
    rng = RngStream(seed, 106)
    msgs = []
    for M, J in ((2, 2), (4, 2), (4, 3)):
        P = 10.0
        design = dstc_design(M)
        c = dstc_power_scale(P, M, J)
        f = rng.complex_normal(trials, M, J)
        s = np.exp(2j * np.pi * rng.generator.random((trials, J, design.T)))
        r = math.sqrt(P) * np.einsum("nmj,njt->nmt", f, s) + rng.complex_normal(
            trials, M, design.T
        )
        t = c * apply_design(design, np.moveaxis(r, 0, -1))
        power = float(np.mean(np.sum(np.abs(t) ** 2, axis=0)))  # per slot, all antennas
        if abs(power / P - 1.0) > 0.02:
            return False, f"concurrent encoder power {power:.3f} vs P={P} (M={M}, J={J})"
        msgs.append(f"concurrent M={M} J={J}: {power / P:.4f} P")
    for M, J in ((4, 2), (8, 2)):
        P = 10.0
        design = dstc_design(M // J)
        c1 = tdma_power_scale(P, M)
        s = np.exp(2j * np.pi * rng.generator.random((trials, J, design.T)))
        rhat = math.sqrt(P) * s + rng.complex_normal(trials, J, design.T)
        xr = relay_forward_groups(np.moveaxis(rhat, 0, -1), design, c1, M)
        power = float(np.mean(np.sum(np.abs(xr) ** 2, axis=0)))
        if abs(power / P - 1.0) > 0.02:
            return False, f"TDMA encoder power {power:.3f} vs P={P} (M={M}, J={J})"
        msgs.append(f"TDMA M={M} J={J}: {power / P:.4f} P")
    return True, "; ".join(msgs)


ALL_CHECKS = (
    ("alamouti-closure", check_alamouti_closure),
    ("hermitian-diagonality", check_hermitian_diagonality),
    ("recombination-audit", check_recombination_audit),
    ("noise-covariance", check_noise_covariance),
    ("ml-agreement", check_ml_agreement),
    ("power-normalization", check_power_normalization),
)


def run_selftest(seed: int = 0, out=None) -> bool:
    """Run all structural checks; prints one line per check."""
    ok_all = True
    for name, fn in ALL_CHECKS:
        ok, detail = fn(seed)
        ok_all &= ok
        line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
        print(line, file=out)
    return ok_all
