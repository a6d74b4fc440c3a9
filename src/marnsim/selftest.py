"""Structural self-checks runnable from the command line.

Each check exercises one algebraic pillar the simulator rests on: the
closure of the Alamouti matrix family, the diagonality that makes
symbol-wise decoding optimal, the sample-recombination bookkeeping, the
analytic noise covariances against Monte Carlo, the kernels' pair
decoder against exhaustive ML on the explicit post-IC systems, and the
relay power normalization.  All checks are deterministic for a given
seed.
"""

from __future__ import annotations

import math

import numpy as np

from .airlink import NetworkConfig, RngStream, make_psk, modulate
from .numerics import dagger, is_alamouti, solve_psd_stack
from .relay_codec import apply_design, dstc_design, dstc_power_scale, tdma_power_scale
from .rx_ic import (
    dstc_channel_stacks,
    forwarded_inverse,
    gram_pairs,
    gtilde,
    ic_stack_batch,
    noise_cov_forwarded,
    noise_cov_on_target,
    pair_blocks,
    psk_slicer,
    recombination_matrices,
    recombine,
    schur_pairs,
    symbol_spec,
    tdma_channel_stacks,
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
    for k in range(1000):
        for m in (x[k] @ y[k], x[k] + y[k], scal[k] * x[k], dagger(x[k])):
            if not is_alamouti(m):
                return False, f"closure violated at pair {k}"
    return True, "1000 pairs closed under product, sum, real scaling, adjoint"


def check_hermitian_diagonality(seed=0):
    """A Hermitian family member is a real multiple of the identity, and
    the whitened Gram matrix H* R^-1 H of random post-IC systems is
    diagonal with equal entries."""
    rng = RngStream(seed, 102)
    m = _family(rng, 1000)
    gram = m @ dagger(m)
    off = np.abs(gram[:, 0, 1]).max() + np.abs(gram[:, 1, 0]).max()
    diag_dev = np.abs(gram[:, 0, 0] - gram[:, 1, 1]).max()
    imag_dev = np.abs(gram[:, 0, 0].imag).max()
    scale = np.abs(gram).max()
    if max(off, diag_dev, imag_dev) > 1e-10 * scale:
        return False, "Gram of family member is not a real multiple of I"
    # pipeline version: TDMA post-IC whitened Gram over random channels
    cfg = NetworkConfig(2, 4, 3, 100.0)
    f = rng.complex_normal(1000, cfg.M, cfg.J)
    g = rng.complex_normal(1000, cfg.M, cfg.N)
    [stacks] = pair_blocks(tdma_channel_stacks(g, cfg.J), 2)
    bmat, _ = ic_stack_batch(stacks, 0)
    bh = bmat @ stacks[:, 0]
    c1 = tdma_power_scale(cfg.P, cfg.M)
    r = noise_cov_on_target(bh, 1.0, c1 * c1 / np.sum(np.abs(f[..., 0]) ** 2, axis=-1), bmat)
    q = dagger(bh) @ solve_psd_stack(r, bh)
    d = q[:, 0, 0]
    dev = np.max(np.abs([q[:, 0, 1], q[:, 1, 0], d - q[:, 1, 1], d.imag]), axis=0)
    worst = float(np.max(dev / np.maximum(np.abs(d), 1e-300)))
    if worst > 1e-8:
        return False, f"whitened Gram off-diagonal up to {worst:.2e}"
    return True, f"whitened Gram diagonal within {worst:.2e} over 1000 channels"


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


def _sample_cov(n):
    return np.einsum("ki,kj->ij", n, np.conj(n)) / n.shape[0]


def check_noise_covariance(seed=0, trials=100_000):
    """The post-IC covariance stages match the sample covariance of noise
    simulated through the relay stages, within 3% of the covariance
    scale."""
    rng = RngStream(seed, 104)
    msgs = []
    # concurrent-uplink system, M=2, J=2, N=3
    cfg = NetworkConfig(2, 2, 3, 31.62)
    design = dstc_design(2)
    f = rng.complex_normal(cfg.M, cfg.J)
    g = rng.complex_normal(cfg.M, cfg.N)
    bmat, _ = ic_stack_batch(pair_blocks(dstc_channel_stacks(f[None], g[None]), 2)[0], 0)
    c = dstc_power_scale(cfg.P, cfg.M, cfg.J)
    v = rng.complex_normal(trials, cfg.M, design.T)
    w = rng.complex_normal(trials, cfg.N, design.T)
    t = c * apply_design(design, np.moveaxis(v, 0, -1))
    raw = np.einsum("mtk,mn->ntk", t, g) + np.moveaxis(w, 0, -1)
    noise = np.einsum("rk,nk->nr", bmat[0], _dense(recombine(raw, design.T), design.T))
    want = noise_cov_forwarded(gtilde(g), c, 1.0, bmat[0])
    got = _sample_cov(noise)
    dev = float(np.abs(got - want).max() / np.abs(want).max())
    msgs.append(f"concurrent-uplink covariance deviation {dev:.3f}")
    if dev > 0.03:
        return False, msgs[-1]
    # TDMA-uplink system, M=4, J=2, N=3 (group size 2)
    cfg = NetworkConfig(2, 4, 3, 31.62)
    design = dstc_design(cfg.M // cfg.J)
    f = rng.complex_normal(cfg.M, cfg.J)
    g = rng.complex_normal(cfg.M, cfg.N)
    [stacks] = pair_blocks(tdma_channel_stacks(g[None], cfg.J), 2)
    bmat, _ = ic_stack_batch(stacks, 0)
    c1 = tdma_power_scale(cfg.P, cfg.M)
    x = np.sum(np.abs(f) ** 2, axis=0)
    vhat = rng.complex_normal(trials, cfg.J, design.T) / np.sqrt(x)[:, None]
    xr = relay_forward_groups(np.moveaxis(vhat, 0, -1), design, c1, cfg.M)
    w = rng.complex_normal(trials, cfg.N, design.T)
    raw = np.einsum("mtk,mn->ntk", xr, g) + np.moveaxis(w, 0, -1)
    noise = np.einsum("rk,nk->nr", bmat[0], _dense(recombine(raw, design.T), design.T))
    want = noise_cov_on_target(bmat[0] @ stacks[0, 0], 1.0, np.array(c1 * c1 / x[0]), bmat[0])
    got = _sample_cov(noise)
    dev = float(np.abs(got - want).max() / np.abs(want).max())
    msgs.append(f"TDMA-uplink covariance deviation {dev:.3f}")
    if dev > 0.03:
        return False, msgs[-1]
    return True, "; ".join(msgs)


def check_ml_agreement(seed=0, instances=1000):
    """The kernels' decoder (``gram_pairs``, ``schur_pairs``, then
    ``psk_slicer``) run from the pre-IC observation equals the exhaustive
    arg-min of the whitened metric on the explicit post-IC system
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
        # brute force over the target's symbol pair on its explicit post-IC system
        cand = np.array([[i, j] for i in range(order) for j in range(order)], dtype=np.int64)
        svc = spec.build(const.points[cand])
        for target in range(cfg.J):
            w, gamma = schur_pairs(p, q, target, 2)
            got = psk_slicer(scale * w, scale * scale * gamma[None], const)
            bmat, bad = ic_stack_batch(stacks, target)
            h = bmat @ stacks[:, target]
            r = noise_cov_forwarded(gtilde(g), c, 1.0, bmat)
            resid = np.einsum("nrk,nk->nr", bmat, obs)[:, None, :] - scale * np.einsum("nij,cj->nci", h, svc)
            rin = np.linalg.solve(r[:, None], resid[..., None])[..., 0]
            metric = np.einsum("nci,nci->nc", np.conj(resid), rin).real
            brute = cand[np.argmin(metric, axis=1)]
            if not np.array_equal(got[~bad], brute[~bad]):
                k = int(np.nonzero(np.any(got != brute, axis=1) & ~bad)[0][0])
                return False, f"ML disagreement at instance {k}, source {target}, order {order}"
    return True, "pair decoder equals exhaustive arg-min on the explicit post-IC systems (BPSK and QPSK, both sources)"


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
