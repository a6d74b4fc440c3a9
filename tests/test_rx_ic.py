"""Unit tests for destination-side processing: recombination, channel
stacks, zero-forcing IC, the noise-covariance stages, and ML decoding.

The pipelines here are assembled from the same relay and covariance
stages that the scheme kernels run; a single system is a batch of one.
"""

import itertools
import math

import numpy as np
import pytest

from marnsim.airlink import ChannelRealization, NetworkConfig, RngStream, make_psk, modulate
from marnsim.analysis import snr_tdma_direct
from marnsim.numerics import NumericError, UsageError, dagger, null_space_projector, solve_psd_stack
from marnsim.relay_codec import apply_design, dstc_design, dstc_power_scale, tdma_power_scale
from marnsim.rx_ic import (
    block_diag,
    default_rotation,
    dstc_channel_stacks,
    gtilde,
    ic_stack_batch,
    joint_ml_decode_batch,
    ml_decode_batch,
    noise_cov_forwarded,
    noise_cov_on_target,
    recombination_matrices,
    recombine,
    split_slices,
    symbol_spec,
    tdma_channel_stacks,
)
from marnsim.schemes import SchemeId, relay_forward_groups, simulate_batch
from propagation import propagate_noise_cov


def _cn(rng, *shape):
    return rng.complex_normal(*shape)


def _noiseless_dstc_raw(F, G, cfg, symbols):
    """Uplink -> concurrent relay transform -> downlink with noise off.

    F (n, M, J), G (n, M, N), ``symbols`` (n, J, T); returns the (n, N, T)
    destination samples.
    """
    design = dstc_design(cfg.M)
    received = math.sqrt(cfg.P) * np.einsum("nmj,njt->nmt", F, symbols)
    t = dstc_power_scale(cfg.P, cfg.M, cfg.J) * apply_design(design, received)
    return np.einsum("nmt,nmo->not", t, G)


def _noiseless_tdma_raw(G, cfg, symbols):
    """Noise-free TDMA uplink estimates forwarded on antenna groups."""
    design = dstc_design(cfg.M // cfg.J)
    c1 = tdma_power_scale(cfg.P, cfg.M)
    t = relay_forward_groups(math.sqrt(cfg.P) * symbols, design, c1, cfg.M)
    return np.einsum("nmt,nmo->not", t, G)


def _check_noiseless(obs, stacks, symbols, scale):
    """obs = sum_q scale * H_q s_q, and per split IC leaves the target alone."""
    spec = symbol_spec(stacks.shape[-1])
    terms = [
        scale * np.einsum("nrk,nk->nr", stacks[:, q], spec.build(symbols[:, q]))
        for q in range(stacks.shape[1])
    ]
    assert np.allclose(obs, sum(terms), atol=1e-10)
    for rows, cols in split_slices(stacks):
        split = stacks[..., rows, cols]
        for tgt in range(stacks.shape[1]):
            bmat, bad = ic_stack_batch(split, tgt)
            assert not bad.any()
            got = np.einsum("nrk,nk->nr", bmat, obs[..., rows])
            want = np.einsum("nrk,nk->nr", bmat, terms[tgt][..., rows])
            assert np.allclose(got, want, atol=1e-9)


def _assert_psd(r):
    assert np.allclose(r, dagger(r), atol=1e-12 * np.abs(r).max())
    assert np.linalg.eigvalsh(r).min() > -1e-10 * np.abs(r).max()


class TestSymbolSpec:
    def test_t2_layout(self):
        s = np.array([1.0 + 1.0j, 2.0 - 1.0j])
        v = symbol_spec(2).build(s)
        assert np.allclose(v, [s[0], np.conj(s[1])])

    def test_t4_layout(self):
        s = np.array([1.0, 2.0j, -1.0 + 1.0j, 0.5])
        v = symbol_spec(4).build(s)
        expect = [
            s[0] + s[3],
            np.conj(s[2]) - np.conj(s[1]),
            s[0] - s[3],
            -np.conj(s[2]) - np.conj(s[1]),
        ]
        assert np.allclose(v, expect)

    def test_rotated_flags(self):
        assert symbol_spec(4).rotated == (False, False, True, True)

    def test_unsupported_raises(self):
        with pytest.raises(UsageError):
            symbol_spec(3)


class TestRecombination:
    @pytest.mark.parametrize("t,n", [(1, 3), (2, 3), (4, 2)])
    def test_matches_audit_matrices(self, t, n):
        rng = RngStream(0)
        raw = _cn(rng, n, t)
        c1, c2 = recombination_matrices(n, t)
        obs = recombine(raw, t)
        expect = c1 @ raw.ravel() + c2 @ np.conj(raw.ravel())
        assert np.allclose(obs, expect, atol=1e-14)

    def test_t4_first_entry_is_slot_sum(self):
        raw = np.arange(8, dtype=complex).reshape(2, 4)
        obs = recombine(raw, 4)
        assert obs[0] == raw[0, 0] + raw[0, 3]
        # minus split starts after the 2N plus rows
        assert obs[4] == raw[0, 0] - raw[0, 3]

    def test_bad_length_raises(self):
        with pytest.raises(UsageError):
            recombine(np.zeros((2, 3)), 2)


class TestChannelStacks:
    @pytest.mark.parametrize("j,m,n", [(1, 2, 2), (2, 2, 3), (1, 3, 2), (2, 4, 3), (3, 4, 3)])
    def test_noiseless_dstc_pipeline(self, j, m, n):
        # obs of the recombined noise-free pipeline equals
        # sum_j scale * H_j @ s_vec_j for arbitrary complex symbols.
        cfg = NetworkConfig(j, m, n, 3.7)
        rng = RngStream(1, j * 16 + m)
        F, G = _cn(rng, 1, m, j), _cn(rng, 1, m, n)
        design = dstc_design(m)
        symbols = _cn(rng, 1, j, design.T)
        obs = recombine(_noiseless_dstc_raw(F, G, cfg, symbols), design.T)
        c = dstc_power_scale(cfg.P, cfg.M, cfg.J)
        _check_noiseless(obs, dstc_channel_stacks(F, G), symbols, math.sqrt(cfg.P) * c)
        _assert_psd(noise_cov_forwarded(gtilde(G), c, 2.0 if design.T == 4 else 1.0)[0])

    @pytest.mark.parametrize("j,m,n", [(2, 2, 2), (2, 4, 3), (1, 4, 2), (2, 8, 3), (3, 6, 4)])
    def test_noiseless_tdma_pipeline(self, j, m, n):
        cfg = NetworkConfig(j, m, n, 2.2)
        rng = RngStream(2, j * 16 + m)
        G = _cn(rng, 1, m, n)
        design = dstc_design(m // j)
        symbols = _cn(rng, 1, j, design.T)
        obs = recombine(_noiseless_tdma_raw(G, cfg, symbols), design.T)
        scale = math.sqrt(cfg.P) * tdma_power_scale(cfg.P, cfg.M)
        _check_noiseless(obs, tdma_channel_stacks(G, j), symbols, scale)

    def test_alamouti_block_property(self):
        # H_n* H_n = (|f1 g1n|^2 + |f2 g2n|^2) I for the 2-antenna relay.
        rng = RngStream(3)
        f, g = _cn(rng, 2, 1), _cn(rng, 2, 3)
        stacks = dstc_channel_stacks(f, g)
        for n in range(3):
            h = stacks[0, 2 * n : 2 * n + 2]
            q = dagger(h) @ h
            lam = abs(f[0, 0] * g[0, n]) ** 2 + abs(f[1, 0] * g[1, n]) ** 2
            assert np.allclose(q, lam * np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("gs", [2, 3, 4])
    @pytest.mark.parametrize("J", [1, 2])
    def test_tdma_stacks_are_dstc_stacks_of_unit_uplinks(self, J, gs):
        # Both stack builders share one layout: source j's TDMA stacks are
        # the concurrent-uplink stacks of one source whose uplink gains
        # are all 1, relayed by j's antenna group (with J = 2, the last of
        # the 2 gs + 1 antennas stays idle).
        n = 50
        G = _cn(RngStream(12, 10 * J + gs), n, J * gs + J - 1, 3)
        tdma = tdma_channel_stacks(G, J)
        for j in range(J):
            dstc = dstc_channel_stacks(np.ones((n, gs, 1)), G[:, j * gs : (j + 1) * gs])
            assert np.array_equal(tdma[:, j], dstc[:, 0])

    def test_gtilde_pattern(self):
        G = _cn(RngStream(13), 4, 3, 2)
        gt = gtilde(G)
        want = np.zeros((4, 4, 6), dtype=complex)
        for n in range(2):
            for i in range(3):
                want[:, 2 * n, 2 * i] = G[:, i, n]
                want[:, 2 * n + 1, 2 * i + 1] = np.conj(G[:, i, n])
        assert np.array_equal(gt, want)

    def test_block_diag(self):
        a, b = np.full((2, 1, 2), 1.0), np.full((2, 3, 1), 2.0)
        want = np.zeros((2, 4, 3))
        want[:, :1, :2] = 1.0
        want[:, 1:, 2:] = 2.0
        assert np.array_equal(block_diag(a, b), want)

    def test_tdma_group_size_guard(self):
        with pytest.raises(UsageError):
            tdma_channel_stacks(np.zeros((2, 3)), 3)

    def test_unsupported_m_raises(self):
        rng = RngStream(4)
        with pytest.raises(UsageError):
            dstc_channel_stacks(_cn(rng, 5, 2), _cn(rng, 5, 2))


class TestIcMatrices:
    # With one interferer the IC is pairwise: every antenna block is
    # paired with the first one.

    def test_pairwise_n2_cancels_interferer(self):
        rng = RngStream(5)
        stacks = dstc_channel_stacks(_cn(rng, 1, 2, 2), _cn(rng, 1, 2, 2))
        bmat, bad = ic_stack_batch(stacks, 0)
        assert bmat.shape == (1, 2, 4) and not bad.any()
        assert np.linalg.norm(bmat[0] @ stacks[0, 1]) <= 1e-9 * np.linalg.norm(stacks[0, 1])

    def test_pairwise_unit_blocks(self):
        # t / ||I||_F^2 = 1, so the rows reduce to the [-I, I] pattern.
        stacks = np.stack([np.ones((4, 2)), np.vstack([np.eye(2), np.eye(2)])])[None]
        bmat, _ = ic_stack_batch(stacks, 0)
        assert np.allclose(bmat[0], np.hstack([-np.eye(2), np.eye(2)]))

    def test_pairwise_row_count(self):
        stacks = np.stack([np.ones((8, 2)), np.vstack([np.eye(2)] * 4)])[None]
        assert ic_stack_batch(stacks, 0)[0].shape == (1, 6, 8)

    def test_iterative_cancels_all_interferers(self):
        rng = RngStream(7)
        stacks = dstc_channel_stacks(_cn(rng, 1, 2, 3), _cn(rng, 1, 2, 4))
        bmat, _ = ic_stack_batch(stacks, 0)
        assert bmat.shape == (1, 4, 8)  # (N - J + 1) t rows
        for q in (1, 2):
            assert np.linalg.norm(bmat[0] @ stacks[0, q]) <= 1e-9 * np.linalg.norm(stacks[0, q])

    def test_iterative_j_equals_n(self):
        rng = RngStream(8)
        stacks = dstc_channel_stacks(_cn(rng, 1, 2, 3), _cn(rng, 1, 2, 3))
        assert ic_stack_batch(stacks, 1)[0].shape == (1, 2, 6)

    def test_iterative_degenerate_flagged(self):
        # A zero interferer block flags its own batch element only.
        rng = RngStream(8)
        stacks = np.stack([_cn(rng, 2, 4, 2), _cn(rng, 2, 4, 2)], axis=1)
        stacks[0, 0] = 0.0
        _, bad = ic_stack_batch(stacks, 1)
        assert bad.tolist() == [True, False]

    def test_iterative_bad_target_raises(self):
        with pytest.raises(UsageError):
            ic_stack_batch(np.ones((1, 1, 4, 2)), 1)

    @pytest.mark.parametrize(
        "j,m,n,kind",
        [(2, 2, 3, "dstc"), (3, 4, 4, "dstc"), (2, 4, 3, "tdma"), (3, 3, 5, "tdma"), (3, 6, 4, "tdma")],
    )
    def test_batch_matches_scalar(self, j, m, n, kind):
        # Each batch element equals its batch of one, cancels every
        # interferer, and has the row space of the orthogonal complement
        # of the interferers' stacked columns.
        rng = RngStream(9, j * 16 + m)
        f, g = _cn(rng, 40, m, j), _cn(rng, 40, m, n)
        stacks = dstc_channel_stacks(f, g) if kind == "dstc" else tdma_channel_stacks(g, j)
        for rows, cols in split_slices(stacks):
            st = stacks[..., rows, cols]
            for tgt in range(j):
                bb, bad = ic_stack_batch(st, tgt)
                assert not bad.any()
                for i in (0, 17, 39):
                    b = bb[i]
                    assert np.array_equal(b, ic_stack_batch(st[i : i + 1], tgt)[0][0])
                    others = [st[i, q] for q in range(j) if q != tgt]
                    for h in others:
                        assert np.linalg.norm(b @ h) <= 1e-9 * np.linalg.norm(h)
                    proj = dagger(b) @ np.linalg.solve(b @ dagger(b), b)
                    want = null_space_projector(np.concatenate(others, axis=-1)).matrix
                    assert np.allclose(proj, want, atol=1e-9)


class TestNoiseCovariances:
    def test_zero_b_gives_zero(self):
        zero_b = np.zeros((2, 4))
        assert not noise_cov_forwarded(np.ones((4, 4)), 1.0, 1.0, zero_b).any()
        assert not noise_cov_on_target(np.zeros((2, 2)), 1.0, np.ones(()), zero_b).any()

    def test_vanishing_power_leaves_destination_noise(self):
        rng = RngStream(10)
        b = _cn(rng, 2, 4)
        gt = _cn(rng, 4, 4)
        r = noise_cov_forwarded(gt, dstc_power_scale(1e-12, 2, 2), 1.0, b)
        assert np.allclose(r, b @ dagger(b), atol=1e-9)
        bh = b @ _cn(rng, 4, 2)
        assert np.array_equal(noise_cov_on_target(bh, 1.0, None, b), b @ dagger(b))

    def test_dstc_m2_exact_propagation(self):
        # Push unit noise through the real pipeline (relay transform,
        # downlink mixing, recombination, IC) and compare the resulting
        # covariance entrywise with the covariance stage.
        cfg = NetworkConfig(2, 2, 3, 4.0)
        rng = RngStream(11)
        F, G = _cn(rng, 2, 2), _cn(rng, 2, 3)
        design = dstc_design(2)
        c = dstc_power_scale(cfg.P, cfg.M, cfg.J)
        bmat = ic_stack_batch(dstc_channel_stacks(F, G)[None], 0)[0][0]
        mt, nt = 2 * design.T, cfg.N * design.T

        def linmap(e):
            v = e[:mt].reshape(2, design.T)
            w = e[mt:].reshape(cfg.N, design.T)
            raw = np.einsum("it,in->nt", c * apply_design(design, v), G) + w
            return bmat @ recombine(raw, design.T)

        r, pseudo = propagate_noise_cov(linmap, mt + nt, bmat.shape[0])
        expect = noise_cov_forwarded(gtilde(G), c, 1.0, bmat)
        assert np.allclose(r, expect, atol=1e-10)
        assert np.abs(pseudo).max() < 1e-10

    def test_dstc_m4_split_exact_propagation(self):
        # The 4-slot codeword splits into +/- systems whose noises double in
        # variance and decorrelate across splits.
        cfg = NetworkConfig(2, 4, 3, 2.5)
        rng = RngStream(12)
        F, G = _cn(rng, 4, 2), _cn(rng, 4, 3)
        design = dstc_design(4)
        c = dstc_power_scale(cfg.P, cfg.M, cfg.J)
        stacks = dstc_channel_stacks(F, G)[None]
        splits = split_slices(stacks)
        bmats = [ic_stack_batch(stacks[..., rows, cols], 0)[0][0] for rows, cols in splits]
        rows_out = bmats[0].shape[0]
        mt, nt = 4 * design.T, cfg.N * design.T

        def linmap(e):
            v = e[:mt].reshape(4, design.T)
            w = e[mt:].reshape(cfg.N, design.T)
            raw = np.einsum("it,in->nt", c * apply_design(design, v), G) + w
            rec = recombine(raw, design.T)
            return np.concatenate([b @ rec[rows] for b, (rows, _) in zip(bmats, splits)])

        r, _ = propagate_noise_cov(linmap, mt + nt, 2 * rows_out)
        gt = gtilde(G)
        rp, rm = (noise_cov_forwarded(gt, c, 2.0, b) for b in bmats)
        assert np.allclose(r[:rows_out, :rows_out], rp, atol=1e-10)
        assert np.allclose(r[rows_out:, rows_out:], rm, atol=1e-10)
        assert np.abs(r[:rows_out, rows_out:]).max() < 1e-10  # splits uncorrelated

    def test_tdma_exact_propagation(self):
        # The relay combines each source's slots by MRC and forwards them on
        # its antenna group.  Post-IC, only the target's forwarded combining
        # noise survives, with variance c1^2 / x on the target's channel.
        cfg = NetworkConfig(2, 4, 3, 3.0)
        rng = RngStream(13)
        F, G = _cn(rng, 4, 2), _cn(rng, 4, 3)
        design = dstc_design(cfg.M // cfg.J)
        c1 = tdma_power_scale(cfg.P, cfg.M)
        stacks = tdma_channel_stacks(G, cfg.J)
        bmat = ic_stack_batch(stacks[None], 0)[0][0]
        x = np.sum(np.abs(F) ** 2, axis=0)
        per_src = cfg.M * design.T
        nt = cfg.N * design.T

        def linmap(e):
            est = np.empty((1, cfg.J, design.T), dtype=complex)
            for j in range(cfg.J):
                v = e[j * per_src : (j + 1) * per_src].reshape(cfg.M, design.T)
                est[0, j] = np.einsum("i,it->t", np.conj(F[:, j]), v) / x[j]
            w = e[cfg.J * per_src :].reshape(cfg.N, design.T)
            t = relay_forward_groups(est, design, c1, cfg.M)[0]
            raw = np.einsum("it,in->nt", t, G) + w
            return bmat @ recombine(raw, design.T)

        r, _ = propagate_noise_cov(linmap, cfg.J * per_src + nt, bmat.shape[0])
        expect = noise_cov_on_target(bmat @ stacks[0], 1.0, np.array(c1 * c1 / x[0]), bmat)
        assert np.allclose(r, expect, atol=1e-10)

    def test_zero_uplink_raises(self):
        # The relay noise variance c1^2 / x has no value for x = 0; the
        # direct SNR, which builds this covariance for one draw, refuses it.
        rng = RngStream(13)
        f = _cn(rng, 4, 2)
        f[:, 0] = 0.0
        with pytest.raises(NumericError):
            snr_tdma_direct(ChannelRealization(f, _cn(rng, 4, 3)), NetworkConfig(2, 4, 3, 3.0))


class TestWhitenedDiagonality:
    def test_post_ic_gram_is_scaled_identity(self):
        rng = RngStream(14)
        cfg = NetworkConfig(2, 2, 3, 8.0)
        F, G = _cn(rng, 50, 2, 2), _cn(rng, 50, 2, 3)
        stacks = dstc_channel_stacks(F, G)
        bmat, _ = ic_stack_batch(stacks, 0)
        h = bmat @ stacks[:, 0]
        c = dstc_power_scale(cfg.P, cfg.M, cfg.J)
        q = dagger(h) @ solve_psd_stack(noise_cov_forwarded(gtilde(G), c, 1.0, bmat), h)
        scale = np.abs(q[:, 0, 0])
        assert np.all(np.abs(q[:, 0, 1]) < 1e-8 * scale)
        assert np.all(np.abs(q[:, 1, 0]) < 1e-8 * scale)
        assert np.all(np.abs(q[:, 0, 0] - q[:, 1, 1]) < 1e-8 * scale)


class TestMlDecode:
    def _system(self, seed, order, j=2, m=2, n=3, noise=0.0):
        """Post-IC system of source 0: each split's IC matrix applied to the
        noise-free (or lightly noisy) pipeline and to its pre-IC noise
        covariance, stacked block-diagonally across the splits."""
        cfg = NetworkConfig(j, m, n, 16.0)
        rng = RngStream(seed)
        F, G = _cn(rng, 1, m, j), _cn(rng, 1, m, n)
        design = dstc_design(m)
        c = make_psk(order)
        bits = rng.bits(1, j, design.T * c.bits_per_symbol)
        symbols = modulate(bits, c)
        if design.T == 4:
            symbols = symbols.copy()
            symbols[..., 2:] *= np.exp(1j * default_rotation(order))
        raw = _noiseless_dstc_raw(F, G, cfg, symbols)
        if noise:
            raw = raw + noise * _cn(rng, 1, n, design.T)
        obs = recombine(raw, design.T)
        stacks = dstc_channel_stacks(F, G)
        cdst = dstc_power_scale(cfg.P, cfg.M, cfg.J)
        r_split = noise_cov_forwarded(gtilde(G), cdst, 2.0 if design.T == 4 else 1.0)
        splits = split_slices(stacks)
        bmats = [ic_stack_batch(stacks[..., rows, cols], 0)[0][0] for rows, cols in splits]
        b = np.zeros((sum(bm.shape[0] for bm in bmats), stacks.shape[-2]), dtype=complex)
        r_pre = np.zeros((stacks.shape[-2],) * 2, dtype=complex)
        k = 0
        for bm, (rows, _) in zip(bmats, splits):
            b[k : k + bm.shape[0], rows] = bm
            r_pre[rows, rows] = r_split[0]
            k += bm.shape[0]
        post = (b @ obs[0], b @ stacks[0, 0], b @ r_pre @ dagger(b))
        return post, math.sqrt(cfg.P) * cdst, symbol_spec(design.T), c, bits[0, 0]

    @pytest.mark.parametrize("order,m", [(2, 2), (4, 2), (8, 2), (2, 4), (4, 4)])
    def test_noiseless_exact(self, order, m):
        (obs, h, r), scale, spec, c, bits = self._system(20 + order + m, order, m=m, n=4 if m == 4 else 3)
        idx = ml_decode_batch(obs[None], h[None], r[None], scale, spec, c)[0]
        assert np.array_equal(c.labels[idx].reshape(-1), bits)

    def test_metric_invariance_under_scaling(self):
        (obs, h, r), scale, spec, c, _ = self._system(30, 4, noise=0.5)
        idx = ml_decode_batch(obs[None], h[None], r[None], scale, spec, c)
        alpha = 2.7
        idx2 = ml_decode_batch(
            alpha * obs[None], alpha * h[None], alpha * alpha * r[None], scale, spec, c
        )
        assert np.array_equal(idx, idx2)

    def test_tie_breaks_to_lowest_index(self):
        c = make_psk(2)
        spec = symbol_spec(1)
        idx = ml_decode_batch(
            np.zeros((1, 1)), np.ones((1, 1, 1)), np.eye(1)[None], 1.0, spec, c
        )
        assert idx[0, 0] == 0

    def test_coupled_fallback_matches_brute_force(self):
        # A random dense channel couples every symbol with every other; the
        # joint decoder, which the coupled concurrent_joint systems take,
        # must match a brute-force search of the unwhitened distance.
        rng = RngStream(31)
        c = make_psk(2)
        spec = symbol_spec(4)
        h = _cn(rng, 3, 6, 4)
        r = np.broadcast_to(np.eye(6), (3, 6, 6)).copy()
        consts = [c.rotated(default_rotation(2)) if f else c for f in spec.rotated]
        for trial in range(3):
            true = np.array([0, 1, 1, 0])
            sv = spec.build(np.array([consts[k].points[true[k]] for k in range(4)]))
            obs = h[trial] @ sv + 0.3 * _cn(rng, 6)
            got = joint_ml_decode_batch(obs[None], h[trial][None], r[:1], 1.0, spec, c)[0]
            best, best_m = None, np.inf
            for combo in itertools.product(range(2), repeat=4):
                cand = spec.build(
                    np.array([consts[k].points[combo[k]] for k in range(4)])
                )
                metric = np.linalg.norm(obs - h[trial] @ cand) ** 2
                if metric < best_m - 1e-12:
                    best_m, best = metric, combo
            assert tuple(got) == best


    @staticmethod
    def _coupled_pairs_system(rng, order, n):
        """n T = 4 systems whose pair components {s1, s4} and {s2, s3} are
        coupled internally (q is not diagonal within a pair) and exactly
        decoupled from each other: each pair's columns and noise live on
        their own rows.  Returns (obs, h, r, spec, const, true indices)."""
        c, spec = make_psk(order), symbol_spec(4)
        h = np.zeros((n, 8, 4), dtype=complex)
        h[:, :4][..., [0, 2]] = _cn(rng, n, 4, 2)
        h[:, 4:][..., [1, 3]] = _cn(rng, n, 4, 2)
        a = _cn(rng, n, 8, 8)
        a[:, :4, 4:] = 0
        a[:, 4:, :4] = 0
        r = a @ dagger(a) + 0.5 * np.eye(8)
        consts = [c.rotated(default_rotation(order)) if f else c for f in spec.rotated]
        true = np.array([[(3 * i + k) % order for k in range(4)] for i in range(n)])
        sym = np.stack([consts[k].points[true[:, k]] for k in range(4)], axis=-1)
        noise = np.linalg.cholesky(r) @ _cn(rng, n, 8)[..., None]
        obs = h @ spec.build(sym)[..., None] + 0.8 * noise
        return obs[..., 0], h, r, spec, c, true

    @staticmethod
    def _exhaustive(obs, h, r, scale, spec, c):
        """argmin over every symbol tuple of the whitened distance
        ||L^-1 (obs - scale h sv)||^2 with r = L L*, ties to the lowest
        lexicographic tuple."""
        consts = [c.rotated(default_rotation(c.order)) if f else c for f in spec.rotated]
        combos = np.array(list(itertools.product(range(c.order), repeat=spec.n_symbols)))
        sv = spec.build(np.stack([consts[k].points[combos[:, k]] for k in range(spec.n_symbols)], -1))
        low = np.linalg.cholesky(r)
        resid = np.linalg.solve(low, obs) - scale * sv @ np.linalg.solve(low, h).T
        return combos[np.argmin(np.sum(np.abs(resid) ** 2, axis=-1))]

    @pytest.mark.parametrize("order", [4, 16])
    def test_coupled_pairs_match_exhaustive(self, order):
        # 16-PSK gives 256 candidates per pair, the full_tdma_dstc path.
        obs, h, r, spec, c, true = self._coupled_pairs_system(RngStream(32, order), order, 5)
        q = dagger(h) @ np.linalg.solve(r, h)
        assert np.all(np.abs(q[:, 0, 2]) > 1e-3)  # coupled within a pair
        assert np.all(q[:, [0, 2]][..., [1, 3]] == 0)  # not across pairs
        got = ml_decode_batch(obs, h, r, 1.0, spec, c)
        for i in range(len(obs)):
            assert np.array_equal(got[i], self._exhaustive(obs[i], h[i], r[i], 1.0, spec, c))
        assert not np.array_equal(got, true)  # the noise makes some decisions wrong

    def test_one_solve_per_call(self, monkeypatch):
        from marnsim import rx_ic

        calls = []

        def counted(a, b):
            calls.append(np.shape(b))
            return solve_psd_stack(a, b)

        monkeypatch.setattr(rx_ic, "solve_psd_stack", counted)
        obs, h, r, spec, c, _ = self._coupled_pairs_system(RngStream(33), 4, 3)
        rx_ic.ml_decode_batch(obs, h, r, 1.0, spec, c)
        assert calls == [(3, 8, 5)]  # right-hand side [h | obs]


def _capture(monkeypatch, name, scheme, cfg3, order, trials=64):
    """Every (obs, h, r, scale, spec, const) that the kernel of ``scheme``
    hands to ``schemes.<name>`` on one fixed-seed batch at P = 10."""
    from marnsim import schemes

    calls, orig = [], getattr(schemes, name)

    def record(*args):
        calls.append(args)
        return orig(*args)

    with monkeypatch.context() as mp:
        mp.setattr(schemes, name, record)
        simulate_batch(scheme, NetworkConfig(*cfg3, 10.0), make_psk(order), RngStream(43, order), trials)
    assert calls
    return calls


class TestJointMlDecode:
    @pytest.mark.parametrize("cfg3,order", [((2, 2, 3), 4), ((2, 4, 3), 2)])
    def test_kernel_systems_match_exhaustive(self, monkeypatch, cfg3, order):
        # The concurrent_joint systems couple the sources' symbols, so only
        # a search over every symbol tuple of all sources is ML.
        (obs, h, r, scale, spec, c), = _capture(
            monkeypatch, "joint_ml_decode_batch", SchemeId.ConcurrentJoint, cfg3, order
        )
        got = joint_ml_decode_batch(obs, h, r, scale, spec, c)
        for i in range(len(obs)):
            want = TestMlDecode._exhaustive(obs[i], h[i], r[i], scale, spec, c)
            assert np.array_equal(got[i], want)
        # The component-wise search ignores the coupling and decides otherwise.
        assert not np.array_equal(ml_decode_batch(obs, h, r, scale, spec, c), got)

    def test_never_takes_component_search(self, monkeypatch):
        from marnsim import schemes

        def refuse(*args):
            raise AssertionError("concurrent_joint ran the component-wise search")

        monkeypatch.setattr(schemes, "ml_decode_batch", refuse)
        for cfg3 in [(1, 2, 3), (2, 2, 3), (2, 4, 3)]:
            simulate_batch(SchemeId.ConcurrentJoint, NetworkConfig(*cfg3, 10.0), make_psk(2), RngStream(44), 16)

    def test_noiseless_recovery(self):
        cfg = NetworkConfig(2, 2, 2, 1e12)
        errors, bad = simulate_batch(SchemeId.ConcurrentJoint, cfg, make_psk(2), RngStream(40), 200)
        assert errors[~bad].sum() == 0

    def test_j1_reduces_to_ml_decode(self):
        # With one source there is nothing to cancel or to search jointly:
        # the joint receiver makes exactly the per-source decisions of the
        # IC receiver on the same stream.
        for cfg3 in [(1, 2, 2), (1, 2, 3), (1, 4, 3), (1, 3, 2)]:
            for order in (2, 4):
                cfg = NetworkConfig(*cfg3, 10.0)
                const = make_psk(order)
                e_joint, b_joint = simulate_batch(
                    SchemeId.ConcurrentJoint, cfg, const, RngStream(41, order), 512
                )
                e_ic, b_ic = simulate_batch(SchemeId.DstcIcRec, cfg, const, RngStream(41, order), 512)
                assert np.array_equal(e_joint, e_ic) and np.array_equal(b_joint, b_ic)
                assert e_ic.sum() > 0  # the comparison sees decisions that can differ

    def test_search_space_guard(self):
        cfg = NetworkConfig(3, 4, 3, 1.0)
        with pytest.raises(UsageError):
            simulate_batch(SchemeId.ConcurrentJoint, cfg, make_psk(4), RngStream(42), 1)


class TestComponentDecoupling:
    @pytest.mark.parametrize("scheme", [s for s in SchemeId if s is not SchemeId.ConcurrentJoint])
    def test_kernel_systems_decouple(self, monkeypatch, scheme):
        # ml_decode_batch searches each symbol component on its own, which
        # is ML only when the whitened Gram couples no two entries of
        # different components (entries that share no symbol).
        for cfg3 in [(1, 4, 3), (2, 2, 3), (2, 4, 3), (3, 4, 3), (3, 3, 4)]:
            for obs, h, r, scale, spec, c in _capture(monkeypatch, "ml_decode_batch", scheme, cfg3, 4):
                syms = [{idx for idx, _, _ in terms} for terms in spec.entries]
                cross = np.array([[not (a & b) for b in syms] for a in syms])
                q = dagger(h) @ np.linalg.solve(r, h)
                d = np.sqrt(np.einsum("...ii->...i", q).real)
                assert np.all(np.abs(q)[:, cross] <= 1e-10 * (d[:, :, None] * d[:, None, :])[:, cross])


class TestEquivalentSystemValidation:
    def test_dimension_mismatch_rejected(self):
        # An (obs, H, R) system whose dimensions disagree is refused, not
        # broadcast.
        with pytest.raises(ValueError):
            ml_decode_batch(
                np.zeros((1, 3)), np.zeros((1, 2, 2)), np.eye(2)[None], 1.0, symbol_spec(2), make_psk(2)
            )
