"""Unit tests for destination-side processing: recombination, channel
stacks, zero-forcing IC, the noise-covariance stages, and ML decoding.

The pipelines here are assembled from the same relay and covariance
stages that the scheme kernels run; a single system is a batch of one.
"""

import itertools
import math

import numpy as np
import pytest

from marnsim.airlink import NetworkConfig, RngStream, draw_channels_batch, make_psk, modulate
from marnsim.numerics import NumericError, UsageError, dagger, null_space_projector, solve_psd_stack
from marnsim.relay_codec import apply_design, dstc_design, dstc_power_scale, tdma_power_scale
from marnsim.rx_ic import (
    default_rotation,
    dstc_channel_stacks,
    forwarded_inverse,
    gram_pairs,
    gtilde,
    ic_stack_batch,
    joint_search,
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
from marnsim.schemes import SchemeId, post_ic_snr, relay_forward_groups, simulate_batch
from gram_oracle import (
    block_diag,
    component_search,
    dense_obs,
    forwarded_core,
    gram_system,
    interleave,
    noise_cov_on_target,
    obs_pairs,
    schur_ic,
)
from propagation import propagate_noise_cov


def _cn(rng, *shape):
    return rng.complex_normal(*shape)


def _noiseless_dstc_raw(F, G, cfg, symbols):
    """Uplink -> concurrent relay transform -> downlink with noise off.

    F (n, M, J), G (n, M, N), ``symbols`` (n, J, T); returns the (N, T, n)
    destination samples, batch axis last as the relay stages take it.
    """
    design = dstc_design(cfg.M)
    received = math.sqrt(cfg.P) * np.einsum("nmj,njt->mtn", F, symbols)
    t = dstc_power_scale(cfg.P, cfg.M, cfg.J) * apply_design(design, received)
    return np.einsum("mtn,nmo->otn", t, G)


def _noiseless_tdma_raw(G, cfg, symbols):
    """Noise-free TDMA uplink estimates forwarded on antenna groups."""
    design = dstc_design(cfg.M // cfg.J)
    c1 = tdma_power_scale(cfg.P, cfg.M)
    t = relay_forward_groups(math.sqrt(cfg.P) * np.moveaxis(symbols, 0, -1), design, c1, cfg.M)
    return np.einsum("mtn,nmo->otn", t, G)


def _splits(pairs, T):
    """The dense view of each split of channel ``pairs`` of a T-slot
    block, with the rows of the recombined observation it explains."""
    splits = pair_blocks(pairs, T)
    k = splits[0].shape[-2]
    return [(h, slice(s * k, (s + 1) * k)) for s, h in enumerate(splits)]


def _source_channel(splits, q):
    """Source q's channel over every split: its split blocks on the
    diagonal, against the whole recombined observation."""
    return block_diag(*(h[..., q, :, :] for h, _ in splits))


def _check_noiseless(obs, pairs, T, symbols, scale):
    """obs = sum_q scale * H_q s_q, and per split IC leaves the target alone."""
    spec = symbol_spec(T)
    splits = _splits(pairs, T)
    terms = [
        scale * np.einsum("nrk,nk->nr", _source_channel(splits, q), spec.build(symbols[:, q]))
        for q in range(symbols.shape[1])
    ]
    assert np.allclose(obs, sum(terms), atol=1e-10)
    for split, rows in splits:
        for tgt in range(symbols.shape[1]):
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
        assert np.allclose(dense_obs(obs, t), expect, atol=1e-14)
        assert t > 1 or not obs[:, 1].any()  # v = 0 for a single slot
        # Batch axes last: each trial of a batch is its batch of one.
        batch = _cn(rng, n, t, 5)
        assert np.array_equal(recombine(batch, t)[..., 3], recombine(batch[..., 3], t))

    def test_t4_first_entry_is_slot_sum(self):
        raw = np.arange(8, dtype=complex).reshape(2, 4)
        obs = recombine(raw, 4)
        assert obs[0, 0, 0] == raw[0, 0] + raw[0, 3]
        # the minus split is the second pair
        assert obs[1, 0, 0] == raw[0, 0] - raw[0, 3]

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
        obs = dense_obs(recombine(_noiseless_dstc_raw(F, G, cfg, symbols), design.T), design.T)
        c = dstc_power_scale(cfg.P, cfg.M, cfg.J)
        _check_noiseless(obs, dstc_channel_stacks(F, G), design.T, symbols, math.sqrt(cfg.P) * c)
        _assert_psd(noise_cov_forwarded(gtilde(G), c, 2.0 if design.T == 4 else 1.0)[0])

    @pytest.mark.parametrize("j,m,n", [(2, 2, 2), (2, 4, 3), (1, 4, 2), (2, 8, 3), (3, 6, 4)])
    def test_noiseless_tdma_pipeline(self, j, m, n):
        cfg = NetworkConfig(j, m, n, 2.2)
        rng = RngStream(2, j * 16 + m)
        G = _cn(rng, 1, m, n)
        design = dstc_design(m // j)
        symbols = _cn(rng, 1, j, design.T)
        obs = dense_obs(recombine(_noiseless_tdma_raw(G, cfg, symbols), design.T), design.T)
        scale = math.sqrt(cfg.P) * tdma_power_scale(cfg.P, cfg.M)
        _check_noiseless(obs, tdma_channel_stacks(G, j), design.T, symbols, scale)

    def test_alamouti_block_property(self):
        # H_n* H_n = (|f1 g1n|^2 + |f2 g2n|^2) I for the 2-antenna relay.
        rng = RngStream(3)
        f, g = _cn(rng, 2, 1), _cn(rng, 2, 3)
        [stacks] = pair_blocks(dstc_channel_stacks(f, g), 2)
        for n in range(3):
            h = stacks[0, 2 * n : 2 * n + 2]
            q = dagger(h) @ h
            lam = abs(f[0, 0] * g[0, n]) ** 2 + abs(f[1, 0] * g[1, n]) ** 2
            assert np.allclose(q, lam * np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("gs", [2, 3, 4])
    @pytest.mark.parametrize("J", [1, 2])
    def test_tdma_stacks_are_dstc_stacks_of_unit_uplinks(self, J, gs):
        # Both builders share one layout: source j's TDMA pairs are the
        # concurrent-uplink pairs of one source whose uplink gains are
        # all 1, relayed by j's antenna group (with J = 2, the last of the
        # 2 gs + 1 antennas stays idle).
        n = 50
        G = _cn(RngStream(12, 10 * J + gs), n, J * gs + J - 1, 3)
        tdma = tdma_channel_stacks(G, J)
        for j in range(J):
            dstc = dstc_channel_stacks(np.ones((n, gs, 1)), G[:, j * gs : (j + 1) * gs])
            assert np.array_equal(tdma[..., j, :], dstc[..., 0, :])

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
        [stacks] = pair_blocks(dstc_channel_stacks(_cn(rng, 1, 2, 2), _cn(rng, 1, 2, 2)), 2)
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
        [stacks] = pair_blocks(dstc_channel_stacks(_cn(rng, 1, 2, 3), _cn(rng, 1, 2, 4)), 2)
        bmat, _ = ic_stack_batch(stacks, 0)
        assert bmat.shape == (1, 4, 8)  # (N - J + 1) t rows
        for q in (1, 2):
            assert np.linalg.norm(bmat[0] @ stacks[0, q]) <= 1e-9 * np.linalg.norm(stacks[0, q])

    def test_iterative_j_equals_n(self):
        rng = RngStream(8)
        [stacks] = pair_blocks(dstc_channel_stacks(_cn(rng, 1, 2, 3), _cn(rng, 1, 2, 3)), 2)
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
        if kind == "dstc":
            pairs, T = dstc_channel_stacks(f, g), dstc_design(m).T
        else:
            pairs, T = tdma_channel_stacks(g, j), dstc_design(m // j).T
        for st, _ in _splits(pairs, T):
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
                    want = null_space_projector(np.concatenate(others, axis=-1))
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
        bmat = ic_stack_batch(pair_blocks(dstc_channel_stacks(F[None], G[None]), 2)[0], 0)[0][0]
        mt, nt = 2 * design.T, cfg.N * design.T

        def linmap(e):
            v = e[:mt].reshape(2, design.T)
            w = e[mt:].reshape(cfg.N, design.T)
            raw = np.einsum("it,in->nt", c * apply_design(design, v), G) + w
            return bmat @ dense_obs(recombine(raw, design.T), design.T)

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
        splits = _splits(dstc_channel_stacks(F[None], G[None]), design.T)
        bmats = [ic_stack_batch(split, 0)[0][0] for split, _ in splits]
        rows_out = bmats[0].shape[0]
        mt, nt = 4 * design.T, cfg.N * design.T

        def linmap(e):
            v = e[:mt].reshape(4, design.T)
            w = e[mt:].reshape(cfg.N, design.T)
            raw = np.einsum("it,in->nt", c * apply_design(design, v), G) + w
            rec = dense_obs(recombine(raw, design.T), design.T)
            return np.concatenate([b @ rec[rows] for b, (_, rows) in zip(bmats, splits)])

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
        [stacks] = pair_blocks(tdma_channel_stacks(G[None], cfg.J), design.T)
        bmat = ic_stack_batch(stacks, 0)[0][0]
        x = np.sum(np.abs(F) ** 2, axis=0)
        per_src = cfg.M * design.T
        nt = cfg.N * design.T

        def linmap(e):
            est = np.empty((cfg.J, design.T), dtype=complex)
            for j in range(cfg.J):
                v = e[j * per_src : (j + 1) * per_src].reshape(cfg.M, design.T)
                est[j] = np.einsum("i,it->t", np.conj(F[:, j]), v) / x[j]
            w = e[cfg.J * per_src :].reshape(cfg.N, design.T)
            t = relay_forward_groups(est, design, c1, cfg.M)
            raw = np.einsum("it,in->nt", t, G) + w
            return bmat @ dense_obs(recombine(raw, design.T), design.T)

        r, _ = propagate_noise_cov(linmap, cfg.J * per_src + nt, bmat.shape[0])
        expect = noise_cov_on_target(bmat @ stacks[0, 0], 1.0, np.array(c1 * c1 / x[0]), bmat)
        assert np.allclose(r, expect, atol=1e-10)

    def test_zero_uplink_raises(self):
        # The relay noise variance c1^2 / x has no value for x = 0; the
        # post-IC SNR, which builds this covariance for one draw, refuses it.
        rng = RngStream(13)
        f = _cn(rng, 4, 2)
        f[:, 0] = 0.0
        with pytest.raises(NumericError):
            post_ic_snr(SchemeId.TdmaIcRec, f[None], _cn(rng, 4, 3)[None], NetworkConfig(2, 4, 3, 3.0))


class TestWhitenedDiagonality:
    def test_post_ic_gram_is_scaled_identity(self):
        rng = RngStream(14)
        cfg = NetworkConfig(2, 2, 3, 8.0)
        F, G = _cn(rng, 50, 2, 2), _cn(rng, 50, 2, 3)
        [stacks] = pair_blocks(dstc_channel_stacks(F, G), 2)
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
            raw = raw + noise * np.moveaxis(_cn(rng, 1, n, design.T), 0, -1)
        obs = dense_obs(recombine(raw, design.T), design.T)
        cdst = dstc_power_scale(cfg.P, cfg.M, cfg.J)
        r_split = noise_cov_forwarded(gtilde(G), cdst, 2.0 if design.T == 4 else 1.0)
        splits = _splits(dstc_channel_stacks(F, G), design.T)
        bmats = [ic_stack_batch(split, 0)[0][0] for split, _ in splits]
        b = np.zeros((sum(bm.shape[0] for bm in bmats), obs.shape[-1]), dtype=complex)
        r_pre = np.zeros((obs.shape[-1],) * 2, dtype=complex)
        k = 0
        for bm, (_, rows) in zip(bmats, splits):
            b[k : k + bm.shape[0], rows] = bm
            r_pre[rows, rows] = r_split[0]
            k += bm.shape[0]
        post = (b @ obs[0], b @ _source_channel(splits, 0)[0], b @ r_pre @ dagger(b))
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
            got = joint_search(*whiten(obs[None], h[trial][None], r[:1], 1.0), spec, c)[0]
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
        # At 16-PSK the search scores 65,536 symbol tuples per system.
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
    """Every argument tuple that the kernel of ``scheme`` hands to
    ``schemes.<name>`` on one fixed-seed batch at P = 10."""
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
        # a search over every symbol tuple of all sources is ML.  The search
        # input is the whitening of the explicit dense system rebuilt from
        # the joint receiver's arguments: each source's channel over every
        # split of the pairs' dense view, and per split the R0 whose inverse
        # has the pair blocks Q(x, 0) of r0_inv.
        (pairs, T, obs, r0_inv, scale, c, _), = _capture(
            monkeypatch, "_joint_decode", SchemeId.ConcurrentJoint, cfg3, order
        )
        (w, q, spec, _), = _capture(monkeypatch, "joint_search", SchemeId.ConcurrentJoint, cfg3, order)
        splits = _splits(pairs, T)
        obs = dense_obs(obs, T)
        h = np.concatenate([_source_channel(splits, j) for j in range(pairs.shape[-2])], axis=-1)
        r = block_diag(*[np.linalg.inv(interleave(np.moveaxis(r0_inv, -1, 0)))] * len(splits))
        want_w, want_q = whiten(obs, h, r, scale)
        assert _rel_err(w, want_w) < 1e-10 and _rel_err(q, want_q) < 1e-10
        got = joint_search(w, q, spec, c)
        for i in range(len(obs)):
            want = TestMlDecode._exhaustive(obs[i], h[i], r[i], scale, spec, c)
            assert np.array_equal(got[i], want)
        # The component-wise search ignores the coupling and decides otherwise.
        assert not np.array_equal(component_search(w, q, spec, c), got)

    def test_never_takes_component_search(self, monkeypatch):
        from marnsim import schemes

        def refuse(*args):
            raise AssertionError("ran a component-wise decision")

        monkeypatch.setattr(schemes, "psk_slicer", refuse)
        for cfg3 in [(1, 2, 3), (2, 2, 3), (2, 4, 3)]:
            simulate_batch(SchemeId.ConcurrentJoint, NetworkConfig(*cfg3, 10.0), make_psk(2), RngStream(44), 16)
        # The refusal is live: the IC receiver on the same cell reaches the slicer.
        with pytest.raises(AssertionError, match="component-wise"):
            simulate_batch(SchemeId.DstcIcRec, NetworkConfig(1, 2, 3, 10.0), make_psk(2), RngStream(44), 16)

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


_TAIL_CONFIGS = [(1, 4, 3), (2, 2, 3), (2, 4, 3), (3, 4, 3), (3, 3, 4)]


def _explicit_system(ch_s, obs_s, r0, target, sigma=None):
    """The post-IC split system (obs, h, R) of ``target`` built the
    explicit way: the IC matrix B of ``ic_stack_batch`` applied to the
    observation, the channel and the covariance r0 before IC, plus the
    target's own noise sigma (B h)(B h)*."""
    b, _ = ic_stack_batch(ch_s, target)
    h = b @ ch_s[:, target]
    r = b @ r0 @ dagger(b)
    if sigma is not None:
        r = r + sigma[:, None, None] * (h @ dagger(h))
    return np.einsum("nrk,nk->nr", b, obs_s), h, r


def _capture_tail(monkeypatch, scheme, cfg3, order, trials=64, refuse=()):
    """Per slicer call of the decode tail of ``scheme``'s kernel on one
    fixed-seed batch at P = 10: the target's split systems rebuilt the
    explicit way from the tail's arguments and assembled into one
    (obs, h, R, scale), the slicer's (w, gamma, const) and its
    decisions.  Each (owner, name) of ``refuse`` raises while the
    kernel runs."""
    from marnsim import schemes

    tails, slices = [], []

    def record(store, orig):
        def wrapped(*args):
            out = orig(*args)
            store.append((args, out))
            return out

        return wrapped

    def refused(*args):
        raise AssertionError("refused stage on the kernel path")

    with monkeypatch.context() as mp:
        for owner, name in refuse:
            mp.setattr(owner, name, refused)
        mp.setattr(schemes, "_decode", record(tails, schemes._decode))
        mp.setattr(schemes, "psk_slicer", record(slices, schemes.psk_slicer))
        simulate_batch(scheme, NetworkConfig(*cfg3, 10.0), make_psk(order), RngStream(43, order), trials)
    systems = []
    for (pairs, T, obs, r0_inv, scale, _, _, *sigma), _ in tails:
        sigma = sigma[0] if sigma else None
        obs = dense_obs(obs, T)
        for j in range(pairs.shape[-2]):
            splits = []
            for split, rows in _splits(pairs, T):
                o = obs[..., rows]
                # R0 is the inverse of interleave(x) of the (K, K, n) x, or a multiple of the identity
                if np.ndim(r0_inv):
                    r0 = np.linalg.inv(interleave(np.moveaxis(r0_inv, -1, 0)))
                else:
                    r0 = np.eye(o.shape[-1]) / r0_inv
                s_j = None if sigma is None else sigma[:, j]
                splits.append(_explicit_system(split, o, r0, j, s_j))
            o, h, r = zip(*splits)
            assembled = (np.concatenate(o, axis=-1), block_diag(*h), block_diag(*r), scale)
            args, out = slices[len(systems)]
            systems.append((assembled, args, out))
    assert systems and len(systems) == len(slices)
    return systems


def _split_grams(gamma, e):
    """(n, E, E) block diagonal of gamma_s I over the S splits of E
    entries, from gamma (S, n): the Gram the slicer assumes."""
    return np.eye(e) * np.repeat(gamma, e // len(gamma), axis=0).T[:, None, :]


class TestComponentDecoupling:
    @pytest.mark.parametrize("scheme", [s for s in SchemeId if s is not SchemeId.ConcurrentJoint])
    def test_kernel_systems_decouple(self, monkeypatch, scheme):
        # Component-wise decisions are ML only when the whitened Gram of
        # the explicit post-IC systems couples no two entries of different
        # components (entries that share no symbol).
        for cfg3 in _TAIL_CONFIGS:
            for (obs, h, r, scale), (w, _, _), _ in _capture_tail(monkeypatch, scheme, cfg3, 4):
                spec = symbol_spec(len(w))
                q = whiten(obs, h, r, scale)[1]
                syms = [{idx for idx, _, _ in terms} for terms in spec.entries]
                cross = np.array([[not (a & b) for b in syms] for a in syms])
                d = np.sqrt(np.einsum("...ii->...i", q).real)
                assert np.all(np.abs(q)[:, cross] <= 1e-10 * (d[:, :, None] * d[:, None, :])[:, cross])


class TestKernelSplitSystems:
    @pytest.mark.parametrize("scheme", [s for s in SchemeId if s is not SchemeId.ConcurrentJoint])
    def test_decisions_match_exhaustive(self, monkeypatch, scheme):
        # Each slicer call decides what an exhaustive whitened search over
        # every symbol tuple decides on the explicit post-IC split systems
        # of the decode tail's arguments, stacked block-diagonally.
        for cfg3 in _TAIL_CONFIGS:
            for (obs, h, r, scale), (w, _, c), got in _capture_tail(monkeypatch, scheme, cfg3, 4):
                spec = symbol_spec(len(w))
                for i in range(0, len(obs), 4):
                    want = TestMlDecode._exhaustive(obs[i], h[i], r[i], scale, spec, c)
                    assert np.array_equal(got[i], want)

    @pytest.mark.parametrize("scheme", [s for s in SchemeId if s is not SchemeId.ConcurrentJoint])
    def test_search_input_matches_explicit_ic(self, monkeypatch, scheme):
        # The (w, gamma) each slicer call receives is the generic whitening
        # of the same explicit post-IC systems, whose Gram is gamma_s I per
        # split; the kernel reaches no solve.
        from marnsim import rx_ic

        refuse = [(rx_ic, "solve_psd_stack")]
        for cfg3 in _TAIL_CONFIGS:
            for (obs, h, r, scale), (w, g, _), _ in _capture_tail(monkeypatch, scheme, cfg3, 4, refuse=refuse):
                want = whiten(obs, h, r, scale)
                assert _rel_err(w.T, want[0]) < 1e-10
                assert _rel_err(_split_grams(g, len(w)), want[1]) < 1e-10

    @pytest.mark.parametrize("cfg3", [(2, 2, 3), (2, 4, 3), (3, 4, 3), (3, 3, 4)])
    def test_kernels_build_no_ic_matrix(self, monkeypatch, cfg3):
        # Every kernel decodes from each split's Gram system in pair
        # arithmetic, IC being its Schur complement: none builds dense
        # channel blocks, a dense noise covariance, an IC matrix or a
        # post-IC covariance, whitens one, or solves or inverts a matrix
        # system.  A name that ``schemes`` does not import is refused there
        # too, in case a kernel imports it.
        from marnsim import analysis, rx_ic, schemes

        def refuse(*args):
            raise AssertionError("explicit IC stage on the kernel path")

        for owner, name in [
            (schemes, "pair_blocks"),
            (rx_ic, "pair_blocks"),
            (schemes, "gtilde"),
            (rx_ic, "gtilde"),
            (schemes, "noise_cov_forwarded"),
            (rx_ic, "noise_cov_forwarded"),
            (schemes, "ic_stack_batch"),
            (rx_ic, "ic_stack_batch"),
            (schemes, "whiten"),
            (rx_ic, "whiten"),
            (rx_ic, "solve_psd_stack"),
            (np.linalg, "solve"),
            (np.linalg, "inv"),
        ]:
            monkeypatch.setattr(owner, name, refuse, raising=owner is not schemes)
        cfg = NetworkConfig(*cfg3, 10.0)
        for scheme in SchemeId:
            order = 2 if scheme is SchemeId.ConcurrentJoint else 4  # the joint search at J = 3 fits at BPSK only
            simulate_batch(scheme, cfg, make_psk(order), RngStream(46), 32)
        # The refusal is live: the closed-form SNR whitens an explicit post-IC system.
        cfg = NetworkConfig(2, 2, 3, 10.0)
        with pytest.raises(AssertionError, match="explicit IC"):
            analysis.snr_dstc_batch(*draw_channels_batch(cfg, RngStream(46), 8), cfg)

    @pytest.mark.parametrize(
        "scheme,cfg3",
        [
            (SchemeId.IcRelayTdma, (2, 4, 3)),
            (SchemeId.IcRelayTdma, (3, 3, 4)),
            (SchemeId.FullTdmaDstc, (2, 4, 3)),
            (SchemeId.FullTdmaDstc, (2, 2, 3)),
            (SchemeId.DstcIcRec, (1, 4, 3)),
            (SchemeId.TdmaIcRec, (1, 4, 3)),
            (SchemeId.DecodeRelayIcDest, (1, 2, 3)),
        ],
    )
    def test_no_ic_systems_take_no_solve(self, monkeypatch, scheme, cfg3):
        from marnsim import rx_ic

        def refuse(*args):
            raise AssertionError("solve_psd_stack on a system without IC")

        monkeypatch.setattr(rx_ic, "solve_psd_stack", refuse)
        simulate_batch(scheme, NetworkConfig(*cfg3, 10.0), make_psk(4), RngStream(45), 32)

    @pytest.mark.parametrize(
        "scheme", [SchemeId.DstcIcRec, SchemeId.TdmaIcRec, SchemeId.IcRelayTdma, SchemeId.FullTdmaDstc]
    )
    def test_post_ic_snr_matches_kernel_slicer(self, monkeypatch, scheme):
        # On the kernel's own draws, post_ic_snr of each source is the gamma
        # the kernel's slicer receives for it, divided by scale^2 and summed
        # over the splits.  The slicer sees the sources in order, group by
        # group.
        from marnsim import schemes

        for cfg3 in _TAIL_CONFIGS:
            draws = []
            orig = schemes._draw_trials
            monkeypatch.setattr(schemes, "_draw_trials", lambda *a: draws.append(orig(*a)) or draws[-1])
            (_, _, _, _, scale, *_), *_ = _capture(monkeypatch, "_decode", scheme, cfg3, 4)
            slices = _capture(monkeypatch, "psk_slicer", scheme, cfg3, 4)
            monkeypatch.undo()
            (F, G, _, _), _ = draws  # one batch per captured run
            assert len(slices) == cfg3[0]
            for j, (_, g, _) in enumerate(slices):
                got = post_ic_snr(scheme, F, G, NetworkConfig(*cfg3, 10.0), j)
                assert np.all(np.abs(got - g.sum(axis=0) / scale**2) <= 1e-12 * got)


def _rel_err(got, want):
    """Largest per-system error of ``got`` relative to the largest entry of
    ``want`` in the same system."""
    axes = tuple(range(1, np.ndim(want)))
    return np.max(np.max(np.abs(got - want), axis=axes) / np.max(np.abs(want), axis=axes))


def _pair_ic(split, obs, r0_inv, target, T, sigma=None):
    """The pair stages' whitened system of ``target`` in one split of the
    recombined observation ``obs`` (n, K t), laid out as ``whiten``'s:
    w (n, E) and q = gamma I (n, E, E)."""
    w, g = schur_pairs(*gram_pairs(split, obs_pairs(obs, min(T, 2)), r0_inv), target, T, sigma)
    return w.T, _split_grams(g[None], len(w))


class TestForwardedInverse:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_lapack_inverse(self, n, m):
        # The elementwise elimination against the LAPACK inverse of the
        # dense A.  At large c, A = c^2 G^T conj(G) + I is ill-conditioned
        # (cond up to 2e7 here, where LAPACK's own residual reaches 2e-9),
        # so both errors are measured in units of that conditioning: the
        # relative difference against cond(A) and the residual against
        # ||A|| ||kappa x||, the error bounds of any backward-stable inverse.
        rng = RngStream(59, 10 * n + m)
        for kappa in (1.0, 2.0):
            for c in (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3):
                G = _cn(rng, 50, m, n)
                a = forwarded_core(G, c)
                want = np.linalg.inv(a) / kappa
                x = np.moveaxis(forwarded_inverse(np.moveaxis(G, 0, -1), c, kappa), -1, 0)
                rel = np.linalg.norm(x - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
                assert np.all(rel <= 1e-13 * np.linalg.cond(a))
                resid = np.linalg.norm(kappa * a @ x - np.eye(n), axis=(1, 2))
                bound = np.linalg.norm(a, 2, axis=(1, 2)) * np.linalg.norm(kappa * x, 2, axis=(1, 2))
                assert np.all(resid <= 1e-13 * bound)

    def test_batch_of_one_and_no_batch(self):
        # One system is a batch of one, and a bare (M, N) g is one system.
        G = _cn(RngStream(60), 5, 4, 3)
        g = np.moveaxis(G, 0, -1)
        x = forwarded_inverse(g, 0.7, 2.0)
        assert np.array_equal(forwarded_inverse(g[..., 2:3], 0.7, 2.0)[..., 0], x[..., 2])
        assert np.array_equal(forwarded_inverse(np.ascontiguousarray(g[..., 2]), 0.7, 2.0), x[..., 2])


class TestStructuredWhitening:
    """The decode tail's pair stages on one source (nothing to cancel)
    against the generic solve on the same (obs, h) and the covariance the
    covariance stages build."""

    @pytest.mark.parametrize(
        "j,m,n",
        # group sizes 1 (t = 1), 2 (t = 2) and 3-4 (t = 4, two splits)
        [
            (1, 2, 3), (1, 3, 2), (1, 4, 3), (2, 2, 3), (2, 4, 3), (2, 8, 3), (3, 3, 4), (3, 6, 4), (3, 12, 4),
            (4, 4, 4), (4, 8, 4), (4, 16, 4),
        ],
    )
    @pytest.mark.parametrize("relay_noise", [True, False])
    def test_on_target_closed_form(self, j, m, n, relay_noise):
        rng = RngStream(50, j * 100 + m * 10 + n)
        pairs, T = tdma_channel_stacks(_cn(rng, 40, m, n), j), dstc_design(m // j).T
        kappa = 2.0 if T == 4 else 1.0
        obs = _cn(rng, 40, pairs.shape[0] * pairs.shape[2] * min(T, 2))
        for src in range(j):
            s = np.exp(rng.complex_normal(40).real) if relay_noise else None
            for (split, rows), pr in zip(_splits(pairs, T), pairs):
                h, o = split[:, src], obs[:, rows]
                want = whiten(o, h, noise_cov_on_target(h, kappa, s), 1.0)
                got = _pair_ic(pr[..., src : src + 1, :], o, 1.0 / kappa, 0, T, None if s is None else kappa * s)
                assert _rel_err(got[0], want[0]) < 1e-12
                assert _rel_err(got[1], want[1]) < 1e-12

    @pytest.mark.parametrize(
        "j,m,n", [(1, 2, 3), (2, 2, 3), (1, 3, 2), (2, 4, 3), (3, 4, 3), (3, 3, 4), (4, 4, 4)]
    )
    def test_forwarded_without_ic(self, j, m, n):
        rng = RngStream(51, j * 100 + m * 10 + n)
        F, G = _cn(rng, 40, m, j), _cn(rng, 40, m, n)
        pairs, T = dstc_channel_stacks(F, G), dstc_design(m).T
        c = dstc_power_scale(10.0, m, 1)
        kappa = 2.0 if T == 4 else 1.0
        r0_inv = forwarded_inverse(np.moveaxis(G, 0, -1), c, kappa)
        r = noise_cov_forwarded(gtilde(G), c, kappa)
        obs = _cn(rng, 40, pairs.shape[0] * pairs.shape[2] * 2)
        for src in range(j):
            for (split, rows), pr in zip(_splits(pairs, T), pairs):
                h, o = split[:, src], obs[:, rows]
                want = whiten(o, h, r, 1.0)
                got = _pair_ic(pr[..., src : src + 1, :], o, r0_inv, 0, T)
                assert _rel_err(got[0], want[0]) < 1e-12
                assert _rel_err(got[1], want[1]) < 1e-12

    @pytest.mark.parametrize("j,m,n", [(2, 2, 3), (2, 4, 3), (3, 4, 3), (3, 3, 4), (2, 3, 2)])
    def test_forwarded_with_ic(self, j, m, n):
        rng = RngStream(52, j * 100 + m * 10 + n)
        F, G = _cn(rng, 40, m, j), _cn(rng, 40, m, n)
        pairs, T = dstc_channel_stacks(F, G), dstc_design(m).T
        c = dstc_power_scale(10.0, m, j)
        kappa = 2.0 if T == 4 else 1.0
        w_k = kappa * interleave(forwarded_core(G, c))
        assert _rel_err(w_k, noise_cov_forwarded(gtilde(G), c, kappa)) < 1e-12
        obs = _cn(rng, 40, pairs.shape[0] * pairs.shape[2] * 2)
        for src in range(j):
            for split, rows in _splits(pairs, T):
                b, _ = ic_stack_batch(split, src)
                h, o = b @ split[:, src], np.einsum("nrk,nk->nr", b, obs[:, rows])
                r_old = noise_cov_forwarded(gtilde(G), c, kappa, b)
                r_new = b @ w_k @ dagger(b)
                assert _rel_err(r_new, r_old) < 1e-12
                want, got = whiten(o, h, r_old, 0.9), whiten(o, h, r_new, 0.9)
                assert _rel_err(got[0], want[0]) < 1e-12
                assert _rel_err(got[1], want[1]) < 1e-12

    def test_non_finite_raises(self):
        rng = RngStream(53)
        G = _cn(rng, 3, 4, 3)
        obs = _cn(rng, 3, 6)
        obs[1, 2] = np.nan
        [one], [two] = tdma_channel_stacks(G[:, :2], 1), tdma_channel_stacks(G, 2)
        r0_inv = forwarded_inverse(np.moveaxis(G, 0, -1), 1.0, 1.0)
        for form in (
            lambda: whiten(obs, pair_blocks(one[None], 2)[0][:, 0], np.broadcast_to(np.eye(6), (3, 6, 6)), 1.0),
            lambda: schur_pairs(*gram_pairs(one, obs_pairs(obs, 2), r0_inv), 0, 2),
            lambda: schur_pairs(*gram_pairs(one, obs_pairs(obs, 2), 1.0), 0, 2, np.ones(3)),
            lambda: schur_pairs(*gram_pairs(one, obs_pairs(obs, 2), 1.0), 0, 2),
            lambda: schur_pairs(*gram_pairs(two, obs_pairs(obs, 2), 1.0), 1, 2, np.ones(3)),
        ):
            with pytest.raises(NumericError):
                form()


# (family, J, M, N): the amplify-and-forward pairs have T = 2 (M = 2) or
# T = 4 (M = 3, 4; two splits), the estimate-and-forward pairs T = 1, 2
# or 4 by the group size M // J.
_SCHUR_CASES = [
    ("af", 2, 2, 3), ("af", 2, 4, 3), ("af", 3, 4, 3), ("af", 3, 3, 4),
    ("ef", 2, 2, 3), ("ef", 2, 4, 3), ("ef", 2, 8, 3),
    ("ef", 3, 3, 4), ("ef", 3, 6, 4), ("ef", 3, 12, 4),
    ("af", 4, 4, 5), ("ef", 4, 4, 4), ("ef", 4, 8, 4), ("ef", 4, 16, 4),
]


def _schur_case(family, j, m, n, seed):
    """(pairs, T, obs, r0_inv, kappa, c, G, rng) of 40 draws of one case."""
    rng = RngStream(seed, j * 100 + m * 10 + n)
    F, G = _cn(rng, 40, m, j), _cn(rng, 40, m, n)
    if family == "af":
        pairs, T = dstc_channel_stacks(F, G), dstc_design(m).T
        c = dstc_power_scale(10.0, m, j)
    else:
        pairs, T = tdma_channel_stacks(G, j), dstc_design(m // j).T
        c = tdma_power_scale(10.0, m)
    kappa = 2.0 if T == 4 else 1.0
    r0_inv = forwarded_inverse(np.moveaxis(G, 0, -1), c, kappa) if family == "af" else 1.0 / kappa
    obs = _cn(rng, 40, pairs.shape[0] * pairs.shape[2] * min(T, 2))
    return pairs, T, obs, r0_inv, kappa, c, G, rng


class TestSchurIc:
    """Zero-forcing IC as a Schur complement of each split's Gram system,
    in pair arithmetic, against the explicit path: the IC matrix of
    ``ic_stack_batch``, the post-IC covariance of ``noise_cov_forwarded``
    or ``noise_cov_on_target``, and the generic ``whiten``; and against
    the same stages as complex matrices (``tests/gram_oracle.py``)."""

    @pytest.mark.parametrize("family,j,m,n", _SCHUR_CASES)
    @pytest.mark.parametrize("relay_noise", [True, False])
    def test_matches_explicit_ic(self, family, j, m, n, relay_noise):
        pairs, T, obs, r0_inv, kappa, c, G, rng = _schur_case(family, j, m, n, 54)
        for src in range(j):
            s = np.exp(rng.complex_normal(40).real) if relay_noise else None
            for (split, rows), pr in zip(_splits(pairs, T), pairs):
                o = obs[:, rows]
                got = _pair_ic(pr, o, r0_inv, src, T, None if s is None else kappa * s)
                b, _ = ic_stack_batch(split, src)
                h = b @ split[:, src]
                if family == "af":
                    r = noise_cov_forwarded(gtilde(G), c, kappa, b)
                    if s is not None:
                        r = r + kappa * s[:, None, None] * (h @ dagger(h))
                else:
                    r = noise_cov_on_target(h, kappa, s, b)
                want = whiten(np.einsum("nrk,nk->nr", b, o), h, r, 1.0)
                assert _rel_err(got[0], want[0]) < 1e-12
                assert _rel_err(got[1], want[1]) < 1e-12

    # At J = N = 4 one block row is left after IC, and forming the Gram
    # (as matrices or as pairs) loses about three digits to cancellation
    # against the explicit path (1.7e-12 here), so that case is checked
    # against the matrix Gram only.
    @pytest.mark.parametrize("family,j,m,n", _SCHUR_CASES + [("af", 4, 4, 4)])
    def test_matches_matrix_oracle(self, family, j, m, n):
        # Every block of the pair Gram system is the matrix Gram's block:
        # Q(p, q) for t <= 2 and Q(p, q) diag(1, -1) on both sides for the
        # t = 4 splits.  The Schur complements agree for J <= 3; at J = 4
        # the matrix form's LU solve of Q_II is itself off by up to 6e-11
        # at (4, 4, 5), where the pair form matches the explicit path.
        pairs, T, obs, r0_inv, _, _, _, rng = _schur_case(family, j, m, n, 57)
        sign = np.array([1.0, -1.0]) if T == 4 else np.ones(2)
        r0_mat = interleave(np.moveaxis(r0_inv, -1, 0)) if np.ndim(r0_inv) else r0_inv
        sigma = np.exp(rng.complex_normal(40).real)
        for (split, rows), pr in zip(_splits(pairs, T), pairs):
            o = obs[:, rows]
            ts = split.shape[-1]
            q_m, z_m = gram_system(split, o, r0_mat)
            p, q = gram_pairs(pr, obs_pairs(o, ts), r0_inv)
            pairs = np.stack([[p, -np.conj(q)], [q, np.conj(p)]])[:ts, :ts]  # (ts, ts, J, J + 1, n)
            blocks = np.moveaxis(pairs, (2, 3, 4), (1, 3, 0))  # (n, J, ts, J + 1, ts)
            blocks = blocks * sign[:ts, None, None] * sign[:ts]
            q_p = blocks[..., :j, :].reshape(40, j * ts, j * ts)
            z_p = blocks[..., j, 0].reshape(40, j * ts)
            assert _rel_err(q_p, q_m) < 1e-12
            assert _rel_err(z_p, z_m) < 1e-12
            for src in range(j if j < 4 else 0):
                want = schur_ic(q_m, z_m, src, ts, sigma)
                got = _pair_ic(pr, o, r0_inv, src, T, sigma)
                assert _rel_err(got[0], want[0]) < 1e-12
                assert _rel_err(got[1], want[1]) < 1e-12

    def test_one_source_is_the_gram_system(self):
        rng = RngStream(55)
        p, q = gram_pairs(_cn(rng, 2, 3, 1, 5), obs_pairs(_cn(rng, 5, 6), 2), 0.5)
        w, g = schur_pairs(p, q, 0, 2)
        assert np.array_equal(w, np.stack([p[0, 1], q[0, 1]])) and np.array_equal(g, p[0, 0].real)

    def test_singular_interferer_block_fails_no_other_trial(self):
        # An interferer whose channel is exactly zero makes its pivot zero
        # in that trial alone; the floored pivot keeps the values finite
        # (the kernel flags the trial), and the others match their lone runs.
        rng = RngStream(56)
        [pairs] = tdma_channel_stacks(_cn(rng, 6, 4, 3), 2)
        pairs[..., 1, 2] = 0.0
        obs = _cn(rng, 6, 6)
        w, g = schur_pairs(*gram_pairs(pairs, obs_pairs(obs, 2), 1.0), 0, 2)
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(g))
        for i in (0, 1, 3, 4, 5):
            wi, gi = schur_pairs(*gram_pairs(pairs[..., i : i + 1], obs_pairs(obs[i : i + 1], 2), 1.0), 0, 2)
            assert np.array_equal(w[:, i], wi[:, 0]) and np.array_equal(g[i], gi[0])


def _metric(w, q, spec, c, idx):
    """Whitened metric Re(sv* q sv) - 2 Re(sv* w) of decisions idx
    (n, n_symbols) and the sum of its terms' magnitudes."""
    consts = [c.rotated(default_rotation(c.order)) if f else c for f in spec.rotated]
    sv = spec.build(np.stack([consts[k].points[idx[:, k]] for k in range(spec.n_symbols)], axis=-1))
    quad = np.einsum("ne,nef,nf->n", np.conj(sv), q, sv).real
    lin = 2.0 * np.einsum("ne,ne->n", np.conj(sv), w).real
    return quad - lin, np.abs(quad) + np.abs(lin)


class TestPskSlicer:
    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    @pytest.mark.parametrize("scheme", [s for s in SchemeId if s is not SchemeId.ConcurrentJoint])
    def test_decides_as_component_search(self, monkeypatch, scheme, order):
        # On every row of the kernels' own post-IC systems the slicer makes
        # the candidate search's decisions; a disagreement can only be a
        # metric near-tie.
        for cfg3 in _TAIL_CONFIGS:
            for w, g, c in _capture(monkeypatch, "psk_slicer", scheme, cfg3, order, trials=256):
                spec = symbol_spec(len(w))
                q = _split_grams(g, len(w))
                got, want = psk_slicer(w, g, c), component_search(w.T, q, spec, c)
                differ = np.flatnonzero(np.any(got != want, axis=-1))
                if differ.size:
                    m_got, _ = _metric(w.T[differ], q[differ], spec, c, got[differ])
                    m_want, size = _metric(w.T[differ], q[differ], spec, c, want[differ])
                    assert np.all(np.abs(m_got - m_want) < 1e-12 * size)

    @pytest.mark.parametrize("e", [1, 2])
    def test_ties_go_to_lowest_index(self, e):
        # (At T = 4 the pair metrics of a zero w differ by rounding, so
        # neither decision rule sees an exact tie there.)
        c = make_psk(4)
        w, g = np.zeros((e, 3), dtype=complex), np.ones((1, 3))
        assert not psk_slicer(w, g, c).any()
        assert not component_search(w.T, _split_grams(g, e), symbol_spec(e), c).any()

    def test_t4_pair_slice_is_exhaustive(self):
        # A T = 4 system whose splits have different gains couples s1 with
        # s4 and s2 with s3: the slicer still finds the best pair.
        rng = RngStream(58)
        c, spec = make_psk(8), symbol_spec(4)
        w = 3.0 * _cn(rng, 4, 500)
        g = np.exp(rng.complex_normal(2, 500).real)
        assert np.array_equal(psk_slicer(w, g, c), component_search(w.T, _split_grams(g, 4), spec, c))


class TestEquivalentSystemValidation:
    def test_dimension_mismatch_rejected(self):
        # An (obs, H, R) system whose dimensions disagree is refused, not
        # broadcast.
        with pytest.raises(ValueError):
            ml_decode_batch(
                np.zeros((1, 3)), np.zeros((1, 2, 2)), np.eye(2)[None], 1.0, symbol_spec(2), make_psk(2)
            )
