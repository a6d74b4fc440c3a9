"""Unit tests for SNR oracles and diversity estimators."""

import math

import numpy as np
import pytest

from marnsim.airlink import NetworkConfig, RngStream
from marnsim.analysis import (
    ber_slope,
    lemma1_composite,
    make_eps_grid,
    outage_diversity,
    snr_dstc_batch,
    snr_tdma_batch,
    snr_upper_bound_dstc,
    whitened_snr,
)
from marnsim.numerics import UsageError, is_alamouti, zf_residual
from marnsim.relay_codec import apply_design, dstc_design, dstc_power_scale, tdma_power_scale
from marnsim.rx_ic import dstc_channel_stacks, ic_stack_batch, pair_blocks, recombine
from marnsim.schemes import SchemeId, post_ic_snr
from gram_oracle import dense_obs
from propagation import propagate_noise_cov


def _gamma_sampler(shape):
    def sampler(stream, n):
        return stream.generator.gamma(shape, 1.0, n)

    return sampler


def _dstc_snr_oracle(f, g, cfg, target=0):
    """Post-IC concurrent-uplink SNR of one draw from its definition: the
    noise covariance is propagated through the relay transform, the
    downlink, the recombination and the IC, then h* R^{-1} h."""
    design = dstc_design(cfg.M)
    c = dstc_power_scale(cfg.P, cfg.M, cfg.J)
    [stacks] = pair_blocks(dstc_channel_stacks(f[None], g[None]), design.T)
    bmat = ic_stack_batch(stacks, target)[0][0]
    mt, nt = cfg.M * design.T, cfg.N * design.T

    def linmap(e):
        v = e[:mt].reshape(cfg.M, design.T)
        w = e[mt:].reshape(cfg.N, design.T)
        raw = np.einsum("it,in->nt", c * apply_design(design, v), g) + w
        return bmat @ dense_obs(recombine(raw, design.T), design.T)

    r, _ = propagate_noise_cov(linmap, mt + nt, bmat.shape[0])
    h = (bmat @ stacks[0, target])[:, 0]
    return float(np.real(np.vdot(h, np.linalg.solve(r, h))))


class TestSnrDirect:
    def test_unit_vector_identity_cov(self):
        assert abs(whitened_snr(np.array([1.0, 0.0]), np.eye(2)) - 1.0) < 1e-12

    def test_scaled_identity_cov(self):
        h = np.array([1.0 + 1.0j, 2.0])
        sigma2 = 0.25
        expect = np.sum(np.abs(h) ** 2) / sigma2
        assert abs(whitened_snr(h, sigma2 * np.eye(2)) - expect) < 1e-10


class TestTdmaClosedForm:
    def test_zero_uplink_gives_zero(self):
        rng = RngStream(0)
        cfg = NetworkConfig(2, 4, 3, 10.0)
        f = rng.complex_normal(4, 2)
        f[:, 0] = 0.0
        assert snr_tdma_batch(f[None], rng.complex_normal(4, 3)[None], cfg)[0] == 0.0

    def test_j1_hand_formula(self):
        # J=1: no cancellation, B = I, y = ||G||^2 stacked, so
        # gamma = x y / (x + c1^2 y).
        rng = RngStream(1)
        cfg = NetworkConfig(1, 2, 3, 6.0)
        f, g = rng.complex_normal(1, 2, 1), rng.complex_normal(1, 2, 3)
        x = float(np.sum(np.abs(f) ** 2))
        y = float(np.sum(np.abs(g) ** 2))
        c1 = tdma_power_scale(cfg.P, cfg.M)
        expect = x * y / (x + c1 * c1 * y)
        got = snr_tdma_batch(f, g, cfg)[0]
        assert abs(got - expect) < 1e-10 * expect

    # M in {2J, 4J}, and every other M >= J the sampler runs at: groups of
    # one (T = 1), three (T = 4) and unused relay antennas.
    @pytest.mark.parametrize(
        "j,m,n",
        [
            (2, 4, 3), (2, 8, 2), (1, 4, 2), (3, 6, 4),
            (2, 2, 3), (3, 3, 5), (2, 6, 3), (2, 3, 3), (2, 5, 3), (1, 1, 2), (3, 4, 4),
        ],
    )
    def test_equals_direct(self, j, m, n):
        rng = RngStream(2, j * 16 + m)
        cfg = NetworkConfig(j, m, n, 25.0)
        draws = [(rng.complex_normal(m, j), rng.complex_normal(m, n)) for _ in range(30)]
        f, g = (np.stack(d) for d in zip(*draws))
        a = snr_tdma_batch(f, g, cfg)
        b = post_ic_snr(SchemeId.TdmaIcRec, f, g, cfg)
        assert np.all(np.abs(a - b) <= 1e-8 * np.maximum(np.abs(b), 1e-30))

    def test_batch_matches_scalar(self):
        rng = RngStream(4)
        cfg = NetworkConfig(2, 4, 3, 12.0)
        f = rng.complex_normal(25, 4, 2)
        g = rng.complex_normal(25, 4, 3)
        batch = snr_tdma_batch(f, g, cfg)
        for i in range(25):
            scalar = post_ic_snr(SchemeId.TdmaIcRec, f[i : i + 1], g[i : i + 1], cfg)[0]
            assert abs(batch[i] - scalar) < 1e-8 * max(scalar, 1e-30)


class TestDstcSnr:
    def test_batch_matches_scalar(self):
        rng = RngStream(5)
        cfg = NetworkConfig(2, 2, 3, 12.0)
        f = rng.complex_normal(25, 2, 2)
        g = rng.complex_normal(25, 2, 3)
        batch = snr_dstc_batch(f, g, cfg)
        for i in range(25):
            scalar = _dstc_snr_oracle(f[i], g[i], cfg)
            assert abs(batch[i] - scalar) < 1e-8 * max(scalar, 1e-30)

    def test_bound_zero_for_aligned_channels(self):
        rng = RngStream(6)
        cfg = NetworkConfig(2, 2, 2, 5.0)
        f1 = rng.complex_normal(2)
        f = np.stack([f1, 2.0 * f1], axis=1)
        assert snr_upper_bound_dstc(f[None], rng.complex_normal(2, 2)[None], cfg)[0] < 1e-20

    def test_bound_orthogonal_unit_channels(self):
        cfg = NetworkConfig(2, 2, 2, 5.0)
        rng = RngStream(7)
        g = rng.complex_normal(2, 2)
        f = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        expect = 2.0 * np.sum(np.abs(g) ** 2)
        assert abs(snr_upper_bound_dstc(f[None], g[None], cfg)[0] - expect) < 1e-10

    def test_bound_dominates_sample(self):
        rng = RngStream(8)
        cfg = NetworkConfig(2, 2, 3, 20.0)
        f = rng.complex_normal(200, 2, 2)
        g = rng.complex_normal(200, 2, 3)
        gamma = snr_dstc_batch(f, g, cfg)
        assert np.all(snr_upper_bound_dstc(f, g, cfg) >= gamma)

    def test_unsupported_m_raises(self):
        rng = RngStream(9)
        cfg = NetworkConfig(2, 4, 3, 1.0)
        with pytest.raises(UsageError):
            snr_dstc_batch(rng.complex_normal(1, 4, 2), rng.complex_normal(1, 4, 3), cfg)

    @pytest.mark.parametrize("target", [0, 1])
    def test_direct_equals_closed_form(self, target):
        rng = RngStream(10, target)
        cfg = NetworkConfig(2, 2, 3, 25.0)
        f, g = rng.complex_normal(500, 2, 2), rng.complex_normal(500, 2, 3)
        a = snr_dstc_batch(f, g, cfg, target)
        b = post_ic_snr(SchemeId.DstcIcRec, f, g, cfg, target)
        assert np.all(np.abs(a - b) <= 1e-8 * a)

    def test_direct_unsupported_m_raises(self):
        # post_ic_snr refuses a cell the kernels refuse (M = 5 amplify-and-
        # forward), the rows with no post-IC SNR (a hard relay decision,
        # joint ML with no IC) and a target that is not a source.
        rng = RngStream(9)
        for scheme, (j, m, n), target, why in [
            (SchemeId.DstcIcRec, (2, 5, 3), 0, "M in 2..4"),
            (SchemeId.DecodeRelayIcDest, (2, 4, 3), 0, "no post-IC SNR"),
            (SchemeId.ConcurrentJoint, (2, 2, 3), 0, "no post-IC SNR"),
            (SchemeId.TdmaIcRec, (2, 4, 3), 2, "not a source"),
            (SchemeId.FullTdmaDstc, (2, 4, 3), -1, "not a source"),
        ]:
            f, g = rng.complex_normal(1, m, j), rng.complex_normal(1, m, n)
            with pytest.raises(UsageError, match=why):
                post_ic_snr(scheme, f, g, NetworkConfig(j, m, n, 1.0), target)

    @pytest.mark.parametrize("column", [0, 1])
    def test_direct_zeroed_column_is_finite(self, column):
        # Column 1 is the interferer: the pair stages' pivot floor leaves
        # its IC a no-op where the closed form flags the draw.  Column 0 is
        # the target, whose SNR is then 0.
        rng = RngStream(12, column)
        cfg = NetworkConfig(2, 2, 3, 25.0)
        f, g = rng.complex_normal(4, 2, 2), rng.complex_normal(4, 2, 3)
        f[1, :, column] = 0.0
        gamma, closed = post_ic_snr(SchemeId.DstcIcRec, f, g, cfg), snr_dstc_batch(f, g, cfg)
        assert np.all(np.isfinite(gamma)) and closed[1] == 0.0
        assert (gamma[1] > 0.0) == (column == 1)


def _some_alamouti(m):
    """The matrices of an (n, 2, 2) stack whose m_00 has a positive real
    part, made Alamouti members."""
    m, sel = m.copy(), m[:, 0, 0].real > 0
    m[sel, 0, 1] = -np.conj(m[sel, 1, 0])
    m[sel, 1, 1] = np.conj(m[sel, 0, 0])
    return m


# Each quantity as a function of a batch, and the per-row shapes it takes.
_TDMA, _DSTC = NetworkConfig(2, 4, 3, 12.0), NetworkConfig(2, 2, 3, 12.0)
_BATCHED = {
    "post_ic_snr(tdma_icrec)": (lambda f, g: post_ic_snr(SchemeId.TdmaIcRec, f, g, _TDMA, 1), (4, 2), (4, 3)),
    "post_ic_snr(dstc_icrec)": (lambda f, g: post_ic_snr(SchemeId.DstcIcRec, f, g, _DSTC, 1), (2, 2), (2, 3)),
    "snr_upper_bound_dstc": (lambda f, g: snr_upper_bound_dstc(f, g, _DSTC, 1), (2, 2), (2, 3)),
    "zf_residual": (lambda f: zf_residual(np.moveaxis(f, 0, -1), 1), (5, 3)),
    "is_alamouti": (lambda m: is_alamouti(_some_alamouti(m)), (2, 2)),
}


@pytest.mark.parametrize("name", sorted(_BATCHED))
def test_batch_of_one_equals_row(name):
    fn, *shapes = _BATCHED[name]
    rng = RngStream(18)
    args = [rng.complex_normal(40, *shape) for shape in shapes]
    batch = fn(*args)
    assert batch.shape[0] == 40
    for i in (0, 17, 39):
        assert np.array_equal(fn(*(a[i : i + 1] for a in args))[0], batch[i])
    if name == "is_alamouti":
        assert np.array_equal(batch, args[0][:, 0, 0].real > 0)


class TestOutageDiversity:
    def test_gamma_shape_two(self):
        est = outage_diversity(
            _gamma_sampler(2.0), make_eps_grid(0.3, 10), 500_000, RngStream(10)
        )
        assert abs(est.slope - 2.0) < 0.2
        assert math.isfinite(est.slope) and math.isfinite(est.stderr)

    def test_no_outage_flagged(self):
        est = outage_diversity(
            lambda stream, n: np.full(n, 5.0), make_eps_grid(0.5, 8), 10_000, RngStream(11)
        )
        assert math.isnan(est.slope) and math.isnan(est.stderr)

    def test_grid_validation(self):
        with pytest.raises(UsageError):
            make_eps_grid(-1.0, 12)
        with pytest.raises(UsageError):
            outage_diversity(_gamma_sampler(1.0), [0.0], 100)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_nonpositive_trials_raise(self, trials):
        with pytest.raises(UsageError):
            outage_diversity(_gamma_sampler(1.0), make_eps_grid(0.3, 10), trials)

    def test_uplink_gain_slope_is_m(self):
        # x = sum_i |f_i|^2 is Gamma distributed with shape M.
        def sampler(stream, n):
            f = stream.complex_normal(n, 2)
            return np.sum(np.abs(f) ** 2, axis=-1)

        est = outage_diversity(sampler, make_eps_grid(0.3, 10), 1_000_000, RngStream(12))
        assert abs(est.slope - 2.0) < 0.25

    def test_projected_downlink_slope(self):
        # y = g* B*(BB*)^{-1} B g after cancelling J-1 sources has outage
        # slope 2(N - J + 1); here J = N = 2 so the slope is 2.
        from marnsim.numerics import dagger, solve_psd_stack
        from marnsim.rx_ic import ic_stack_batch, tdma_channel_stacks

        def sampler(stream, n):
            g = stream.complex_normal(n, 4, 2)
            [stacks] = pair_blocks(tdma_channel_stacks(g, 2), 2)
            b, bad = ic_stack_batch(stacks, 0)
            bg = (b @ stacks[:, 0])[..., 0]
            w = solve_psd_stack(b @ dagger(b), bg)
            y = np.einsum("...k,...k->...", np.conj(bg), w).real
            return np.where(bad, 0.0, np.maximum(y, 0.0))

        est = outage_diversity(sampler, make_eps_grid(0.25, 10), 400_000, RngStream(13))
        assert abs(est.slope - 2.0) < 0.25


class TestBerSlope:
    def test_exact_power_law(self):
        pts = [(snr, 0.5 * 10 ** (-2 * snr / 10)) for snr in (10, 15, 20, 25, 30)]
        est = ber_slope(pts)
        assert abs(est.slope - 2.0) < 0.05

    def test_log_factor_flattens_slope(self):
        pts = [
            (snr, math.log(10 ** (snr / 10)) * 10 ** (-3 * snr / 10))
            for snr in (10, 15, 20, 25, 30)
        ]
        low = ber_slope(pts, window=3).slope
        pts_hi = [
            (snr, math.log(10 ** (snr / 10)) * 10 ** (-3 * snr / 10))
            for snr in (40, 45, 50, 55, 60)
        ]
        hi = ber_slope(pts_hi, window=3).slope
        assert low < 3.0 and low < hi < 3.0

    def test_constant_ber(self):
        est = ber_slope([(10, 0.1), (20, 0.1), (30, 0.1)])
        assert abs(est.slope) < 1e-12

    def test_too_few_points_raises(self):
        with pytest.raises(UsageError):
            ber_slope([(10, 0.1), (20, 0.01)])

    def test_nonpositive_ber_raises(self):
        with pytest.raises(UsageError):
            ber_slope([(10, 0.1), (20, 0.0), (30, 0.01)])

    def test_undersampled_point_raises(self):
        with pytest.raises(UsageError):
            ber_slope([(10, 0.1, 500), (20, 0.01, 50), (30, 0.001, 500)])


class TestLemma1Composite:
    def test_huge_shared_branch_reduces_to_sum(self):
        comp = lemma1_composite(
            [_gamma_sampler(2.0), _gamma_sampler(2.0)], lambda stream, n: np.full(n, 1e18)
        )
        vals = comp(RngStream(14), 1000)
        # The branches draw one after the other from the stream; each term
        # g * 1e18 / (g + 1e18) is g up to rounding.
        gen = RngStream(14).generator
        direct = gen.gamma(2.0, 1.0, 1000) + gen.gamma(2.0, 1.0, 1000)
        assert np.allclose(vals, direct, rtol=1e-12, atol=0.0)
        # The sum of two Gamma(2, 1) draws is Gamma(4, 1): mean 4, variance 4
        # (the sample variance of 1000 draws has a standard error near 0.24).
        assert abs(np.mean(vals) - 4.0) < 0.3
        assert abs(np.var(vals) - 4.0) < 1.0

    def test_equal_constant_inputs(self):
        comp = lemma1_composite(
            [lambda stream, n: np.full(n, 2.0)], lambda stream, n: np.full(n, 2.0)
        )
        assert np.allclose(comp(RngStream(15), 10), 1.0)

    def test_zero_over_zero_defined_as_zero(self):
        comp = lemma1_composite(
            [lambda stream, n: np.zeros(n)], lambda stream, n: np.zeros(n)
        )
        assert not comp(RngStream(16), 10).any()

    def test_empty_branch_list_raises(self):
        with pytest.raises(UsageError):
            lemma1_composite([], _gamma_sampler(1.0))

    def test_composite_slope_is_min(self):
        comp = lemma1_composite([_gamma_sampler(2.0)], _gamma_sampler(3.0))
        est = outage_diversity(comp, make_eps_grid(0.3, 10), 500_000, RngStream(17))
        assert abs(est.slope - 2.0) < 0.25
