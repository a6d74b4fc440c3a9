"""Unit tests for the relay stages: space-time designs, power scales,
the concurrent relay transform, group forwarding and the hard decision."""

import math

import numpy as np
import pytest

from marnsim.airlink import RngStream, make_psk
from marnsim.numerics import UsageError
from marnsim.relay_codec import apply_design, dstc_design, dstc_power_scale, tdma_power_scale
from marnsim.schemes import relay_forward_groups, relay_hard_decision


def _concurrent_relay(received, design, P, J):
    """The concurrent-uplink relay: t_i = c (A_i r_i + B_i conj(r_i))."""
    return dstc_power_scale(P, design.m_used, J) * apply_design(design, received)


class TestDstcDesign:
    def test_m2_alamouti(self):
        d = dstc_design(2)
        assert d.T == 2
        assert np.array_equal(d.A[0], np.eye(2))
        assert not d.B[0].any()
        assert not d.A[1].any()
        assert np.array_equal(d.B[1], [[0, -1], [1, 0]])

    def test_m4_quasi_orthogonal(self):
        d = dstc_design(4)
        assert d.T == 4
        assert np.array_equal(d.A[0], np.eye(4))
        assert np.array_equal(
            d.A[3], [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]
        )
        assert np.array_equal(
            d.B[1], [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
        )
        assert np.array_equal(
            d.B[2], [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
        )
        assert not d.B[0].any() and not d.B[3].any()
        assert not d.A[1].any() and not d.A[2].any()

    def test_m3_truncates_m4(self):
        d3, d4 = dstc_design(3), dstc_design(4)
        assert d3.T == 4 and d3.m_used == 3
        assert np.array_equal(d3.A, d4.A[:3])
        assert np.array_equal(d3.B, d4.B[:3])

    @pytest.mark.parametrize("m", range(1, 5))
    def test_validate_all_sizes(self, m):
        dstc_design(m).validate()

    @pytest.mark.parametrize("m", range(5, 9))
    def test_above_four_antennas_raises(self, m):
        # The receiver recombines blocks of T in {1, 2, 4} only.
        with pytest.raises(UsageError):
            dstc_design(m)

    def test_invalid_m_raises(self):
        with pytest.raises(UsageError):
            dstc_design(0)


class TestPowerScales:
    def test_j2_m2_instance(self):
        p = 7.3
        assert abs(dstc_power_scale(p, 2, 2) - math.sqrt(p / (4 * p + 2))) < 1e-15

    def test_m4_instance(self):
        p, j = 3.1, 3
        assert abs(dstc_power_scale(p, 4, j) - math.sqrt(p / (4 * (j * p + 1)))) < 1e-15

    def test_tdma_scale(self):
        p, m = 5.0, 4
        assert abs(tdma_power_scale(p, m) - math.sqrt(p / (m * p + m))) < 1e-15


class TestEncodeDstc:
    @pytest.mark.parametrize("M", range(1, 5))
    def test_gather_matches_coefficient_form(self, M):
        # The signed gather is bitwise the 0/+-1 coefficient products
        # sum_s A_its r_is + B_its conj(r_is), with trailing batch axes.
        d = dstc_design(M)
        r = np.moveaxis(RngStream(6, M).complex_normal(3, 5, M, d.T), (-2, -1), (0, 1))
        want = np.einsum("its,is...->it...", d.A.astype(float), r) + np.einsum(
            "its,is...->it...", d.B.astype(float), np.conj(r)
        )
        got = apply_design(d, r)
        assert got.shape == r.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(apply_design(d, r[..., 1, 2]), want[..., 1, 2])

    def test_zero_input(self):
        d = dstc_design(2)
        out = _concurrent_relay(np.zeros((2, 2)), d, 4.0, 2)
        assert not out.any()

    def test_locality(self):
        # Perturbing antenna k's input changes only antenna k's output.
        d = dstc_design(4)
        rng = np.random.default_rng(0)
        r = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        base = _concurrent_relay(r, d, 2.0, 2)
        bumped = r.copy()
        bumped[1] += 1.0
        out = _concurrent_relay(bumped, d, 2.0, 2)
        diff = np.abs(out - base).sum(axis=-1)
        assert diff[1] > 0 and diff[[0, 2, 3]].max() == 0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            apply_design(dstc_design(2), np.zeros((2, 3)))

    def test_average_power(self):
        # Per-antenna input power J*P + 1 maps to average output power P/M
        # per antenna, i.e. total P across the array.
        d = dstc_design(2)
        P, J = 9.0, 2
        rng = RngStream(5)
        r = math.sqrt(J * P + 1.0) * np.moveaxis(rng.complex_normal(20000, 2, 2), 0, -1)
        t = _concurrent_relay(r, d, P, J)
        total = np.mean(np.sum(np.abs(t) ** 2, axis=0)) / d.T * d.m_used
        assert abs(total - P) < 0.02 * P


class TestEncodeTdma:
    def test_zero_estimates(self):
        d = dstc_design(2)
        assert not relay_forward_groups(np.zeros((2, 2, 1)), d, 3.0, 4).any()

    def test_m_equals_2j_placement(self):
        d = dstc_design(2)
        v = np.array([1.0 + 1.0j, 2.0 - 0.5j])
        est = np.stack([v, np.zeros(2)])
        c1 = tdma_power_scale(2.0, 4)
        out = relay_forward_groups(est, d, c1, 4)
        assert np.allclose(out[0], c1 * v)
        assert np.allclose(out[1], c1 * np.array([[0, -1], [1, 0]]) @ np.conj(v))
        assert not out[2:].any()

    def test_excess_antennas_silent(self):
        d = dstc_design(2)
        out = relay_forward_groups(np.ones((2, 2, 1)), d, 1.0, 5)  # group size 2, antenna 5 idle
        assert out.shape == (5, 2, 1)
        assert not out[4].any()

    def test_wrong_group_size_raises(self):
        with pytest.raises(UsageError):
            relay_forward_groups(np.ones((3, 2, 1)), dstc_design(2), 1.0, 4)

    def test_codeword_gram_orthogonal(self):
        # Group size 2: the per-source codeword is a scaled orthogonal STBC.
        d = dstc_design(2)
        v = np.array([0.3 + 1.0j, -1.2 + 0.4j])
        c1 = tdma_power_scale(4.0, 2)
        out = relay_forward_groups(v[None], d, c1, 2)
        gram = out @ out.conj().T
        expect = c1 * c1 * np.sum(np.abs(v) ** 2) * np.eye(2)
        assert np.allclose(gram, expect, atol=1e-12)

    def test_average_power(self):
        # Unit-energy symbol inputs at power sqrt(P) with combining noise of
        # variance 1 give total average relay power P.
        P, M, J = 4.0, 4, 2
        d = dstc_design(M // J)
        rng = RngStream(6)
        n = 20000
        s = np.exp(2j * np.pi * rng.generator.random((n, 1, 2)))
        est = math.sqrt(P) * s + rng.complex_normal(n, J, 2)
        out = relay_forward_groups(np.moveaxis(est, 0, -1), d, tdma_power_scale(P, M), M)
        total = np.mean(np.sum(np.abs(out) ** 2, axis=(0, 1))) / d.T
        assert abs(total - P) < 0.02 * P


class TestRelayDecodeForward:
    def test_noiseless_decode(self):
        c = make_psk(4)
        P = 9.0
        s = c.points[[2, 1]]
        hard = relay_hard_decision(math.sqrt(P) * s, c, P)
        assert np.allclose(hard, math.sqrt(P) * s)

    def test_tie_breaks_to_lowest_index(self):
        hard = relay_hard_decision(np.array([0.0 + 0.0j]), make_psk(2), 1.0)
        assert hard[0] == 1.0 + 0.0j  # index 0 point

    def test_ber_matches_q_function(self):
        # BPSK on an MRC estimate sqrt(P) s + CN(0, 1/x): error probability
        # is Q(sqrt(2 P x)).
        P, x = 1.0, 1.35
        n = 200_000
        rng = RngStream(7)
        s = 1.0 - 2.0 * rng.bits(n).astype(float)
        noise = rng.complex_normal(n) / math.sqrt(x)
        hard = relay_hard_decision((math.sqrt(P) * s + noise)[:, None], make_psk(2), P)
        err = np.mean(np.sign(hard[:, 0].real) != np.sign(s))
        q = 0.5 * math.erfc(math.sqrt(P * x))
        sigma = math.sqrt(q * (1 - q) / n)
        assert abs(err - q) < 4 * sigma
