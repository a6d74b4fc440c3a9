"""Unit tests for the network model: RNG streams, channels, constellations."""

import math

import numpy as np
import pytest

from marnsim.airlink import (
    NetworkConfig,
    RngStream,
    draw_channels_batch,
    make_psk,
    modulate,
    nearest_psk,
)
from marnsim.numerics import UsageError


class TestRngStream:
    def test_deterministic_redraw(self):
        cfg = NetworkConfig(2, 2, 3, 10.0)
        fa, ga = draw_channels_batch(cfg, RngStream(42), 1)
        fb, gb = draw_channels_batch(cfg, RngStream(42), 1)
        assert np.array_equal(fa, fb) and np.array_equal(ga, gb)

    def test_distinct_streams_differ(self):
        a = RngStream(0, 0).complex_normal(16)
        b = RngStream(0, 1).complex_normal(16)
        assert not np.allclose(a, b)

    def test_substream_differs_from_parent(self):
        a = RngStream(7, 3).complex_normal(16)
        b = RngStream(7, 3).substream(0).complex_normal(16)
        assert not np.allclose(a, b)

    def test_channel_shapes(self):
        f, g = draw_channels_batch(NetworkConfig(2, 2, 3, 1.0), RngStream(0), 1)
        assert f.shape == (1, 2, 2) and g.shape == (1, 2, 3)

    def test_unit_variance(self):
        f, g = draw_channels_batch(NetworkConfig(2, 4, 4, 1.0), RngStream(1), 4000)
        power = np.mean(np.abs(f) ** 2)
        assert abs(power - 1.0) < 0.02
        assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 0.02

    @pytest.mark.parametrize("key", [(0, 0), (42, 7), (2024, 391)])
    @pytest.mark.parametrize("shape", [(1,), (5, 3), (4096, 4, 4), (2, 1, 3, 2)])
    def test_complex_normal_bitwise_formula(self, key, shape):
        # The in-place scaled complex view is bitwise (x + iy) / sqrt(2) of
        # the same standard normal draw.
        z = np.random.Generator(np.random.Philox(key=key[0] << 64 | key[1])).standard_normal(shape + (2,))
        want = (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)
        got = RngStream(*key).complex_normal(*shape)
        assert got.shape == shape and got.dtype == np.complex128
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_kurtosis_of_real_part(self):
        z = RngStream(2).complex_normal(100_000)
        x = z.real * np.sqrt(2.0)
        kurt = np.mean(x**4) / np.mean(x**2) ** 2
        assert 2.8 < kurt < 3.2


class TestAwgn:
    # Every noise sample of the simulator is RngStream.complex_normal.

    def test_zero_length(self):
        assert RngStream(0).complex_normal(0).size == 0

    def test_unit_power(self):
        v = RngStream(3).complex_normal(100_000)
        assert abs(np.mean(np.abs(v) ** 2) - 1.0) < 0.02

    def test_deterministic(self):
        assert np.array_equal(RngStream(4).complex_normal(32), RngStream(4).complex_normal(32))

    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            RngStream(0).complex_normal(-1)


class TestConstellation:
    def test_bpsk_points(self):
        c = make_psk(2)
        assert np.allclose(c.points, [1.0, -1.0])

    def test_qpsk_gray_labels(self):
        c = make_psk(4)
        assert np.allclose(c.points, [1.0, 1.0j, -1.0, -1.0j])
        assert c.labels.tolist() == [[0, 0], [0, 1], [1, 1], [1, 0]]

    def test_unsupported_order_raises(self):
        with pytest.raises(UsageError):
            make_psk(3)

    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_unit_energy(self, order):
        c = make_psk(order)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12
        rot = make_psk(order).rotated(np.pi / 4)
        assert np.allclose(np.abs(rot.points), 1.0)

    @pytest.mark.parametrize("order", [4, 8, 16])
    def test_gray_adjacency(self, order):
        c = make_psk(order)
        for k in range(order):
            diff = np.sum(c.labels[k] != c.labels[(k + 1) % order])
            assert diff == 1

    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_minimum_distance(self, order):
        c = make_psk(order)
        d = np.abs(c.points[:, None] - c.points[None, :])
        dmin = d[d > 1e-9].min()
        assert abs(dmin - 2.0 * np.sin(np.pi / order)) < 1e-12

    def test_nearest_tie_to_lowest_index(self):
        assert nearest_psk(np.array([0.0 + 0.0j]), 2) == 0


class TestModulate:
    def test_bpsk_bit_zero(self):
        assert modulate(np.array([0]), make_psk(2))[0] == 1.0 + 0.0j

    def test_qpsk_two_symbols(self):
        c = make_psk(4)
        syms = modulate(np.array([0, 0, 1, 1]), c)
        assert syms.shape == (2,)
        assert syms[0] == c.points[0] and syms[1] == c.points[2]

    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_round_trip(self, order):
        c = make_psk(order)
        rng = np.random.default_rng(10)
        bits = rng.integers(0, 2, size=(5, 4 * c.bits_per_symbol)).astype(np.int8)
        syms = modulate(bits, c)
        back = c.labels[nearest_psk(syms, order)].reshape(5, -1)
        assert np.array_equal(back, bits)

    def test_length_mismatch_raises(self):
        with pytest.raises(UsageError):
            modulate(np.array([0, 1, 0]), make_psk(4))


class TestNetworkConfig:
    def test_too_many_sources_raises(self):
        with pytest.raises(UsageError):
            NetworkConfig(3, 2, 4, 1.0)

    def test_nonpositive_power_raises(self):
        with pytest.raises(UsageError):
            NetworkConfig(2, 2, 2, 0.0)
