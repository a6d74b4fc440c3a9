"""Unit tests for the six end-to-end schemes and their metadata."""

from fractions import Fraction

import numpy as np
import pytest

from marnsim.airlink import NetworkConfig, RngStream, make_psk
from marnsim.harness import COMPARISON_ORDERS
from marnsim.numerics import UsageError, zf_residual
from marnsim.schemes import (
    SchemeId,
    block_length,
    check_supported,
    int_free_condition,
    scheme_meta,
    simulate_batch,
    simulate_chunk,
)
from gram_oracle import null_space_projector

SUPPORTED = {
    SchemeId.DstcIcRec: (2, 2, 3),
    SchemeId.TdmaIcRec: (2, 4, 3),
    SchemeId.IcRelayTdma: (2, 2, 3),
    SchemeId.FullTdmaDstc: (2, 2, 3),
    SchemeId.DecodeRelayIcDest: (2, 4, 3),
    SchemeId.ConcurrentJoint: (2, 2, 3),
}


class TestSchemeId:
    def test_parse_numbered_aliases(self):
        order = list(SchemeId)
        for k in range(1, 7):
            assert SchemeId.parse(f"scheme{k}") is order[k - 1]

    def test_parse_canonical_and_member_names(self):
        assert SchemeId.parse("tdma_icrec") is SchemeId.TdmaIcRec
        assert SchemeId.parse("TdmaIcRec") is SchemeId.TdmaIcRec
        assert SchemeId.parse("  DSTC_ICREC ") is SchemeId.DstcIcRec

    def test_parse_unknown_raises(self):
        with pytest.raises(UsageError):
            SchemeId.parse("scheme7")
        with pytest.raises(UsageError):
            SchemeId.parse("bogus")


class TestSchemeMeta:
    def test_concurrent_scheme_row(self):
        m = scheme_meta(SchemeId.DstcIcRec, 2, 4, 4)
        assert m.symbol_rate == Fraction(1, 2)
        assert not m.relay_backward_csi
        assert m.diversity_claim == 3 and m.claim_kind == "upper_bound"

    def test_tdma_scheme_row(self):
        m = scheme_meta(SchemeId.TdmaIcRec, 2, 2, 3)
        assert m.symbol_rate == Fraction(1, 3)
        assert m.relay_backward_csi
        assert m.diversity_claim == 2 and m.claim_kind == "achieved"

    def test_full_tdma_row(self):
        m = scheme_meta(SchemeId.FullTdmaDstc, 3, 3, 3)
        assert m.symbol_rate == Fraction(1, 6)
        assert m.diversity_claim == 3

    def test_invalid_config_raises(self):
        with pytest.raises(UsageError):
            scheme_meta(SchemeId.DstcIcRec, 3, 2, 4)


class TestIntFreeCondition:
    def test_known_cases(self):
        assert int_free_condition(2, 2, 3)
        assert not int_free_condition(2, 2, 2)
        assert int_free_condition(3, 6, 5)

    def test_exact_rational_boundary(self):
        # M=3, J=2: threshold N >= 3/1 + 1 = 4 must not be blurred by
        # floating point.
        assert int_free_condition(2, 3, 4)
        assert not int_free_condition(2, 3, 3)


class TestBlockLength:
    def test_values(self):
        assert block_length(SchemeId.DstcIcRec, 2, 2) == 2
        assert block_length(SchemeId.DstcIcRec, 2, 4) == 4
        assert block_length(SchemeId.TdmaIcRec, 2, 2) == 1
        assert block_length(SchemeId.TdmaIcRec, 2, 4) == 2
        assert block_length(SchemeId.TdmaIcRec, 2, 8) == 4


class TestCheckSupported:
    @pytest.mark.parametrize(
        "scheme,J,M,order,match",
        [
            (SchemeId.FullTdmaDstc, 1, 1, 2, "M in 2..4"),
            (SchemeId.DstcIcRec, 2, 5, 2, "M in 2..4"),
            (SchemeId.ConcurrentJoint, 1, 5, 2, "M in 2..4"),
            (SchemeId.TdmaIcRec, 1, 5, 2, "groups of 1..4, got 5"),
            (SchemeId.DecodeRelayIcDest, 2, 10, 2, "groups of 1..4, got 5"),
            (SchemeId.IcRelayTdma, 2, 5, 2, "groups of 1..4, got 5"),
            (SchemeId.ConcurrentJoint, 3, 4, 4, "2\\^20"),
            (SchemeId.DstcIcRec, 2, 2, 3, "PSK order 3"),
        ],
    )
    def test_unsupported_cells_raise(self, scheme, J, M, order, match):
        with pytest.raises(UsageError, match=match):
            check_supported(scheme, J, M, order)

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_supported_cells_pass(self, scheme):
        for J, M in [(1, 2), (2, 2), (2, 4), (1, 4), (2, 3)]:
            check_supported(scheme, J, M, 2)
        # estimate-and-forward groups: 8 antennas in groups of 4 or 2
        if scheme in (SchemeId.TdmaIcRec, SchemeId.DecodeRelayIcDest):
            check_supported(scheme, 2, 8, 16)
            check_supported(scheme, 4, 8, 16)

    def test_joint_search_rejected_before_drawing(self):
        stream = RngStream(11, 7)
        with pytest.raises(UsageError, match="2\\^20"):
            simulate_batch(SchemeId.ConcurrentJoint, NetworkConfig(3, 4, 3, 10.0), make_psk(4), stream, 4)
        assert np.array_equal(stream.complex_normal(3), RngStream(11, 7).complex_normal(3))


class TestBitsPerChannelUse:
    def test_comparison_orders_give_one_bit(self):
        for scheme, order in COMPARISON_ORDERS.items():
            assert scheme_meta(scheme, 2, 2, 3).symbol_rate * make_psk(order).bits_per_symbol == 1


class TestSimulation:
    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_deterministic(self, scheme):
        j, m, n = SUPPORTED[scheme]
        cfg = NetworkConfig(j, m, n, 10.0)
        c = make_psk(2)
        e1, b1 = simulate_batch(scheme, cfg, c, RngStream(3, 9), 200)
        e2, b2 = simulate_batch(scheme, cfg, c, RngStream(3, 9), 200)
        assert np.array_equal(e1, e2) and np.array_equal(b1, b2)

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_near_noiseless_error_free(self, scheme):
        # At 120 dB every scheme must decode a small batch without error.
        j, m, n = SUPPORTED[scheme]
        cfg = NetworkConfig(j, m, n, 1e12)
        errors, bad = simulate_batch(scheme, cfg, make_psk(2), RngStream(4, 1), 1000)
        assert errors[~bad].sum() == 0

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_source_symmetry(self, scheme):
        # Per-source error counts agree within 4 binomial sigmas.
        j, m, n = SUPPORTED[scheme]
        cfg = NetworkConfig(j, m, n, 10 ** 0.4)  # 4 dB: plenty of errors
        errors, bad = simulate_batch(scheme, cfg, make_psk(2), RngStream(5, 2), 30_000)
        per_source = errors[~bad].sum(axis=0).astype(float)
        total = per_source.sum()
        assert total > 500  # enough statistics for the comparison
        expect = total / j
        sigma = np.sqrt(total * (1 / j) * (1 - 1 / j))
        assert np.abs(per_source - expect).max() < 4 * sigma

    @pytest.mark.parametrize(
        "scheme,cfg3",
        [(SchemeId.DstcIcRec, (2, 2, 3)), (SchemeId.TdmaIcRec, (2, 2, 2))],
    )
    def test_monotonic_in_power(self, scheme, cfg3):
        j, m, n = cfg3
        c = make_psk(2)
        bers = []
        for snr in (4.0, 14.0):
            cfg = NetworkConfig(j, m, n, 10 ** (snr / 10))
            errors, bad = simulate_batch(scheme, cfg, c, RngStream(6, 3), 30_000)
            kept = (~bad).sum()
            total = errors[~bad].sum()
            assert total > 100
            bers.append(total / kept)
        assert bers[1] < bers[0]

    def test_simulate_chunk_reports_erasures(self):
        cfg = NetworkConfig(2, 2, 3, 10.0)
        errors, erased = simulate_chunk(
            SchemeId.TdmaIcRec, cfg, make_psk(2), RngStream(7, 4), 500
        )
        assert errors.shape == (500, 2)
        assert not erased.any()  # degenerate draws are measure-zero

    def test_run_trial_outcome(self):
        # One trial is a chunk of one.
        cfg = NetworkConfig(2, 2, 2, 10.0)
        errors, erased = simulate_chunk(SchemeId.DstcIcRec, cfg, make_psk(2), RngStream(8, 5), 1)
        assert errors.shape == (1, 2) and not erased.any()
        bits_sent = 2 * block_length(SchemeId.DstcIcRec, 2, 2)  # J x T x 1 bit (BPSK)
        assert 0 <= errors.sum() <= bits_sent
        again, _ = simulate_chunk(SchemeId.DstcIcRec, cfg, make_psk(2), RngStream(8, 5), 1)
        assert np.array_equal(errors, again)

    def test_full_tdma_rejects_one_relay_antenna_before_drawing(self):
        # The single-source code runs on the concurrent-uplink channel
        # stacks, which need 2..4 relay antennas.
        stream = RngStream(10, 7)
        with pytest.raises(UsageError, match="M in 2..4"):
            simulate_batch(SchemeId.FullTdmaDstc, NetworkConfig(1, 1, 2, 10.0), make_psk(2), stream, 4)
        assert np.array_equal(stream.complex_normal(3), RngStream(10, 7).complex_normal(3))

    def test_joint_beats_ic_at_same_operating_point(self):
        # Joint decoding dominates the IC-based receiver on the same
        # concurrent front end.
        c = make_psk(2)
        cfg = NetworkConfig(2, 2, 2, 10 ** (2.0))
        e_ic, bad_ic = simulate_batch(SchemeId.DstcIcRec, cfg, c, RngStream(9, 6), 40_000)
        e_j, bad_j = simulate_batch(SchemeId.ConcurrentJoint, cfg, c, RngStream(9, 6), 40_000)
        assert e_j[~bad_j].sum() < e_ic[~bad_ic].sum()


class TestRelayZeroForcing:
    """The relay gains' zero-forcing residual ``zf_residual`` against the
    SVD projector onto the complement of the other uplink columns."""

    @staticmethod
    def _projected(F, j):
        """||Theta f_j||^2 (n,) of (n, M, J) draws F, Theta from the SVD."""
        return np.array([np.linalg.norm(null_space_projector(np.delete(x, j, axis=1)) @ x[:, j]) ** 2 for x in F])

    @pytest.mark.parametrize("J", [1, 2, 3])
    def test_gains_match_null_space_projector(self, J):
        # J = 1 projects off nothing: the maximum-ratio gain.
        F = RngStream(60, J).complex_normal(8, 4, J)
        for j in range(J):
            np.testing.assert_allclose(zf_residual(np.moveaxis(F, 0, -1), j), self._projected(F, j), rtol=1e-12)

    @pytest.mark.parametrize("M,J", [(2, 2), (3, 3), (4, 2), (4, 4), (8, 2)])
    def test_residual_matches_svd_projector(self, M, J):
        F = RngStream(62, 8 * M + J).complex_normal(64, M, J)
        for j in range(J):
            np.testing.assert_allclose(zf_residual(np.moveaxis(F, 0, -1), j), self._projected(F, j), rtol=1e-12)

    def test_zero_interferer_leaves_the_target_power(self):
        F = RngStream(63).complex_normal(16, 4, 3)
        F[:, :, 1] = 0.0
        f = np.moveaxis(F, 0, -1)
        np.testing.assert_allclose(zf_residual(f[:, :2], 0), np.sum(np.abs(F[:, :, 0]) ** 2, axis=1), rtol=1e-15)
        # Among other interferers, a zero column projects off nothing.
        np.testing.assert_allclose(zf_residual(f, 0), zf_residual(f[:, [0, 2]], 0), rtol=1e-15)

    def test_target_parallel_to_an_interferer(self):
        F = RngStream(64).complex_normal(16, 4, 3)
        F[:, :, 0] = 2.0 * F[:, :, 1]
        f = np.moveaxis(F, 0, -1)
        assert np.all(zf_residual(f[:, :2], 0) < 1e-20)
        assert np.all(zf_residual(f, 0) < 1e-20)


class TestDegenerateDraws:
    """A source whose channel vanishes in a trial makes that trial
    degenerate: simulate_batch flags it and simulate_chunk redraws it."""

    ZEROED = [1, 5, 6]

    @staticmethod
    def _zero_first_draw(mp, scheme, cfg, src):
        """Patch schemes._draw_trials so that its first call draws source
        ``src``'s channel as zero in the ZEROED trials: its uplink column
        for dstc_icrec, its relay group's downlink rows for tdma_icrec.
        Later calls (the resampling rounds) draw as usual."""
        import marnsim.schemes as schemes

        orig, calls = schemes._draw_trials, []

        def draw(*args):
            F, G, bits, s = orig(*args)
            if not calls:
                if scheme is SchemeId.DstcIcRec:
                    F[TestDegenerateDraws.ZEROED, :, src] = 0.0
                else:
                    gs = cfg.M // cfg.J
                    G[TestDegenerateDraws.ZEROED, src * gs : (src + 1) * gs, :] = 0.0
            calls.append(args[-1])
            return F, G, bits, s

        mp.setattr(schemes, "_draw_trials", draw)
        return calls

    @pytest.mark.parametrize("scheme", [SchemeId.DstcIcRec, SchemeId.TdmaIcRec])
    @pytest.mark.parametrize("cfg3", [(2, 2, 3), (3, 4, 3), (3, 3, 4)])
    def test_flagged_then_resampled(self, monkeypatch, scheme, cfg3):
        cfg, const = NetworkConfig(*cfg3, 10.0), make_psk(4)
        for src in range(cfg.J):
            stream = RngStream(11, 10 * src + cfg.M)
            with monkeypatch.context() as mp:
                self._zero_first_draw(mp, scheme, cfg, src)
                _, bad = simulate_batch(scheme, cfg, const, stream, 16)
            assert np.flatnonzero(bad).tolist() == self.ZEROED
            with monkeypatch.context() as mp:
                calls = self._zero_first_draw(mp, scheme, cfg, src)
                errors, erased = simulate_chunk(scheme, cfg, const, stream, 16)
            assert calls == [16, len(self.ZEROED)] and not erased.any()
            redrawn, _ = simulate_batch(scheme, cfg, const, stream.substream(1), len(self.ZEROED))
            assert np.array_equal(errors[self.ZEROED], redrawn)
