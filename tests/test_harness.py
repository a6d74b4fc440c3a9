"""Tests for the Monte Carlo driver, emission, and the CLI."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from marnsim.airlink import NetworkConfig, RngStream, draw_channels_batch
from marnsim.analysis import snr_dstc_batch, snr_tdma_batch
from marnsim.cli import main
from marnsim.harness import (
    CHUNK_TRIALS,
    CSV_HEADER,
    BerPoint,
    ExperimentSpec,
    ber_slope_from_csv,
    canned_spec,
    emit,
    load_config_file,
    make_gamma_sampler,
    parse_csv,
    run_diversity,
    run_experiment,
    wilson_interval,
)
from marnsim.numerics import UsageError
from marnsim.relay_codec import dstc_design
from marnsim.rx_ic import dstc_channel_stacks, ic_stack_batch, pair_blocks, tdma_channel_stacks
from marnsim.schemes import SchemeId, post_ic_snr

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", BENCH / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_spec(**kw):
    base = dict(
        schemes=(SchemeId.TdmaIcRec,),
        configs=((2, 2, 3),),
        snr_db=(6.0, 10.0),
        min_errors=50,
        max_trials=8192,
        seed=3,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestWilsonInterval:
    def test_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(13, 1000)
        assert lo < 0.013 < hi

    def test_coverage_calibration(self):
        # Empirical coverage of the 95% interval over binomial draws.
        rng = np.random.default_rng(0)
        p, n, reps = 0.02, 800, 2000
        hits = 0
        for k in rng.binomial(n, p, reps):
            lo, hi = wilson_interval(int(k), n)
            hits += lo <= p <= hi
        assert hits / reps > 0.93


class TestExperimentSpec:
    def test_bad_grid_raises(self):
        with pytest.raises(UsageError):
            _tiny_spec(snr_db=(10.0, 10.0))
        with pytest.raises(UsageError):
            _tiny_spec(snr_db=())

    def test_bad_stop_rule_raises(self):
        with pytest.raises(UsageError):
            _tiny_spec(min_errors=-1)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_raise(self, workers):
        with pytest.raises(UsageError):
            _tiny_spec(workers=workers)

    def test_order_for(self):
        spec = _tiny_spec(orders={SchemeId.TdmaIcRec: 8}, default_order=4)
        assert spec.order_for(SchemeId.TdmaIcRec) == 8
        assert spec.order_for(SchemeId.DstcIcRec) == 4


class TestRunExperiment:
    def test_trial_budget_respected(self):
        spec = _tiny_spec(min_errors=10**9, max_trials=10, snr_db=(10.0,))
        (pt,) = run_experiment(spec)
        assert pt.trials == 10
        assert pt.bits == (pt.trials - pt.erasures) * 2  # J=2, T=1, BPSK

    def test_deterministic_csv(self):
        a = emit(run_experiment(_tiny_spec()))
        b = emit(run_experiment(_tiny_spec()))
        assert a == b

    def test_worker_count_invariance(self):
        spec1 = _tiny_spec(workers=1)
        spec2 = _tiny_spec(workers=2)
        assert emit(run_experiment(spec1)) == emit(run_experiment(spec2))
        # Cells of one full 4096-trial chunk and one 300-trial chunk give the
        # same totals on one worker and on two.
        wide = dict(
            schemes=(SchemeId.DstcIcRec,),
            configs=((2, 4, 3),),
            snr_db=(6.0, 10.0, 14.0),
            orders={SchemeId.DstcIcRec: 4},
            min_errors=10**9,
            max_trials=4096 + 300,
        )
        one, two = (emit(run_experiment(_tiny_spec(workers=w, **wide))) for w in (1, 2))
        assert one == two

    def test_stops_after_min_errors(self):
        spec = _tiny_spec(snr_db=(0.0,), min_errors=20, max_trials=2_000_000)
        (pt,) = run_experiment(spec)
        assert pt.bit_errors >= 20
        assert pt.trials < 2_000_000

    @pytest.mark.parametrize(
        "schemes,configs,kw",
        [
            ((SchemeId.DstcIcRec,), ((2, 2, 3), (2, 5, 3)), {}),  # M outside 2..4
            ((SchemeId.TdmaIcRec, SchemeId.TdmaIcRec), ((1, 5, 3),), {}),  # group of 5
            ((SchemeId.TdmaIcRec, SchemeId.ConcurrentJoint), ((3, 4, 3),), {"default_order": 4}),
            ((SchemeId.TdmaIcRec,), ((2, 2, 3),), {"orders": {SchemeId.TdmaIcRec: 3}}),
        ],
    )
    def test_unsupported_cell_rejected_before_any_cell(self, monkeypatch, schemes, configs, kw):
        import marnsim.harness as harness

        def refuse(*args):
            raise AssertionError("a cell ran before the spec was checked")

        monkeypatch.setattr(harness, "_run_cell", refuse)
        with pytest.raises(UsageError):
            run_experiment(_tiny_spec(schemes=schemes, configs=configs, **kw))


class TestEmitParse:
    def test_empty_raises(self):
        with pytest.raises(UsageError):
            emit([])

    def test_csv_round_trip(self):
        points = run_experiment(_tiny_spec())
        back = parse_csv(emit(points))
        assert back == points

    def test_csv_header_exact(self):
        assert CSV_HEADER == (
            "scheme,J,M,N,snr_db,trials,erasures,bits,bit_errors,ber,ci95_lo,ci95_hi"
        )
        text = emit(run_experiment(_tiny_spec()))
        assert text.splitlines()[0] == CSV_HEADER

    def test_plotdata_blocks(self):
        spec = _tiny_spec(configs=((2, 2, 3), (2, 2, 2)))
        text = emit(run_experiment(spec), fmt="plotdata")
        blocks = text.strip().split("\n\n")
        assert len(blocks) == 2
        assert blocks[0].startswith("# scheme=tdma_icrec J=2 M=2 N=3")
        first = blocks[0].splitlines()[1].split()
        assert float(first[0]) == 6.0 and float(first[1]) > 0

    def test_unknown_format_raises(self):
        with pytest.raises(UsageError):
            emit(run_experiment(_tiny_spec(snr_db=(10.0,))), fmt="json")

    def test_parse_bad_header_raises(self):
        with pytest.raises(UsageError):
            parse_csv("foo,bar\n1,2\n")

    def test_parse_bad_row_raises(self):
        with pytest.raises(UsageError):
            parse_csv(CSV_HEADER + "\n1,2,3\n")

    def test_parse_from_path(self, tmp_path):
        points = run_experiment(_tiny_spec(snr_db=(10.0,)))
        path = tmp_path / "out.csv"
        text = emit(points, path=str(path))
        assert path.read_text() == text
        assert parse_csv(path.read_text()) == points

    def test_parse_takes_text_not_a_path(self, tmp_path):
        # A one-line string is CSV text even when it names a file.
        path = tmp_path / "out.csv"
        emit(run_experiment(_tiny_spec(snr_db=(10.0,))), path=str(path))
        with pytest.raises(UsageError):
            parse_csv(str(path))
        with pytest.raises(UsageError):
            ber_slope_from_csv(str(path))


class TestBerSlopeFromCsv:
    def test_synthetic_slope(self):
        pts = [
            BerPoint(SchemeId.TdmaIcRec, 2, 2, 3, snr, 10**8, 0, 10**8, errs)
            for snr, errs in [
                (10, int(10**8 * 0.5 * 10**-2.0)),
                (15, int(10**8 * 0.5 * 10**-3.0)),
                (20, int(10**8 * 0.5 * 10**-4.0)),
                (25, int(10**8 * 0.5 * 10**-5.0)),
            ]
        ]
        slopes = ber_slope_from_csv(emit(pts))
        est = slopes[(SchemeId.TdmaIcRec, 2, 2, 3)]
        assert abs(est.slope - 2.0) < 0.05


class TestCannedSpec:
    def test_concurrent_sweep_configs(self):
        spec = canned_spec("fig4")
        assert (3, 4, 3) in spec.configs
        assert spec.schemes == (SchemeId.DstcIcRec,)
        assert spec.default_order == 2

    def test_comparison_orders(self):
        spec = canned_spec("fig7")
        assert spec.configs == ((2, 2, 3),)
        assert spec.orders[SchemeId.FullTdmaDstc] == 16
        assert spec.orders[SchemeId.DstcIcRec] == 4

    def test_unknown_raises(self):
        with pytest.raises(UsageError):
            canned_spec("fig9")


# The rows that have a post-IC SNR, in table order.
_POST_IC_ROWS = [SchemeId.DstcIcRec, SchemeId.TdmaIcRec, SchemeId.IcRelayTdma, SchemeId.FullTdmaDstc]


class TestRunDiversity:
    def test_tdma_223_slope_two(self):
        cfg = NetworkConfig(2, 2, 3, 10.0 ** 2.0)
        est = run_diversity(SchemeId.TdmaIcRec, cfg, trials=1_000_000, seed=0)
        assert abs(est.slope - 2.0) < 0.3

    def test_unsupported_scheme_raises(self):
        cfg = NetworkConfig(2, 2, 3, 10.0)
        with pytest.raises(UsageError):
            run_diversity(SchemeId.ConcurrentJoint, cfg, trials=1000)

    @pytest.mark.parametrize("n,tiles", [(64, 1), (2 * CHUNK_TRIALS + 17, 3)])
    @pytest.mark.parametrize("scheme", _POST_IC_ROWS)
    def test_sampler_draws_uplink_then_downlink(self, monkeypatch, scheme, n, tiles):
        # The sampler draws F (n, M, J) then G (n, M, N) from the stream and
        # calls the post_ic_snr the harness module holds at call time, one
        # CHUNK_TRIALS tile at a time.
        import marnsim.harness as harness

        cfg = NetworkConfig(2, 2, 3, 10.0)
        sampler = harness.make_gamma_sampler(scheme, cfg)
        ref = RngStream(5, 1)
        f, g = ref.complex_normal(n, 2, 2), ref.complex_normal(n, 2, 3)
        want = post_ic_snr(scheme, f, g, cfg)
        calls = []
        monkeypatch.setattr(harness, "post_ic_snr", lambda *a: calls.append(a) or post_ic_snr(*a))
        assert np.array_equal(sampler(RngStream(5, 1), n), want)
        assert len(calls) == tiles
        assert all(len(a[1]) <= CHUNK_TRIALS for a in calls)

    @pytest.mark.parametrize(
        "scheme,cfg3",
        [(SchemeId.DecodeRelayIcDest, (2, 4, 3)), (SchemeId.ConcurrentJoint, (2, 4, 3)), (SchemeId.DstcIcRec, (2, 5, 3))],
    )
    def test_sampler_refuses_when_built(self, monkeypatch, scheme, cfg3):
        # A row with no post-IC SNR, or a cell the kernels refuse (M = 5
        # amplify-and-forward), is refused when the sampler is built,
        # before any draw from any stream.
        draws = []
        monkeypatch.setattr(RngStream, "complex_normal", lambda *a: draws.append(a))
        cfg = NetworkConfig(*cfg3, 10.0)
        with pytest.raises(UsageError):
            make_gamma_sampler(scheme, cfg)
        with pytest.raises(UsageError):
            run_diversity(scheme, cfg, trials=1000)
        assert not draws

    @pytest.mark.parametrize(
        "scheme,cfg3",
        [
            (SchemeId.TdmaIcRec, (2, 4, 3)),
            (SchemeId.TdmaIcRec, (2, 2, 3)),
            (SchemeId.DstcIcRec, (2, 2, 2)),
            (SchemeId.DstcIcRec, (2, 2, 3)),
            (SchemeId.DstcIcRec, (2, 2, 4)),
        ],
    )
    def test_sampler_matches_explicit_ic(self, oracles, scheme, cfg3):
        # The sampler runs the kernels' pair stages in tiles; the explicit-IC
        # closed form on the same draws is its independent oracle, and that
        # IC cancels the interferers.
        cfg = NetworkConfig(*cfg3, 100.0)
        n, key = 2 * CHUNK_TRIALS + 17, cfg3[1] * 8 + cfg3[2]
        F, G = draw_channels_batch(cfg, RngStream(21, key), n)
        got = make_gamma_sampler(scheme, cfg)(RngStream(21, key), n)
        if scheme is SchemeId.TdmaIcRec:
            dense = snr_tdma_batch
            splits = pair_blocks(tdma_channel_stacks(G, cfg.J), dstc_design(cfg.M // cfg.J).T)
        else:
            dense = snr_dstc_batch
            splits = pair_blocks(dstc_channel_stacks(F, G), 2)
        want = dense(F, G, cfg)
        # Relative to each draw's own gamma, so the deep fades (the bottom
        # 2% of gamma, where an outage event is decided) are held to it too.
        assert np.all(np.abs(got - want) <= 1e-8 * want)
        assert np.array_equal(got, post_ic_snr(scheme, F, G, cfg))
        for split in splits:
            bmat, bad = ic_stack_batch(split, 0)
            assert not bad.any()
            assert oracles.ic_residual(split, bmat, 0, bad) <= oracles.IC_RESIDUAL_TOL

    def test_sampler_builds_no_ic_matrix(self, monkeypatch):
        # Every sampler runs on the pair stages alone: no explicit IC
        # matrix, no dense covariance solve.
        import marnsim.harness as harness
        from marnsim import analysis, rx_ic

        def refuse(*args):
            raise AssertionError("explicit IC stage on the sampler path")

        for owner, name in [
            (rx_ic, "ic_stack_batch"),
            (analysis, "ic_stack_batch"),
            (analysis, "solve_psd_stack"),
            (np.linalg, "solve"),
        ]:
            monkeypatch.setattr(owner, name, refuse)
        for scheme in _POST_IC_ROWS:
            for cfg3 in [(2, 4, 3), (2, 2, 3)]:
                cfg = NetworkConfig(*cfg3, 10.0)
                assert np.all(harness.make_gamma_sampler(scheme, cfg)(RngStream(22), 64) > 0)
        # The refusal is live: the closed form builds the explicit IC.
        cfg = NetworkConfig(2, 2, 3, 10.0)
        with pytest.raises(AssertionError, match="explicit IC"):
            harness.snr_dstc_batch(*draw_channels_batch(cfg, RngStream(22), 8), cfg)


class TestConfigFile:
    def test_load_and_merge(self, tmp_path):
        path = tmp_path / "sim.ini"
        path.write_text(
            "[simulate]\nscheme = tdma_icrec\nconfig = 2,2,3\n"
            "snr-db = 6:4:10\nmin-errors = 5\nmax-trials = 4096\nseed = 3\n"
        )
        settings = load_config_file(str(path))
        assert settings["snr_db"] == "6:4:10"
        assert settings["min_errors"] == "5"

    def test_missing_file_raises(self):
        with pytest.raises(UsageError):
            load_config_file("/nonexistent/sim.ini")


class TestCli:
    def test_simulate_csv_to_stdout(self, capsys):
        rc = main(
            [
                "simulate",
                "--scheme", "tdma_icrec",
                "--config", "2,2,3",
                "--snr-db", "10",
                "--min-errors", "5",
                "--max-trials", "4096",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == CSV_HEADER
        assert len(out.strip().splitlines()) == 2

    def test_simulate_missing_scheme_is_usage_error(self, capsys):
        rc = main(["simulate", "--config", "2,2,3"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_simulate_invalid_config_is_usage_error(self, capsys):
        rc = main(
            ["simulate", "--scheme", "tdma_icrec", "--config", "3,2,4",
             "--snr-db", "10", "--max-trials", "100"]
        )
        assert rc == 1

    def test_config_file_with_cli_override(self, tmp_path, capsys):
        path = tmp_path / "sim.ini"
        path.write_text(
            "[simulate]\nscheme = tdma_icrec\nconfig = 2,2,3\n"
            "snr-db = 6\nmin-errors = 5\nmax-trials = 4096\n"
        )
        rc = main(["simulate", "--config-file", str(path), "--snr-db", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[4]) == 8.0

    def test_diversity_from_csv(self, tmp_path, capsys):
        pts = [
            BerPoint(SchemeId.TdmaIcRec, 2, 2, 3, snr, 10**7, 0, 10**7, errs)
            for snr, errs in [(10, 500000), (15, 50000), (20, 5000), (25, 500)]
        ]
        path = tmp_path / "curve.csv"
        emit(pts, path=str(path))
        rc = main(["diversity", "--from-csv", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tdma_icrec 2x2x3: slope" in out

    def test_diversity_outage(self, capsys):
        rc = main(
            ["diversity", "--scheme", "tdma_icrec", "--config", "2,2,2",
             "--snr-db", "20", "--trials", "200000"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "outage slope" in out

    @pytest.mark.parametrize("scheme,rc", [("ic_relay_tdma", 0), ("concurrent_joint", 1)])
    def test_diversity_takes_post_ic_rows(self, capsys, scheme, rc):
        got = main(["diversity", "--scheme", scheme, "--config", "2,4,3", "--trials", "4096"])
        out = capsys.readouterr().out
        assert got == rc
        assert (f"{scheme} 2x4x3: outage slope" in out) == (rc == 0)

    def test_simulate_negative_workers_is_usage_error(self, capsys):
        rc = main(
            ["simulate", "--scheme", "tdma_icrec", "--config", "2,2,3",
             "--snr-db", "10", "--max-trials", "100", "--workers", "-2"]
        )
        assert rc == 1
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_diversity_nonpositive_trials_is_usage_error(self, capsys, trials):
        rc = main(["diversity", "--scheme", "tdma_icrec", "--config", "2,2,2", "--trials", trials])
        assert rc == 1
        assert "trial" in capsys.readouterr().err

    def test_simulate_rejects_unsupported_config_before_any_cell(self, capsys):
        rc = main(
            ["simulate", "--scheme", "dstc_icrec", "--config", "2,2,3", "--config", "2,5,3",
             "--snr-db", "10:5:20", "--min-errors", "1", "--max-trials", "64"]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "M in 2..4" in err
        assert " dB: ber=" not in err  # no progress line: no cell ran

    @pytest.mark.parametrize("grid", ["abc", "10:x:20", "1e"])
    def test_simulate_non_numeric_snr_grid_is_usage_error(self, capsys, grid):
        rc = main(["simulate", "--scheme", "tdma_icrec", "--config", "2,2,3", "--snr-db", grid])
        assert rc == 1
        assert "error: snr grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--scheme", "tdma_icrec", "--config", "2,2,3", "--seed", "x"],
            ["diversity", "--snr-db", "abc"],
            ["diversity", "--trials", "x"],
        ],
        ids=["simulate-seed", "diversity-snr-db", "diversity-trials"],
    )
    def test_flag_of_wrong_type_is_usage_error(self, capsys, argv):
        # argparse's own exit status 2 would read as a numeric failure.
        rc = main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: marnsim ") and "invalid" in err

    @pytest.mark.parametrize(
        "line", ["min-errors = many", "max-trials = x", "seed = x", "workers = x", "min_errors = 1.5"]
    )
    def test_config_file_non_integer_is_usage_error(self, tmp_path, capsys, line):
        path = tmp_path / "sim.ini"
        path.write_text(f"[simulate]\nscheme = tdma_icrec\nconfig = 2,2,3\nsnr-db = 6\n{line}\n")
        rc = main(["simulate", "--config-file", str(path)])
        assert rc == 1
        assert "is not a valid int" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--scheme", "tdma_icrec", "--config", "2,2,3", "--snr-db", "10"],
            ["compare", "fig7"],
        ],
        ids=["simulate", "compare"],
    )
    @pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out_fails_before_any_cell(self, monkeypatch, tmp_path, capsys, argv, target):
        import marnsim.harness as harness

        def refuse(*args):
            raise AssertionError("a cell ran before --out was checked")

        monkeypatch.setattr(harness, "_run_cell", refuse)
        rc = main(argv + ["--out", str(tmp_path / target)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: cannot write --out")

    def test_diversity_missing_csv_is_usage_error(self, tmp_path, capsys):
        rc = main(["diversity", "--from-csv", str(tmp_path / "missing.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: cannot read --from-csv")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--scheme", "tdma_icrec", "--config", "2,2,3", "--snr-db", "10"],
        ["compare", "fig7"],
    ])
    def test_stop_rule_defaults_come_from_the_spec(self, monkeypatch, argv):
        import marnsim.cli as cli

        built = []
        monkeypatch.setattr(cli, "_run_and_emit", lambda spec, args: built.append(spec) or 0)
        assert main(argv) == 0
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentSpec)}
        for key in ("min_errors", "max_trials", "seed", "workers"):
            assert getattr(built[0], key) == defaults[key]

    def test_selftest_exit_zero(self, capsys):
        assert main(["selftest"]) == 0
