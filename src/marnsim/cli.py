"""Command-line interface.

Subcommands:
  simulate   BER sweep over schemes, (J,M,N) configs, and an SNR grid
  diversity  outage-slope diversity estimate (or BER-slope from a CSV)
  compare    canned experiments fig4..fig8
  selftest   structural oracle/property checks

Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 selftest
failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .airlink import NetworkConfig
from .harness import (
    ExperimentSpec,
    ber_slope_from_csv,
    canned_spec,
    emit,
    load_config_file,
    run_diversity,
    run_experiment,
)
from .numerics import NumericError, UsageError
from .schemes import SchemeId
from .selftest import run_selftest

__all__ = ["main"]

_MODS = {"bpsk": 2, "qpsk": 4, "8psk": 8, "16psk": 16}


def _parse_number(convert, text, what: str):
    """convert(text), with a ValueError turned into a UsageError."""
    try:
        return convert(text)
    except ValueError as exc:
        raise UsageError(f"{what}: {text!r} is not a valid {convert.__name__}") from exc


def _parse_mod(text: str) -> int:
    low = text.strip().lower()
    return _MODS[low] if low in _MODS else _parse_number(int, low, "modulation")


def _parse_triple(text: str):
    parts = text.replace("x", ",").split(",")
    if len(parts) != 3:
        raise UsageError(f"config must be J,M,N, got {text!r}")
    return tuple(_parse_number(int, p, "config J,M,N") for p in parts)


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise UsageError(f"snr grid must be start:step:stop, got {text!r}")
    values = tuple(_parse_number(float, p, "snr grid") for p in parts)
    if len(values) == 1:
        return values
    start, step, stop = values
    if step <= 0 or stop < start:
        raise UsageError(f"bad snr grid {text!r}")
    out = []
    v = start
    while v <= stop + 1e-9:
        out.append(round(v, 10))
        v += step
    return tuple(out)


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors are usage errors (exit 1), not
    argparse's exit 2, which this CLI reserves for numeric failures."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _add_common(p):
    # None means "not given on the command line" so config-file values can
    # fill in; hard defaults are applied after merging.
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--min-errors", type=int, default=None)
    p.add_argument("--max-trials", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "plotdata"), default="csv")


def _build_parser():
    ap = _Parser(prog="marnsim", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="BER sweep")
    sim.add_argument("--scheme", action="append", default=None)
    sim.add_argument("--config", action="append", default=None, metavar="J,M,N")
    sim.add_argument("--snr-db", default=None, metavar="START:STEP:STOP")
    sim.add_argument("--mod", default=None)
    sim.add_argument("--config-file", default=None)
    _add_common(sim)

    div = sub.add_parser("diversity", help="diversity-order estimation")
    div.add_argument("--scheme", default="tdma_icrec")
    div.add_argument("--config", default="2,2,3", metavar="J,M,N")
    div.add_argument("--snr-db", type=float, default=20.0)
    div.add_argument("--trials", type=int, default=1_000_000)
    div.add_argument("--seed", type=int, default=0)
    div.add_argument("--eps-start", type=float, default=None)
    div.add_argument("--from-csv", default=None, help="BER-slope a CSV instead")
    div.add_argument("--window", type=int, default=4)

    cmp_ = sub.add_parser("compare", help="canned experiments")
    cmp_.add_argument("figure", choices=("fig4", "fig5", "fig6", "fig7", "fig8"))
    _add_common(cmp_)

    st = sub.add_parser("selftest", help="structural checks")
    st.add_argument("--seed", type=int, default=0)
    return ap


def _run_and_emit(spec, args) -> int:
    """Run the sweep and write its points to --out, or to stdout; an --out
    path that cannot be written is refused before the first cell."""
    if args.out is not None:
        parent = os.path.dirname(os.path.abspath(args.out))
        if os.path.isdir(args.out) or not os.path.isdir(parent) or not os.access(parent, os.W_OK):
            raise UsageError(f"cannot write --out {args.out!r}")
    text = emit(run_experiment(spec, progress=sys.stderr), args.format, args.out)
    if not args.out:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(args) -> int:
    settings = load_config_file(args.config_file) if args.config_file else {}

    def pick(flag, key, fallback):
        if flag is not None:
            return flag
        return settings.get(key, fallback)

    schemes = args.scheme or (
        [s.strip() for s in str(settings["scheme"]).split()] if "scheme" in settings else None
    )
    if not schemes:
        raise UsageError("at least one --scheme is required")
    configs = args.config or (
        str(settings["config"]).split() if "config" in settings else None
    )
    if not configs:
        raise UsageError("at least one --config J,M,N is required")
    grid = _parse_grid(str(pick(args.snr_db, "snr_db", "10:5:30")))
    order = _parse_mod(str(pick(args.mod, "mod", "bpsk")))
    workers = pick(args.workers, "workers", None)
    spec = ExperimentSpec(
        tuple(SchemeId.parse(s) for s in schemes),
        tuple(_parse_triple(c) for c in configs),
        grid,
        default_order=order,
        min_errors=_parse_number(int, pick(args.min_errors, "min_errors", 200), "min_errors"),
        max_trials=_parse_number(int, pick(args.max_trials, "max_trials", 2_000_000), "max_trials"),
        seed=_parse_number(int, pick(args.seed, "seed", 0), "seed"),
        workers=None if workers is None else _parse_number(int, workers, "workers"),
    )
    return _run_and_emit(spec, args)


def _cmd_diversity(args) -> int:
    if args.from_csv:
        try:
            with open(args.from_csv) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read --from-csv {args.from_csv!r}: {exc.strerror}") from exc
        slopes = ber_slope_from_csv(text, args.window)
        for (scheme, j, m, n), est in sorted(slopes.items(), key=lambda kv: kv[0][0].value):
            print(
                f"{scheme.value} {j}x{m}x{n}: slope {est.slope:.3f} "
                f"+- {est.stderr:.3f} over {est.fit_range[0]:g}..{est.fit_range[1]:g} dB"
            )
        return 0
    scheme = SchemeId.parse(args.scheme)
    j, m, n = _parse_triple(args.config)
    cfg = NetworkConfig(j, m, n, 10.0 ** (args.snr_db / 10.0))
    est = run_diversity(scheme, cfg, args.trials, args.seed, args.eps_start)
    print(
        f"{scheme.value} {j}x{m}x{n}: outage slope {est.slope:.3f} +- {est.stderr:.3f} "
        f"over eps in [{est.fit_range[0]:.3g}, {est.fit_range[1]:.3g}]"
    )
    return 0


def _cmd_compare(args) -> int:
    spec = canned_spec(
        args.figure,
        seed=args.seed if args.seed is not None else 0,
        min_errors=args.min_errors if args.min_errors is not None else 200,
        max_trials=args.max_trials if args.max_trials is not None else 2_000_000,
        workers=args.workers,
    )
    return _run_and_emit(spec, args)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "diversity":
            return _cmd_diversity(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "selftest":
            return 0 if run_selftest(args.seed) else 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
