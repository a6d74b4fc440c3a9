"""Monte Carlo driver and result emission.

Trials run in fixed-size chunks, each owning a counter-based random
stream keyed by (seed, cell index, chunk index).  The stop rule is
evaluated on wave boundaries (a wave is a fixed number of chunks), so
aggregate counts are bitwise identical no matter how many workers execute
the chunks.  Points are emitted as CSV (stable header) or as a blank-line
separated plot-data file.
"""

from __future__ import annotations

import configparser
import math
import multiprocessing
import os
from dataclasses import dataclass, field

import numpy as np

from .airlink import NetworkConfig, RngStream, draw_channels_batch, make_psk
from .analysis import (
    DiversityEstimate,
    ber_slope,
    make_eps_grid,
    outage_diversity,
    snr_dstc_batch,  # noqa: F401  bench/layers.py traces the dense SNR under this name
    snr_tdma_batch,  # noqa: F401  bench/layers.py traces the dense SNR under this name
)
from .numerics import UsageError
from .schemes import SchemeId, block_length, check_supported, post_ic_snr, scheme_meta, simulate_chunk

__all__ = [
    "ExperimentSpec",
    "BerPoint",
    "CSV_HEADER",
    "run_experiment",
    "run_diversity",
    "make_gamma_sampler",
    "emit",
    "parse_csv",
    "ber_slope_from_csv",
    "wilson_interval",
    "canned_spec",
    "default_workers",
    "COMPARISON_ORDERS",
]

CSV_HEADER = "scheme,J,M,N,snr_db,trials,erasures,bits,bit_errors,ber,ci95_lo,ci95_hi"

# Constellation orders giving 1 bit/source/channel use per scheme (J=2).
COMPARISON_ORDERS = {
    SchemeId.DstcIcRec: 4,
    SchemeId.TdmaIcRec: 8,
    SchemeId.IcRelayTdma: 8,
    SchemeId.FullTdmaDstc: 16,
    SchemeId.DecodeRelayIcDest: 8,
    SchemeId.ConcurrentJoint: 4,
}

CHUNK_TRIALS = 4096
WAVE_CHUNKS = 4
Z95 = 1.959963984540054  # two-sided 95% standard normal quantile
GRID_POINTS = 12  # epsilon grid points of run_diversity


def default_workers() -> int:
    env = os.environ.get("MARN_SIM_WORKERS", "").strip()
    if env:
        try:
            w = int(env)
        except ValueError as exc:
            raise UsageError(f"MARN_SIM_WORKERS must be an integer, got {env!r}") from exc
        if w < 1:
            raise UsageError("MARN_SIM_WORKERS must be >= 1")
        return w
    return 1


@dataclass(frozen=True)
class ExperimentSpec:
    """One BER sweep: schemes x (J,M,N) configs x SNR grid."""

    schemes: tuple
    configs: tuple
    snr_db: tuple
    orders: dict = field(default_factory=dict)  # SchemeId -> PSK order
    default_order: int = 2
    min_errors: int = 200
    max_trials: int = 2_000_000
    seed: int = 0
    workers: int = None

    def __post_init__(self):
        if len(self.snr_db) < 1 or any(
            b <= a for a, b in zip(self.snr_db, self.snr_db[1:])
        ):
            raise UsageError("SNR grid must be non-empty and strictly increasing")
        if self.min_errors < 0 or self.max_trials < 1:
            raise UsageError("invalid stop rule")
        if self.workers is not None and self.workers < 1:
            raise UsageError(f"workers must be >= 1, got {self.workers}")

    def order_for(self, scheme: SchemeId) -> int:
        return self.orders.get(scheme, self.default_order)


@dataclass(frozen=True)
class BerPoint:
    scheme: SchemeId
    J: int
    M: int
    N: int
    snr_db: float
    trials: int
    erasures: int
    bits: int
    bit_errors: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits if self.bits else 0.0

    @property
    def ci95(self):
        return wilson_interval(self.bit_errors, self.bits)

    def csv_row(self) -> str:
        lo, hi = self.ci95
        return (
            f"{self.scheme.value},{self.J},{self.M},{self.N},{self.snr_db:g},"
            f"{self.trials},{self.erasures},{self.bits},{self.bit_errors},"
            f"{self.ber:.8e},{lo:.8e},{hi:.8e}"
        )


def wilson_interval(k: int, n: int):
    """Wilson score interval (95%) for a binomial proportion."""
    if n <= 0:
        return 0.0, 1.0
    p = k / n
    z2 = Z95 * Z95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = Z95 * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _chunk_task(args):
    scheme_value, J, M, N, p, order, seed, stream_id, n = args
    scheme = SchemeId(scheme_value)
    const = make_psk(order)
    cfg = NetworkConfig(J, M, N, p)
    stream = RngStream(seed, stream_id)
    errors, erased = simulate_chunk(scheme, cfg, const, stream, n)
    keep = ~erased
    return int(errors[keep].sum()), int(keep.sum()), int(erased.sum())


def _run_cell(scheme, J, M, N, snr_db, order, spec, cell_idx, pool):
    p = 10.0 ** (snr_db / 10.0)
    bits_per_trial = J * block_length(scheme, J, M) * int(round(math.log2(order)))
    errors = trials = erasures = 0
    chunk_idx = 0
    while trials < spec.max_trials and errors < spec.min_errors:
        wave = []
        for _ in range(WAVE_CHUNKS):
            remaining = spec.max_trials - trials - sum(w[-1] for w in wave)
            if remaining <= 0:
                break
            n = min(CHUNK_TRIALS, remaining)
            wave.append(
                (scheme.value, J, M, N, p, order, spec.seed, (cell_idx << 32) | chunk_idx, n)
            )
            chunk_idx += 1
        if not wave:
            break
        results = pool.map(_chunk_task, wave) if pool else [_chunk_task(w) for w in wave]
        for err, kept, era in results:
            errors += err
            trials += kept + era
            erasures += era
    bits = (trials - erasures) * bits_per_trial
    return BerPoint(scheme, J, M, N, snr_db, trials, erasures, bits, errors)


def run_experiment(spec: ExperimentSpec, progress=None):
    """Run every (scheme, config, SNR) cell of the spec; deterministic
    aggregates for a given seed regardless of worker count.  Every
    (scheme, config, order) is checked before the first cell runs."""
    for scheme in spec.schemes:
        for J, M, N in spec.configs:
            scheme_meta(scheme, J, M, N)  # validates J <= min(M, N)
            check_supported(scheme, J, M, spec.order_for(scheme))
    workers = spec.workers if spec.workers else default_workers()
    pool = None
    points = []
    try:
        if workers > 1:
            pool = multiprocessing.get_context("spawn").Pool(workers)
        cell_idx = 0
        for scheme in spec.schemes:
            order = spec.order_for(scheme)
            for J, M, N in spec.configs:
                for snr_db in spec.snr_db:
                    point = _run_cell(scheme, J, M, N, snr_db, order, spec, cell_idx, pool)
                    cell_idx += 1
                    points.append(point)
                    if progress:
                        print(
                            f"{scheme.value} {J}x{M}x{N} {snr_db:g} dB: "
                            f"ber={point.ber:.3e} ({point.bit_errors} errors, "
                            f"{point.trials} trials)",
                            file=progress,
                        )
    finally:
        if pool:
            pool.close()
            pool.join()
    return points


# ---------------------------------------------------------------------------
# Diversity driver


def make_gamma_sampler(scheme: SchemeId, cfg: NetworkConfig):
    """Vectorized instantaneous-SNR sampler of source 0's post-IC SNR
    (``schemes.post_ic_snr``) for the rows that have one: ``dstc_icrec``,
    ``tdma_icrec``, ``ic_relay_tdma`` and ``full_tdma_dstc``.  Any other
    row or an unsupported cell raises UsageError here, before any draw.

    Each call draws all n channel pairs at once, so the stream is the same
    for any tiling, then computes their SNR one ``CHUNK_TRIALS`` tile at a
    time, which keeps the stages' temporaries small.  Every stage is
    elementwise over the batch axis, so the tiles change no value."""
    post_ic_snr(scheme, np.zeros((0, cfg.M, cfg.J)), np.zeros((0, cfg.M, cfg.N)), cfg)  # refuses, drawing nothing

    def sampler(stream: RngStream, n: int) -> np.ndarray:
        F, G = draw_channels_batch(cfg, stream, n)
        gamma = np.empty(n)
        for i in range(0, n, CHUNK_TRIALS):
            tile = slice(i, i + CHUNK_TRIALS)
            gamma[tile] = post_ic_snr(scheme, F[tile], G[tile], cfg)
        return gamma

    return sampler


def run_diversity(
    scheme: SchemeId,
    cfg: NetworkConfig,
    trials: int = 1_000_000,
    seed: int = 0,
    eps_start: float = None,
) -> DiversityEstimate:
    """Outage-probability diversity estimate for one scheme and config."""
    sampler = make_gamma_sampler(scheme, cfg)
    if eps_start is None:
        pilot = sampler(RngStream(seed, 0xFFFF), 20000)
        positive = pilot[pilot > 0]
        if positive.size < 100:
            raise UsageError("SNR sampler produced too few positive draws")
        eps_start = float(np.quantile(positive, 0.02))
    grid = make_eps_grid(eps_start, GRID_POINTS)
    return outage_diversity(sampler, grid, trials, RngStream(seed, 0xD1FE))


# ---------------------------------------------------------------------------
# Emission


def emit(points, fmt: str = "csv", path: str = None) -> str:
    """Serialize BER points; returns the text (and writes it if a path is
    given).  Formats: csv (stable header) or plotdata (one block per
    curve, blank-line separated, columns snr_db ber)."""
    if not points:
        raise UsageError("no points to emit")
    if fmt == "csv":
        lines = [CSV_HEADER] + [p.csv_row() for p in points]
    elif fmt == "plotdata":
        lines = []
        curves = {}
        for p in points:
            curves.setdefault((p.scheme, p.J, p.M, p.N), []).append(p)
        for (scheme, J, M, N), pts in curves.items():
            if lines:
                lines.append("")
            lines.append(f"# scheme={scheme.value} J={J} M={M} N={N}")
            for p in sorted(pts, key=lambda q: q.snr_db):
                lines.append(f"{p.snr_db:g} {p.ber:.8e}")
    else:
        raise UsageError(f"unknown format {fmt!r}; use csv or plotdata")
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def parse_csv(text: str):
    """Inverse of emit(..., 'csv'): the points of a CSV text."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise UsageError("missing or unexpected CSV header")
    points = []
    for ln in lines[1:]:
        cols = ln.split(",")
        if len(cols) != 12:
            raise UsageError(f"bad CSV row: {ln!r}")
        points.append(
            BerPoint(
                SchemeId(cols[0]),
                int(cols[1]),
                int(cols[2]),
                int(cols[3]),
                float(cols[4]),
                int(cols[5]),
                int(cols[6]),
                int(cols[7]),
                int(cols[8]),
            )
        )
    return points


def ber_slope_from_csv(text: str, window: int = 4):
    """Per-curve BER slope estimates from an emitted CSV text."""
    points = parse_csv(text)
    curves = {}
    for p in points:
        curves.setdefault((p.scheme, p.J, p.M, p.N), []).append(p)
    out = {}
    for key, pts in curves.items():
        usable = [(p.snr_db, p.ber, p.bit_errors) for p in pts if p.bit_errors > 0]
        if len(usable) >= 3:
            out[key] = ber_slope(usable, window)
    return out


# ---------------------------------------------------------------------------
# Canned experiments


_ALL_SCHEMES = tuple(SchemeId)


def canned_spec(name: str, seed: int = None, min_errors: int = None, max_trials: int = None, workers: int = None) -> ExperimentSpec:
    """Prebuilt sweeps matching the published experiment setups; a stop
    setting left at None keeps ExperimentSpec's default."""
    given = dict(seed=seed, min_errors=min_errors, max_trials=max_trials, workers=workers)
    common = {key: value for key, value in given.items() if value is not None}
    if name == "fig4":
        return ExperimentSpec(
            (SchemeId.DstcIcRec,),
            ((2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 4, 2), (2, 4, 3), (2, 4, 4), (3, 4, 3)),
            tuple(range(10, 42, 4)),
            default_order=2,
            **common,
        )
    if name == "fig5":
        return ExperimentSpec(
            (SchemeId.TdmaIcRec,),
            (
                (2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 3, 3),
                (3, 3, 5), (2, 4, 2), (2, 4, 3), (2, 8, 2),
            ),
            tuple(range(6, 38, 4)),
            default_order=2,
            **common,
        )
    comparison = {"fig6": (2, 2, 2), "fig7": (2, 2, 3), "fig8": (2, 4, 3)}
    if name in comparison:
        return ExperimentSpec(
            _ALL_SCHEMES,
            (comparison[name],),
            tuple(range(8, 42, 3)),
            orders=dict(COMPARISON_ORDERS),
            **common,
        )
    raise UsageError(f"unknown canned experiment {name!r}; expected fig4..fig8")


# ---------------------------------------------------------------------------
# Config files


def load_config_file(path: str) -> dict:
    """Flat key=value settings from [simulate]/[diversity] sections."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"cannot read config file {path!r}")
    out = {}
    for section in parser.sections():
        for key, val in parser.items(section):
            out[key.replace("-", "_")] = val
    return out
