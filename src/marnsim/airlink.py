"""Network model: configuration, Rayleigh block fading, AWGN, PSK mapping.

J single-antenna sources talk to one N-antenna destination through one
M-antenna relay; there is no direct source-destination link.  All channel
coefficients are i.i.d. circularly symmetric CN(0,1) and stay fixed for
one end-to-end codeword (block fading covering both hops).  Noise is unit
power, so the per-node power constraint P is also the transmit SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import UsageError

__all__ = [
    "RngStream",
    "NetworkConfig",
    "Constellation",
    "draw_channels_batch",
    "make_psk",
    "modulate",
    "nearest_psk",
]


class RngStream:
    """Counter-based random stream, keyed by (seed, stream id).

    Built on Philox so streams for different trials never overlap by
    construction; this is what makes parallel runs bitwise reproducible
    regardless of how trials are chunked across workers.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = (self.seed & 0xFFFFFFFFFFFFFFFF) << 64 | (self.stream & 0xFFFFFFFFFFFFFFFF)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def substream(self, k: int) -> "RngStream":
        # Derived key for resampling rounds; disjoint from trial streams
        # because the top seed bits are folded differently.
        return RngStream(self.seed ^ (0x9E3779B97F4A7C15 * (k + 1) & 0xFFFFFFFFFFFFFFFF), self.stream)

    def complex_normal(self, *shape) -> np.ndarray:
        """CN(0,1) samples: (x + iy)/sqrt(2) with x, y standard normal.
        The pairs are scaled in place and viewed as complex: a complex
        divided by a real scalar is multiplied by its reciprocal, so this
        is bitwise (x + iy) / sqrt(2)."""
        z = self._gen.standard_normal(shape + (2,))
        z *= 1.0 / math.sqrt(2.0)
        return z.view(np.complex128)[..., 0]

    def bits(self, *shape) -> np.ndarray:
        return self._gen.integers(0, 2, size=shape, dtype=np.int8)

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


@dataclass(frozen=True)
class Constellation:
    """Unit-energy PSK constellation with Gray bit labels."""

    order: int
    points: np.ndarray
    labels: np.ndarray  # (order, log2(order)) int8 bit rows

    @property
    def bits_per_symbol(self) -> int:
        return int(round(math.log2(self.order)))

    def index_of_bits(self, bits: np.ndarray) -> np.ndarray:
        """Point index of each Gray label in an (..., b) bit array: the
        inverse of ``labels``."""
        b = self.bits_per_symbol
        weights = 1 << np.arange(b - 1, -1, -1)
        packed = np.asarray(bits).reshape(*bits.shape[:-1], b) @ weights
        return _gray_inverse(self.order)[packed]

    def rotated(self, angle: float) -> "Constellation":
        return Constellation(self.order, self.points * np.exp(1j * angle), self.labels)


def _gray(k: np.ndarray) -> np.ndarray:
    return k ^ (k >> 1)


def _gray_inverse(order: int) -> np.ndarray:
    inv = np.empty(order, dtype=np.int64)
    k = np.arange(order)
    inv[_gray(k)] = k
    return inv


def make_psk(order: int) -> Constellation:
    """PSK constellation with points exp(2 pi i k / order).

    Labels are the binary-reflected Gray code around the circle, so
    adjacent points differ in exactly one bit.
    """
    if order not in (2, 4, 8, 16):
        raise UsageError(f"unsupported PSK order {order}")
    k = np.arange(order)
    points = np.exp(1j * (2.0 * np.pi * k / order))
    b = int(round(math.log2(order)))
    gray = _gray(k)
    labels = (gray[:, None] >> np.arange(b - 1, -1, -1)) & 1
    return Constellation(order, points, labels.astype(np.int8))


def nearest_psk(y, order: int) -> np.ndarray:
    """Index k of the PSK point exp(2 pi i k / order) closest to y: the
    nearest angle, 0 at the origin."""
    y = np.asarray(y)
    angle = np.arctan2(y.imag, y.real, out=np.empty(y.shape))  # np.angle(y)
    angle *= order / (2.0 * math.pi)
    idx = np.rint(angle, out=angle).astype(np.int64)
    return np.remainder(idx, order, out=idx)


def modulate(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """Map a bit array (last axis a multiple of bits/symbol) to symbols."""
    bits = np.asarray(bits)
    b = c.bits_per_symbol
    if bits.shape[-1] % b:
        raise UsageError(f"bit count {bits.shape[-1]} not divisible by {b}")
    groups = bits.reshape(*bits.shape[:-1], bits.shape[-1] // b, b)
    return c.points[c.index_of_bits(groups)]


@dataclass(frozen=True)
class NetworkConfig:
    """Independent variables of one experiment cell."""

    J: int
    M: int
    N: int
    P: float

    def __post_init__(self):
        if self.J < 1 or self.M < 1 or self.N < 1:
            raise UsageError("J, M, N must all be >= 1")
        if self.J > min(self.M, self.N):
            raise UsageError(
                f"J={self.J} exceeds min(M, N)={min(self.M, self.N)}; "
                "full interference cancellation needs J <= min(M, N)"
            )
        if not self.P > 0:
            raise UsageError("transmit power P must be positive")


def draw_channels_batch(cfg: NetworkConfig, rng: RngStream, n: int):
    """n i.i.d. CN(0,1) draws of both hops, one coherence block each:
    F (n, M, J) holds f_i^(j) at [..., i, j] and G (n, M, N) holds g_il
    at [..., i, l].  One draw is a batch of one."""
    f = rng.complex_normal(n, cfg.M, cfg.J)
    g = rng.complex_normal(n, cfg.M, cfg.N)
    return f, g
