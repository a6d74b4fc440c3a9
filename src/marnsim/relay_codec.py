"""Relay-side space-time designs and power scales.

Every relay applies the per-antenna linear transform of an orthogonal or
quasi-orthogonal distributed space-time code: antenna i emits
``c * (A_i r_i + B_i conj(r_i))`` with no cross-antenna mixing.  The
concurrent-uplink relays apply it to what they receive; the TDMA-uplink
relays apply it per antenna group to each source's combined (or hard
decided) symbols, see ``schemes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import NumericError, UsageError

__all__ = [
    "DstcDesign",
    "dstc_design",
    "apply_design",
    "dstc_power_scale",
    "tdma_power_scale",
]


@dataclass(frozen=True)
class DstcDesign:
    """Per-antenna encoding pairs (A_i, B_i) of a T x T signed-permutation
    space-time design; exactly one of A_i, B_i is nonzero for each antenna."""

    T: int
    m_used: int
    A: np.ndarray  # (m_used, T, T) int8
    B: np.ndarray  # (m_used, T, T) int8

    @property
    def pairs(self):
        return [(self.A[i], self.B[i]) for i in range(self.m_used)]

    def validate(self) -> None:
        for i, (a, b) in enumerate(self.pairs):
            nz = (np.any(a), np.any(b))
            if nz[0] == nz[1]:
                raise NumericError(f"antenna {i}: exactly one of A, B must be nonzero")
            m = a if nz[0] else b
            if not (np.all(np.sum(np.abs(m), axis=0) == 1) and np.all(np.sum(np.abs(m), axis=1) == 1)):
                raise NumericError(f"antenna {i}: not a signed permutation")


def _design_pairs(T: int):
    """(A, B) stacks for the full T-antenna design, T a power of two."""
    if T == 1:
        return np.ones((1, 1, 1), dtype=np.int8), np.zeros((1, 1, 1), dtype=np.int8)
    if T == 2:
        a = np.zeros((2, 2, 2), dtype=np.int8)
        b = np.zeros((2, 2, 2), dtype=np.int8)
        a[0] = np.eye(2)
        b[1] = [[0, -1], [1, 0]]
        return a, b
    if T == 4:
        a = np.zeros((4, 4, 4), dtype=np.int8)
        b = np.zeros((4, 4, 4), dtype=np.int8)
        a[0] = np.eye(4)
        a[3] = [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]
        b[1] = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
        b[2] = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
        return a, b
    # ABBA doubling: codeword [[S(sa), S(sb)], [S(sb), S(sa)]].
    ah, bh = _design_pairs(T // 2)
    h = T // 2
    a = np.zeros((T, T, T), dtype=np.int8)
    b = np.zeros((T, T, T), dtype=np.int8)
    for i in range(h):
        a[i, :h, :h] = a[i, h:, h:] = ah[i]
        b[i, :h, :h] = b[i, h:, h:] = bh[i]
        a[h + i, :h, h:] = a[h + i, h:, :h] = ah[i]
        b[h + i, :h, h:] = b[h + i, h:, :h] = bh[i]
    return a, b


def dstc_design(M: int) -> DstcDesign:
    """Design for an M-antenna relay: antennas 1..M of the smallest
    power-of-two orthogonal/quasi-orthogonal family covering M."""
    if M < 1:
        raise UsageError("M must be >= 1")
    T = 1 << max(0, (M - 1)).bit_length()
    a, b = _design_pairs(T)
    return DstcDesign(T, M, a[:M].copy(), b[:M].copy())


def dstc_power_scale(P: float, M: int, J: int) -> float:
    """Relay amplification for the concurrent-uplink encoder.

    c = sqrt(P / (M (J P + 1))) keeps the total average relay power at P
    when the per-antenna input power is J*P + 1; it reduces to
    sqrt(P/(4P+2)) for J=2, M=2 and sqrt(P/(4(JP+1))) for M=4.
    """
    return math.sqrt(P / (M * (J * P + 1.0)))


def tdma_power_scale(P: float, M: int) -> float:
    """Relay amplification sqrt(P / (M P + M)) for the MRC-estimate encoder."""
    return math.sqrt(P / (M * P + M))


def apply_design(design: DstcDesign, received: np.ndarray) -> np.ndarray:
    """Unscaled per-antenna transform A_i r_i + B_i conj(r_i).

    ``received`` has shape (..., m_used, T); so does the result.
    """
    a = design.A.astype(float)
    b = design.B.astype(float)
    return np.einsum("its,...is->...it", a, received) + np.einsum(
        "its,...is->...it", b, np.conj(received)
    )
