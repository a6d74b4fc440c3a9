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
    """(A, B) stacks for the full T-antenna design, T in {1, 2, 4}."""
    a = np.zeros((T, T, T), dtype=np.int8)
    b = np.zeros((T, T, T), dtype=np.int8)
    a[0] = np.eye(T)
    if T == 2:
        b[1] = [[0, -1], [1, 0]]
    if T == 4:
        a[3] = [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]
        b[1] = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
        b[2] = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    return a, b


def dstc_design(M: int) -> DstcDesign:
    """Design for an M-antenna relay, M in 1..4: antennas 1..M of the
    smallest orthogonal (T = 1, 2) or quasi-orthogonal (T = 4) design
    covering M.  Larger relay antenna groups are refused: the receiver
    recombines blocks of T in {1, 2, 4} only."""
    if not 1 <= M <= 4:
        raise UsageError(f"relay designs cover 1..4 antennas, got M={M}")
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


def _signed_gather(design: DstcDesign):
    """(source slot, real factor, imaginary factor), each (m, T), of
    ``apply_design``: entry t of antenna i is sign * r_i[slot] or
    sign * conj(r_i[slot]), so its real and imaginary parts are the
    slot's times the two factors."""
    coef = design.A + design.B  # exactly one of the two is nonzero per antenna
    slot = np.argmax(np.abs(coef), axis=-1)
    sign = np.take_along_axis(coef, slot[..., None], axis=-1)[..., 0].astype(float)
    conj = np.where(np.any(design.B, axis=(1, 2)), -1.0, 1.0)[:, None]
    return slot, sign, conj * sign


def apply_design(design: DstcDesign, received: np.ndarray) -> np.ndarray:
    """Unscaled per-antenna transform A_i r_i + B_i conj(r_i).

    ``received`` has shape (m_used, T, ...), batch axes last; so does the
    result.  Each entry is a signed slot of r_i or of its conjugate,
    gathered rather than multiplied by 0/+-1 coefficients.
    """
    received = np.asarray(received, dtype=complex)
    m, T = design.m_used, design.T
    if received.shape[:2] != (m, T):
        raise UsageError(f"received shape {received.shape} != ({m}, {T}, ...)")
    slot, re, im = _signed_gather(design)
    out = received[np.arange(m)[:, None], slot]  # a fresh array
    shape = (m, T) + (1,) * (out.ndim - 2)
    out.real *= re.reshape(shape)
    out.imag *= im.reshape(shape)
    return out
