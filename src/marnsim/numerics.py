"""Small dense complex-matrix kernel used by the rest of the simulator.

Matrices are plain complex numpy arrays.  Everything here operates on
matrices of at most a few dozen rows (stacked 2x2 Alamouti blocks), so
clarity wins over BLAS-level tuning.  Most helpers accept stacked inputs
(leading batch axes) so the Monte Carlo driver can vectorize trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "UsageError",
    "NumericError",
    "Projector",
    "dagger",
    "is_alamouti",
    "null_space_projector",
    "solve_psd_stack",
]

# Singular values / pivots below RANK_TOL * (largest value) count as zero.
RANK_TOL = 1e-10


class UsageError(ValueError):
    """Caller violated a precondition (bad shape, unsupported parameter)."""


class NumericError(ArithmeticError):
    """Input was numerically degenerate (singular, non-finite)."""


def dagger(a):
    """Conjugate transpose, batched over leading axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def is_alamouti(m, tol: float = 1e-10) -> bool:
    """True iff ``m`` is 2x2 of the form [[a, -conj(b)], [b, conj(a)]].

    The sign convention is fixed: the conjugates sit in the second column.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise UsageError(f"expected a 2x2 matrix, got shape {m.shape}")
    scale = max(float(np.abs(m).max()), 1.0)
    return (
        abs(m[0, 1] + np.conj(m[1, 0])) <= tol * scale
        and abs(m[1, 1] - np.conj(m[0, 0])) <= tol * scale
    )


@dataclass(frozen=True)
class Projector:
    """An orthogonal projector (Hermitian and idempotent)."""

    matrix: np.ndarray

    def check(self, tol: float = 1e-10) -> None:
        p = self.matrix
        scale = max(float(np.linalg.norm(p)), 1e-300)
        if np.linalg.norm(p @ p - p) > tol * scale:
            raise NumericError("projector is not idempotent")
        if np.linalg.norm(p - dagger(p)) > tol * scale:
            raise NumericError("projector is not Hermitian")

    @property
    def rank(self) -> int:
        return int(round(np.real(np.trace(self.matrix))))


def null_space_projector(columns) -> Projector:
    """Projector onto the orthogonal complement of the column space.

    Rank deficiency (repeated or dependent columns) is handled through an
    SVD with a relative drop tolerance, so nearly-parallel channel draws
    do not blow up the projector.
    """
    a = np.atleast_2d(np.asarray(columns, dtype=complex))
    if a.ndim != 2:
        raise UsageError("columns must be a 2-D array")
    n, k = a.shape
    if k >= n:
        raise UsageError(f"need fewer columns than rows, got {n}x{k}")
    if not np.all(np.isfinite(a)):
        raise NumericError("non-finite entries in columns")
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    keep = s > RANK_TOL * (s[0] if s.size else 0.0)
    basis = u[:, keep]
    p = np.eye(n, dtype=complex) - basis @ dagger(basis)
    # Symmetrize away the last few ulps so the invariant checks are exact.
    p = 0.5 * (p + dagger(p))
    return Projector(p)


def solve_psd_stack(a, b):
    """Batched Hermitian-PD solve with a loading fallback.

    ``a`` has shape (..., n, n) and ``b`` (..., n, k) or (..., n).  Used on
    the Monte Carlo hot path where an occasional deep-fade draw makes a
    covariance nearly singular.  Only the matrices whose LU factorization
    fails or whose solution is not finite get diagonally loaded; the rest
    of the batch is solved as it is.
    """
    a = np.asarray(a, dtype=complex)
    vec = b.ndim == a.ndim - 1
    if vec:
        b = b[..., None]
    b = np.broadcast_to(b, a.shape[:-2] + b.shape[-2:])
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        # One singular matrix fails the whole call: solve the others alone.
        x = np.full(b.shape, np.nan, dtype=complex)
        ok = np.linalg.slogdet(a)[0] != 0
        x[ok] = np.linalg.solve(a[ok], b[ok])
    failed = ~np.isfinite(x).all(axis=(-2, -1))
    if failed.any():
        n = a.shape[-1]
        af = a[failed]
        load = 1e-12 * np.maximum(np.einsum("...ii->...", af).real / n, 1e-300)
        x[failed] = np.linalg.solve(af + load[..., None, None] * np.eye(n), b[failed])
    return x[..., 0] if vec else x
