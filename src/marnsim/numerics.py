"""Small dense complex-matrix kernel used by the rest of the simulator.

Matrices are plain complex numpy arrays of at most a few dozen rows
(stacked 2x2 Alamouti blocks).  Every helper accepts stacked inputs
(leading batch axes), and one matrix is a batch of one: the Monte Carlo
driver solves a whole chunk of trials in one LAPACK call, and callers
stack every right-hand side that shares a matrix so it is factorized
once.

Importing the module sets the process's heap policy (``_keep_heap``).
"""

from __future__ import annotations

import ctypes

import numpy as np

__all__ = [
    "UsageError",
    "NumericError",
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


def is_alamouti(m, tol: float = 1e-10) -> np.ndarray:
    """Whether each (..., 2, 2) matrix of ``m`` has the form
    [[a, -conj(b)], [b, conj(a)]], as a bool array over the leading axes.

    The sign convention is fixed: the conjugates sit in the second column.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise UsageError(f"expected 2x2 matrices, got shape {m.shape}")
    bound = tol * np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    return (np.abs(m[..., 0, 1] + np.conj(m[..., 1, 0])) <= bound) & (
        np.abs(m[..., 1, 1] - np.conj(m[..., 0, 0])) <= bound
    )


def null_space_projector(columns) -> np.ndarray:
    """Projector (..., n, n) onto the orthogonal complement of the column
    space of each (..., n, k) matrix: Hermitian and idempotent.

    Rank deficiency (repeated or dependent columns) is handled through an
    SVD with a drop tolerance relative to each matrix's largest singular
    value, so nearly-parallel channel draws do not blow up the projector.
    """
    a = np.asarray(columns, dtype=complex)
    if a.ndim < 2:
        raise UsageError("columns must be an (..., n, k) array")
    n, k = a.shape[-2:]
    if k >= n:
        raise UsageError(f"need fewer columns than rows, got {n}x{k}")
    if not np.all(np.isfinite(a)):
        raise NumericError("non-finite entries in columns")
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    basis = u * (s > RANK_TOL * s[..., :1])[..., None, :]  # dropped directions zeroed
    p = np.eye(n, dtype=complex) - basis @ dagger(basis)
    # Symmetrize away the last few ulps so the invariant checks are exact.
    return 0.5 * (p + dagger(p))


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
        # The floor keeps the load a normal number for an all-zero matrix.
        load = np.maximum(1e-12 * np.einsum("...ii->...", af).real / n, 1e-300)
        x[failed] = np.linalg.solve(af + load[..., None, None] * np.eye(n), b[failed])
    return x[..., 0] if vec else x


# glibc's mallopt(3) parameters M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, and
# the values the simulator runs with: 32 MiB is glibc's 64-bit upper limit.
_HEAP_POLICY = ((-3, 32 << 20), (-1, 256 << 20))


def _keep_heap(libc) -> bool:
    """Ask ``libc``'s allocator to keep freed blocks for reuse: to serve
    blocks up to 32 MiB from the heap instead of fresh mappings, and to
    return the heap's top to the OS only past 256 MiB free.  The kernels
    free and allocate the same mid-size temporaries every batch; under
    glibc's defaults each batch maps them anew and faults in thousands of
    fresh pages.  Returns whether ``libc`` accepted every setting.  A libc
    without ``mallopt`` is left as it is; the arithmetic is the same."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(param, value) == 1 for param, value in _HEAP_POLICY])  # tries every setting


_keep_heap(ctypes.CDLL(None))
