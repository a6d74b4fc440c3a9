"""Small dense complex-matrix kernel used by the rest of the simulator.

Matrices are plain complex numpy arrays of at most a few dozen rows
(stacked 2x2 Alamouti blocks).  Every matrix helper accepts stacked
inputs (leading batch axes), and one matrix is a batch of one: the Monte
Carlo driver solves a whole chunk of trials in one LAPACK call, and
callers stack every right-hand side that shares a matrix so it is
factorized once.  ``zf_residual``, the one zero-forcing residual behind
the relay gains and the concurrent-uplink SNR bound, works batch-last
instead, elementwise over the draws, as the kernels do.

Importing the module sets the process's heap policy (``_keep_heap``).
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

__all__ = [
    "UsageError",
    "NumericError",
    "dagger",
    "is_alamouti",
    "solve_psd_stack",
    "zf_residual",
]

# is_alamouti's tolerance, relative to each matrix's largest entry (or 1).
ALAMOUTI_TOL = 1e-10


class UsageError(ValueError):
    """Caller violated a precondition (bad shape, unsupported parameter)."""


class NumericError(ArithmeticError):
    """Input was numerically degenerate (singular, non-finite)."""


def dagger(a):
    """Conjugate transpose, batched over leading axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def is_alamouti(m) -> np.ndarray:
    """Whether each (..., 2, 2) matrix of ``m`` has the form
    [[a, -conj(b)], [b, conj(a)]], as a bool array over the leading axes.

    The sign convention is fixed: the conjugates sit in the second column.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise UsageError(f"expected 2x2 matrices, got shape {m.shape}")
    bound = ALAMOUTI_TOL * np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    return (np.abs(m[..., 0, 1] + np.conj(m[..., 1, 0])) <= bound) & (
        np.abs(m[..., 1, 1] - np.conj(m[..., 0, 0])) <= bound
    )


def zf_residual(f, target: int) -> np.ndarray:
    """Zero-forcing gain (n,) of column ``target`` of the batch-last
    (M, J, n) uplink ``f``: ||f_j - sum proj f_j||^2 once the other
    columns are projected off by modified Gram-Schmidt, elementwise over
    the draws (Golub and Van Loan, Matrix Computations, 4th ed., 5.2.8).
    With no other column it is the maximum-ratio gain sum_i |f_ij|^2; a
    column that is zero, or zero once projected, projects off nothing.
    Sums over M run in row order, so no value depends on the batch."""
    basis = []  # (q, ||q||^2) of the other columns, mutually orthogonal
    for k in range(f.shape[1]):
        if k != target:
            q = f[:, k]
            for b, bb in basis:
                q = q - _projection(b, bb, q)
            basis.append((q, _power(q)))
    r = f[:, target]
    for b, bb in basis:
        r = r - _projection(b, bb, r)
    return _power(r)


def _power(x):
    """sum_m |x_m|^2 (n,) of (M, n) x."""
    p = np.square(np.abs(x))
    return functools.reduce(np.add, p[1:], p[0])


def _projection(b, bb, x):
    """(b* x / b* b) b (M, n): x projected onto b, 0 where b = 0."""
    dot = functools.reduce(np.add, np.conj(b[1:]) * x[1:], np.conj(b[0]) * x[0])
    return np.divide(dot, bb, out=np.zeros_like(dot), where=bb > 0) * b


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
