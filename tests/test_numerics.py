"""Unit tests for the dense complex-matrix kernel."""

import numpy as np
import pytest

from marnsim.numerics import (
    UsageError,
    dagger,
    is_alamouti,
    solve_psd_stack,
)
from gram_oracle import null_space_projector


def _rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _alamouti(a, b):
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


def _assert_projector(p, tol=1e-10):
    """Idempotent and Hermitian, each within tol relative to its norm."""
    scale = max(float(np.linalg.norm(p)), 1e-300)
    assert np.linalg.norm(p @ p - p) <= tol * scale
    assert np.linalg.norm(p - dagger(p)) <= tol * scale


class TestIsAlamouti:
    def test_identity(self):
        assert is_alamouti(np.eye(2))

    def test_b2_rotation(self):
        assert is_alamouti([[0, -1], [1, 0]])

    def test_all_ones_fails(self):
        assert not is_alamouti([[1, 1], [1, 1]])

    def test_wrong_shape_raises(self):
        with pytest.raises(UsageError):
            is_alamouti(np.eye(3))

    def test_closure_under_sum_product_scale(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a1, b1, a2, b2 = _rand_complex(rng, 4)
            m1, m2 = _alamouti(a1, b1), _alamouti(a2, b2)
            assert is_alamouti(m1 + m2)
            assert is_alamouti(m1 @ m2)
            assert is_alamouti(2.5 * m1)
            assert is_alamouti(dagger(m1))

    def test_hermitian_alamouti_is_scaled_identity(self):
        # m* m is Hermitian and stays in the family, hence diagonal with
        # equal entries.
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = _alamouti(*_rand_complex(rng, 2))
            q = dagger(m) @ m
            assert abs(q[0, 1]) < 1e-12 * abs(q[0, 0])
            assert abs(q[1, 0]) < 1e-12 * abs(q[0, 0])
            assert abs(q[0, 0] - q[1, 1]) < 1e-12 * abs(q[0, 0])


class TestNullSpaceProjector:
    def test_axis_case(self):
        p = null_space_projector(np.array([[1.0], [0.0]]))
        assert np.allclose(p, np.diag([0.0, 1.0]))

    def test_stacked_alamouti_column(self):
        # Two stacked 2x2 Alamouti blocks of f = (1, 1)/sqrt(2): a 4x2
        # matrix of rank 2.  Oracle: QR-based complement projector.
        f = np.array([1.0, 1.0]) / np.sqrt(2.0)
        block = _alamouti(f[0], f[1])
        cols = np.vstack([block, block])
        p = null_space_projector(cols)
        assert np.linalg.norm(p @ cols) <= 1e-9 * np.linalg.norm(cols)
        assert abs(np.trace(p).real - 2.0) < 1e-10
        q, _ = np.linalg.qr(cols)
        oracle = np.eye(4) - q @ dagger(q)
        assert np.allclose(p, oracle, atol=1e-10)
        _assert_projector(p)

    def test_duplicate_columns_deduplicated(self):
        rng = np.random.default_rng(2)
        col = _rand_complex(rng, 4, 1)
        single = null_space_projector(col)
        doubled = null_space_projector(np.hstack([col, col]))
        assert np.allclose(single, doubled, atol=1e-10)
        assert round(np.trace(doubled).real) == 3

    def test_too_many_columns_raises(self):
        with pytest.raises(UsageError):
            null_space_projector(np.eye(3))

    def test_projector_invariants_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cols = _rand_complex(rng, 6, 2)
            p = null_space_projector(cols)
            _assert_projector(p)
            assert np.linalg.norm(p @ cols) <= 1e-9 * np.linalg.norm(cols)

    def test_rank_per_matrix_in_a_stack(self):
        # Rows 1 and 4 have parallel columns (rank 1); row 3 is full rank at
        # a scale far below the others, so only a tolerance taken per
        # matrix keeps both of its directions.
        rng = np.random.default_rng(9)
        cols = _rand_complex(rng, 6, 5, 2)
        cols[[1, 4], :, 1] = 2.0 * cols[[1, 4], :, 0]
        cols[3] *= 1e-12
        p = null_space_projector(cols)
        assert np.allclose(np.trace(p, axis1=-2, axis2=-1).real, [3, 4, 3, 3, 4, 3], atol=1e-10)
        for i in range(6):
            _assert_projector(p[i])
            assert np.linalg.norm(p[i] @ cols[i]) <= 1e-9 * np.linalg.norm(cols[i])


class TestHermitianSolve:
    # Hermitian positive-definite systems, solved by solve_psd_stack.

    def test_identity(self):
        rng = np.random.default_rng(4)
        b = _rand_complex(rng, 4, 2)
        assert np.allclose(solve_psd_stack(np.eye(4), b), b)

    def test_scalar_case(self):
        assert np.allclose(solve_psd_stack(2.0 * np.eye(3), np.eye(3)), np.eye(3) / 2.0)

    def test_residual_random_pd(self):
        rng = np.random.default_rng(5)
        m = _rand_complex(rng, 20, 4, 4)
        a = m @ dagger(m) + 0.1 * np.eye(4)
        b = _rand_complex(rng, 20, 4)
        x = solve_psd_stack(a, b)
        resid = np.linalg.norm(np.einsum("nij,nj->ni", a, x) - b, axis=-1)
        assert np.all(resid <= 1e-8 * np.linalg.norm(b, axis=-1))

    def test_residual_ill_conditioned(self):
        # Condition number around 1e8 must still satisfy the residual bound.
        rng = np.random.default_rng(6)
        u, _ = np.linalg.qr(_rand_complex(rng, 5, 5))
        a = u @ np.diag([1.0, 1e-2, 1e-4, 1e-6, 1e-8]) @ dagger(u)
        a = 0.5 * (a + dagger(a))
        b = _rand_complex(rng, 5)
        x = solve_psd_stack(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_loading_flag_on_singular(self):
        # A singular matrix is diagonally loaded instead of failing.
        x = solve_psd_stack(np.diag([1.0, 0.0]), np.ones(2))
        assert np.all(np.isfinite(x)) and abs(x[0] - 1.0) < 1e-9

    def test_all_zero_system_solves_to_zero(self):
        # The covariance of a trial whose interferer channel is exactly zero.
        x = solve_psd_stack(np.zeros((2, 3, 3)), np.zeros((2, 3, 2)))
        assert np.array_equal(x, np.zeros((2, 3, 2)))


class TestSolvePsdStack:
    def test_matches_scalar_solver(self):
        # Every batch element is solved exactly as it would be alone.
        rng = np.random.default_rng(7)
        m = _rand_complex(rng, 10, 4, 4)
        a = m @ dagger(m) + 0.2 * np.eye(4)
        b = _rand_complex(rng, 10, 4)
        x = solve_psd_stack(a, b)
        for i in range(10):
            assert np.array_equal(x[i], np.linalg.solve(a[i], b[i]))

    def test_loads_only_failed_rows(self):
        # One singular matrix must not perturb the rest of the batch: the
        # healthy rows equal their lone solves bitwise, and every row of
        # the result is finite.
        rng = np.random.default_rng(8)
        m = _rand_complex(rng, 5, 4, 4)
        a = m @ dagger(m) + 0.5 * np.eye(4)
        a[2] = np.diag([1.0, 2.0, 0.0, 3.0])
        b = _rand_complex(rng, 5, 4, 2)
        x = solve_psd_stack(a, b)
        assert np.all(np.isfinite(x))
        for i in (0, 1, 3, 4):
            assert np.array_equal(x[i], np.linalg.solve(a[i], b[i]))
