import tracemalloc

import numpy as np
import pytest

from phasemax.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NonFiniteError,
    NotSymmetricError,
)
from phasemax.numerics import _as_finite_array, _orthonormal_rows, symmetric_eig


def gram_schmidt(rows):
    """Gram-Schmidt of ``rows`` in the order given: ``(basis, coeffs)``."""
    r = np.asarray(rows, dtype=float)
    return _orthonormal_rows(r, r @ r.T, np.arange(len(r)))[:2]


class TestGramSchmidt:
    def test_identity_rows_unchanged(self):
        basis, coeffs = gram_schmidt([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(basis, np.eye(2))
        np.testing.assert_array_equal(coeffs, np.eye(2))

    def test_axis_aligned_projection(self):
        basis, coeffs = gram_schmidt([[2.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(basis, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(coeffs, [[2.0, 0.0], [1.0, 1.0]], atol=1e-15)

    def test_random_basis_gram_matrix_is_identity(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(3, 3))
        basis, _ = gram_schmidt(rows)
        gram = basis @ basis.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(4, 6))
        basis, coeffs = gram_schmidt(rows)
        scale = np.max(np.abs(rows))
        assert np.max(np.abs(coeffs @ basis - rows)) <= 1e-9 * scale
        # coeffs is lower triangular in the given order
        assert np.allclose(np.triu(coeffs, k=1), 0.0)

    def test_bessel_inequality(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(3, 5))
        basis, _ = gram_schmidt(rows)
        v = rng.normal(size=5)
        projected = sum(float(np.dot(v, b)) ** 2 for b in basis)
        assert projected <= np.linalg.norm(v) ** 2 + 1e-9

    def test_bessel_equality_for_full_basis(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(4, 4))
        basis, _ = gram_schmidt(rows)
        v = rng.normal(size=4)
        projected = sum(float(np.dot(v, b)) ** 2 for b in basis)
        assert projected == pytest.approx(np.linalg.norm(v) ** 2, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_orthonormal_when_a_plain_cholesky_succeeds_on_rounding_noise(self, seed):
        # Condition 1e10, spread over all of 8 rows: a plain Cholesky of the Gram
        # matrix (condition 1e20) often succeeds on rounding noise, and plain
        # CholeskyQR2 from such a factor is orthogonal only to ~1e-13.
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        v, _ = np.linalg.qr(rng.normal(size=(20_000, 8)))
        rows = (u * np.logspace(0, -10, 8)) @ v.T * rng.uniform(0.1, 10, size=(8, 1))
        basis, coeffs = gram_schmidt(rows)
        assert np.abs(basis @ basis.T - np.eye(8)).max() <= 1e-14
        assert np.abs(rows - coeffs @ basis).max() <= 1e-15 * np.abs(rows).max()

    @pytest.mark.parametrize(
        "rows, row",
        [
            ([[1.0, 0.0], [0.0, 0.0]], 1),
            ([[0.0, 0.0], [1.0, 0.0]], 0),
            (np.random.default_rng(0).normal(size=(3, 2)), 2),  # fewer samples than rows
            (np.vstack([np.eye(3, 7), [[1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0]], np.eye(1, 7, 4)]), 3),
        ],
    )
    def test_dependent_row_is_named(self, rows, row):
        with pytest.raises(DegenerateInputError, match=f"^channel {row + 1} is linearly dependent"):
            gram_schmidt(rows)

    @pytest.mark.parametrize("rows", [[[1e160, 1e160, 3.0], [1.0, 2.0, 3.0]], [[1.0, 2.0], [3.0, 1e200]]])
    def test_overflowing_rows_raise_instead_of_giving_nan(self, rows):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateInputError):
                gram_schmidt(rows)

    def test_linear_dependence_raises(self):
        with pytest.raises(DegenerateInputError):
            gram_schmidt([[1.0, 2.0], [2.0, 4.0]])

    def test_zero_row_raises(self):
        with pytest.raises(DegenerateInputError):
            gram_schmidt([[1.0, 0.0], [0.0, 0.0]])


    def test_non_finite_value_raises_without_masking_the_whole_table(self):
        rows = np.ones((32, 5000))
        rows[-1, -1] = np.nan  # the last row, so every row is checked
        tracemalloc.start()
        try:
            with pytest.raises(NonFiniteError):
                _as_finite_array(rows, "rows", ndim=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows.size  # one bool per value would take rows.size bytes


class TestSymmetricEig:
    def test_diagonal_matrix(self):
        eig = symmetric_eig(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(eig.eigenvalues, [2.0, 1.0])
        np.testing.assert_allclose(eig.eigenvectors, np.eye(2))

    def test_symmetric_2x2_closed_form(self):
        eig = symmetric_eig([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(eig.eigenvectors), [[s, s], [s, s]], atol=1e-12)
        # sign convention: leading entry of each column is positive
        np.testing.assert_allclose(eig.eigenvectors[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(eig.eigenvectors[:, 1], [s, -s], atol=1e-12)

    def test_random_residuals_and_trace(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4))
        m = a + a.T
        eig = symmetric_eig(m)
        scale = np.linalg.norm(m)
        for k in range(4):
            residual = m @ eig.eigenvectors[:, k] - eig.eigenvalues[k] * eig.eigenvectors[:, k]
            assert np.max(np.abs(residual)) <= 1e-8 * scale
        assert np.trace(m) == pytest.approx(eig.eigenvalues.sum(), abs=1e-9 * scale)

    def test_reconstruction(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(5, 5))
        m = a + a.T
        eig = symmetric_eig(m)
        rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        assert np.max(np.abs(rebuilt - m)) <= 1e-8 * np.linalg.norm(m)

    def test_eigenvalues_descending_and_vectors_orthonormal(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(6, 6))
        m = a @ a.T
        eig = symmetric_eig(m)
        assert np.all(np.diff(eig.eigenvalues) <= 1e-12)
        np.testing.assert_allclose(eig.eigenvectors.T @ eig.eigenvectors, np.eye(6), atol=1e-9)

    def test_sign_convention(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(5, 5))
        eig = symmetric_eig(a + a.T)
        for k in range(5):
            col = eig.eigenvectors[:, k]
            assert col[np.argmax(np.abs(col))] > 0

    def test_not_symmetric_raises(self):
        with pytest.raises(NotSymmetricError):
            symmetric_eig([[1.0, 2.0], [0.0, 1.0]])

    def test_non_finite_raises(self):
        with pytest.raises(NonFiniteError):
            symmetric_eig([[np.inf, 0.0], [0.0, 1.0]])

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatchError):
            symmetric_eig(np.ones((2, 3)))

    def test_zero_matrix(self):
        eig = symmetric_eig(np.zeros((3, 3)))
        np.testing.assert_array_equal(eig.eigenvalues, np.zeros(3))
        np.testing.assert_array_equal(eig.eigenvectors, np.eye(3))

    def test_repeated_eigenvalue(self):
        q, _ = np.linalg.qr(np.random.default_rng(15).normal(size=(3, 3)))
        m = q @ np.diag([2.0, 1.0, 1.0]) @ q.T
        eig = symmetric_eig(0.5 * (m + m.T))
        np.testing.assert_allclose(eig.eigenvalues, [2.0, 1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(eig.eigenvectors.T @ eig.eigenvectors, np.eye(3), atol=1e-12)
        rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        np.testing.assert_allclose(rebuilt, m, atol=1e-12)
        for k in range(3):
            col = eig.eigenvectors[:, k]
            assert col[np.argmax(np.abs(col))] > 0

    def test_same_machine_reruns_are_bitwise_equal(self):
        a = np.random.default_rng(16).normal(size=(8, 8))
        first, second = symmetric_eig(a + a.T), symmetric_eig(a + a.T)
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()

    @pytest.mark.parametrize("n", [2, 8, 32])
    @pytest.mark.parametrize("j", [-900, -500, -301, -7, 6, 300, 490])
    def test_power_of_two_scale_keeps_the_eigenvector_bits(self, n, j):
        # LAPACK scales a matrix outside [2**-485, 2**485] by a factor that is not
        # a power of two; the last singular channel makes one eigenvalue near 0
        x = np.random.default_rng(17).normal(size=(n, 4 * n))
        x[-1] = x[0] + 1e-7 * x[-1]
        g = x @ x.T
        base, scaled = symmetric_eig(g), symmetric_eig(np.ldexp(g, j))
        np.testing.assert_array_equal(scaled.eigenvectors, base.eigenvectors)
        np.testing.assert_array_equal(scaled.eigenvalues, np.ldexp(base.eigenvalues, j))
