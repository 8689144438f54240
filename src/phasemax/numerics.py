"""Dense small-dimension linear algebra kernels.

Channel counts in this package are small (a handful of electrode leads).
The symmetric eigensolver is LAPACK's, via ``np.linalg.eigh``, wrapped
in a fixed ordering and sign convention; orthonormalization is a
modified Gram-Schmidt that fails loudly on rank-deficient input instead
of silently reducing rank.

All functions are pure: arguments are never mutated and results are
freshly allocated, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NonFiniteError,
    NotSymmetricError,
)

# Residual norm below this fraction of the input row norm means linear
# dependence.
_DEPENDENCE_TOL = 1e-12


def _as_finite_array(values, name, ndim):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise DimensionMismatchError(
            f"{name} must be {ndim}-dimensional, got shape {arr.shape}"
        )
    if arr.size == 0:
        raise DimensionMismatchError(f"{name} must not be empty")
    # NaN propagates through min and max: both are finite only if every value
    # is, and neither reduction builds a mask of the whole array
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise NonFiniteError(f"{name} contains non-finite values")
    return arr


def gram_schmidt_orthonormal(rows):
    """Orthonormalize a sequence of vectors, keeping the change of basis.

    Runs modified Gram-Schmidt with normalization over ``rows`` in the
    order given.  The first basis vector is the first row rescaled to
    unit length; every later basis vector is the unit residual of the
    corresponding row after projecting out all earlier basis vectors.

    Parameters
    ----------
    rows : array_like
        Sequence of k vectors of equal dimension, stacked as rows.

    Returns
    -------
    basis : ndarray, shape (k, dim)
        Pairwise orthogonal unit vectors spanning the same space.
    coeffs : ndarray, shape (k, k)
        Lower-triangular map from basis back to the input:
        ``rows == coeffs @ basis`` up to rounding.

    Raises
    ------
    DegenerateInputError
        If some row is (numerically) a linear combination of the rows
        before it.
    """
    r = _as_finite_array(rows, "rows", ndim=2)
    k = r.shape[0]
    basis = np.zeros_like(r)
    coeffs = np.zeros((k, k))
    for i in range(k):
        residual = r[i].copy()
        input_norm = np.sqrt(np.dot(residual, residual))
        for j in range(i):
            c = float(np.dot(residual, basis[j]))
            coeffs[i, j] = c
            residual -= c * basis[j]
        residual_norm = np.sqrt(np.dot(residual, residual))
        if residual_norm <= _DEPENDENCE_TOL * input_norm:
            raise DegenerateInputError(
                f"row {i} is linearly dependent on the rows before it "
                f"(residual norm {residual_norm:.3e})"
            )
        basis[i] = residual / residual_norm
        coeffs[i, i] = residual_norm
    return basis, coeffs


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric matrix.

    ``eigenvalues`` are sorted in descending order and ``eigenvectors``
    holds the matching unit-norm eigenvectors as columns.  The sign of
    each column is fixed so that its largest-magnitude entry is
    positive (first such entry on ties), so that results do not depend
    on the sign LAPACK happens to return.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_signs(vectors):
    """Make the largest-magnitude entry of each column positive."""
    cols = np.arange(vectors.shape[1])
    lead = np.argmax(np.abs(vectors), axis=0)  # first occurrence wins ties
    return vectors * np.where(vectors[lead, cols] < 0.0, -1.0, 1.0)


def symmetric_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a real symmetric matrix (LAPACK ``eigh``).

    Parameters
    ----------
    m : array_like
        Square matrix, symmetric to within ``1e-9`` relative.

    Returns
    -------
    EigenDecomposition
        Eigenvalues descending, orthonormal eigenvector columns, signs
        fixed as documented on :class:`EigenDecomposition`.

    Raises
    ------
    NotSymmetricError
        If ``m`` deviates from its transpose beyond tolerance.
    NonFiniteError
        If ``m`` contains NaN or infinities.
    """
    a = _as_finite_array(m, "matrix", ndim=2)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {a.shape}")
    scale = np.max(np.abs(a))
    if scale > 0 and np.max(np.abs(a - a.T)) > 1e-9 * scale:
        raise NotSymmetricError("matrix is not symmetric within 1e-9 relative")

    eigenvalues, eigenvectors = np.linalg.eigh(a)
    order = np.argsort(-eigenvalues, kind="stable")
    return EigenDecomposition(eigenvalues[order], _fix_signs(eigenvectors[:, order]))
