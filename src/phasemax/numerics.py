"""Dense small-dimension linear algebra kernels.

Channel counts in this package are small (a handful of electrode leads).
The symmetric eigensolver is LAPACK's, via ``np.linalg.eigh``, wrapped
in a fixed ordering, sign convention and power-of-two scale.  Orthonormalization is
Gram-Schmidt computed as CholeskyQR2 (Fukaya et al., ScalA'14): two
Cholesky factors of N x N Gram matrices, applied to the rows in column
blocks, with the shifted CholeskyQR3 of Fukaya et al. (SIAM J. Sci.
Comput. 42(1), 2020) for ill-conditioned rows.  It keeps the channels
orthonormal to rounding up to the dependence cut, and fails loudly on
rank-deficient input instead of silently reducing rank.

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

# A first Cholesky pivot below this fraction of its row norm puts the rows
# past plain CholeskyQR2 (~1e6 in condition): there a Cholesky can also
# succeed on rounding noise, with pivots near 1e-8.  The shifted variant runs.
_SHIFT_TOL = 1e-6

# The width of every column-blocked pass in the package, in columns (in
# values over all rows for the Gram-Schmidt passes): a block and its product
# are all that a pass holds beside its input and output, and no dot product
# in the package is longer.
_BLOCK_VALUES = 4096

# Values whose largest magnitude is below this are scaled up by a power
# of two before they are squared: their squares would fall below 2**-1000,
# near the subnormal range, where they lose digits or vanish.
_TINY = 2.0**-500


def _scale_exponent(z: np.ndarray, rows: bool = False):
    """The power ``k`` of two that makes ``z * 2**k`` safe to square; with ``rows``, a column of one per row.

    It is 0 unless the largest |value| is positive and below ``_TINY``;
    then ``k > 0`` brings that value to [0.5, 1).  The scaling is exact.
    """
    axis = 1 if rows else None
    peak = np.maximum(z.max(axis=axis, keepdims=rows), -z.min(axis=axis, keepdims=rows))
    k = np.where((0.0 < peak) & (peak < _TINY), -np.frexp(peak)[1], 0)
    return k if rows else int(k)


def _row_squares(a: np.ndarray) -> np.ndarray:
    """Each row's sum of squares, one dot product per row and column block: no array of squares.

    The rows are summed in blocks of ``_BLOCK_VALUES`` columns, each one
    stacked matmul: OpenBLAS splits a longer dot product across threads,
    which changes its rounding with the thread count.  A stacked matmul
    runs the dot products in compiled code: on a block of 32 x 4096 it
    took 26 us against 56 us for ``einsum("ij,ij->i", a, a)`` (2-core
    x86-64, numpy 2.4, one BLAS thread).
    """
    sums = np.zeros(len(a))
    for lo in range(0, a.shape[1], _BLOCK_VALUES):
        block = a[:, lo : lo + _BLOCK_VALUES]
        sums += np.matmul(block[:, np.newaxis, :], block[:, :, np.newaxis])[:, 0, 0]
    return sums


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


def _dependent(channel, detail=""):
    """The error for a 1-based channel that depends on the channels before it in the order."""
    return DegenerateInputError(f"channel {channel} is linearly dependent on the channels before it{detail}")


def _cholesky(gram, order):
    """Lower Cholesky factor of a Gram matrix of rows in channel order.

    Without one, ``DegenerateInputError`` names the channel of the first
    row whose leading block has none, found by recursing on the leading
    blocks: the first row that depends on the rows before it.
    """
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        _cholesky(gram[:-1, :-1], order)  # raises instead if an earlier row fails; 0 x 0 never does
        raise _dependent(order[len(gram) - 1] + 1) from None


def _orthonormal_rows(x, gram, order):
    """Gram-Schmidt of the rows ``x[order]`` by CholeskyQR2, never copying them whole.

    ``gram`` is ``x @ x.T``, which is not written to, and ``order`` is an
    integer array of 0-based row indices.  Returns
    ``(basis, coeffs, forward)`` with ``x[order] == coeffs @ basis``,
    ``coeffs`` lower-triangular with a positive diagonal, and
    ``forward @ x == basis``; ``forward`` is the product of the inverse
    factors, with its columns in the rows' own order.

    The order permutes the N x N Gram matrix.  The first pass writes
    ``inv(L1) @ x[order]`` into the basis one gathered column block at a
    time; each later pass factors the Gram matrix of the basis and applies
    the inverse of that factor to the basis in place, block by block.  The
    factors are applied in turn, never as their product, which would lose
    orthogonality.  If the first Cholesky fails or has a pivot below
    ``_SHIFT_TOL`` of its row norm, it is redone with the shift of
    Fukaya et al. (2020) and one more pass runs (shifted CholeskyQR3).
    """
    n = len(x)
    gram = gram[order[:, np.newaxis], order]  # a copy: the shift below writes to it
    norms = np.sqrt(gram.diagonal())
    try:
        factor = np.linalg.cholesky(gram)
        shifted = (factor.diagonal() / norms).min() <= _SHIFT_TOL
    except np.linalg.LinAlgError:
        shifted = True
    if shifted:
        gram.flat[:: n + 1] += 11 * (x.size + n * (n + 1)) * np.finfo(float).eps * np.trace(gram)
        factor = _cholesky(gram, order)
    del gram  # the passes below hold no N x N copy beside the caller's Gram matrix
    # LU of an upper-triangular matrix pivots nothing, so LAPACK's inverse of
    # the transposed factor is its triangular inverse and keeps the zeros.
    coeffs, forward = factor, np.linalg.inv(factor.T).T
    basis = np.empty_like(x)
    width = max(1, _BLOCK_VALUES // n)
    for lo in range(0, x.shape[1], width):
        # One step of refinement: the explicit inverse alone leaves the rows after
        # a near-dependent one with a residual of eps times the factor's condition.
        rows = x[order, lo : lo + width]
        y = forward @ rows
        rows -= factor @ y
        np.add(y, forward @ rows, out=basis[:, lo : lo + width])
    for _ in range(1 + shifted):
        factor = _cholesky(basis @ basis.T, order)
        coeffs, inverse = coeffs @ factor, np.linalg.inv(factor.T).T
        forward = inverse @ forward
        for lo in range(0, x.shape[1], width):
            basis[:, lo : lo + width] = inverse @ basis[:, lo : lo + width]
    independent = coeffs.diagonal() / norms > _DEPENDENCE_TOL
    if not independent.all():
        row = np.argmin(independent)
        raise _dependent(order[row] + 1, f" (residual norm {coeffs[row, row]:.3e})")
    return basis, coeffs, forward[:, np.argsort(order)]


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
        fixed as documented on :class:`EigenDecomposition`.  ``m`` times
        a power of two that keeps its entries normal has the same
        eigenvectors, bit for bit, and its eigenvalues times that power.

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

    # eigh of the matrix scaled to a largest |entry| in [0.5, 1), exactly:
    # LAPACK scales a matrix outside [2**-485, 2**485] by a factor that is not
    # a power of two, and rounds a few inside it differently at different
    # scales, so only this way has the matrix times 2**j the same eigenvectors
    k = -int(np.frexp(scale)[1])
    eigenvalues, eigenvectors = np.linalg.eigh(np.ldexp(a, k))
    eigenvalues = np.ldexp(eigenvalues, -k)
    order = np.argsort(-eigenvalues, kind="stable")
    return EigenDecomposition(eigenvalues[order], _fix_signs(eigenvectors[:, order]))
