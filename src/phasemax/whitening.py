"""Whitening: linear maps that make the channels orthonormal.

Uncorrelated sources generally map to non-orthogonal directions in the
phase trajectory of a mixture, which is what contaminates projection
estimates.  Whitening fixes that: after an invertible transform that
makes the channels orthonormal under the sample inner product
``<x, y> = sum_n x[n] y[n]``, directions of sources with zero sample
cross-product become exactly orthogonal, and projections recover each
source to a scaling constant.

Two backends are provided:

* ``gram_schmidt`` - Gram-Schmidt over the channels in a configurable
  order, computed by CholeskyQR2 (``numerics``); the first output
  channel is the first input channel rescaled to unit norm.  The order
  permutes the N x N Gram matrix, so no order copies the N x M rows.
* ``pca`` - project onto the eigenvectors of the uncentered second
  moment matrix, one matrix product, and rescale each component series
  to unit norm, from its sum of squares in one row-norm product.  The
  PCA baseline (``pca``) takes the same eigenvectors, projection and
  sums, so its series normalised are these channels bit for bit.

The inner product uses raw sums (no 1/M factor); only orthogonality and
relative scale matter downstream.  No centering happens here: centering
is a separate, deliberate step because it shifts baselines and can make
otherwise uncorrelated sources correlated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidSpecError, NonFiniteError, ZeroSignalError
from .numerics import _TINY, _orthonormal_rows, _row_squares, _scale_exponent, symmetric_eig
from .signals import MultichannelSignal

METHODS = ("none", "gram_schmidt", "pca")

# Eigenvalues at or below this fraction of the largest count as rank
# deficiency: PCA whitening refuses them, the PCA baseline drops them.
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class WhiteningTransform:
    """Invertible N x N map that produced a set of whitened channels.

    ``forward @ data`` reproduces the whitened channels from the raw
    ones.  ``channel_order`` records the (1-based) channel order used by
    the Gram-Schmidt backend and is None otherwise.
    """

    method: str
    forward: np.ndarray
    channel_order: tuple | None = None

    @classmethod
    def identity(cls, n_channels: int) -> "WhiteningTransform":
        return cls("none", np.eye(n_channels), None)


def _scaled_up(signal: MultichannelSignal):
    """``(signal * 2**k, k)``, with ``k > 0`` only where every square may underflow.

    The one judge of a signal's energy, the Gram matrix's trace, for both
    whitenings (which multiply ``forward`` by ``2**k``) and both separators:
    it raises ``NonFiniteError`` if that overflows.  Below ``_TINY**2`` a
    nonzero signal is scaled exactly, by the power of ``_scale_exponent``
    (one whose largest |value| is at least ``_TINY`` has a larger energy);
    a zero one raises ``ZeroSignalError``.
    """
    energy = signal._gram.trace()
    if not np.isfinite(energy):
        raise NonFiniteError("signal energy overflows float64; rescale the input")
    k = _scale_exponent(signal.data) if energy < _TINY**2 else 0
    if energy == 0.0 and not k:
        raise ZeroSignalError("signal is identically zero")
    return (MultichannelSignal._wrap(np.ldexp(signal.data, k)) if k else signal), k


def whiten_gram_schmidt(signal: MultichannelSignal, order=None):
    """Orthonormalize the channels by Gram-Schmidt (computed as CholeskyQR2).

    Parameters
    ----------
    signal : MultichannelSignal
        Input whose channels are linearly independent as M-vectors.
    order : sequence of int, optional
        1-based channel order; the first listed channel becomes the
        first whitened channel (rescaled only).  Defaults to natural
        order 1..N.

    Returns
    -------
    (MultichannelSignal, WhiteningTransform)
        Whitened channels e_1..e_N plus the recorded transform.

    Raises
    ------
    InvalidSpecError
        If ``order`` is not a permutation of 1..N.
    ZeroSignalError, NonFiniteError
        From ``_scaled_up``: every value is zero, or the energy overflows float64.
    DegenerateInputError
        If the channels are rank deficient.
    """
    n = signal.n_channels
    order = tuple(range(1, n + 1)) if order is None else tuple(int(i) for i in order)
    if sorted(order) != list(range(1, n + 1)):
        raise InvalidSpecError(f"channel order must be a permutation of 1..{n}, got {order}")
    signal, k = _scaled_up(signal)
    basis, _, forward = _orthonormal_rows(signal.data, signal._gram, np.subtract(order, 1))
    return MultichannelSignal._wrap(basis), WhiteningTransform("gram_schmidt", np.ldexp(forward, k), order)


def second_moment(signal: MultichannelSignal) -> np.ndarray:
    """Second moment matrix ``C[i][j] = sum_n x_i[n] x_j[n] / M``.

    Uncentered: pass ``signals.center(signal)`` to get the covariance
    matrix.  Symmetric by construction.  It scales the signal's own Gram
    matrix, so PCA whitening and the PCA baseline of one signal share it.
    """
    c = signal._gram / signal.n_samples
    return 0.5 * (c + c.T)


def _principal_components(signal: MultichannelSignal):
    """``(vectors, vectors.T @ data, sums of squares of its rows)`` above the rank cut.

    The vectors are the second-moment eigenvectors, as columns in
    descending eigenvalue order.  The projection is one matrix product
    and the sums one row-norm product (``numerics._row_squares``), so PCA
    whitening and the PCA baseline of one signal get the same bits.  Both
    judge the signal first (``_scaled_up``), so its largest eigenvalue is positive.
    """
    eig = symmetric_eig(second_moment(signal))
    rank = int(np.count_nonzero(eig.eigenvalues > _RANK_TOL * eig.eigenvalues[0]))
    vectors = eig.eigenvectors[:, :rank]
    rows = vectors.T @ signal.data
    return vectors, rows, _row_squares(rows)


def whiten_pca(signal: MultichannelSignal):
    """Whiten via eigenanalysis of the uncentered second moment matrix.

    Each output channel is the projection of the data onto one
    eigenvector, rescaled to unit sample norm.  Ordered by descending
    eigenvalue.

    Raises
    ------
    ZeroSignalError, NonFiniteError
        From ``_scaled_up``: every value is zero, or the energy overflows float64.
    DegenerateInputError
        If the second moment matrix is numerically rank deficient.
    """
    signal, k = _scaled_up(signal)
    vectors, components, squares = _principal_components(signal)
    if vectors.shape[1] < signal.n_channels:
        raise DegenerateInputError("second moment matrix is rank deficient")
    if np.any(squares == 0.0):
        raise DegenerateInputError("a principal component series is identically zero")
    norms = np.sqrt(squares)
    forward = np.ldexp(vectors.T / norms[:, np.newaxis], k)
    components /= norms[:, np.newaxis]  # in place: one N x M array fewer at the peak
    return MultichannelSignal._wrap(components), WhiteningTransform("pca", forward, None)


def _check_settings(method: str, order) -> None:
    """Raise ``InvalidSpecError`` for an unknown method or an order without Gram-Schmidt."""
    if method not in METHODS:
        raise InvalidSpecError(f"unknown whitening method {method!r}; expected one of {METHODS}")
    if order is not None and method != "gram_schmidt":
        raise InvalidSpecError(f"a channel order applies to gram_schmidt whitening only, not {method}")


def apply_whitening(signal: MultichannelSignal, method: str, order=None):
    """Dispatch on method name; returns (whitened signal, transform)."""
    _check_settings(method, order)
    if method == "none":
        return signal, WhiteningTransform.identity(signal.n_channels)
    if method == "gram_schmidt":
        return whiten_gram_schmidt(signal, order)
    return whiten_pca(signal)
