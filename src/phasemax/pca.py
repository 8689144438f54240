"""PCA baseline separator.

Estimates are the projections of the data onto the eigenvectors of its
second moment matrix, ordered by variance.  The eigenanalysis and its
rank cut are the ones PCA whitening uses (``whitening``); this module
only adds the residual-energy trace.  Two deliberate conventions:

* no normalization of the input channels (normalizing fixes the
  eigenvectors regardless of the mixture and defeats separation);
* no centering.  Subtracting channel means shifts baselines so that
  even disjoint-support sources acquire a nonzero cross-moment, which
  visibly contaminates the estimates.  To study that effect, pass
  ``signals.center(signal)``: the second moment matrix of centered data
  is its covariance matrix.
"""

from __future__ import annotations

import math

from .separation import SeparationResult, _result, _scaled_down
from .signals import MultichannelSignal
from .whitening import WhiteningTransform, _principal_components, _scaled_up


def pca_separate(signal: MultichannelSignal) -> SeparationResult:
    """Estimate sources as projections onto principal directions.

    Estimate k's series is ``eigenvector_k . x[n]``, with ``x`` the data
    as given, and estimates are ordered by descending eigenvalue.
    Eigenpairs under the rank cut that PCA whitening also applies are
    dropped, so rank-deficient input yields as many estimates as the
    numerical rank.  Data whose every square may underflow are separated
    scaled up by a power of two, and the result is scaled back, as in
    ``separate_maximum``.

    Raises
    ------
    ZeroSignalError, NonFiniteError
        From ``_scaled_up``: every value is zero, or the energy overflows float64.
    """
    signal, exponent = _scaled_up(signal)
    vectors, rows, squares = _principal_components(signal)
    # the data's energy is the trace of the Gram matrix cached with the signal
    energies = [math.fsum(signal._gram.diagonal().tolist())]
    for share in squares.tolist():
        energies.append(max(energies[-1] - share, 0.0))
    found = [(direction, None, None) for direction in vectors.T.copy()]
    result = _result(found, rows, energies, "pca", WhiteningTransform.identity(signal.n_channels))
    return _scaled_down(result, exponent)
