"""PCA baseline separator.

Eigenanalysis of the second moment matrix of the data, with projections
onto the eigenvectors as source estimates, ordered by variance.  Two
deliberate conventions:

* no normalization of the input channels (normalizing fixes the
  eigenvectors regardless of the mixture and defeats separation);
* no centering.  Subtracting channel means shifts baselines so that
  even disjoint-support sources acquire a nonzero cross-moment, which
  visibly contaminates the estimates.  To study that effect, pass
  ``signals.center(signal)``: the second moment matrix of centered data
  is its covariance matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError
from .numerics import symmetric_eig
from .separation import SeparationResult, _result
from .signals import MultichannelSignal
from .whitening import WhiteningTransform, second_moment

# Eigenvalues below this fraction of the largest are treated as rank
# deficiency and their components are dropped.
_RANK_TOL = 1e-12


def pca_separate(signal: MultichannelSignal) -> SeparationResult:
    """Estimate sources as projections onto principal directions.

    Estimate k's series is ``eigenvector_k . x[n]``, with ``x`` the data
    as given, and estimates are ordered by descending eigenvalue.
    Eigenpairs whose eigenvalue falls below 1e-12 of the largest are
    dropped, so rank-deficient input yields as many estimates as the
    numerical rank.

    Raises
    ------
    DegenerateInputError
        If the second moment matrix has no positive eigenvalue at all.
    """
    eig = symmetric_eig(second_moment(signal))
    eigenvalues = eig.eigenvalues
    if eigenvalues[0] <= 0.0:
        raise DegenerateInputError("second moment matrix has no positive eigenvalue")
    keep = np.flatnonzero(eigenvalues > _RANK_TOL * eigenvalues[0])

    energies = [float((signal.data**2).sum())]
    found = []
    rows = np.empty((len(keep), signal.n_samples))
    for k in keep:
        direction = eig.eigenvectors[:, k].copy()
        series = np.matmul(direction, signal.data, out=rows[len(found)])
        found.append((direction, None, None))
        energies.append(energies[-1] - float((series**2).sum()))
    return _result(
        found, rows, energies, "pca", WhiteningTransform.identity(signal.n_channels)
    )
