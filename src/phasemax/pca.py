"""PCA baseline separator.

Eigenanalysis of the second moment matrix of the data, with projections
onto the eigenvectors as source estimates, ordered by variance.  Two
deliberate conventions, both exposed to experiments:

* no normalization of the input channels (normalizing fixes the
  eigenvectors regardless of the mixture and defeats separation);
* centering is off by default.  Subtracting channel means shifts
  baselines so that even disjoint-support sources acquire a nonzero
  cross-moment, which visibly contaminates the estimates; the
  ``centered`` flag exists to study exactly that effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .numerics import EigenDecomposition, symmetric_eig
from .separation import SeparationResult, SourceEstimate
from .signals import MultichannelSignal
from .whitening import WhiteningTransform, second_moment

# Eigenvalues below this fraction of the largest are treated as rank
# deficiency and their components are dropped.
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class PcaModel:
    """Fitted eigenstructure plus the centering bookkeeping."""

    eig: EigenDecomposition
    centered: bool
    channel_means: np.ndarray


def fit_pca(signal: MultichannelSignal, centered: bool = False) -> PcaModel:
    """Eigendecompose the (optionally centered) second moment matrix."""
    means = (
        signal.data.mean(axis=1) if centered else np.zeros(signal.n_channels)
    )
    eig = symmetric_eig(second_moment(signal, centered))
    return PcaModel(eig, centered, means)


def pca_separate(signal: MultichannelSignal, centered: bool = False) -> SeparationResult:
    """Estimate sources as projections onto principal directions.

    Estimate k's series is ``eigenvector_k . x[n]`` with estimates
    ordered by descending eigenvalue.  Eigenpairs whose eigenvalue falls
    below 1e-12 of the largest are dropped, so rank-deficient input
    yields as many estimates as the numerical rank.

    Raises
    ------
    DegenerateInputError
        If the second moment matrix has no positive eigenvalue at all.
    """
    model = fit_pca(signal, centered)
    eigenvalues = model.eig.eigenvalues
    if eigenvalues[0] <= 0.0:
        raise DegenerateInputError("second moment matrix has no positive eigenvalue")
    keep = eigenvalues > _RANK_TOL * eigenvalues[0]

    x = signal.data - model.channel_means[:, np.newaxis] if centered else signal.data
    estimates = []
    energies = [float((x**2).sum())]
    for k in np.flatnonzero(keep):
        direction = model.eig.eigenvectors[:, k].copy()
        series = direction @ x
        estimates.append(SourceEstimate(direction, series))
        energies.append(energies[-1] - float((series**2).sum()))
    return SeparationResult(
        tuple(estimates),
        np.array(energies),
        "pca",
        WhiteningTransform.identity(signal.n_channels),
    )
