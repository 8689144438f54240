"""Source separation by phase-space maxima and deflation.

Treat the N-channel signal as a trajectory of points z[n] in N-space.
For sparse sources, the point farthest from the origin lies on the line
traced by whichever source peaks hardest, so its unit vector is taken
as that source's direction.  Projecting every sample onto the direction
estimates the source series; subtracting the rank-1 contribution
(deflation) removes it, leaving a trajectory confined to the orthogonal
complement.  Iterating extracts one source per step.

``separate_maximum`` deflates implicitly.  Each deflated residual is
orthogonal to every direction found so far, so the k-th series is just
``d_k . z`` on the whitened data and the squared radii are updated in
place as ``r2 -= s_k**2``; only the winning sample's residual is
rebuilt, exactly, to give the next direction.  ``find_maximum_direction``,
``project_source`` and ``deflate`` spell out the explicit steps and are
the reference that the implicit loop is tested against.

On whitened data the directions of sources with zero sample
cross-product are orthogonal, so each projection is a clean scaled copy
of one source.  Without whitening the first projection picks up a
contamination term from every source whose direction is not orthogonal
to the detected one; the final deflated source still comes out to a
scaling constant.  When two sources peak at the same sample the farthest
point lies between their directions and the method degrades by design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidSpecError, NonFiniteError, ZeroSignalError
from .signals import MultichannelSignal
from .whitening import WhiteningTransform, apply_whitening

# Radii below this are treated as identically zero signal.
_ZERO_RADIUS = 1e-300

# Stop deflating once this fraction of the initial energy remains.
DEFAULT_ENERGY_FLOOR = 1e-12


@dataclass(frozen=True)
class DirectionEstimate:
    """A detected source direction: unit vector, argmax sample, radius."""

    direction: np.ndarray
    argmax_index: int
    radius: float

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if abs(np.sqrt(np.dot(d, d)) - 1.0) > 1e-12:
            raise InvalidSpecError("direction must have unit norm")
        if self.radius < 0.0:
            raise InvalidSpecError("radius must be >= 0")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "direction", d)


@dataclass(frozen=True)
class SourceEstimate:
    """One extracted source: direction, series, and where it was found.

    ``argmax_index`` and ``radius`` are None for estimates that were not
    produced by maximum detection (the PCA baseline).
    """

    direction: np.ndarray
    series: np.ndarray
    argmax_index: int | None = None
    radius: float | None = None


@dataclass(frozen=True)
class SeparationResult:
    """Ordered source estimates plus the residual-energy trace.

    ``residual_energy`` has one entry per deflation boundary: the total
    sum of squares of the working data before the first extraction and
    after each one; it is non-increasing.  After the first entry it is
    the sum of the squared radii updated in place (``r2 -= s_k**2``,
    clamped at 0), which equals the explicitly deflated residual's sum
    of squares to rounding.
    """

    estimates: tuple
    residual_energy: np.ndarray
    method: str
    whitening: WhiteningTransform

    @property
    def series_matrix(self) -> np.ndarray:
        """Estimated series stacked as rows (K x M)."""
        return np.vstack([e.series for e in self.estimates])


def radius_series(signal: MultichannelSignal) -> np.ndarray:
    """Distance of every trajectory point from the origin."""
    return np.sqrt((signal.data**2).sum(axis=0))


def find_maximum_direction(signal: MultichannelSignal) -> DirectionEstimate:
    """Unit vector toward the trajectory point farthest from the origin.

    The earliest sample wins exact radius ties.

    Raises
    ------
    ZeroSignalError
        If every sample is zero (radius below 1e-300).
    """
    r = radius_series(signal)
    idx = int(np.argmax(r))  # first occurrence on ties
    if r[idx] < _ZERO_RADIUS:
        raise ZeroSignalError("signal is identically zero; no direction exists")
    return DirectionEstimate(signal.data[:, idx] / r[idx], idx, float(r[idx]))


def _direction_vector(d) -> np.ndarray:
    if isinstance(d, DirectionEstimate):
        return d.direction
    return np.asarray(d, dtype=float)


def project_source(signal: MultichannelSignal, d) -> np.ndarray:
    """Component of every trajectory point along a unit direction.

    Returns the series ``s[n] = direction . z[n]``.
    """
    direction = _direction_vector(d)
    if direction.shape != (signal.n_channels,):
        raise DimensionMismatchError(
            f"direction has dimension {direction.shape}, signal has {signal.n_channels} channels"
        )
    return direction @ signal.data


def deflate(signal: MultichannelSignal, d, series) -> MultichannelSignal:
    """Remove a source's rank-1 contribution from the trajectory.

    Computes ``z'[n] = z[n] - series[n] * direction``; with
    ``series = project_source(signal, d)`` every residual point is
    orthogonal to the removed direction.
    """
    direction = _direction_vector(d)
    series = np.asarray(series, dtype=float)
    if direction.shape != (signal.n_channels,):
        raise DimensionMismatchError(
            f"direction has dimension {direction.shape}, signal has {signal.n_channels} channels"
        )
    if series.shape != (signal.n_samples,):
        raise DimensionMismatchError(
            f"series has shape {series.shape}, signal has {signal.n_samples} samples"
        )
    return MultichannelSignal(signal.data - np.outer(direction, series))


def separate_maximum(
    signal: MultichannelSignal,
    whitening: str = "gram_schmidt",
    order=None,
    max_sources: int | None = None,
) -> SeparationResult:
    """Extract sources by iterating maximum detection and deflation.

    Parameters
    ----------
    signal : MultichannelSignal
        Raw mixture.  Centering, if wanted, must be applied beforehand.
    whitening : {"gram_schmidt", "pca", "none"}
        Transform applied once, up front, to the whole signal; the
        working data is never re-whitened between deflation steps and
        stays in N coordinates throughout.
    order : sequence of int, optional
        1-based channel order for Gram-Schmidt whitening.
    max_sources : int, optional
        Iteration cap; defaults to the channel count.  Extraction also
        stops once the residual energy falls below
        ``DEFAULT_ENERGY_FLOOR`` times the initial energy.

    Raises
    ------
    ZeroSignalError
        If the input is identically zero.
    NonFiniteError
        If the energy of the (whitened) data overflows to infinity.
    DegenerateInputError
        Propagated from whitening on rank-deficient data.
    """
    n = signal.n_channels
    if max_sources is None:
        max_sources = n
    if not 1 <= max_sources <= n:
        raise DimensionMismatchError(f"max_sources must be in 1..{n}, got {max_sources}")
    if float((signal.data**2).sum()) == 0.0:
        raise ZeroSignalError("cannot separate an identically zero signal")

    work, transform = apply_whitening(signal, whitening, order)
    z = work.data
    r2 = (z**2).sum(axis=0)  # squared radii of the deflated trajectory
    initial = float(r2.sum())
    if not np.isfinite(initial):
        raise NonFiniteError("signal energy overflows float64; rescale the input")
    energies = [initial]
    estimates = []
    while len(estimates) < max_sources and energies[-1] > DEFAULT_ENERGY_FLOOR * initial:
        idx = int(np.argmax(r2))  # first occurrence on ties
        # The winner's residual, rebuilt exactly from z rather than from
        # r2, which has lost digits to cancellation.
        column = z[:, idx].copy()
        for earlier in estimates:
            column -= (earlier.direction @ column) * earlier.direction
        radius = float(np.sqrt((column**2).sum()))
        if radius < _ZERO_RADIUS:
            raise ZeroSignalError("residual is identically zero; no direction exists")
        direction = column / radius
        series = direction @ z
        r2 -= series**2
        np.maximum(r2, 0.0, out=r2)  # rounding leaves fully explained samples just below 0
        r2[idx] = 0.0
        estimates.append(SourceEstimate(direction, series, idx, radius))
        energies.append(float(r2.sum()))
    return SeparationResult(tuple(estimates), np.array(energies), "maximum", transform)
