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
``d_k . z`` on the whitened data, step k lowers each squared radius by
``s_k**2`` and the residual energy by ``|s_k|**2``; only the winning
sample's residual is rebuilt, exactly, to give the next direction.
Without whitening the loop stops once the energy falls to a floor, so it
lowers the energy as it goes, by ``d_k . G . d_k`` with the signal's
Gram matrix ``G = z z^T``.  Whitened rows are orthonormal, so the floor
cannot stop the loop before N directions: their energies are taken from
the series once these are written, and no Gram matrix of them is formed.
Since deflation never makes a squared radius grow, the maximum is
searched only among candidates: the samples whose squared radius starts
at or above a cut, at first half the largest.  A best candidate at or
above the cut is the maximum over every sample.  When it falls below,
the cut is halved and the samples now above it are admitted, their
squared radii brought up to date from the directions found so far; once
the candidates would be more than 1/8 of the samples, or when the data
hold fewer than 2**15 values, every sample is searched, with no copy.
On sparse data the candidates are a few percent of the samples, held as
one gathered block in sample order, so the earliest sample still wins an
exact tie.  Once every direction is known, the series are written over
the whitened array itself, block by block, and that array becomes the
result.

On whitened data the directions of sources with zero sample
cross-product are orthogonal, so each projection is a clean scaled copy
of one source.  Without whitening the first projection picks up a
contamination term from every source whose direction is not orthogonal
to the detected one; the final deflated source still comes out to a
scaling constant.  When two sources peak at the same sample the farthest
point lies between their directions and the method degrades by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ZeroSignalError
from .numerics import _BLOCK_VALUES, _TINY, _row_squares, _scale_exponent
from .signals import MultichannelSignal
from .whitening import WhiteningTransform, _scaled_up, apply_whitening

# Stop deflating once this fraction of the initial energy remains.
DEFAULT_ENERGY_FLOOR = 1e-12

# The candidate search of separate_maximum: the cut starts at this
# fraction of the largest squared radius and is multiplied by the step
# each time it is lowered; past the share of the samples, every sample
# is searched.  Below the minimum number of values (channels x samples)
# every sample is searched from the start: there a pass over all of
# them costs less than the candidates' bookkeeping (the two break even
# at about 2 x 16000 and 8 x 4000 values).
_CUT_START = 0.5
_CUT_STEP = 0.5
_CANDIDATE_SHARE = 1 / 8
_CANDIDATE_MIN_VALUES = 1 << 15


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
    after each one; it is non-increasing.  Each later entry is the one
    before less the estimate's share, clamped at 0: its series' sum of
    squares, or for the maximum method without whitening
    ``d_k . G . d_k``, with ``G`` the Gram matrix of the data.  It equals
    the explicitly deflated residual's sum of squares to rounding (a few
    ulps of the first entry).

    ``series_matrix`` is the read-only K x M block of the estimated
    series; each estimate's ``series`` is a view of its row.  For the
    maximum method it is the first K rows of the N x M working array:
    when extraction stops early (K < N) the result keeps that whole
    array rather than copying K rows out of it.
    """

    estimates: tuple
    residual_energy: np.ndarray
    method: str
    whitening: WhiteningTransform
    series_matrix: np.ndarray


def _result(found, rows, energies, method, whitening) -> SeparationResult:
    """Freeze the first ``len(found)`` rows and give each estimate its row."""
    series = rows[: len(found)]
    series.setflags(write=False)
    estimates = tuple(
        SourceEstimate(direction, s, idx, radius)
        for (direction, idx, radius), s in zip(found, series)
    )
    return SeparationResult(estimates, np.array(energies), method, whitening, series)


def radius_series(signal: MultichannelSignal) -> np.ndarray:
    """Distance of every trajectory point from the origin.

    Data whose largest |value| is below ``_TINY`` are scaled up by a
    power of two before squaring and the radii scaled back, so no square
    loses digits in the subnormal range and no nonzero radius is 0.

    Raises
    ------
    NonFiniteError
        If a squared radius overflows float64.
    """
    z = signal.data
    scale = _scale_exponent(z)
    r = np.sqrt(_squared_radii(np.ldexp(z, scale) if scale else z))
    if scale:
        r = np.ldexp(r, -scale)
    if not np.isfinite(r).all():
        raise NonFiniteError("squared radii overflow float64; rescale the input")
    return r


def _scaled_down(result: SeparationResult, k: int) -> SeparationResult:
    """The unwhitened ``result`` for data ``x`` from the one for ``x * 2**k``.

    The series and radii are scaled by ``2**-k`` and the residual
    energies by ``2**-2k``.  A whitened result needs no scaling back: its
    whitening's ``forward`` already carries the ``2**k``.
    """
    if not k:
        return result
    found = [
        (e.direction, e.argmax_index, None if e.radius is None else math.ldexp(e.radius, -k))
        for e in result.estimates
    ]
    rows, energies = np.ldexp(result.series_matrix, -k), np.ldexp(result.residual_energy, -2 * k)
    return _result(found, rows, energies, result.method, result.whitening)


def _squared_radii(z: np.ndarray) -> np.ndarray:
    """``(z**2).sum(axis=0)`` without the N x M squares (bit for bit when M > 1)."""
    return np.einsum("ij,ij->j", z, z)


def separate_maximum(
    signal: MultichannelSignal,
    whitening: str = "gram_schmidt",
    order=None,
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
        1-based channel order for Gram-Schmidt whitening; with any other
        whitening it is an ``InvalidSpecError``.

    At most one source is extracted per channel; extraction stops
    earlier once the residual energy falls below ``DEFAULT_ENERGY_FLOOR``
    times the initial energy.  The series are ``d_k . z`` computed as
    one matrix product per block of columns, so they equal a product
    per direction to rounding (a few ulps of the largest value); each
    radius and direction comes from the winning sample's residual,
    rebuilt exactly, and scaled up by a power of two before squaring
    when its largest |value| is below ``_TINY``.  Data whose every square
    may underflow are separated scaled up by a power of two
    (``_scaled_up``); unwhitened, the result is scaled back
    (``_scaled_down``).  The signal's data is never written to.

    Raises
    ------
    ZeroSignalError, NonFiniteError
        From ``_scaled_up``, within the whitening if there is one: every
        value is zero, or the energy overflows float64.
    DegenerateInputError
        Propagated from whitening on rank-deficient data.
    """
    work, transform = apply_whitening(signal, whitening, order)
    exponent = 0
    if work is signal:  # no whitening: z is the caller's data, and it is overwritten below
        signal, exponent = _scaled_up(signal)
        z = signal.data.copy()
        gram = signal._gram  # residual energy k is the last one less d_k . gram . d_k
    else:  # the whitened array is this call's own, and its rows are orthonormal
        z = work.data
        z.setflags(write=True)
        gram = None  # residual energy k is the last one less |s_k|**2, from the written series
    r2 = _squared_radii(z)  # squared radii before any deflation
    initial = float(r2.sum())
    energies = [initial]
    found = []  # (direction, argmax index, radius) per extraction
    directions = np.empty((len(z), len(z)))  # row k is d_k, once found
    series = np.empty(0)  # one series at a time: d_k . zc, then its square
    cut = _CUT_START * float(r2.max()) if z.size >= _CANDIDATE_MIN_VALUES else 0.0
    index, zc, r2c = _candidates(z, r2, cut, found, directions)
    while len(found) < len(z) and energies[-1] > DEFAULT_ENERGY_FLOOR * initial:
        best = int(np.argmax(r2c))  # first occurrence on ties; zc is in sample order
        # Every sample outside zc started below the cut, and deflation only
        # lowers a squared radius, so a candidate at or above the cut wins.
        while index is not None and r2c[best] < cut:
            cut *= _CUT_STEP
            zc = r2c = None  # the old block goes before the new one is gathered
            index, zc, r2c = _candidates(z, r2, cut, found, directions)
            best = int(np.argmax(r2c))
        idx = best if index is None else int(index[best])
        # The winner's residual, rebuilt exactly from z rather than from
        # r2c, which has lost digits to cancellation: classical
        # Gram-Schmidt against the directions so far.  A pass that removes
        # more than it leaves (|coefficients|**2 above the residual's
        # squared norm) is repeated, and twice is enough to leave the
        # residual orthogonal to them to rounding.
        column = z[:, idx].copy()
        if found:
            basis = directions[: len(found)]
            coeffs = np.dot(basis, column)
            column -= np.dot(coeffs, basis)
            if np.dot(coeffs, coeffs) > np.dot(column, column):
                column -= np.dot(np.dot(basis, column), basis)
        norm2 = float((column**2).sum())
        scale = 0
        if norm2 < len(column) * _TINY**2:  # maybe tiny values: square them scaled up
            scale = _scale_exponent(column)
            column = np.ldexp(column, scale)
            norm2 = float((column**2).sum())
        if norm2 == 0.0:  # scaled, any nonzero residual has a nonzero norm
            raise ZeroSignalError("residual is identically zero; no direction exists")
        norm = math.sqrt(norm2)
        direction = np.divide(column, norm, out=directions[len(found)])
        radius = math.ldexp(norm, -scale)
        if series.size < zc.shape[1]:  # samples were admitted
            series = np.empty(zc.shape[1])
        s = np.matmul(direction, zc, out=series[: zc.shape[1]])
        r2c -= np.square(s, out=s)
        np.maximum(r2c, 0.0, out=r2c)  # rounding leaves fully explained samples just below 0
        r2c[best] = 0.0
        found.append((direction, idx, radius))
        if gram is not None:
            energies.append(max(energies[-1] - float(gram.dot(direction).dot(direction)), 0.0))
    # Row k of z becomes d_k . z.  Each block is read whole before it is
    # written, so one K x block product is the only other array.
    # Whitened, step k removed exactly |s_k|**2: its squares are summed
    # from the K rows of each block just written.
    k = len(found)
    squares = np.zeros(k)
    for start in range(0, z.shape[1], _BLOCK_VALUES):
        block = z[:, start : start + _BLOCK_VALUES]
        block[:k] = directions[:k] @ block
        if gram is None:
            squares += _row_squares(block[:k])
    if gram is None:
        for share in squares.tolist():
            energies.append(max(energies[-1] - share, 0.0))
    return _scaled_down(_result(found, z, energies, "maximum", transform), exponent)


def _candidates(z, r2, cut, found, directions):
    """The samples that may hold the next maximum: ``(index, columns, squared radii)``.

    They are the samples whose squared radius before any deflation,
    ``r2``, is at or above ``cut``, gathered from ``z`` in sample order,
    with their squared radii brought up to date from the directions
    ``found`` so far, the first rows of ``directions``.  At a zero cut,
    or once they would be more than ``_CANDIDATE_SHARE`` of the samples,
    they are every sample with no copy: ``(None, z, r2)``, ``r2``
    updated in place.
    """
    index = np.flatnonzero(r2 >= cut) if cut > 0.0 else None
    if index is not None and len(index) <= _CANDIDATE_SHARE * z.shape[1]:
        zc, r2 = z.take(index, axis=1), r2[index]
    else:
        index, zc = None, z
    if found:
        basis = directions[: len(found)]
        for start in range(0, zc.shape[1], _BLOCK_VALUES):
            r2[start : start + _BLOCK_VALUES] -= _squared_radii(
                basis @ zc[:, start : start + _BLOCK_VALUES]
            )
        np.maximum(r2, 0.0, out=r2)
        winners = [idx for _, idx, _ in found]
        # every winner is still a candidate
        r2[winners if index is None else index.searchsorted(winners)] = 0.0
    return index, zc, r2
