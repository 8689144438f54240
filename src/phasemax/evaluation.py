"""Assessment protocol: association, correlation and Monte-Carlo RMS.

Separated sources come back in arbitrary order, scale and sign, so
before any error can be quoted the estimates have to be normalized to
unit magnitude, matched to the true sources by highest absolute
correlation, and sign-aligned to the source's own polarity.  Errors are
then reported per sample as RMS over many seeded noise realizations,
which is how the bundled noise-robustness experiment compares the
maximum method against the PCA baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InvalidSpecError,
    NonFiniteError,
    ZeroSeriesError,
    ZeroVarianceError,
)
from .numerics import _BLOCK_VALUES, _TINY, _row_squares, _scale_exponent
from .pca import pca_separate
from .separation import SeparationResult, separate_maximum
from .signals import (
    MultichannelSignal,
    NoiseSpec,
    PulseTrainSpec,
    add_noise,
    center,
    generate_sources,
    mix,
)
from .whitening import _check_settings


def normalize_unit(series) -> np.ndarray:
    """Rescale a series to unit sample norm (sum of squares = 1)."""
    x = np.asarray(series, dtype=float)
    n = np.sqrt(_row_squares(x[np.newaxis])[0])
    if n == 0.0:
        raise ZeroSeriesError("cannot normalize an all-zero series")
    return x / n


@dataclass(frozen=True)
class AssociationReport:
    """Bijective source/estimate pairing with signed correlations.

    ``pairs`` holds ``(source_index, estimate_index, correlation)``
    triples with 0-based indices, sorted by source index, and each
    correlation equals ``correlation_matrix[source, estimate]``.
    """

    pairs: tuple
    correlation_matrix: np.ndarray


def _correlation_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson correlations of every row of ``x`` with every row of ``y``.

    Entry ``[i, j]`` is ``(xc . yc) / (|xc| |yc|)``, clipped to [-1, 1],
    with ``xc = x[i] - mean(x[i])`` and ``yc = y[j] - mean(y[j])``.

    One pass over blocks of ``_BLOCK_VALUES`` samples reads each
    array once; no separate pass takes the means.  The first block is
    centred on its own mean, and a table of one block stops there.
    Each later block is centred, in the first block's buffers, on the
    mean of the samples before it.  Its cross products come from one
    matrix product, its squared norms from one dot product per row, and
    its exact mean from its centred sums.  It merges by the pairwise
    update of Chan, Golub & LeVeque (1983): the centred sums grow by the
    block's own plus ``n_a n_b / (n_a + n_b)`` times the product of the
    differences of the two means.  On a table of more than one block,
    every shift is known to the bit, so rows offset far above their
    spread lose no digits.  A table of one block skips the correction for
    its rounded mean, which would cost a 2 x 1000 call 30% more:
    rows offset by 1e10 and 1e12 of their spread lose up to about 1e-12
    and 1e-8 of a correlation there.  A row that peaks below ``_TINY``
    loses digits to squares near or below the subnormal range; when a
    centred sum is small enough that some row may, the pass runs again
    with those rows scaled up exactly by a power of two, which changes
    no correlation.  Raises ``NonFiniteError`` if the sums overflow and
    ``ZeroVarianceError`` if a centred norm is not positive.
    """
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatchError(
            f"series lengths differ: {x.shape[1]} vs {y.shape[1]} samples"
        )
    m = x.shape[1]
    width = min(m, _BLOCK_VALUES)
    # The first block, centred on its own mean; a table of one block stops here.
    x_ref, y_ref = x[:, :width].mean(axis=1), y[:, :width].mean(axis=1)
    xc, yc = x[:, :width] - x_ref[:, None], y[:, :width] - y_ref[:, None]
    cross, x_sq, y_sq = xc @ yc.T, _row_squares(xc), _row_squares(yc)
    if m > width:
        # The first block's mean less the rounded one, which the merges need.
        x_off, y_off = xc.sum(axis=1) / width, yc.sum(axis=1) / width
        cross -= width * np.outer(x_off, y_off)
        x_sq -= width * x_off * x_off
        y_sq -= width * y_off * y_off
    for start in range(width, m, width):
        size = min(width, m - start)
        # the running mean, x_ref + x_off, rounded: each block is centred on it exactly
        x_shift, y_shift = x_ref + x_off, y_ref + y_off
        xb = np.subtract(x[:, start : start + size], x_shift[:, None], out=xc[:, :size])
        yb = np.subtract(y[:, start : start + size], y_shift[:, None], out=yc[:, :size])
        x_mean, y_mean = xb.sum(axis=1) / size, yb.sum(axis=1) / size  # less the shift
        # the block's mean less the running mean, with the shift's rounding put back
        dx = (x_shift - x_ref - x_off) + x_mean
        dy = (y_shift - y_ref - y_off) + y_mean
        weight = start * size / (start + size)
        cross += xb @ yb.T - size * np.outer(x_mean, y_mean) + weight * np.outer(dx, dy)
        x_sq += _row_squares(xb) - size * x_mean * x_mean + weight * dx * dx
        y_sq += _row_squares(yb) - size * y_mean * y_mean + weight * dy * dy
        x_off = x_off + dx * (size / (start + size))
        y_off = y_off + dy * (size / (start + size))
    if not (np.isfinite(cross).all() and np.isfinite(x_sq).all() and np.isfinite(y_sq).all()):
        raise NonFiniteError("correlation sums overflow float64; rescale the input")
    # a centred sum is at most m times the row's largest square, so only
    # below this bound (4x for rounding) may its row peak below _TINY
    if min(x_sq.min(), y_sq.min()) < 4 * m * _TINY**2:
        kx, ky = _scale_exponent(x, rows=True), _scale_exponent(y, rows=True)
        if kx.any() or ky.any():
            return _correlation_matrix(np.ldexp(x, kx), np.ldexp(y, ky))
    # the corrections may leave a near-constant row just below 0
    if np.any(x_sq <= 0.0) or np.any(y_sq <= 0.0):
        raise ZeroVarianceError("correlation undefined for a zero-variance series")
    return np.clip(cross / np.outer(np.sqrt(x_sq), np.sqrt(y_sq)), -1.0, 1.0)


def associate(truth: MultichannelSignal, estimates: MultichannelSignal) -> AssociationReport:
    """Pair estimates with sources greedily by absolute correlation.

    The largest unmatched absolute correlation is paired first; exact
    ties go to the lowest (source, estimate) index pair.  Requires equal
    channel and sample counts and nonzero variance everywhere.
    """
    if truth.n_channels != estimates.n_channels:
        raise DimensionMismatchError(
            f"{truth.n_channels} sources vs {estimates.n_channels} estimates"
        )
    n = truth.n_channels
    matrix = _correlation_matrix(truth.data, estimates.data)

    # argmax returns the first maximum in row-major order, so exact ties go to
    # the lowest (source, estimate) pair; a taken row or column drops to -1.
    left = np.abs(matrix)
    pairs = []
    for _ in range(n):
        i, j = divmod(int(np.argmax(left)), n)
        pairs.append((i, j, float(matrix[i, j])))
        left[i, :] = left[:, j] = -1.0
    pairs.sort()  # by source: each source index occurs once
    return AssociationReport(tuple(pairs), matrix)


def cross_method_correlations(a: SeparationResult, b: SeparationResult) -> AssociationReport:
    """Associate the estimates of two separation results with each other.

    Two methods that find different numbers of sources in one signal
    disagree on its rank: that is a ``DegenerateInputError``.
    """
    if len(a.estimates) != len(b.estimates):
        raise DegenerateInputError(
            f"the methods disagree on the rank: {a.method} found {len(a.estimates)} sources"
            f" and {b.method} {len(b.estimates)}"
        )
    return associate(
        MultichannelSignal._wrap(a.series_matrix), MultichannelSignal._wrap(b.series_matrix)
    )


@dataclass(frozen=True)
class MethodSpec:
    """One separation method with its settings, as ``separate`` and a Monte-Carlo sweep run it.

    ``name`` is ``"maximum"`` or ``"pca"``.  ``whitening`` (one of
    ``whitening.METHODS``; None means ``"gram_schmidt"``) and ``order``
    apply to the maximum method, ``order`` only with Gram-Schmidt
    whitening; ``centered`` (a bool) applies to the PCA baseline, which
    then separates ``center(signal)``.  A setting that cannot apply is
    an ``InvalidSpecError``.
    """

    name: str
    whitening: str | None = None
    order: tuple | None = None
    centered: bool = False

    def __post_init__(self):
        if self.name not in ("maximum", "pca"):
            raise InvalidSpecError(f"unknown method {self.name!r}")
        if not isinstance(self.centered, bool):
            raise InvalidSpecError(f"centered must be a boolean, got {self.centered!r}")
        if self.centered and self.name != "pca":
            raise InvalidSpecError("centered applies to the pca method only")
        if self.name == "pca" and (self.whitening, self.order) != (None, None):
            raise InvalidSpecError("whitening and order apply to the maximum method only")
        if self.name == "maximum":
            if self.whitening is None:
                object.__setattr__(self, "whitening", "gram_schmidt")  # frozen dataclass
            _check_settings(self.whitening, self.order)

    @property
    def label(self) -> str:
        if self.name == "maximum":
            return f"maximum-{self.whitening.replace('_', '')}"
        return "pca-centered" if self.centered else "pca"

    def run(self, signal: MultichannelSignal) -> SeparationResult:
        if self.name == "maximum":
            return separate_maximum(signal, whitening=self.whitening, order=self.order)
        return pca_separate(center(signal) if self.centered else signal)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Everything a noise-robustness sweep needs to be reproducible."""

    fixture: PulseTrainSpec
    noise_sds: tuple
    n_runs: int
    base_seed: int
    methods: tuple
    mixing: np.ndarray | None = None  # None mixes with the identity

    def __post_init__(self):
        if self.n_runs < 1:
            raise InvalidSpecError(f"n_runs must be >= 1, got {self.n_runs}")
        if not self.noise_sds:
            raise InvalidSpecError("at least one noise sd is required")
        for sd in self.noise_sds:  # each level's rule, and the seed's, checked before any run
            NoiseSpec(sd, self.base_seed)
        if len(self.methods) < 1:
            raise InvalidSpecError("at least one method is required")
        labels = [spec.label for spec in self.methods]
        for label in labels:
            if labels.count(label) > 1:
                raise InvalidSpecError(f"two methods share the label {label!r}, which names their reports")
        names = [f"{sd:g}" for sd in self.noise_sds]
        for name in names:
            if names.count(name) > 1:
                raise InvalidSpecError(f"two noise sds share the name {name!r}, which names their columns")


@dataclass(frozen=True)
class RmsReport:
    """Per-sample RMS estimation error for each source, one method+sd."""

    method: str
    noise_sd: float
    n_runs: int
    rms: np.ndarray  # (n_sources, n_samples)


def monte_carlo_rms(cfg: MonteCarloConfig) -> list:
    """Run the seeded Monte-Carlo error sweep.

    For every run r: regenerate the fixture, mix, add noise seeded with
    ``base_seed + r``, separate with each method, normalize truth and
    estimates to unit magnitude, associate, flip negatively correlated
    estimates, and accumulate squared per-sample errors.  The RMS over
    runs is reported per (method, noise sd, source).  Accumulation is a
    plain sum of squares in fixed run order, so repeated invocations
    are bitwise identical.
    """
    sources = generate_sources(cfg.fixture)
    truth = np.vstack([normalize_unit(ch) for ch in sources.data])
    clean = sources if cfg.mixing is None else mix(sources, cfg.mixing)
    n, m = sources.data.shape

    reports = []
    for sd in cfg.noise_sds:
        sums = np.zeros((len(cfg.methods), n, m))
        for run in range(cfg.n_runs):
            noisy = add_noise(clean, NoiseSpec(sd, cfg.base_seed + run))
            for total, spec in zip(sums, cfg.methods):
                result = spec.run(noisy)
                if len(result.estimates) != n:
                    raise DegenerateInputError(
                        f"{spec.label} at noise sd {sd:g} found {len(result.estimates)} estimates for {n} sources"
                    )
                est = np.vstack([normalize_unit(e.series) for e in result.estimates])
                for i, j, rho in associate(sources, MultichannelSignal._wrap(est)).pairs:
                    aligned = est[j] if rho >= 0 else -est[j]
                    total[i] += (aligned - truth[i]) ** 2
        reports.extend(
            RmsReport(spec.label, sd, cfg.n_runs, np.sqrt(total / cfg.n_runs))
            for total, spec in zip(sums, cfg.methods)
        )
    return reports
