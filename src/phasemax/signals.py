"""Synthetic sparse sources, linear mixing and the multichannel container.

The central value type is :class:`MultichannelSignal`: N channels by M
samples of real data.  Viewed column by column it is also the phase
trajectory of the recording, each sample being one point in N-space,
which is how the separation module consumes it.

Sources are built as trains of Gaussian bumps.  Any localized pulse
shape would do for sparse sources; Gaussians were chosen because their
tails decay fast enough that pulses a few widths apart have numerically
disjoint supports.  The module also ships three stock fixtures used by
the bundled experiments and tests (pulse positions and widths are
package constants; only the 1.0 : 0.1 amplitude ratio of the two-source
fixture is meaningful to the experiments built on it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidSpecError, NonFiniteError


@dataclass(frozen=True)
class MultichannelSignal:
    """Immutable N x M block of real-valued channel data."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=float)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise DimensionMismatchError(
                f"signal data must be 2-D (channels x samples), got shape {arr.shape}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatchError("signal needs at least 1 channel and 1 sample")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("signal contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class Pulse:
    """One Gaussian bump: amplitude * exp(-(n - center)^2 / (2 width^2))."""

    center: float
    width: float
    amplitude: float


@dataclass(frozen=True)
class PulseTrainSpec:
    """Per-source pulse lists plus the common sample count.

    ``sources[j]`` is the tuple of pulses summed to form channel j.
    Pulses may be given as :class:`Pulse` instances or plain
    ``(center, width, amplitude)`` triples.
    """

    n_samples: int
    sources: tuple

    def __post_init__(self):
        if not isinstance(self.n_samples, int) or self.n_samples < 1:
            raise InvalidSpecError(f"n_samples must be a positive integer, got {self.n_samples!r}")
        if len(self.sources) < 1:
            raise InvalidSpecError("spec needs at least one source")
        normalized = []
        for j, pulses in enumerate(self.sources):
            train = []
            for p in pulses:
                pulse = p if isinstance(p, Pulse) else Pulse(*p)
                if not np.isfinite([pulse.center, pulse.width, pulse.amplitude]).all():
                    raise InvalidSpecError(f"source {j + 1}: pulse parameters must be finite")
                if pulse.width <= 0:
                    raise InvalidSpecError(f"source {j + 1}: width must be > 0, got {pulse.width}")
                if not 0 <= pulse.center < self.n_samples:
                    raise InvalidSpecError(
                        f"source {j + 1}: center {pulse.center} outside [0, {self.n_samples})"
                    )
                train.append(pulse)
            normalized.append(tuple(train))
        object.__setattr__(self, "sources", tuple(normalized))

    @property
    def n_sources(self) -> int:
        return len(self.sources)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian noise: standard deviation plus stream seed."""

    sd: float
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.sd) or self.sd < 0:
            raise InvalidSpecError(f"noise sd must be >= 0, got {self.sd}")
        if self.seed < 0:  # PCG64 seeds are non-negative
            raise InvalidSpecError(f"noise seed must be >= 0, got {self.seed}")


def generate_sources(spec: PulseTrainSpec) -> MultichannelSignal:
    """Render a pulse-train spec into source channels.

    Channel j is the sum of its Gaussian bumps evaluated at integer
    sample positions 0 .. M-1.  Deterministic: the same spec always
    produces the same samples.
    """
    if not isinstance(spec, PulseTrainSpec):
        spec = PulseTrainSpec(*spec)
    n = np.arange(spec.n_samples, dtype=float)
    data = np.zeros((spec.n_sources, spec.n_samples))
    for j, train in enumerate(spec.sources):
        for pulse in train:
            data[j] += pulse.amplitude * np.exp(
                -((n - pulse.center) ** 2) / (2.0 * pulse.width**2)
            )
    return MultichannelSignal(data)


def mix(sources: MultichannelSignal, a) -> MultichannelSignal:
    """Apply a square mixing matrix: output[i] = sum_j a[i][j] * sources[j].

    Raises
    ------
    DimensionMismatchError
        If ``a`` is not N x N for an N-channel input.
    """
    matrix = np.asarray(a, dtype=float)
    n = sources.n_channels
    if matrix.shape != (n, n):
        raise DimensionMismatchError(
            f"mixing matrix must be {n}x{n} for a {n}-channel signal, got {matrix.shape}"
        )
    return MultichannelSignal(matrix @ sources.data)


def add_noise(signal: MultichannelSignal, noise: NoiseSpec) -> MultichannelSignal:
    """Add seeded white Gaussian noise to every sample of every channel.

    The deviate stream is drawn from numpy's PCG64 generator seeded with
    ``noise.seed``, then scaled by ``noise.sd``, so a given seed yields
    bit-identical output for any sd and ``sd=0`` returns the input
    unchanged.
    """
    if noise.sd == 0.0:
        return signal
    rng = np.random.default_rng(noise.seed)
    deviates = rng.standard_normal(signal.data.shape)
    return MultichannelSignal(signal.data + noise.sd * deviates)


def center(signal: MultichannelSignal) -> MultichannelSignal:
    """Subtract each channel's mean from that channel."""
    return MultichannelSignal(signal.data - signal.data.mean(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# Stock fixtures.
#
# Two 2x2 mixing matrices with strongly non-orthogonal columns, used by
# the bundled experiments: OBLIQUE_MIXING has columns about 19 degrees
# apart; DOMINANT_MIXING additionally makes the first column carry most
# of the output energy.
# ---------------------------------------------------------------------------

OBLIQUE_MIXING = np.array([[1.3, 2.0], [1.0, 3.0]])
OBLIQUE_MIXING.setflags(write=False)

DOMINANT_MIXING = np.array([[6.5, 1.0], [3.0, 1.0]])
DOMINANT_MIXING.setflags(write=False)


def disjoint_sources_spec(n_samples: int = 1000) -> PulseTrainSpec:
    """Two sparse sources with numerically disjoint supports.

    Source 1 is a single tall pulse (amplitude 1.0), source 2 a pair of
    small pulses (amplitude 0.1), placed far enough apart that every
    cross product of the two channels underflows to zero.
    """
    return PulseTrainSpec(
        n_samples,
        (
            (Pulse(0.3 * n_samples, 12.0, 1.0),),
            (Pulse(0.65 * n_samples, 16.0, 0.1), Pulse(0.9 * n_samples, 16.0, 0.1)),
        ),
    )


def correlated_sources_spec(n_samples: int = 1000) -> PulseTrainSpec:
    """Two sparse sources with genuinely overlapping pulses.

    The second pulse of source 1 and the first pulse of source 2 sit
    1.25 widths apart, giving the channels a nonzero sample
    cross-product, while the tallest pulse of source 1 stays isolated
    from every source-2 pulse.
    """
    return PulseTrainSpec(
        n_samples,
        (
            (Pulse(0.25 * n_samples, 12.0, 1.0), Pulse(0.6 * n_samples, 12.0, 0.55)),
            (Pulse(0.615 * n_samples, 12.0, 0.8), Pulse(0.85 * n_samples, 12.0, 0.9)),
        ),
    )


def coincident_peaks_spec(n_samples: int = 1000) -> PulseTrainSpec:
    """Two sparse sources sharing one pulse center.

    Both sources carry a pulse at the same sample, so the two channels
    reinforce there and the farthest phase-space point no longer lies
    along either source direction.
    """
    shared = 0.6 * n_samples
    return PulseTrainSpec(
        n_samples,
        (
            (Pulse(0.25 * n_samples, 12.0, 1.0), Pulse(shared, 12.0, 1.2)),
            (Pulse(shared, 12.0, 1.2), Pulse(0.88 * n_samples, 12.0, 0.6)),
        ),
    )
