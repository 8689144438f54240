import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from phasemax.errors import InvalidSpecError, NonFiniteError, ZeroSignalError
from phasemax.pca import pca_separate
from phasemax.separation import radius_series, separate_maximum
from phasemax.signals import (
    DOMINANT_MIXING,
    OBLIQUE_MIXING,
    MultichannelSignal,
    NoiseSpec,
    Pulse,
    PulseTrainSpec,
    add_noise,
    coincident_peaks_spec,
    correlated_sources_spec,
    disjoint_sources_spec,
    generate_sources,
    mix,
)
from phasemax.whitening import apply_whitening, whiten_gram_schmidt, whiten_pca
from reference import explicit_deflation, pearson


@pytest.fixture
def disjoint_sources():
    return generate_sources(disjoint_sources_spec())


@pytest.fixture
def oblique_mixture(disjoint_sources):
    return mix(disjoint_sources, OBLIQUE_MIXING)


class TestRadiusSeries:
    def test_single_point(self):
        sig = MultichannelSignal([[3.0], [4.0]])
        np.testing.assert_array_equal(radius_series(sig), [5.0])

    def test_all_zero(self):
        sig = MultichannelSignal(np.zeros((3, 7)))
        np.testing.assert_array_equal(radius_series(sig), np.zeros(7))

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(41)
        data = rng.normal(size=(3, 50))
        r = radius_series(MultichannelSignal(data))
        for n in range(50):
            acc = 0.0
            for i in range(3):
                acc += data[i, n] ** 2
            assert abs(r[n] - acc**0.5) <= 1e-12

    def test_overflowing_radii_raise(self):
        # phase takes the radii, not the energy
        big = MultichannelSignal([[1e200, 1.0, 3.0], [1.0, 1e200, 2.0]])
        with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
            radius_series(big)

    @pytest.mark.parametrize(
        "data",
        [
            [[3e-160, 1e-161], [1e-161, 2e-160]],
            [[3e-170, 1e-171], [1e-171, 2e-170]],  # every square underflows to 0
            [[5e-324, 1e-310, 0.0], [2.5e-320, 3e-315, 7e-322]],  # subnormal values
            np.random.default_rng(42).normal(size=(3, 40)) * 1e-200,
        ],
        ids=["subnormal-squares", "zero-squares", "subnormal-values", "random-1e-200"],
    )
    def test_tiny_radii_match_hypot(self, data):
        # squared scaled up by a power of two: each radius within 1 ulp of hypot
        data = np.array(data)
        r = radius_series(MultichannelSignal(data))
        for radius, column in zip(r, data.T):
            exact = math.hypot(*column)
            assert abs(radius - exact) <= math.ulp(exact)


def first_estimate(data, whitening="none"):
    return separate_maximum(MultichannelSignal(data), whitening=whitening).estimates[0]


class TestFirstMaximum:
    def test_tiny_values_keep_their_digits(self):
        # the winner's squares are subnormal unless it is scaled up first
        data = np.array([[3e-160, 1e-161], [1e-161, 2e-160]])
        found = first_estimate(data)
        exact = math.hypot(3e-160, 1e-161)
        assert found.argmax_index == 0
        assert abs(found.radius - exact) <= math.ulp(exact)
        for value, unit in zip(found.direction, (3e-160 / exact, 1e-161 / exact)):
            assert abs(value - unit) <= math.ulp(unit)

    def test_tiny_residual_keeps_its_digits(self):
        # the data are too large to be scaled up as a whole, but the second
        # winner's residual (0, 3e-155) has a subnormal square
        result = separate_maximum(MultichannelSignal([[2.0**-499, 0.0], [0.0, 3e-155]]), "none")
        second = result.estimates[1]
        assert second.radius == 3e-155
        np.testing.assert_array_equal(second.direction, [0.0, 1.0])

    def test_single_nonzero_sample(self):
        data = np.zeros((2, 10))
        data[1, 7] = 5.0
        found = first_estimate(data)
        np.testing.assert_array_equal(found.direction, [0.0, 1.0])
        assert found.argmax_index == 7
        assert found.radius == 5.0

    def test_tie_breaks_to_earliest_sample(self):
        data = np.zeros((2, 12))
        data[:, 3] = [3.0, 4.0]
        data[:, 9] = [5.0, 0.0]
        assert first_estimate(data).argmax_index == 3

    def test_whitened_mixture_matches_forward_model_oracle(self, disjoint_sources, oblique_mixture):
        result = separate_maximum(oblique_mixture, whitening="gram_schmidt")
        found = result.estimates[0]
        # oracle: image of each true source direction under the transform,
        # the detected one being whichever has the larger normalized peak
        images = [result.whitening.forward @ OBLIQUE_MIXING[:, j] for j in range(2)]
        peaks = [
            np.max(np.abs(disjoint_sources.data[j])) * np.linalg.norm(images[j])
            for j in range(2)
        ]
        expected = images[int(np.argmax(peaks))]
        expected = expected / np.linalg.norm(expected)
        angle = np.arccos(min(1.0, abs(float(found.direction @ expected))))
        assert angle <= 1e-6


class TestProjection:
    def test_rank_one_signal_recovers_series(self):
        # the farthest sample holds series value -2, so the direction found is -direction
        direction = np.array([0.6, 0.8])
        series = np.array([1.0, -2.0, 0.5, 0.0])
        found = first_estimate(np.outer(direction, series))
        np.testing.assert_allclose(found.direction, -direction, atol=1e-15)
        np.testing.assert_allclose(found.series, -series, atol=1e-12)

    def test_orthogonal_samples_project_to_zero(self):
        # samples 1-4 lie on channel 2, orthogonal to the first direction (channel 1)
        data = np.vstack([[6.0, 0, 0, 0, 0], np.arange(5.0)])
        found = first_estimate(data)
        np.testing.assert_array_equal(found.direction, [1.0, 0.0])
        np.testing.assert_allclose(found.series, [6.0, 0, 0, 0, 0], atol=1e-12)

    def test_unwhitened_projection_contains_contamination_term(self):
        # correlated two-source mixture, no whitening: the first projection
        # equals s1*R1 + s2*R2*(R1hat . R2hat) built from the known geometry
        src = generate_sources(correlated_sources_spec())
        series = first_estimate(mix(src, DOMINANT_MIXING).data).series

        col1, col2 = DOMINANT_MIXING[:, 0], DOMINANT_MIXING[:, 1]
        r1, r2 = np.linalg.norm(col1), np.linalg.norm(col2)
        cos12 = float(col1 @ col2) / (r1 * r2)
        oracle = src.data[0] * r1 + src.data[1] * r2 * cos12
        assert np.max(np.abs(series - oracle)) <= 1e-9 * np.max(np.abs(series))


class TestDeflation:
    def test_rank_one_signal_leaves_zero_residual(self):
        direction = np.array([0.8, -0.6])
        series = np.linspace(-1, 1, 9)
        result = separate_maximum(MultichannelSignal(np.outer(direction, series)), whitening="none")
        assert len(result.estimates) == 1  # the residual falls below the energy floor
        assert result.residual_energy[1] <= 1e-12 * result.residual_energy[0]

    def test_orthogonal_part_unchanged(self):
        # deflating channel 1 leaves channel 2 as it was: the second series is channel 2
        data = np.vstack([[6.0, 0, 0, 0, 0, 0], np.arange(6.0)])
        second = separate_maximum(MultichannelSignal(data), whitening="none").estimates[1]
        np.testing.assert_array_equal(second.direction, [0.0, 1.0])
        np.testing.assert_allclose(second.series, data[1], atol=1e-12)

    def test_whitened_residual_is_scaled_remaining_direction(
        self, disjoint_sources, oblique_mixture
    ):
        # after removing the first detected source from whitened data the
        # residual must be a rank-1 copy of the other source's direction
        white, transform = whiten_gram_schmidt(oblique_mixture)
        found = separate_maximum(oblique_mixture, whitening="gram_schmidt").estimates[0]
        residual = white.data - np.outer(found.direction, found.series)

        images = [transform.forward @ OBLIQUE_MIXING[:, j] for j in range(2)]
        d = found.direction
        reduced = [b - d * float(d @ b) for b in images]
        oracle = sum(np.outer(reduced[j], disjoint_sources.data[j]) for j in range(2))
        scale = np.max(np.abs(white.data))
        np.testing.assert_allclose(residual, oracle, atol=1e-9 * scale)


class TestSeparateMaximum:
    def test_pure_sources_recovered_with_whitening(self, disjoint_sources):
        result = separate_maximum(disjoint_sources, whitening="gram_schmidt")
        assert len(result.estimates) == 2
        best = [
            max(abs(pearson(e.series, disjoint_sources.data[j])) for e in result.estimates)
            for j in range(2)
        ]
        assert min(best) >= 0.999

    def test_unwhitened_mixture_first_estimate_contaminated(
        self, disjoint_sources, oblique_mixture
    ):
        result = separate_maximum(oblique_mixture, whitening="none")
        first, second = result.estimates
        rho_1 = pearson(first.series, disjoint_sources.data[0])
        rho_2 = pearson(first.series, disjoint_sources.data[1])
        assert abs(rho_1) > 0.1 and abs(rho_2) > 0.1
        remaining = max(
            abs(pearson(second.series, disjoint_sources.data[j])) for j in range(2)
        )
        assert remaining >= 0.999

    def test_whitened_mixture_both_recovered(self, disjoint_sources, oblique_mixture):
        result = separate_maximum(oblique_mixture, whitening="gram_schmidt")
        for j in range(2):
            best = max(
                abs(pearson(e.series, disjoint_sources.data[j])) for e in result.estimates
            )
            assert best >= 0.999

    def test_zero_signal_raises(self):
        with pytest.raises(ZeroSignalError):
            separate_maximum(MultichannelSignal(np.zeros((2, 10))), whitening="none")
        # nonzero values whose squares all underflow are separated, scaled up
        result = separate_maximum(MultichannelSignal(np.full((2, 10), 1e-200)), whitening="none")
        assert [e.argmax_index for e in result.estimates] == [0]
        np.testing.assert_allclose(result.estimates[0].direction, [0.5**0.5] * 2, rtol=1e-15)

    @pytest.mark.parametrize("whitening", ["none", "pca"])
    def test_order_without_gram_schmidt_raises(self, oblique_mixture, whitening):
        with pytest.raises(InvalidSpecError):
            separate_maximum(oblique_mixture, whitening=whitening, order=(2, 1))

    def test_overflowing_energy_raises(self):
        # finite samples whose squared radii overflow to inf
        big = MultichannelSignal([[1e200, 1.0, 3.0], [1.0, 1e200, 2.0]])
        with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
            separate_maximum(big, whitening="none")


class TestSeparationProperties:
    def test_deflation_orthogonality_random_trials(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            data = rng.normal(size=(n, int(rng.integers(20, 80))))
            bound = 1e-10 * np.max(radius_series(MultichannelSignal(data)))
            for step in explicit_deflation(data):
                assert np.max(np.abs(step.direction @ step.residual)) <= bound

    def test_energy_strictly_decreases(self):
        rng = np.random.default_rng(56)
        sig = MultichannelSignal(rng.normal(size=(4, 60)))
        result = separate_maximum(sig, whitening="none")
        diffs = np.diff(result.residual_energy)
        assert np.all(diffs < 0)

    def test_successive_directions_orthogonal(self):
        rng = np.random.default_rng(57)
        sig = MultichannelSignal(rng.normal(size=(5, 80)))
        result = separate_maximum(sig, whitening="gram_schmidt")
        directions = [e.direction for e in result.estimates]
        for i in range(len(directions)):
            for j in range(i + 1, len(directions)):
                assert abs(float(directions[i] @ directions[j])) <= 1e-8

    @pytest.mark.parametrize("whitening", ["none", "gram_schmidt"])
    def test_scaling_leaves_directions_invariant(self, oblique_mixture, whitening):
        c = 3.7
        base = separate_maximum(oblique_mixture, whitening=whitening)
        scaled = separate_maximum(
            MultichannelSignal(c * oblique_mixture.data), whitening=whitening
        )
        for a, b in zip(base.estimates, scaled.estimates):
            assert a.argmax_index == b.argmax_index
            np.testing.assert_allclose(a.direction, b.direction, atol=1e-12)

    def test_scaling_scales_series_without_whitening(self, oblique_mixture):
        c = 3.7
        base = separate_maximum(oblique_mixture, whitening="none")
        scaled = separate_maximum(
            MultichannelSignal(c * oblique_mixture.data), whitening="none"
        )
        for a, b in zip(base.estimates, scaled.estimates):
            np.testing.assert_allclose(b.series, c * a.series, rtol=1e-12, atol=1e-12)

    def test_residual_energy_trace_shape(self, oblique_mixture):
        result = separate_maximum(oblique_mixture, whitening="gram_schmidt")
        assert result.residual_energy.shape == (len(result.estimates) + 1,)
        assert np.all(np.diff(result.residual_energy) <= 0)


# Whitened rows are orthonormal, so the whitened data of A @ x is a rotation
# of that of x for any invertible A, in every backend and channel order: the
# radii, argmax sequence and series d_k . z are the same.  Rounding grows with
# the mixing's condition number; the worst measured error was 1.5e-15 * cond
# of the largest value, and the bound, fixed before the test first ran, is
# 64 eps * cond.
FRAME_TOL = 64 * np.finfo(float).eps


class TestFrameInvariance:
    @pytest.mark.parametrize(
        "spec", [disjoint_sources_spec, correlated_sources_spec, coincident_peaks_spec]
    )
    @pytest.mark.parametrize(
        "whitening, order",
        [("gram_schmidt", None), ("gram_schmidt", (2, 1)), ("pca", None)],
        ids=["gram_schmidt", "gram_schmidt-order-2-1", "pca"],
    )
    def test_mixing_changes_no_series(self, spec, whitening, order):
        sources = add_noise(generate_sources(spec()), NoiseSpec(0.01, 3))
        unmixed = separate_maximum(sources, whitening="gram_schmidt")
        scale = np.abs(unmixed.series_matrix).max()
        rng = np.random.default_rng(65)
        for _ in range(20):
            mixing = rng.normal(size=(2, 2))
            result = separate_maximum(mix(sources, mixing), whitening=whitening, order=order)
            assert [e.argmax_index for e in result.estimates] == [
                e.argmax_index for e in unmixed.estimates
            ]
            np.testing.assert_allclose(
                result.series_matrix,
                unmixed.series_matrix,
                rtol=0,
                atol=FRAME_TOL * np.linalg.cond(mixing) * scale,
            )

    @pytest.mark.parametrize("whitening", ["gram_schmidt", "pca"])
    def test_mixing_changes_no_series_on_eight_channels(self, whitening):
        base = sparse_mixture(66, 8, 20_000, 50)
        unmixed = separate_maximum(base, whitening=whitening)
        scale = np.abs(unmixed.series_matrix).max()
        rng = np.random.default_rng(67)
        for _ in range(10):
            mixing = rng.normal(size=(8, 8))
            result = separate_maximum(mix(base, mixing), whitening=whitening)
            assert [e.argmax_index for e in result.estimates] == [
                e.argmax_index for e in unmixed.estimates
            ]
            np.testing.assert_allclose(
                result.series_matrix,
                unmixed.series_matrix,
                rtol=0,
                atol=FRAME_TOL * np.linalg.cond(mixing) * scale,
            )

    @pytest.mark.parametrize("whitening", ["none", "gram_schmidt", "pca"])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_permuting_samples_permutes_series(self, whitening, seed):
        # only the order of the sums over samples changes, so the bound is
        # the mixing bound with the condition number of the data
        signal = noisy_fixture(disjoint_sources_spec, OBLIQUE_MIXING, 0.01)()
        base = separate_maximum(signal, whitening=whitening)
        perm = np.random.default_rng(seed).permutation(signal.n_samples)
        result = separate_maximum(MultichannelSignal(signal.data[:, perm]), whitening=whitening)
        assert [perm[e.argmax_index] for e in result.estimates] == [
            e.argmax_index for e in base.estimates
        ]
        bound = FRAME_TOL * np.linalg.cond(signal.data) * np.abs(base.series_matrix).max()
        np.testing.assert_allclose(
            result.series_matrix, base.series_matrix[:, perm], rtol=0, atol=bound
        )


def c3_random_trials():
    rng = np.random.default_rng(20260808)  # the trials of acceptance criterion C3
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(30, 120))
        yield MultichannelSignal(rng.normal(size=(n, m)))


def sparse_mixture(seed, n, m, slot):
    """n sources with disjoint support, one pulse per slot, mixed at random."""
    rng = np.random.default_rng(seed)
    owner = rng.integers(n, size=m // slot)
    owner[:n] = rng.permutation(n)
    t = np.arange(slot)
    data = np.zeros((n, m))
    for k, i in enumerate(owner):
        data[i, k * slot : (k + 1) * slot] = rng.uniform(0.5, 1.5) * np.exp(
            -0.5 * ((t - slot / 2) / (slot / 10)) ** 2
        )
    return MultichannelSignal(rng.normal(size=(n, n)) @ data)


# The candidate search runs on inputs of at least 2**15 values
# (separation._CANDIDATE_MIN_VALUES); smaller ones search every sample.


def lowered_cut_mixture():
    """Four disjoint sources whose peaks, raw or whitened, sit well under half
    the strongest one's, so the candidate search lowers its cut."""
    trains, start = [], 100
    for count, amplitude in [(1, 1.0), (2, 0.6), (3, 0.4), (4, 0.25)]:
        trains.append(tuple(Pulse(start + 100 * k, 8.0, amplitude) for k in range(count)))
        start += 100 * count
    sources = generate_sources(PulseTrainSpec(9000, tuple(trains)))
    return mix(sources, np.random.default_rng(62).normal(size=(4, 4)))


def dense_mixture():
    """32 mixed Gaussian channels: over 1/8 of the samples start above the
    first cut, so every sample is searched from the first step."""
    rng = np.random.default_rng(63)
    return MultichannelSignal(rng.normal(size=(32, 32)) @ rng.standard_normal((32, 2000)))


def admitted_tie():
    """Sample 20 is admitted only once the cut falls to 3.125, and then ties
    exactly with sample 40, a candidate from the start: squared radius 4 each
    once sample 5's direction (1, 0, 0) is deflated."""
    data = np.zeros((3, 12_000))
    data[:, 5] = [10.0, 0.0, 0.0]
    data[:, 20] = [0.0, 0.0, 2.0]
    data[:, 40] = [7.0, 0.0, 2.0]
    data[:, 50] = [0.0, 1.0, 0.0]
    return MultichannelSignal(data)


def noisy_fixture(spec, mixing, sd):
    return lambda: add_noise(mix(generate_sources(spec()), mixing), NoiseSpec(sd, 3))


def scale_exponents(x):
    """The powers j of two for which every nonzero value of ``x * 2**j`` is
    normal and its energy, N * M times the largest square, stays below 2**1000."""
    a = np.abs(x)
    low, high = math.frexp(a[a > 0].min())[1], math.frexp(a.max())[1]
    return -1021 - low, (1000 - math.ceil(math.log2(x.size))) // 2 - high


SCALING_FIXTURES = {
    "correlated": noisy_fixture(correlated_sources_spec, OBLIQUE_MIXING, 0.01),
    "8x20000": lambda: sparse_mixture(66, 8, 20_000, 50),
}


@pytest.mark.parametrize("fixture", SCALING_FIXTURES)
class TestPowerOfTwoScaling:
    """C7 for the power-of-two factors, from data whose squares all underflow
    (below 2**-500 the data are separated scaled up) to the top of the range."""

    @pytest.mark.parametrize("whitening", ["none", "gram_schmidt"])
    @settings(max_examples=20, deadline=None)
    @given(j=st.integers(-1100, 600))
    @example(j=-600)  # the data scaled up: every square underflows
    def test_scales_exactly(self, fixture, whitening, j):
        signal = SCALING_FIXTURES[fixture]()
        low, high = scale_exponents(signal.data)
        assume(low <= j <= high)
        base = separate_maximum(signal, whitening=whitening)
        result = separate_maximum(MultichannelSignal(np.ldexp(signal.data, j)), whitening=whitening)
        # whitened rows do not depend on the scale; the whitening absorbs it
        s = j if whitening == "none" else 0
        for a, b in zip(result.estimates, base.estimates):
            assert a.argmax_index == b.argmax_index
            np.testing.assert_array_equal(a.direction, b.direction)
            assert a.radius == math.ldexp(b.radius, s)
        np.testing.assert_array_equal(result.series_matrix, np.ldexp(base.series_matrix, s))
        np.testing.assert_array_equal(result.residual_energy, np.ldexp(base.residual_energy, 2 * s))
        np.testing.assert_array_equal(result.whitening.forward, np.ldexp(base.whitening.forward, s - j))

    @pytest.mark.parametrize("whiten", [whiten_gram_schmidt, whiten_pca])
    @settings(max_examples=20, deadline=None)
    @given(j=st.integers(-1100, 600))
    @example(j=-600)
    def test_whitenings_scale_exactly(self, fixture, whiten, j):
        # called directly too, the whitenings take data whose squares all underflow
        signal = SCALING_FIXTURES[fixture]()
        low, high = scale_exponents(signal.data)
        assume(low <= j <= high)
        base, base_transform = whiten(signal)
        white, transform = whiten(MultichannelSignal(np.ldexp(signal.data, j)))
        np.testing.assert_array_equal(white.data, base.data)
        np.testing.assert_array_equal(transform.forward, np.ldexp(base_transform.forward, -j))

    @pytest.mark.parametrize("method", ["pca-whitening", "pca-baseline"])
    @settings(max_examples=20, deadline=None)
    @given(j=st.integers(-1100, 600))
    @example(j=-600)
    def test_scales_pca_to_rounding(self, fixture, method, j):
        # LAPACK's eigh scales the matrix itself at the extremes, by factors that
        # are not powers of two: the bound is the mixing bound with kappa(data)
        signal = SCALING_FIXTURES[fixture]()
        low, high = scale_exponents(signal.data)
        assume(low <= j <= high)
        bound = FRAME_TOL * np.linalg.cond(signal.data)
        scaled = MultichannelSignal(np.ldexp(signal.data, j))
        if method == "pca-whitening":
            base, result = separate_maximum(signal, "pca"), separate_maximum(scaled, "pca")
            s = 0
        else:
            base, result = pca_separate(signal), pca_separate(scaled)
            s = j
        assert [e.argmax_index for e in result.estimates] == [e.argmax_index for e in base.estimates]

        def assert_close(actual, expected):
            np.testing.assert_allclose(actual, expected, rtol=0, atol=bound * np.abs(expected).max())

        assert_close([e.direction for e in result.estimates], [e.direction for e in base.estimates])
        assert_close(np.ldexp(result.series_matrix, -s), base.series_matrix)
        assert_close(np.ldexp(result.whitening.forward, j - s), base.whitening.forward)
        # energies of 2**2j times the data's can be subnormal: one more rounding each
        expected = np.ldexp(base.residual_energy, 2 * s)
        np.testing.assert_allclose(
            result.residual_energy,
            expected,
            rtol=0,
            atol=math.ldexp(bound * base.residual_energy[0], 2 * s) + math.ulp(0.0),
        )


# Largest distance of a residual energy from the explicitly deflated
# residual's sum of squares, in ulps of the first entry.  Cancellation
# leaves the last entries of a trace far below the first, so the bound is
# on the first entry's scale; up to 4 were measured, from the Gram matrix
# and from the series alike.
ENERGY_ULPS = 8


class TestImplicitDeflation:
    """``separate_maximum`` against the explicit find/project/deflate loop."""

    @staticmethod
    def assert_matches_reference(signal, whitening):
        z = apply_whitening(signal, whitening)[0].data
        energies, steps = [np.sum(z**2)], []
        for step in explicit_deflation(z):
            energies.append(np.sum(step.residual**2))
            steps.append(step._replace(residual=None))  # one N x M residual at a time
        result = separate_maximum(signal, whitening=whitening)
        assert [e.argmax_index for e in result.estimates] == [step.index for step in steps]
        for est, step in zip(result.estimates, steps):
            np.testing.assert_allclose(est.series, step.series, rtol=0, atol=1e-12)
            np.testing.assert_allclose(est.direction, step.direction, rtol=0, atol=1e-12)
            assert est.radius == pytest.approx(step.radius, rel=1e-12)
        np.testing.assert_allclose(
            result.residual_energy, energies, rtol=0, atol=ENERGY_ULPS * np.spacing(energies[0])
        )
        assert np.all(result.residual_energy >= 0.0)
        assert np.all(np.diff(result.residual_energy) <= 0.0)

    @pytest.mark.parametrize("whitening", ["none", "gram_schmidt", "pca"])
    def test_c3_random_trials(self, whitening):
        for signal in c3_random_trials():
            self.assert_matches_reference(signal, whitening)

    @pytest.mark.parametrize(
        "make, whitening",
        [
            pytest.param(make, whitening, id=f"{name}-{whitening}")
            for name, make in {
                **{
                    fixture + (f"-sd{sd}" if sd else ""): noisy_fixture(spec, mixing, sd)
                    for fixture, spec, mixing in [
                        ("disjoint", disjoint_sources_spec, OBLIQUE_MIXING),
                        ("correlated", correlated_sources_spec, OBLIQUE_MIXING),
                        ("coincident", coincident_peaks_spec, DOMINANT_MIXING),
                    ]
                    for sd in (0.0, 0.1)
                },
                "sparse-32": lambda: sparse_mixture(58, 32, 20_000, 50),
                "lowered-cut": lowered_cut_mixture,
                "dense": dense_mixture,
            }.items()
            for whitening in ("none", "gram_schmidt", "pca")
        ]
        # whitening would blur the exact tie
        + [pytest.param(admitted_tie, "none", id="admitted-tie-none")],
    )
    def test_fixtures(self, make, whitening):
        self.assert_matches_reference(make(), whitening)

    def test_duplicate_columns_earliest_sample_wins(self):
        data = np.zeros((3, 10))
        data[:, [2, 7]] = [[3.0], [4.0], [0.0]]
        data[:, [4, 5]] = [[0.0], [0.0], [2.0]]
        data[:, 8] = [1.0, -1.0, 0.5]
        result = separate_maximum(MultichannelSignal(data), whitening="none")
        assert [e.argmax_index for e in result.estimates][:2] == [2, 4]

    @pytest.mark.parametrize("whitening", ["none", "pca"])
    def test_residual_energy_never_negative_on_32_sparse_channels(self, whitening):
        signal = sparse_mixture(58, 32, 20_000, 50)
        result = separate_maximum(signal, whitening=whitening)
        assert len(result.estimates) == 32
        assert np.all(result.residual_energy >= 0.0)
        assert np.all(np.diff(result.residual_energy) <= 0.0)

    @pytest.mark.parametrize("whitening", ["none", "gram_schmidt", "pca"])
    def test_callers_data_kept_and_series_read_only(self, whitening):
        # the series are written over the working array in column blocks;
        # 20 000 samples end in a partial block
        signal = sparse_mixture(59, 8, 20_000, 50)
        before = signal.data.tobytes()
        result = separate_maximum(signal, whitening=whitening)
        assert signal.data.tobytes() == before
        assert not np.shares_memory(result.series_matrix, signal.data)
        assert not result.series_matrix.flags.writeable
        assert all(not est.series.flags.writeable for est in result.estimates)
        self.assert_matches_reference(signal, whitening)

    def test_early_stop_keeps_the_working_array(self):
        # rank 2 in 3 channels: the energy floor stops extraction after 2 sources,
        # and the 2 x M result is a view of the 3 x M working array, not a copy
        rng = np.random.default_rng(60)
        two = rng.normal(size=(2, 500))
        signal = MultichannelSignal(np.vstack([two, two[:1]]))
        result = separate_maximum(signal, whitening="none")
        assert result.series_matrix.shape == (2, 500)
        assert result.series_matrix.base.shape == (3, 500)
        self.assert_matches_reference(signal, "none")

    def test_one_candidate_block_at_a_time(self):
        # 6% of the samples lie on channel 1 with squared radius in
        # [0.56, 1], 6% on channel 2 in [0.26, 0.45]: the first cut (0.5)
        # holds the first band, the second (0.25) both, 12% of the samples.
        # The loop may hold the input, its working copy, one candidate
        # block (at most 1/8 of the data) and M-length vectors (at most
        # 1/4 of 8 x M): keeping the old block while the new one is
        # gathered would pass 2 + 1/8 + 1/4.
        rng = np.random.default_rng(64)
        n, m = 8, 200_000
        raw = 1e-3 * rng.standard_normal((n, m))
        first, second = np.split(rng.permutation(m)[:24_000], 2)
        raw[0, first] = np.sqrt(rng.uniform(0.56, 1.0, len(first)))
        raw[1, second] = np.sqrt(rng.uniform(0.26, 0.45, len(second)))
        tracemalloc.start()
        try:
            separate_maximum(MultichannelSignal(raw), whitening="none")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (2 + 1 / 8 + 1 / 4) * raw.nbytes

    @pytest.mark.parametrize("whitening", ["none", "gram_schmidt", "pca"])
    def test_memory_layout_of_the_input_does_not_change_the_bits(self, whitening):
        data = sparse_mixture(61, 4, 3000, 50).data
        c = separate_maximum(MultichannelSignal(data), whitening=whitening)
        f = separate_maximum(MultichannelSignal(np.asfortranarray(data)), whitening=whitening)
        assert c.series_matrix.tobytes() == f.series_matrix.tobytes()
        assert c.residual_energy.tobytes() == f.residual_energy.tobytes()
