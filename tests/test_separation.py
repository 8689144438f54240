import numpy as np
import pytest

from phasemax.errors import DimensionMismatchError, NonFiniteError, ZeroSignalError
from phasemax.separation import (
    DEFAULT_ENERGY_FLOOR,
    DirectionEstimate,
    deflate,
    find_maximum_direction,
    project_source,
    radius_series,
    separate_maximum,
)
from phasemax.evaluation import pearson
from phasemax.signals import (
    DOMINANT_MIXING,
    OBLIQUE_MIXING,
    MultichannelSignal,
    coincident_peaks_spec,
    correlated_sources_spec,
    disjoint_sources_spec,
    generate_sources,
    mix,
)
from phasemax.whitening import apply_whitening, whiten_gram_schmidt


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


class TestFindMaximumDirection:
    def test_single_nonzero_sample(self):
        data = np.zeros((2, 10))
        data[1, 7] = 5.0
        found = find_maximum_direction(MultichannelSignal(data))
        np.testing.assert_array_equal(found.direction, [0.0, 1.0])
        assert found.argmax_index == 7
        assert found.radius == 5.0

    def test_tie_breaks_to_earliest_sample(self):
        data = np.zeros((2, 12))
        data[:, 3] = [3.0, 4.0]
        data[:, 9] = [5.0, 0.0]
        found = find_maximum_direction(MultichannelSignal(data))
        assert found.argmax_index == 3

    def test_whitened_mixture_matches_forward_model_oracle(self, disjoint_sources, oblique_mixture):
        white, transform = whiten_gram_schmidt(oblique_mixture)
        found = find_maximum_direction(white)
        # oracle: image of each true source direction under the transform,
        # the detected one being whichever has the larger normalized peak
        images = [transform.map_direction(OBLIQUE_MIXING[:, j]) for j in range(2)]
        peaks = [
            np.max(np.abs(disjoint_sources.data[j])) * np.linalg.norm(images[j])
            for j in range(2)
        ]
        expected = images[int(np.argmax(peaks))]
        expected = expected / np.linalg.norm(expected)
        angle = np.arccos(min(1.0, abs(float(found.direction @ expected))))
        assert angle <= 1e-6

    def test_zero_signal_raises(self):
        with pytest.raises(ZeroSignalError):
            find_maximum_direction(MultichannelSignal(np.zeros((2, 4))))


class TestProjectSource:
    def test_aligned_signal_recovers_series(self):
        direction = np.array([0.6, 0.8])
        series = np.array([1.0, -2.0, 0.5, 0.0])
        sig = MultichannelSignal(np.outer(direction, series))
        d = DirectionEstimate(direction, 0, 1.0)
        np.testing.assert_allclose(project_source(sig, d), series, atol=1e-12)

    def test_orthogonal_direction_gives_zeros(self):
        direction = np.array([1.0, 0.0])
        sig = MultichannelSignal(np.vstack([np.zeros(5), np.arange(5.0)]))
        out = project_source(sig, DirectionEstimate(direction, 0, 1.0))
        np.testing.assert_allclose(out, np.zeros(5), atol=1e-12)

    def test_unwhitened_projection_contains_contamination_term(self):
        # correlated two-source mixture, no whitening: the first projection
        # equals s1*R1 + s2*R2*(R1hat . R2hat) built from the known geometry
        src = generate_sources(correlated_sources_spec())
        mixed = mix(src, DOMINANT_MIXING)
        found = find_maximum_direction(mixed)
        series = project_source(mixed, found)

        col1, col2 = DOMINANT_MIXING[:, 0], DOMINANT_MIXING[:, 1]
        r1, r2 = np.linalg.norm(col1), np.linalg.norm(col2)
        cos12 = float(col1 @ col2) / (r1 * r2)
        oracle = src.data[0] * r1 + src.data[1] * r2 * cos12
        assert np.max(np.abs(series - oracle)) <= 1e-9 * np.max(np.abs(series))

    def test_dimension_mismatch(self):
        sig = MultichannelSignal(np.ones((3, 4)))
        with pytest.raises(DimensionMismatchError):
            project_source(sig, np.array([1.0, 0.0]))


class TestDeflate:
    def test_rank_one_signal_leaves_zero_residual(self):
        direction = np.array([0.8, -0.6])
        series = np.linspace(-1, 1, 9)
        sig = MultichannelSignal(np.outer(direction, series))
        out = deflate(sig, direction, project_source(sig, direction))
        assert np.max(np.abs(out.data)) <= 1e-12

    def test_orthogonal_signal_unchanged(self):
        direction = np.array([1.0, 0.0])
        data = np.vstack([np.zeros(6), np.arange(6.0)])
        sig = MultichannelSignal(data)
        out = deflate(sig, direction, project_source(sig, direction))
        np.testing.assert_allclose(out.data, data, atol=1e-12)

    def test_whitened_residual_is_scaled_remaining_direction(
        self, disjoint_sources, oblique_mixture
    ):
        # after removing the first detected source from whitened data the
        # residual must be a rank-1 copy of the other source's direction
        white, transform = whiten_gram_schmidt(oblique_mixture)
        found = find_maximum_direction(white)
        residual = deflate(white, found, project_source(white, found))

        images = [transform.map_direction(OBLIQUE_MIXING[:, j]) for j in range(2)]
        d = found.direction
        reduced = [b - d * float(d @ b) for b in images]
        oracle = sum(np.outer(reduced[j], disjoint_sources.data[j]) for j in range(2))
        scale = np.max(np.abs(white.data))
        np.testing.assert_allclose(residual.data, oracle, atol=1e-9 * scale)

    def test_shape_checks(self):
        sig = MultichannelSignal(np.ones((2, 5)))
        with pytest.raises(DimensionMismatchError):
            deflate(sig, np.array([1.0, 0.0]), np.ones(4))


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

    def test_overflowing_energy_raises(self):
        # finite samples whose squared radii overflow to inf
        big = MultichannelSignal([[1e200, 1.0, 3.0], [1.0, 1e200, 2.0]])
        with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
            separate_maximum(big, whitening="none")

    def test_max_sources_caps_iterations(self, oblique_mixture):
        result = separate_maximum(oblique_mixture, whitening="none", max_sources=1)
        assert len(result.estimates) == 1
        assert result.residual_energy.shape == (2,)


class TestSeparationProperties:
    def test_deflation_orthogonality_random_trials(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            data = rng.normal(size=(n, int(rng.integers(20, 80))))
            sig = MultichannelSignal(data)
            bound = 1e-10 * np.max(radius_series(sig))
            work = sig
            for _ in range(n):
                found = find_maximum_direction(work)
                work = deflate(work, found, project_source(work, found))
                assert np.max(np.abs(found.direction @ work.data)) <= bound

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


def explicit_deflation(signal, whitening):
    """The reference loop: find the maximum, project, deflate the whole residual."""
    work, _ = apply_whitening(signal, whitening)
    energies = [float((work.data**2).sum())]
    found_list, series_list = [], []
    floor = DEFAULT_ENERGY_FLOOR * energies[0]
    while len(found_list) < signal.n_channels and energies[-1] > floor:
        found = find_maximum_direction(work)
        series = project_source(work, found)
        work = deflate(work, found, series)
        found_list.append(found)
        series_list.append(series)
        energies.append(float((work.data**2).sum()))
    return found_list, series_list, np.array(energies)


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


class TestImplicitDeflation:
    """``separate_maximum`` against the explicit find/project/deflate loop."""

    @staticmethod
    def assert_matches_reference(signal, whitening):
        found, series, energies = explicit_deflation(signal, whitening)
        result = separate_maximum(signal, whitening=whitening)
        assert [e.argmax_index for e in result.estimates] == [f.argmax_index for f in found]
        for est, f, s in zip(result.estimates, found, series):
            np.testing.assert_allclose(est.series, s, rtol=0, atol=1e-12)
            np.testing.assert_allclose(est.direction, f.direction, rtol=0, atol=1e-12)
            assert est.radius == pytest.approx(f.radius, rel=1e-12)
        np.testing.assert_allclose(
            result.residual_energy, energies, rtol=0, atol=1e-12 * energies[0]
        )

    @pytest.mark.parametrize("whitening", ["none", "gram_schmidt", "pca"])
    def test_c3_random_trials(self, whitening):
        for signal in c3_random_trials():
            self.assert_matches_reference(signal, whitening)

    @pytest.mark.parametrize("whitening", ["none", "gram_schmidt", "pca"])
    @pytest.mark.parametrize(
        "spec, mixing",
        [(disjoint_sources_spec, OBLIQUE_MIXING), (coincident_peaks_spec, DOMINANT_MIXING)],
        ids=["disjoint", "coincident"],
    )
    def test_fixtures(self, spec, mixing, whitening):
        self.assert_matches_reference(mix(generate_sources(spec()), mixing), whitening)

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
