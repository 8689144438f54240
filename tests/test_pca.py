import numpy as np
import pytest

from phasemax.errors import ZeroSignalError
from phasemax.numerics import symmetric_eig
from phasemax.pca import pca_separate
from phasemax.signals import (
    OBLIQUE_MIXING,
    MultichannelSignal,
    center,
    disjoint_sources_spec,
    generate_sources,
    mix,
)
from phasemax.whitening import second_moment
from reference import pearson


@pytest.fixture
def pure_sources():
    return generate_sources(disjoint_sources_spec())


class TestSecondMoment:
    def test_duplicate_channels_rank_one(self):
        x = np.arange(1.0, 6.0)
        sig = MultichannelSignal(np.vstack([x, x]))
        c = second_moment(sig)
        p = float((x * x).mean())
        np.testing.assert_allclose(c, [[p, p], [p, p]], atol=1e-12)

    def test_orthogonal_channels_zero_offdiagonal(self):
        data = np.zeros((2, 8))
        data[0, :4] = [1.0, -2.0, 3.0, 1.0]
        data[1, 4:] = [4.0, 1.0, -1.0, 2.0]
        c = second_moment(MultichannelSignal(data))
        assert abs(c[0, 1]) <= 1e-12 and abs(c[1, 0]) <= 1e-12

    def test_matches_brute_force_double_sum(self):
        rng = np.random.default_rng(61)
        data = rng.normal(size=(3, 100))
        sig = MultichannelSignal(data)
        for centered in (False, True):
            x = data - data.mean(axis=1, keepdims=True) if centered else data
            c = second_moment(center(sig) if centered else sig)
            for i in range(3):
                for j in range(3):
                    acc = 0.0
                    for n in range(100):
                        acc += x[i, n] * x[j, n]
                    acc /= 100
                    assert abs(c[i, j] - acc) <= 1e-12 * max(1.0, abs(acc))

    def test_symmetric_by_construction(self):
        rng = np.random.default_rng(62)
        c = second_moment(MultichannelSignal(rng.normal(size=(4, 30))))
        np.testing.assert_array_equal(c, c.T)


class TestPcaSeparate:
    def test_uncentered_recovers_pure_sources(self, pure_sources):
        result = pca_separate(pure_sources)
        for j in range(2):
            best = max(abs(pearson(e.series, pure_sources.data[j])) for e in result.estimates)
            assert best >= 0.999

    def test_centered_contaminates_estimates(self, pure_sources):
        result = pca_separate(center(pure_sources))
        contaminated = any(
            all(abs(pearson(e.series, pure_sources.data[j])) >= 0.05 for j in range(2))
            for e in result.estimates
        )
        assert contaminated

    def test_principal_direction_close_but_not_aligned(self, pure_sources):
        mixed = mix(pure_sources, OBLIQUE_MIXING)
        v1 = pca_separate(mixed).estimates[0].direction

        def angle(col):
            c = abs(float(v1 @ col)) / np.linalg.norm(col)
            return float(np.arccos(min(c, 1.0)))

        angles = [angle(OBLIQUE_MIXING[:, j]) for j in range(2)]
        assert min(angles) > 1e-3  # not aligned with either source direction
        assert min(angles) < 0.3  # but close to one of them

    def test_variance_ordering(self):
        rng = np.random.default_rng(63)
        sig = MultichannelSignal(rng.normal(size=(4, 200)) * np.array([[3.0], [2.0], [1.0], [0.5]]))
        for centered in (False, True):
            result = pca_separate(center(sig) if centered else sig)
            power = [float((e.series**2).mean()) for e in result.estimates]
            for a, b in zip(power, power[1:]):
                assert b <= a * (1 + 1e-10)

    def test_total_energy_conserved(self):
        rng = np.random.default_rng(64)
        sig = MultichannelSignal(rng.normal(size=(3, 120)))
        result = pca_separate(sig)
        total = sum(float((e.series**2).sum()) for e in result.estimates)
        assert total == pytest.approx(float((sig.data**2).sum()), rel=1e-9)
        # each residual energy is clamped at 0: without the clamp the last
        # one is negative in 93 of these 200 inputs, by up to 1.0e-15 of the first
        for _ in range(200):
            energies = pca_separate(MultichannelSignal(rng.normal(size=(4, 500)))).residual_energy
            assert np.all(energies >= 0.0)
            assert np.all(np.diff(energies) <= 0.0)

    @pytest.mark.parametrize("m", [90, 3 * 4096 + 17])
    def test_residual_energies_match_explicit_deflation(self, m):
        # within 8 ulps of the first entry, the bound of the maximum method's trace
        rng = np.random.default_rng(66)
        sig = MultichannelSignal(rng.normal(size=(4, 4)) @ rng.normal(size=(4, m)) + 0.5)
        result = pca_separate(sig)
        x, expected = sig.data, [np.sum(sig.data**2)]
        for e in result.estimates:
            x = x - np.outer(e.direction, e.direction @ x)
            expected.append(np.sum(x**2))
        np.testing.assert_allclose(
            result.residual_energy, expected, rtol=0, atol=8 * np.spacing(expected[0])
        )

    def test_directions_orthonormal(self):
        rng = np.random.default_rng(65)
        sig = MultichannelSignal(rng.normal(size=(4, 90)))
        result = pca_separate(sig)
        d = np.vstack([e.direction for e in result.estimates])
        np.testing.assert_allclose(d @ d.T, np.eye(4), atol=1e-9)

    def test_rank_deficient_returns_rank_many(self):
        x = np.sin(np.linspace(0, 6, 50))
        sig = MultichannelSignal(np.vstack([x, 2 * x, np.cos(np.linspace(0, 6, 50))]))
        result = pca_separate(sig)
        assert len(result.estimates) == 2

    def test_zero_signal_raises(self):
        with pytest.raises(ZeroSignalError, match="signal is identically zero"):
            pca_separate(MultichannelSignal(np.zeros((2, 10))))

    def test_centered_model_records_means(self, pure_sources):
        # centered input: eigenvectors of the covariance, projecting the
        # mean-subtracted data; uncentered: the raw data, means untouched
        data = pure_sources.data
        for sig, x in (
            (center(pure_sources), data - data.mean(axis=1, keepdims=True)),
            (pure_sources, data),
        ):
            eig = symmetric_eig(second_moment(sig))
            result = pca_separate(sig)
            for k, e in enumerate(result.estimates):
                np.testing.assert_array_equal(e.direction, eig.eigenvectors[:, k])
                np.testing.assert_allclose(e.series, e.direction @ x, rtol=0, atol=1e-12)
