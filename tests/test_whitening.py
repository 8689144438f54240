import tracemalloc

import numpy as np
import pytest

from phasemax.errors import DegenerateInputError, InvalidSpecError, NonFiniteError, ZeroSignalError
from phasemax.numerics import _orthonormal_rows, _row_squares, _scale_exponent
from phasemax.pca import pca_separate
from phasemax.signals import (
    OBLIQUE_MIXING,
    MultichannelSignal,
    NoiseSpec,
    add_noise,
    coincident_peaks_spec,
    correlated_sources_spec,
    disjoint_sources_spec,
    generate_sources,
    mix,
)
from phasemax.whitening import (
    WhiteningTransform,
    apply_whitening,
    whiten_gram_schmidt,
    whiten_pca,
)


def sample_gram(signal):
    return signal.data @ signal.data.T


@pytest.fixture
def oblique_mixture():
    return mix(generate_sources(disjoint_sources_spec()), OBLIQUE_MIXING)


class TestGramSchmidtWhitening:
    def test_orthonormal_channels_unchanged(self):
        data = np.zeros((2, 10))
        data[0, 0] = 1.0
        data[1, 3] = 1.0
        sig = MultichannelSignal(data)
        white, transform = whiten_gram_schmidt(sig)
        np.testing.assert_array_equal(white.data, data)
        np.testing.assert_array_equal(transform.forward, np.eye(2))

    def test_mixture_gram_matrix_is_identity(self, oblique_mixture):
        white, _ = whiten_gram_schmidt(oblique_mixture)
        np.testing.assert_allclose(sample_gram(white), np.eye(2), atol=1e-9)

    def test_first_output_is_first_ordered_channel(self, oblique_mixture):
        white, transform = whiten_gram_schmidt(oblique_mixture, order=(2, 1))
        ch2 = oblique_mixture.data[1]
        np.testing.assert_allclose(white.data[0], ch2 / np.linalg.norm(ch2), atol=1e-12)
        assert transform.channel_order == (2, 1)

    def test_forward_reproduces_whitened_channels(self, oblique_mixture):
        white, transform = whiten_gram_schmidt(oblique_mixture, order=(2, 1))
        np.testing.assert_allclose(
            transform.forward @ oblique_mixture.data, white.data, atol=1e-9
        )

    @pytest.mark.parametrize("order", [None, tuple(range(32, 0, -1))], ids=["natural", "reversed"])
    def test_no_order_allocates_an_n_by_m_array_but_the_basis(self, order):
        # The rows are neither copied nor masked whole, in any order: the order
        # permutes the Gram matrix, and besides the basis the peak holds one
        # gathered column block, its products and the N x N factors, less than
        # one N x M array of single bytes at N = 32.
        data = np.random.default_rng(4).normal(size=(32, 5000))
        signal = MultichannelSignal(data)
        tracemalloc.start()
        try:
            white, _ = whiten_gram_schmidt(signal, order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < white.data.nbytes + data.size
        rows = list(range(32)) if order is None else [i - 1 for i in order]
        copy = data[rows]  # a reordered copy
        basis, _, _ = _orthonormal_rows(copy, copy @ copy.T, np.arange(32))
        np.testing.assert_array_equal(white.data, basis)

    @pytest.mark.parametrize("order", [(1, 2, 3), (3, 1, 2)])
    def test_forward_is_exactly_triangular_in_the_channel_order(self, order):
        # Each whitened channel depends on the channels before it in the order
        # only, also when a later channel is much larger than the first (an LU
        # of the Cholesky factor would pivot and leave rounding noise above
        # the diagonal).
        data = np.random.default_rng(12).normal(size=(3, 200))
        data[1] = 1e3 * (data[0] + 0.1 * data[1])
        _, transform = whiten_gram_schmidt(MultichannelSignal(data), order)
        ordered = transform.forward[:, np.subtract(order, 1)]
        np.testing.assert_array_equal(ordered, np.tril(ordered))

    @pytest.mark.parametrize(
        "data, order, channel, at_the_cut",
        [
            # rounding leaves a residual: the dependence cut raises
            ([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]], (1, 2), 2, True),
            ([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]], (2, 1), 1, True),
            # an exact dependence: a Cholesky fails, and the leading blocks name the channel
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], (1, 2, 3), 3, False),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], (3, 2, 1), 1, False),
            ([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
             (4, 1, 3, 2), 3, False),
            ([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]], (2, 1), 2, False),
        ],
    )
    def test_dependent_channel_is_named_by_its_input_number(self, data, order, channel, at_the_cut):
        with pytest.raises(DegenerateInputError, match=f"^channel {channel} is linearly dependent") as info:
            whiten_gram_schmidt(MultichannelSignal(np.array(data)), order)
        assert ("residual norm" in str(info.value)) == at_the_cut

    def test_rank_deficient_raises(self):
        sig = MultichannelSignal(np.vstack([np.arange(10.0), 2 * np.arange(10.0)]))
        with pytest.raises(DegenerateInputError):
            whiten_gram_schmidt(sig)

    def test_bad_order_rejected(self):
        sig = MultichannelSignal(np.random.default_rng(0).normal(size=(2, 10)))
        with pytest.raises(InvalidSpecError):
            whiten_gram_schmidt(sig, order=(1, 1))


def near_dependent_rows(k):
    """4 x 2e4 normal rows whose last is the one before plus k times noise: condition ~2/k."""
    rows = np.random.default_rng(0).normal(size=(4, 20_000))
    rows[3] = rows[2] + k * np.random.default_rng(100).normal(size=20_000)
    return rows


ORDERS = {"natural": (1, 2, 3, 4), "reversed": (4, 3, 2, 1)}


class TestNearlyRankDeficientGramSchmidt:
    """Whitening stays orthonormal up to the dependence cut (condition ~2e11)."""

    @pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
    @pytest.mark.parametrize("k", [1e-2, 1e-4, 1e-6, 1e-8, 1e-11])
    def test_orthonormal_and_exact_up_to_the_cut(self, k, order):
        rows = near_dependent_rows(k)
        white, _ = whiten_gram_schmidt(MultichannelSignal(rows), order)
        assert np.abs(sample_gram(white) - np.eye(4)).max() <= 1e-14
        first = rows[order[0] - 1]
        np.testing.assert_allclose(white.data[0], first / np.linalg.norm(first), rtol=0, atol=1e-16)
        ordered = rows[np.subtract(order, 1)]
        basis, coeffs, _ = _orthonormal_rows(ordered, ordered @ ordered.T, np.arange(4))
        np.testing.assert_array_equal(coeffs, np.tril(coeffs))
        assert np.abs(ordered - coeffs @ basis).max() <= 1e-15 * np.abs(rows).max()

    @pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
    def test_dependence_cut_between_1e_11_and_1e_13(self, order):
        whiten_gram_schmidt(MultichannelSignal(near_dependent_rows(1e-11)), order)
        # the last channel depends on the one before it, named whichever comes first
        with pytest.raises(DegenerateInputError, match="^channel 4 " if order[0] == 1 else "^channel 3 "):
            whiten_gram_schmidt(MultichannelSignal(near_dependent_rows(1e-13)), order)


class TestPcaWhitening:
    def test_orthogonal_equal_power_channels(self):
        data = np.zeros((2, 8))
        data[0, 0] = 2.0
        data[1, 4] = 2.0
        white, _ = whiten_pca(MultichannelSignal(data))
        np.testing.assert_allclose(sample_gram(white), np.eye(2), atol=1e-9)
        # spans the same space: original channels recoverable
        coeffs, *_ = np.linalg.lstsq(white.data.T, data.T, rcond=None)
        np.testing.assert_allclose(coeffs.T @ white.data, data, atol=1e-9)

    def test_mixture_gram_matrix_is_identity(self, oblique_mixture):
        white, _ = whiten_pca(oblique_mixture)
        np.testing.assert_allclose(sample_gram(white), np.eye(2), atol=1e-9)

    def test_single_channel_is_normalized_copy(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 50))
        white, _ = whiten_pca(MultichannelSignal(x))
        np.testing.assert_allclose(white.data, x / np.linalg.norm(x), atol=1e-12)

    def test_rank_deficient_raises(self):
        x = np.arange(10.0)
        with pytest.raises(DegenerateInputError):
            whiten_pca(MultichannelSignal(np.vstack([x, 3 * x])))

    @staticmethod
    def conditioned(ratio):
        """Two orthogonal channels mixed by a rotation: eigenvalue ratio ``ratio``."""
        data = np.zeros((2, 4))
        data[0, 0] = 1.0
        data[1, 2] = np.sqrt(ratio)
        c, s = np.cos(0.3), np.sin(0.3)
        return MultichannelSignal(np.array([[c, -s], [s, c]]) @ data)

    def test_nearly_rank_deficient_raises(self):
        with pytest.raises(DegenerateInputError):
            whiten_pca(self.conditioned(1e-14))

    def test_ill_conditioned_but_full_rank_whitens(self):
        white, _ = whiten_pca(self.conditioned(1e-8))
        np.testing.assert_allclose(sample_gram(white), np.eye(2), atol=1e-9)


@pytest.mark.parametrize(
    "signal",
    [
        add_noise(mix(generate_sources(spec()), OBLIQUE_MIXING), NoiseSpec(0.01, 3))
        for spec in (disjoint_sources_spec, correlated_sources_spec, coincident_peaks_spec)
    ]
    + [MultichannelSignal(np.random.default_rng(8).normal(size=(8, 5000)) ** 3)],
    ids=["disjoint", "correlated", "coincident", "8x5000"],
)
def test_pca_whitening_normalizes_the_pca_baseline_series(signal):
    # one eigenanalysis, one projection and one row-norm product serve both:
    # the bits agree
    rows = pca_separate(signal).series_matrix
    norms = np.sqrt(_row_squares(rows))
    np.testing.assert_array_equal(whiten_pca(signal)[0].data, rows / norms[:, np.newaxis])
    # and the row-norm product gives the pairwise norms to a few ulps
    pairwise = np.sqrt((rows**2).sum(axis=1))
    assert np.all(np.abs(norms - pairwise) <= 4 * np.spacing(pairwise))


class TestWhiteningProperties:
    @pytest.mark.parametrize("method", ["gram_schmidt", "pca"])
    def test_full_rank_gram_identity(self, method):
        rng = np.random.default_rng(31)
        sig = MultichannelSignal(rng.normal(size=(4, 100)))
        white, transform = apply_whitening(sig, method)
        np.testing.assert_allclose(sample_gram(white), np.eye(4), atol=1e-9)
        assert transform.method == method

    @pytest.mark.parametrize("method", ["gram_schmidt", "pca"])
    def test_signal_subspace_preserved(self, method):
        rng = np.random.default_rng(32)
        sig = MultichannelSignal(rng.normal(size=(3, 60)))
        white, transform = apply_whitening(sig, method)
        rebuilt = np.linalg.inv(transform.forward) @ white.data
        np.testing.assert_allclose(rebuilt, sig.data, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("method", ["gram_schmidt", "pca"])
    def test_uncorrelated_source_directions_become_orthogonal(self, method):
        # channels with zero sample cross-product, arbitrary invertible mix
        rng = np.random.default_rng(33)
        data = np.zeros((3, 120))
        data[0, :40] = rng.normal(size=40)
        data[1, 40:80] = rng.normal(size=40)
        data[2, 80:] = rng.normal(size=40)
        a = rng.normal(size=(3, 3)) + np.eye(3)
        mixed = mix(MultichannelSignal(data), a)
        _, transform = apply_whitening(mixed, method)
        images = [transform.forward @ a[:, j] for j in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                cosine = abs(images[i] @ images[j]) / (
                    np.linalg.norm(images[i]) * np.linalg.norm(images[j])
                )
                assert cosine <= 1e-8

    # Called directly, both whitenings judge the signal's energy as the
    # separators do, rather than failing later with a false cause.
    @pytest.mark.parametrize("whiten", [whiten_gram_schmidt, whiten_pca])
    def test_overflowing_energy_raises(self, whiten):
        big = MultichannelSignal([[1e200, 1.0, 3.0], [1.0, 1e200, 2.0]])
        message = "^signal energy overflows float64; rescale the input$"
        with pytest.raises(NonFiniteError, match=message), np.errstate(over="ignore"):
            whiten(big)

    @pytest.mark.parametrize("whiten", [whiten_gram_schmidt, whiten_pca])
    def test_zero_signal_raises(self, whiten):
        with pytest.raises(ZeroSignalError):
            whiten(MultichannelSignal(np.zeros((2, 3))))

    @pytest.mark.parametrize("whiten", [whiten_gram_schmidt, whiten_pca])
    def test_tiny_values_whiten_as_scaled_up(self, whiten):
        # every square underflows: the rows are those of the table times 2**k,
        # and the forward map carries the 2**k
        data = np.array([[3e-170, 1e-171, 5e-171], [1e-171, 2e-170, 7e-171]])
        k = _scale_exponent(data)
        assert k > 0
        white, transform = whiten(MultichannelSignal(data))
        scaled_white, scaled = whiten(MultichannelSignal(np.ldexp(data, k)))
        np.testing.assert_array_equal(white.data, scaled_white.data)
        np.testing.assert_array_equal(transform.forward, np.ldexp(scaled.forward, k))
        np.testing.assert_allclose(sample_gram(white), np.eye(2), rtol=0, atol=1e-15)

    def test_none_is_identity(self):
        sig = MultichannelSignal(np.random.default_rng(34).normal(size=(2, 10)))
        white, transform = apply_whitening(sig, "none")
        assert white is sig
        np.testing.assert_array_equal(transform.forward, np.eye(2))

    def test_unknown_method_rejected(self):
        sig = MultichannelSignal(np.ones((1, 4)))
        with pytest.raises(InvalidSpecError):
            apply_whitening(sig, "zca")

    @pytest.mark.parametrize("method", ["none", "pca"])
    def test_order_without_gram_schmidt_rejected(self, oblique_mixture, method):
        with pytest.raises(InvalidSpecError):
            apply_whitening(oblique_mixture, method, order=(2, 1))

    def test_identity_constructor(self):
        t = WhiteningTransform.identity(3)
        assert t.method == "none" and t.channel_order is None
        np.testing.assert_array_equal(t.forward, np.eye(3))
