import sys
import threading

import numpy as np
import pytest

from phasemax.errors import DimensionMismatchError, InvalidSpecError, NonFiniteError
from phasemax.pca import pca_separate
from phasemax.separation import separate_maximum
from phasemax.signals import (
    DOMINANT_MIXING,
    OBLIQUE_MIXING,
    MultichannelSignal,
    NoiseSpec,
    Pulse,
    PulseTrainSpec,
    add_noise,
    center,
    coincident_peaks_spec,
    correlated_sources_spec,
    disjoint_sources_spec,
    generate_sources,
    mix,
)


def brute_force_mix(a, data):
    """Per-sample double loop; the oracle mix() is checked against."""
    n, m = data.shape
    out = np.zeros((n, m))
    for i in range(n):
        for s in range(m):
            acc = 0.0
            for j in range(n):
                acc += a[i][j] * data[j][s]
            out[i, s] = acc
    return out


class TestMultichannelSignal:
    def test_shape_and_immutability(self):
        sig = MultichannelSignal([[1.0, 2.0], [3.0, 4.0]])
        assert sig.n_channels == 2 and sig.n_samples == 2
        with pytest.raises(ValueError):
            sig.data[0, 0] = 9.0

    def test_constructor_copies_the_callers_array(self):
        arr = np.arange(6.0).reshape(2, 3)
        sig = MultichannelSignal(arr)
        arr[0, 0] = 99.0
        np.testing.assert_array_equal(sig.data, np.arange(6.0).reshape(2, 3))
        assert arr.flags.writeable

    @pytest.mark.parametrize("method", ["maximum", "pca"])
    def test_series_block_is_read_only_and_shared(self, method):
        sig = mix(generate_sources(disjoint_sources_spec()), OBLIQUE_MIXING)
        result = separate_maximum(sig) if method == "maximum" else pca_separate(sig)
        block = result.series_matrix
        assert block.shape == (len(result.estimates), sig.n_samples)
        assert not block.flags.writeable
        for k, est in enumerate(result.estimates):
            assert np.shares_memory(est.series, block[k])
            np.testing.assert_array_equal(est.series, block[k])
            assert not est.series.flags.writeable

    def test_gram_matrix_is_the_data_product_formed_once_and_read_only(self):
        sig = MultichannelSignal(np.random.default_rng(7).normal(size=(5, 3000)))
        gram = sig._gram
        assert gram.tobytes() == (sig.data @ sig.data.T).tobytes()
        assert not gram.flags.writeable
        assert sig._gram is gram

    @pytest.mark.parametrize("whitening", ["gram_schmidt", "pca"])
    def test_no_gram_matrix_for_the_array_that_separation_overwrites(self, monkeypatch, whitening):
        # separate_maximum writes its series over the whitened array, so a
        # Gram matrix kept with that array's signal would go stale
        wrapped = []
        wrap = MultichannelSignal._wrap.__func__

        def recording(cls, arr):
            wrapped.append(wrap(cls, arr))
            return wrapped[-1]

        monkeypatch.setattr(MultichannelSignal, "_wrap", classmethod(recording))
        separate_maximum(mix(generate_sources(disjoint_sources_spec()), OBLIQUE_MIXING), whitening)
        assert wrapped
        assert all("_gram" not in vars(signal) for signal in wrapped)

    def test_threads_on_different_signals_form_their_gram_matrices_at_once(self):
        # one signal's product, held open, must not hold up another's
        entered, release = threading.Event(), threading.Event()

        class Held(np.ndarray):
            def __matmul__(self, other):
                entered.set()
                release.wait(timeout=30)
                return np.asarray(self) @ np.asarray(other)

        held = MultichannelSignal([[1.0, 2.0], [3.0, 4.0]])
        object.__setattr__(held, "data", held.data.view(Held))
        free = MultichannelSignal([[5.0, 6.0]])
        first = threading.Thread(target=lambda: held._gram)
        first.start()
        try:
            assert entered.wait(timeout=30)
            second = threading.Thread(target=lambda: free._gram)
            second.start()
            second.join(timeout=10)
            formed_alongside = not second.is_alive()
        finally:
            release.set()
            first.join(timeout=30)
        assert formed_alongside
        assert free._gram.tolist() == [[61.0]]
        assert np.asarray(held._gram).tolist() == [[5.0, 11.0], [11.0, 25.0]]

    def test_threads_sharing_a_signal_get_a_fresh_signals_results(self):
        # whichever thread needs the Gram matrix first forms it; more threads
        # than cores and a short switch interval interleave them
        data = mix(generate_sources(correlated_sources_spec(20_000)), OBLIQUE_MIXING).data
        jobs = [
            lambda s: separate_maximum(s, "pca"),
            lambda s: separate_maximum(s, "gram_schmidt"),
            lambda s: separate_maximum(s, "none"),
            pca_separate,
        ] * 2
        expected = [job(MultichannelSignal(data)) for job in jobs]
        shared = MultichannelSignal(data)
        got = [None] * len(jobs)

        def run(k):
            got[k] = jobs[k](shared)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for a, b in zip(got, expected):
            assert a.series_matrix.tobytes() == b.series_matrix.tobytes()
            assert a.residual_energy.tobytes() == b.residual_energy.tobytes()

    def test_one_dimensional_data_is_one_channel(self):
        sig = MultichannelSignal([1.0, -2.0, 3.0])
        assert (sig.n_channels, sig.n_samples) == (1, 3)
        np.testing.assert_array_equal(sig.data, [[1.0, -2.0, 3.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            MultichannelSignal([[1.0, np.nan]])

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError):
            MultichannelSignal(np.zeros((0, 5)))


class TestGenerateSources:
    def test_single_pulse_apex(self):
        spec = PulseTrainSpec(100, ((Pulse(50, 5, 1.0),),))
        out = generate_sources(spec)
        assert out.data[0, 50] == 1.0
        assert int(np.argmax(out.data[0])) == 50

    def test_disjoint_supports_product_bound(self):
        # pulses 8 widths apart: every cross product is numerically zero
        spec = PulseTrainSpec(200, ((Pulse(50, 10, 1.0),), (Pulse(130, 10, 1.0),)))
        out = generate_sources(spec)
        product = out.data[0] * out.data[1]
        assert np.max(np.abs(product)) < 1e-6

    def test_bundled_fixture_amplitude_ratio(self):
        out = generate_sources(disjoint_sources_spec())
        assert np.max(out.data[0]) == pytest.approx(1.0, abs=1e-12)
        assert np.max(out.data[1]) == pytest.approx(0.1, abs=1e-12)

    def test_deterministic(self):
        spec = correlated_sources_spec()
        a = generate_sources(spec)
        b = generate_sources(spec)
        np.testing.assert_array_equal(a.data, b.data)

    def test_coincident_fixture_shares_a_center(self):
        spec = coincident_peaks_spec(1000)
        centers_1 = {p.center for p in spec.sources[0]}
        centers_2 = {p.center for p in spec.sources[1]}
        assert centers_1 & centers_2

    def test_invalid_width_rejected(self):
        with pytest.raises(InvalidSpecError, match="width"):
            PulseTrainSpec(100, ((Pulse(50, 0.0, 1.0),),))

    def test_center_out_of_range_rejected(self):
        with pytest.raises(InvalidSpecError, match="center"):
            PulseTrainSpec(100, ((Pulse(150, 5, 1.0),),))


class TestMix:
    def test_identity_mixing_exact(self):
        src = generate_sources(disjoint_sources_spec())
        out = mix(src, np.eye(2))
        np.testing.assert_array_equal(out.data, src.data)

    @pytest.mark.parametrize("matrix", [OBLIQUE_MIXING, DOMINANT_MIXING])
    def test_matches_brute_force_double_loop(self, matrix):
        fixture = (
            disjoint_sources_spec() if matrix is OBLIQUE_MIXING else correlated_sources_spec()
        )
        src = generate_sources(fixture)
        out = mix(src, matrix)
        np.testing.assert_allclose(out.data, brute_force_mix(matrix, src.data), atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(21)
        s = MultichannelSignal(rng.normal(size=(3, 40)))
        t = MultichannelSignal(rng.normal(size=(3, 40)))
        a = rng.normal(size=(3, 3))
        left = mix(s, a).data + mix(t, a).data
        right = mix(MultichannelSignal(s.data + t.data), a).data
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_inverse_recovers_sources(self):
        src = generate_sources(disjoint_sources_spec())
        a = np.asarray(OBLIQUE_MIXING)
        back = mix(mix(src, a), np.linalg.inv(a))
        np.testing.assert_allclose(back.data, src.data, rtol=1e-9, atol=1e-12)

    def test_dimension_mismatch(self):
        src = generate_sources(disjoint_sources_spec())
        with pytest.raises(DimensionMismatchError):
            mix(src, np.eye(3))


class TestAddNoise:
    def test_zero_sd_identity(self):
        src = generate_sources(disjoint_sources_spec())
        out = add_noise(src, NoiseSpec(0.0, 42))
        np.testing.assert_array_equal(out.data, src.data)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidSpecError, match="seed"):
            NoiseSpec(0.01, -1)

    def test_sample_variance_near_nominal(self):
        src = MultichannelSignal(np.zeros((2, 1000)))
        sd = 0.001
        out = add_noise(src, NoiseSpec(sd, 7))
        observed = np.var(out.data - src.data)
        assert abs(observed - sd**2) <= 0.1 * sd**2

    def test_same_seed_is_bit_identical(self):
        src = generate_sources(disjoint_sources_spec())
        a = add_noise(src, NoiseSpec(0.01, 123))
        b = add_noise(src, NoiseSpec(0.01, 123))
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        src = generate_sources(disjoint_sources_spec())
        a = add_noise(src, NoiseSpec(0.01, 1))
        b = add_noise(src, NoiseSpec(0.01, 2))
        assert np.any(a.data != b.data)

    def test_negative_sd_rejected(self):
        with pytest.raises(InvalidSpecError):
            NoiseSpec(-1.0, 0)


class TestCenter:
    def test_constant_channel_becomes_zero(self):
        sig = MultichannelSignal(np.full((1, 10), 5.0))
        np.testing.assert_array_equal(center(sig).data, np.zeros((1, 10)))

    def test_zero_mean_channel_unchanged(self):
        x = np.array([[1.0, -1.0, 2.0, -2.0]])
        out = center(MultichannelSignal(x))
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_random_channel_mean_vanishes(self):
        rng = np.random.default_rng(22)
        sig = MultichannelSignal(rng.normal(loc=3.0, size=(4, 500)))
        out = center(sig)
        rms = np.sqrt((out.data**2).mean(axis=1))
        assert np.all(np.abs(out.data.mean(axis=1)) <= 1e-12 * np.maximum(rms, 1.0))
