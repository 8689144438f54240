import itertools
import math
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasemax import evaluation, numerics
from phasemax.errors import (
    DimensionMismatchError,
    InvalidSpecError,
    NonFiniteError,
    ZeroSeriesError,
    ZeroVarianceError,
)
from phasemax.evaluation import (
    MethodSpec,
    MonteCarloConfig,
    associate,
    cross_method_correlations,
    monte_carlo_rms,
    normalize_unit,
)
from phasemax.pca import pca_separate
from phasemax.separation import separate_maximum
from phasemax.signals import (
    OBLIQUE_MIXING,
    MultichannelSignal,
    NoiseSpec,
    add_noise,
    center,
    coincident_peaks_spec,
    correlated_sources_spec,
    disjoint_sources_spec,
    generate_sources,
    mix,
)
from reference import pearson


class TestNormalizeUnit:
    def test_three_four_example(self):
        out = normalize_unit([3.0, 4.0, 0.0, 0.0])
        np.testing.assert_allclose(out, [0.6, 0.8, 0.0, 0.0], atol=1e-15)

    def test_unit_series_unchanged(self):
        x = np.array([0.6, 0.8])
        np.testing.assert_allclose(normalize_unit(x), x, atol=1e-12)

    def test_output_norm_is_one(self):
        rng = np.random.default_rng(71)
        out = normalize_unit(rng.normal(size=200))
        assert abs(float(out @ out) - 1.0) <= 1e-12

    def test_idempotent_and_sign_preserving(self):
        rng = np.random.default_rng(72)
        x = rng.normal(size=40)
        once = normalize_unit(x)
        np.testing.assert_allclose(normalize_unit(once), once, atol=1e-12)
        assert np.all(np.sign(once) == np.sign(x))

    def test_zero_series_raises(self):
        with pytest.raises(ZeroSeriesError):
            normalize_unit(np.zeros(5))


def correlation(x, y) -> float:
    """The correlation pass of ``associate`` on one pair of series."""
    return float(evaluation._correlation_matrix(np.array([x]), np.array([y]))[0, 0])


class TestPearson:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(73)
        x = rng.normal(size=100)
        assert correlation(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_negated_is_minus_one(self):
        rng = np.random.default_rng(74)
        x = rng.normal(size=100)
        assert correlation(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_covariance_oracle(self):
        rng = np.random.default_rng(75)
        x, y = rng.normal(size=(2, 60))
        xc, yc = x - x.mean(), y - y.mean()
        oracle = float((xc * yc).sum() / np.sqrt((xc**2).sum() * (yc**2).sum()))
        assert correlation(x, y) == pytest.approx(oracle, abs=1e-12)

    @given(st.floats(0.01, 100.0), st.floats(-50.0, 50.0))
    def test_invariant_under_positive_affine_maps(self, a, b):
        rng = np.random.default_rng(76)
        x, y = rng.normal(size=(2, 50))
        assert correlation(a * x + b, y) == pytest.approx(correlation(x, y), abs=1e-12)


# The blocked correlation pass against the per-pair oracle: fixed before
# the first run at 1e-14, the largest change to a correlation this pass may
# make.  Each block after the first is centred on a shift known to the bit,
# so an offset far above the spread costs no digits (block means rounded to
# float64 and merged lost up to 8e-13 on rows offset like these).
CORRELATION_TOL = 1e-14


def exact_correlation(a, b) -> float:
    """Pearson correlation of two float64 rows from exact integer sums, rounded once.

    Every value is a dyadic rational, so scaled by the largest denominator
    it is an integer; ``m^2`` times the covariance and the variances are
    then exact, and only the last square root rounds.
    """
    ratios = [v.as_integer_ratio() for v in a.tolist() + b.tolist()]
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    x, y, m = ints[: len(a)], ints[len(a) :], len(a)
    sx, sy = sum(x), sum(y)
    cov = m * sum(map(operator.mul, x, y)) - sx * sy
    var_x = m * sum(v * v for v in x) - sx * sx
    var_y = m * sum(v * v for v in y) - sy * sy
    return math.copysign(math.sqrt(Fraction(cov * cov, var_x * var_y)), cov)


class TestCorrelationPass:
    @pytest.mark.parametrize("offset", [1e10, 1e12])
    def test_offset_rows_of_several_blocks_match_exact_rationals(self, offset):
        # on more than one block every shift is known to the bit: rows offset
        # far above their spread keep each correlation to 1e-15 (fixed before
        # the first run) of the exact one.  A single block does not promise it.
        m = 3 * numerics._BLOCK_VALUES + 17
        rng = np.random.default_rng(91)
        x = rng.normal(size=(2, m))
        y = rng.normal(size=(2, 2)) @ x + rng.normal(size=(2, m))
        x += offset * x.std(axis=1, keepdims=True) * [[1.0], [-1.0]]
        y += offset * y.std(axis=1, keepdims=True)
        oracle = [[exact_correlation(a, b) for b in y] for a in x]
        np.testing.assert_allclose(evaluation._correlation_matrix(x, y), oracle, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "m", [1000, 3 * numerics._BLOCK_VALUES + 17], ids=["one-block", "partial-last-block"]
    )
    @pytest.mark.parametrize("offset", [0.0, 1e6], ids=["centred", "offset-1e6-spreads"])
    def test_matches_pearson(self, m, offset):
        rng = np.random.default_rng(89)
        x = rng.normal(size=(3, m)) * [[1.0], [0.01], [100.0]]
        y = rng.normal(size=(3, 3)) @ (x / x.std(axis=1, keepdims=True)) + rng.normal(size=(3, m))
        x += offset * x.std(axis=1, keepdims=True) * [[1.0], [-2.0], [3.0]]
        y += offset * y.std(axis=1, keepdims=True)
        oracle = [[pearson(a, b) for b in y] for a in x]
        matrix = evaluation._correlation_matrix(x, y)
        np.testing.assert_allclose(matrix, oracle, rtol=0, atol=CORRELATION_TOL)

    @pytest.mark.parametrize(
        "m", [1000, 3 * numerics._BLOCK_VALUES + 17], ids=["one-block", "partial-last-block"]
    )
    @settings(max_examples=20, deadline=None)
    @given(exponents=st.lists(st.integers(-990, -520) | st.integers(-450, 300), min_size=6, max_size=6))
    @example(exponents=[-600, 0, 0, 0, 0, 0])
    def test_power_of_two_row_scaling_keeps_the_bits(self, m, exponents):
        # A power-of-two scale of a row changes no correlation, and rounds
        # nothing while the row's centred squares stay normal, as they do on
        # these rows down to 2**-450.  Rows scaled below 2**-500, whose
        # squares turn subnormal or vanish, the pass scales back up itself.
        rng = np.random.default_rng(90)
        x = rng.normal(size=(3, m))
        y = rng.normal(size=(3, 3)) @ x + rng.normal(size=(3, m))
        scaled = np.ldexp(np.vstack([x, y]), np.array(exponents)[:, np.newaxis])
        assert np.abs(scaled).min() >= 2.0**-1022  # every value is still normal
        matrix = evaluation._correlation_matrix(scaled[:3], scaled[3:])
        np.testing.assert_array_equal(matrix, evaluation._correlation_matrix(x, y))


class TestAssociate:
    def test_identity_pairing(self):
        rng = np.random.default_rng(77)
        truth = MultichannelSignal(rng.normal(size=(3, 80)))
        report = associate(truth, truth)
        assert [(i, j) for i, j, _ in report.pairs] == [(0, 0), (1, 1), (2, 2)]
        for _, _, rho in report.pairs:
            assert rho == pytest.approx(1.0, abs=1e-12)

    def test_swapped_and_negated_channels(self):
        rng = np.random.default_rng(78)
        truth = MultichannelSignal(rng.normal(size=(2, 60)))
        estimates = MultichannelSignal(np.vstack([-truth.data[1], truth.data[0]]))
        report = associate(truth, estimates)
        assert [(i, j) for i, j, _ in report.pairs] == [(0, 1), (1, 0)]
        assert report.pairs[0][2] == pytest.approx(1.0, abs=1e-12)
        assert report.pairs[1][2] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_exhaustive_bijection_oracle(self):
        # greedy matching against the best-total-|rho| bijection over all 3!
        # pairings; with estimates dominated by one source each, the two
        # agree exactly (verified for these frozen seeds before freezing)
        rng = np.random.default_rng(79)
        for _ in range(25):
            truth = MultichannelSignal(rng.normal(size=(3, 50)))
            mixing = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
            estimates = MultichannelSignal(mixing @ truth.data)
            report = associate(truth, estimates)

            def total(perm, matrix=report.correlation_matrix):
                return sum(abs(matrix[i, p]) for i, p in enumerate(perm))

            best = max(itertools.permutations(range(3)), key=total)
            greedy_perm = tuple(j for _, j, _ in report.pairs)
            assert total(greedy_perm) == pytest.approx(total(best), abs=1e-12)

    def test_heavily_mixed_cases_stay_bijective_and_near_optimal(self, caplog):
        # greedy can fall short of the optimal assignment when every
        # estimate correlates with every source; it must still produce a
        # bijection, and disagreements are logged, not hidden
        import logging

        rng = np.random.default_rng(83)
        logger = logging.getLogger("tests.associate")
        with caplog.at_level(logging.INFO, logger="tests.associate"):
            for trial in range(25):
                truth = MultichannelSignal(rng.normal(size=(3, 50)))
                estimates = MultichannelSignal(
                    (rng.normal(size=(3, 3)) + 2 * np.eye(3)) @ truth.data
                )
                report = associate(truth, estimates)

                def total(perm, matrix=report.correlation_matrix):
                    return sum(abs(matrix[i, p]) for i, p in enumerate(perm))

                best = max(itertools.permutations(range(3)), key=total)
                greedy_perm = tuple(j for _, j, _ in report.pairs)
                assert sorted(greedy_perm) == [0, 1, 2]
                assert total(greedy_perm) <= total(best) + 1e-12
                if total(best) - total(greedy_perm) > 1e-12:
                    logger.info(
                        "trial %d: greedy %s (%.6f) vs optimal %s (%.6f)",
                        trial, greedy_perm, total(greedy_perm), best, total(best),
                    )

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(80)
        truth = MultichannelSignal(rng.normal(size=(4, 70)))
        estimates = MultichannelSignal(rng.normal(size=(4, 70)) + 0.5 * truth.data)
        base = associate(truth, estimates)
        perm = [2, 0, 3, 1]
        shuffled = MultichannelSignal(estimates.data[perm])
        relabeled = associate(truth, shuffled)
        # pairs follow the relabeling, with the same correlation multiset
        base_map = {i: j for i, j, _ in base.pairs}
        new_map = {i: j for i, j, _ in relabeled.pairs}
        inverse = {old: new for new, old in enumerate(perm)}
        assert new_map == {i: inverse[j] for i, j in base_map.items()}
        assert sorted(round(r, 12) for *_, r in base.pairs) == sorted(
            round(r, 12) for *_, r in relabeled.pairs
        )

    @pytest.mark.parametrize("n, m", [(3, 50), (5, 4096), (4, 10_001)])
    def test_matrix_matches_per_pair_pearson(self, n, m):
        # lengths below, at and across the block size of the correlation pass
        rng = np.random.default_rng(84)
        truth = MultichannelSignal(rng.normal(size=(n, m)) + 3.0)
        estimates = MultichannelSignal(rng.normal(size=(n, n)) @ truth.data - 1.0)
        matrix = associate(truth, estimates).correlation_matrix
        oracle = [[pearson(x, y) for y in estimates.data] for x in truth.data]
        np.testing.assert_allclose(matrix, oracle, rtol=0, atol=1e-12)

    def test_zero_variance_raises(self):
        truth = MultichannelSignal(np.random.default_rng(85).normal(size=(2, 30)))
        estimates = MultichannelSignal(np.vstack([truth.data[0], np.full(30, 2.5)]))
        with pytest.raises(ZeroVarianceError):
            associate(truth, estimates)

    @pytest.mark.parametrize("value", [2.5, 0.1, 1e6 + 0.1])
    def test_zero_variance_raises_across_blocks(self, value):
        # the first block's mean need not be the value to the bit; the
        # centred sums of a constant row still come to 0 in every block
        m = 3 * numerics._BLOCK_VALUES + 17
        truth = MultichannelSignal(np.random.default_rng(88).normal(size=(2, m)))
        estimates = MultichannelSignal(np.vstack([truth.data[0], np.full(m, value)]))
        with pytest.raises(ZeroVarianceError):
            associate(truth, estimates)

    def test_overflowing_sums_raise(self):
        # finite samples whose centred squares overflow; the matrix would be all NaN
        big = MultichannelSignal([[1e200, 1.0, 3.0], [1.0, 1e200, 2.0]])
        with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            associate(big, big)

    def test_sample_count_mismatch(self):
        a = MultichannelSignal(np.random.default_rng(86).normal(size=(2, 30)))
        b = MultichannelSignal(np.random.default_rng(87).normal(size=(2, 31)))
        with pytest.raises(DimensionMismatchError):
            associate(a, b)

    def test_channel_count_mismatch(self):
        a = MultichannelSignal(np.random.default_rng(81).normal(size=(2, 30)))
        b = MultichannelSignal(np.random.default_rng(82).normal(size=(3, 30)))
        with pytest.raises(DimensionMismatchError):
            associate(a, b)


def greedy_by_rule(matrix):
    """The tie rule, stated directly: take the smallest ``(-|rho|, i, j)`` over untaken rows and columns."""
    n = len(matrix)
    free_rows, free_cols, pairs = set(range(n)), set(range(n)), []
    while free_rows:
        _, i, j = min((-abs(matrix[i, j]), i, j) for i in free_rows for j in free_cols)
        pairs.append((i, j, float(matrix[i, j])))
        free_rows.remove(i)
        free_cols.remove(j)
    return sorted(pairs)


def associate_matrix(monkeypatch, matrix):
    """``associate`` on two n-channel signals whose correlation matrix is ``matrix``."""
    matrix = np.array(matrix, dtype=float)
    monkeypatch.setattr(evaluation, "_correlation_matrix", lambda x, y: matrix)
    signal = MultichannelSignal(np.eye(len(matrix), 3 * len(matrix)))
    return associate(signal, signal)


def signed_pairs(pairs):
    """Pairs with the sign bit of each correlation spelled out, so -0.0 differs from 0.0."""
    return [(i, j, rho, math.copysign(1.0, rho)) for i, j, rho in pairs]


class TestAssociateTieOrder:
    """Exact |rho| ties go to the lowest (source, estimate) pair, whatever their signs."""

    @pytest.mark.parametrize(
        "matrix, expected",
        [
            ([[0.5, -0.5], [-0.5, 0.5]], [(0, 0, 0.5), (1, 1, 0.5)]),
            ([[-0.5, 0.5], [0.5, 0.2]], [(0, 0, -0.5), (1, 1, 0.2)]),
            ([[0.2, -0.7], [0.7, 0.2]], [(0, 1, -0.7), (1, 0, 0.7)]),
            ([[-0.0, 0.0], [0.0, -0.0]], [(0, 0, -0.0), (1, 1, -0.0)]),
            ([[0.0, -0.0, 0.0], [-0.0, 0.0, 1.0], [0.0, 0.0, -0.0]],
             [(0, 0, 0.0), (1, 2, 1.0), (2, 1, 0.0)]),
        ],
    )
    def test_opposite_signs_and_signed_zeros(self, monkeypatch, matrix, expected):
        pairs = associate_matrix(monkeypatch, matrix).pairs
        assert signed_pairs(pairs) == signed_pairs(expected)
        assert signed_pairs(pairs) == signed_pairs(greedy_by_rule(np.array(matrix)))

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 0.25, -0.25]),
                min_size=n * n,
                max_size=n * n,
            )
        )
    )
    def test_matches_the_rule_on_matrices_full_of_ties(self, values):
        n = math.isqrt(len(values))
        matrix = np.array(values).reshape(n, n)
        with pytest.MonkeyPatch.context() as monkeypatch:
            pairs = associate_matrix(monkeypatch, matrix).pairs
        assert signed_pairs(pairs) == signed_pairs(greedy_by_rule(matrix))


class TestCrossMethodCorrelations:
    def test_identical_results(self):
        sig = generate_sources(disjoint_sources_spec())
        res = separate_maximum(sig, whitening="gram_schmidt")
        report = cross_method_correlations(res, res)
        assert [(i, j) for i, j, _ in report.pairs] == [(0, 0), (1, 1)]
        for *_, rho in report.pairs:
            assert rho == pytest.approx(1.0, abs=1e-12)

    def test_sign_flips_give_plus_minus_one(self):
        sig = generate_sources(disjoint_sources_spec())
        res = separate_maximum(sig, whitening="gram_schmidt")
        flipped = pca_separate(sig)  # same sources, possibly flipped/permuted
        report = cross_method_correlations(res, flipped)
        for *_, rho in report.pairs:
            assert abs(rho) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("whitening", ["gram_schmidt", "pca", "none"])
    def test_copy_budget_on_a_long_recording(self, whitening):
        # The caller ends up holding three N x M arrays: the checked copy
        # of its input and the two results' series blocks.  Everything
        # else the pipeline allocates may add at most a tenth of an N x M.
        # The maximum method alone holds the input and one working array
        # that becomes its series block, plus at most half an N x M.
        rng = np.random.default_rng(97)
        n, m = 8, 200_000
        sparse = np.where(rng.random((n, m)) < 0.01, rng.standard_normal((n, m)), 0.0)
        raw = rng.normal(size=(n, n)) @ sparse
        del sparse
        tracemalloc.start()
        try:
            signal = MultichannelSignal(raw)
            a = separate_maximum(signal, whitening=whitening)
            _, alone = tracemalloc.get_traced_memory()
            b = pca_separate(signal)
            cross_method_correlations(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert alone <= 2.5 * raw.nbytes
        assert peak <= 3.1 * raw.nbytes


class TestMethodSpec:
    @pytest.mark.parametrize(
        "spec", [disjoint_sources_spec, correlated_sources_spec, coincident_peaks_spec]
    )
    def test_centered_pca_separates_the_centered_signal(self, spec):
        # the Monte-Carlo bytes of a centered PCA method rest on this identity
        signal = add_noise(mix(generate_sources(spec()), OBLIQUE_MIXING), NoiseSpec(0.01, 5))
        got = MethodSpec("pca", centered=True).run(signal)
        expected = pca_separate(center(signal))
        np.testing.assert_array_equal(got.series_matrix, expected.series_matrix)
        np.testing.assert_array_equal(got.residual_energy, expected.residual_energy)
        for a, b in zip(got.estimates, expected.estimates):
            np.testing.assert_array_equal(a.direction, b.direction)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(name="pca", centered="false"),
            dict(name="pca", centered=1),
            dict(name="maximum", centered=True),
            dict(name="pca", order=(1, 2)),
            dict(name="maximum", whitening="none", order=(2, 1)),
            dict(name="maximum", whitening="pca", order=(2, 1)),
            dict(name="maximum", whitening="zca"),
            dict(name="pca", whitening="pca"),
            dict(name="pca", whitening="gram_schmidt"),
            dict(name="ica"),
        ],
    )
    def test_setting_that_cannot_apply_is_rejected(self, fields):
        with pytest.raises(InvalidSpecError):
            MethodSpec(**fields)

    def test_maximum_whitening_defaults_to_gram_schmidt(self):
        assert MethodSpec("maximum") == MethodSpec("maximum", whitening="gram_schmidt")
        assert MethodSpec("maximum").label == "maximum-gramschmidt"

    def test_order_with_gram_schmidt_accepted(self):
        assert MethodSpec("maximum", order=(2, 1)).order == (2, 1)


def small_config(**overrides):
    base = dict(
        fixture=disjoint_sources_spec(),
        noise_sds=(0.001,),
        n_runs=5,
        base_seed=99,
        methods=(MethodSpec("maximum", whitening="gram_schmidt"), MethodSpec("pca")),
    )
    base.update(overrides)
    return MonteCarloConfig(**base)


class TestMonteCarloRms:
    def test_noiseless_whitened_maximum_is_exact(self):
        cfg = small_config(noise_sds=(0.0,), n_runs=3, methods=(MethodSpec("maximum", whitening="gram_schmidt"),))
        (report,) = monte_carlo_rms(cfg)
        assert report.rms.max() < 1e-6

    def test_single_run_equals_absolute_error(self):
        cfg = small_config(n_runs=1, methods=(MethodSpec("pca"),))
        (report,) = monte_carlo_rms(cfg)

        sources = generate_sources(cfg.fixture)
        truth = np.vstack([normalize_unit(ch) for ch in sources.data])
        noisy = add_noise(sources, NoiseSpec(0.001, cfg.base_seed))
        result = pca_separate(noisy)
        est = np.vstack([normalize_unit(e.series) for e in result.estimates])
        rep = associate(sources, MultichannelSignal(est))
        expected = np.empty_like(truth)
        for i, j, rho in rep.pairs:
            aligned = est[j] if rho >= 0 else -est[j]
            expected[i] = np.abs(aligned - truth[i])
        np.testing.assert_allclose(report.rms, expected, atol=1e-15)

    def test_bitwise_deterministic(self):
        a = monte_carlo_rms(small_config())
        b = monte_carlo_rms(small_config())
        for ra, rb in zip(a, b):
            assert ra.method == rb.method and ra.noise_sd == rb.noise_sd
            np.testing.assert_array_equal(ra.rms, rb.rms)

    def test_each_method_reports_as_if_run_alone(self):
        methods = (
            MethodSpec("maximum", whitening="gram_schmidt", order=(2, 1)),
            MethodSpec("maximum", whitening="pca"),
            MethodSpec("pca", centered=True),
        )
        together = monte_carlo_rms(small_config(noise_sds=(0.001, 0.01), methods=methods))
        for k, spec in enumerate(methods):
            alone = monte_carlo_rms(small_config(noise_sds=(0.001, 0.01), methods=(spec,)))
            assert [(r.method, r.noise_sd) for r in together[k :: len(methods)]] == [
                (r.method, r.noise_sd) for r in alone
            ]
            for a, b in zip(together[k :: len(methods)], alone):
                np.testing.assert_array_equal(a.rms, b.rms)

    @pytest.mark.parametrize(
        "methods, label",
        [
            ((MethodSpec("maximum", order=(1, 2)), MethodSpec("maximum", order=(2, 1))), "maximum-gramschmidt"),
            ((MethodSpec("maximum"), MethodSpec("pca"), MethodSpec("maximum", whitening="gram_schmidt")),
             "maximum-gramschmidt"),
            ((MethodSpec("pca"), MethodSpec("pca", centered=False)), "pca"),
            ((MethodSpec("pca", centered=True),) * 2, "pca-centered"),
        ],
    )
    def test_methods_sharing_a_label_are_rejected(self, methods, label):
        with pytest.raises(InvalidSpecError, match=f"label '{label}'"):
            small_config(methods=methods)

    @pytest.mark.parametrize("noise_sds", [(), (0.001, -0.5)])
    def test_empty_or_negative_noise_levels_are_rejected(self, noise_sds):
        with pytest.raises(InvalidSpecError):
            small_config(noise_sds=noise_sds)

    @pytest.mark.parametrize("sd", [math.inf, math.nan])
    def test_non_finite_noise_level_is_rejected_when_built(self, sd):
        # NoiseSpec's rule, checked before the first run rather than at its level's
        with pytest.raises(InvalidSpecError, match="finite and >= 0"):
            small_config(noise_sds=(0.001, sd))

    def test_negative_base_seed_is_rejected_when_built(self):
        with pytest.raises(InvalidSpecError, match="seed must be >= 0"):
            small_config(base_seed=-5)

    def test_report_layout(self):
        reports = monte_carlo_rms(small_config(noise_sds=(0.001, 0.005)))
        assert len(reports) == 4  # 2 sds x 2 methods
        labels = {r.method for r in reports}
        assert labels == {"maximum-gramschmidt", "pca"}
        for r in reports:
            assert r.rms.shape == (2, 1000)
            assert np.all(r.rms >= 0)
