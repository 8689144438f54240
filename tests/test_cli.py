import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from phasemax import cli, errors
from phasemax.cli import main, parse_channels, parse_mixing
from phasemax.errors import InvalidSpecError
from phasemax.ingest import Recording, read_matrix_text, write_matrix_text
from phasemax.numerics import symmetric_eig
from phasemax.pca import pca_separate
from phasemax.separation import radius_series
from phasemax.signals import (
    OBLIQUE_MIXING,
    MultichannelSignal,
    center,
    disjoint_sources_spec,
    generate_sources,
    mix,
)
from phasemax.whitening import METHODS, apply_whitening
from reference import explicit_deflation, write_edf
from test_separation import FRAME_TOL, scale_exponents


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture
def mixture_file(tmp_path):
    src = generate_sources(disjoint_sources_spec())
    path = tmp_path / "mixture.txt"
    write_matrix_text(path, mix(src, OBLIQUE_MIXING))
    return path


@pytest.fixture
def sources_file(tmp_path):
    path = tmp_path / "sources.txt"
    write_matrix_text(path, generate_sources(disjoint_sources_spec()))
    return path


class TestParsers:
    def test_parse_mixing_inline(self):
        np.testing.assert_array_equal(parse_mixing("1.3,2;1,3"), [[1.3, 2.0], [1.0, 3.0]])

    def test_parse_mixing_rejects_garbage(self):
        with pytest.raises(InvalidSpecError):
            parse_mixing("1.3,2;x,3")

    def test_parse_channels_ranges_and_lists(self):
        assert parse_channels("2-5") == [2, 3, 4, 5]
        assert parse_channels("1,3,7") == [1, 3, 7]
        assert parse_channels("2-3,8") == [2, 3, 8]
        assert parse_channels("Thorax1,2") == ["Thorax1", 2]


class TestGen:
    def test_preset_writes_expected_peaks(self, tmp_path):
        out = tmp_path / "gen.txt"
        assert run("gen", "--preset", "disjoint", out) == 0
        rec = read_matrix_text(out)
        assert rec.signal.n_channels == 2
        assert rec.signal.data[1].max() == pytest.approx(0.1, abs=1e-12)

    def test_config_fixture(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "n_samples": 200,
                    "sources": [
                        [{"center": 50, "width": 5, "amplitude": 1.0}],
                        [{"center": 150, "width": 5, "amplitude": 0.1}],
                    ],
                }
            )
        )
        out = tmp_path / "gen.txt"
        assert run("gen", "--config", cfg, out) == 0
        rec = read_matrix_text(out)
        assert rec.signal.data.shape == (2, 200)

    def test_invalid_width_exits_2_naming_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"n_samples": 100, "sources": [[{"center": 50, "width": 0, "amplitude": 1.0}]]}
            )
        )
        assert run("gen", "--config", cfg, tmp_path / "out.txt") == 2
        assert "width" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_samples": 100, "sources": [], "wat": 1}))
        assert run("gen", "--config", cfg, tmp_path / "out.txt") == 2
        assert "wat" in capsys.readouterr().err

    def test_inline_mixing_end_to_end(self, tmp_path):
        sources, mixture = tmp_path / "src.txt", tmp_path / "mix.txt"
        est, report = tmp_path / "est.txt", tmp_path / "rep.txt"
        assert run("gen", "--preset", "disjoint", sources) == 0
        assert run("gen", "--preset", "disjoint", "--mixing", "1.3,2;1,3", mixture) == 0
        src = read_matrix_text(sources).signal
        mixed = read_matrix_text(mixture).signal
        np.testing.assert_allclose(mixed.data, OBLIQUE_MIXING @ src.data, atol=1e-12)
        assert run(
            "separate", mixture, "--method", "max", "--whiten", "gram-schmidt", est
        ) == 0
        assert run("evaluate", sources, est, "--out", report) == 0
        pairs = TestEvaluate.parse_pairs(report)
        assert all(abs(rho) >= 0.999 for _, rho in pairs.values())

    def test_bad_inline_mixing_exits_2(self, tmp_path):
        assert run("gen", "--preset", "disjoint", "--mixing", "1,2;x,4", tmp_path / "o.txt") == 2

    def test_seeded_noise_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "n_samples": 100,
                    "sources": [[{"center": 50, "width": 5, "amplitude": 1.0}]],
                    "noise_sd": 0.01,
                }
            )
        )
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run("gen", "--config", cfg, "--seed", 7, a) == 0
        assert run("gen", "--config", cfg, "--seed", 7, b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert run("gen", "--config", cfg, "--seed", 8, b) == 0
        assert a.read_bytes() != b.read_bytes()


class TestSeparate:
    def test_maximum_with_whitening(self, tmp_path, mixture_file):
        est = tmp_path / "est.txt"
        doc = tmp_path / "dirs.txt"
        code = run(
            "separate", mixture_file,
            "--method", "max", "--whiten", "gram-schmidt",
            "--out-directions", doc, est,
        )
        assert code == 0
        rec = read_matrix_text(est)
        assert rec.signal.n_channels == 2  # one column per estimate
        text = doc.read_text()
        assert "method: maximum" in text
        assert "whitening: gram_schmidt" in text
        assert "estimate_1_argmax_index:" in text
        assert "whitening_forward_row_2:" in text

    def test_gram_schmidt_order_flag(self, tmp_path, mixture_file):
        doc_12, doc_21 = tmp_path / "d12.txt", tmp_path / "d21.txt"
        run("separate", mixture_file, "--method", "max", "--whiten", "gram-schmidt",
            "--order", "1,2", "--out-directions", doc_12, tmp_path / "e12.txt")
        run("separate", mixture_file, "--method", "max", "--whiten", "gram-schmidt",
            "--order", "2,1", "--out-directions", doc_21, tmp_path / "e21.txt")
        assert "channel_order: 1 2" in doc_12.read_text()
        assert "channel_order: 2 1" in doc_21.read_text()
        assert doc_12.read_bytes() != doc_21.read_bytes()

    def test_pca_centering_changes_output(self, tmp_path, sources_file):
        plain, centered = tmp_path / "plain.txt", tmp_path / "centered.txt"
        assert run("separate", sources_file, "--method", "pca", plain) == 0
        assert run("separate", sources_file, "--method", "pca", "--center", centered) == 0
        assert plain.read_bytes() != centered.read_bytes()

    @pytest.mark.parametrize("fixture", ["sources_file", "mixture_file"])
    def test_pca_center_separates_the_centered_signal_once(self, tmp_path, request, fixture):
        path = request.getfixturevalue(fixture)
        out, expected = tmp_path / "out.txt", tmp_path / "expected.txt"
        assert run("separate", path, "--method", "pca", "--center", out) == 0
        signal = read_matrix_text(path).signal
        write_matrix_text(expected, pca_separate(center(signal)).series_matrix)
        assert out.read_bytes() == expected.read_bytes()

    def test_compare_writes_association(self, tmp_path, mixture_file):
        est = tmp_path / "est.txt"
        cmp_doc = tmp_path / "cmp.txt"
        code = run(
            "separate", mixture_file,
            "--method", "max", "--whiten", "gram-schmidt",
            "--compare", cmp_doc, est,
        )
        assert code == 0
        assert "pair: max=" in cmp_doc.read_text()

    def test_near_singular_mixing_leaves_unit_residual_energy(self, tmp_path):
        # condition ~1.3e10: the whitened channels must still be orthonormal, so
        # the second residual energy is 1 to rounding
        mixture, doc = tmp_path / "m.txt", tmp_path / "d.txt"
        assert run("gen", "--preset", "disjoint", "--mixing", "1,1;1,1.000000001", mixture) == 0
        args = ("--whiten", "gram-schmidt", "--order", "2,1", "--out-directions", doc)
        assert run("separate", mixture, *args, tmp_path / "e.txt") == 0
        line = next(t for t in doc.read_text().splitlines() if t.startswith("residual_energy:"))
        assert abs(float(line.split()[2]) - 1.0) <= 1e-12

    def test_zero_input_exits_4(self, tmp_path):
        path = tmp_path / "zero.txt"
        write_matrix_text(path, np.zeros((2, 50)))
        assert run("separate", path, "--method", "max", tmp_path / "e.txt") == 4
        assert run("phase", path, tmp_path / "p.txt") == 4

    def test_whiten_with_pca_method_exits_2(self, tmp_path, sources_file):
        code = run(
            "separate", sources_file, "--method", "pca", "--whiten", "pca", tmp_path / "e.txt"
        )
        assert code == 2

    def test_missing_input_exits_3(self, tmp_path):
        assert run("separate", tmp_path / "absent.txt", tmp_path / "e.txt") == 3

    def test_usage_error_exits_2(self, tmp_path, sources_file):
        assert run("separate", sources_file, "--method", "bogus", tmp_path / "e.txt") == 2

    @pytest.mark.parametrize(
        "options",
        [["--whiten", "none"], ["--whiten", "gram-schmidt"], ["--whiten", "pca"], ["--method", "pca"]],
        ids=["none", "gram-schmidt", "pca-whitening", "pca-baseline"],
    )
    def test_tiny_values_run_scaled_up_by_a_power_of_two(self, tmp_path, capsys, options):
        # every square of these values underflows to 0: separate runs on the table
        # times 2**k, then scales the series, radii and energies of an unwhitened
        # result by 2**-k (energies 2**-2k) and a whitening's forward map by 2**k
        tiny = tmp_path / "tiny.txt"
        tiny.write_text("3e-170 1e-171\n1e-171 2e-170\n")
        k = -math.frexp(3e-170)[1]
        scaled = tmp_path / "scaled.txt"
        write_matrix_text(scaled, np.ldexp([[3e-170, 1e-171], [1e-171, 2e-170]], k))

        def outputs(table):
            doc, est = tmp_path / f"{table.stem}-d.txt", tmp_path / f"{table.stem}-e.txt"
            assert run("separate", table, *options, "--out-directions", doc, est) == 0
            fields = dict(line.split(": ") for line in doc.read_text().splitlines())
            return np.loadtxt(est), fields

        (series, fields), (scaled_series, scaled_fields) = outputs(tiny), outputs(scaled)
        assert capsys.readouterr().err == ""
        unwhitened = fields["whitening"] == "none"
        for key, text in scaled_fields.items():
            if key.endswith("_radius") and unwhitened:
                expected = [math.ldexp(float(text), -k)]
            elif key == "residual_energy" and unwhitened:
                expected = np.ldexp([float(t) for t in text.split()], -2 * k)
            elif key.startswith("whitening_forward_row") and not unwhitened:
                expected = np.ldexp([float(t) for t in text.split()], k)
            else:
                assert fields[key] == text
                continue
            np.testing.assert_array_equal([float(t) for t in fields[key].split()], expected)
        np.testing.assert_array_equal(series, np.ldexp(scaled_series, -k) if unwhitened else scaled_series)
        if "estimate_1_argmax_index" in fields:  # the sample phase flags
            assert run("phase", tiny, tmp_path / "phase.txt") == 0
            flags = [line.split()[-1] for line in (tmp_path / "phase.txt").read_text().splitlines()[1:]]
            assert flags.index("1") == int(fields["estimate_1_argmax_index"])

    @pytest.mark.parametrize(
        "options",
        [["--whiten", "none"], ["--whiten", "pca"], ["--method", "pca"]],
        ids=["none", "pca-whitening", "pca-baseline"],
    )
    def test_tiny_values_compare_and_evaluate_as_scaled_up(self, tmp_path, capsys, options):
        # the centred squares of these values underflow to 0; a correlation does
        # not change under a power-of-two scale of a series, so --compare and
        # evaluate write what they write for the table times 2**k
        rows = [[3e-170, 1e-171], [1e-171, 2e-170]]
        scaled = np.ldexp(rows, -math.frexp(3e-170)[1])

        def documents(name, table):
            path, est = tmp_path / f"{name}.txt", tmp_path / f"{name}-e.txt"
            write_matrix_text(path, table)
            compare, report = tmp_path / f"{name}-c.txt", tmp_path / f"{name}-r.txt"
            assert run("separate", path, *options, "--compare", compare, est) == 0
            assert run("evaluate", path, est, "--out", report) == 0
            return compare.read_text(), report.read_text().splitlines()[2:]  # past the file names

        assert documents("tiny", rows) == documents("scaled", scaled)
        assert capsys.readouterr().err == ""


def sparse_table(seed, n, m):
    """``n`` well-conditioned mixtures of ``n`` sparse sources with disjoint supports, ``m`` samples."""
    rng = np.random.default_rng(seed)
    pulses = max(1, m // (8 * n))
    sources = np.zeros((n, m))
    at = rng.choice(m, (n, pulses), replace=False)
    np.put_along_axis(sources, at, rng.uniform(0.5, 1.5, (n, pulses)) * rng.choice([-1.0, 1.0], (n, pulses)), 1)
    rotation = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return rotation * rng.uniform(0.5, 2.0, n) @ sources


class TestPowerOfTwoScalingAtTheCommandLine:
    """README "Determinism" for a table scaled by 2**j and read back from text:
    separate without whitening scales the estimates and radii by exactly 2**j
    and the energies by 2**2j and keeps the argmax indices and directions;
    --compare and evaluate keep every correlation bit."""

    @staticmethod
    def outputs(work, name, table):
        path = work / f"{name}.txt"
        write_matrix_text(path, table)
        doc, compare, est, report = (work / f"{name}-{part}.txt" for part in "dcer")
        assert run("separate", path, "--whiten", "none", "--out-directions", doc, "--compare", compare, est) == 0
        assert run("evaluate", path, est, "--out", report) == 0
        fields = dict(line.split(": ") for line in doc.read_text().splitlines())
        # past the echoed file names
        return np.loadtxt(est, ndmin=2), fields, compare.read_text(), report.read_text().splitlines()[2:]

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        m=st.integers(16, 2000),
        j=st.integers(-1100, 600),  # the range rule of TestPowerOfTwoScaling
    )
    @example(seed=0, n=3, m=2000, j=-600)  # every square underflows: separated and correlated scaled up
    @example(seed=1, n=2, m=500, j=-1000)
    @example(seed=2, n=4, m=1500, j=480)
    def test_outputs_scale_exactly(self, tmp_path_factory, seed, n, m, j):
        table = sparse_table(seed, n, m)
        low, high = scale_exponents(table)
        assume(low <= j <= high)
        work = tmp_path_factory.mktemp("scaling")
        series, fields, compare, report = self.outputs(work, "base", table)
        scaled_series, scaled_fields, scaled_compare, scaled_report = self.outputs(work, "scaled", np.ldexp(table, j))
        np.testing.assert_array_equal(scaled_series, np.ldexp(series, j))
        assert scaled_fields.keys() == fields.keys()
        for key, text in scaled_fields.items():
            if key.endswith("_radius"):
                assert float(text) == math.ldexp(float(fields[key]), j)
            elif key == "residual_energy":
                expected = np.ldexp([float(t) for t in fields[key].split()], 2 * j)
                np.testing.assert_array_equal([float(t) for t in text.split()], expected)
            else:  # argmax indices, directions, the identity forward map
                assert text == fields[key]
        assert scaled_compare == compare
        assert scaled_report == report


def stand_apart(values):
    """Whether no two of ``values`` agree to 1e-9 relative."""
    v = np.sort(np.abs(values))
    return bool(np.all(np.diff(v) > 1e-9 * v[1:]))


def winners_stand_apart(z):
    """Whether at every step of the explicit loop on ``z`` the farthest sample's
    radius leads every other by more than 1e-9 relative, so that the extraction
    order does not hang on rounding."""
    for data in [z] + [step.residual for step in explicit_deflation(z)][:-1]:
        r = np.sort(np.sqrt((data**2).sum(axis=0)))
        if r[-2] >= (1 - 1e-9) * r[-1]:
            return False
    return True


def separate_variants(n):
    """Every ``separate`` variant on ``n`` channels, by name."""
    return {
        "none": ["--whiten", "none"],
        "gram-schmidt": ["--whiten", "gram-schmidt"],
        "gram-schmidt-reversed": ["--whiten", "gram-schmidt", "--order", ",".join(map(str, range(n, 0, -1)))],
        "pca-whitening": ["--whiten", "pca"],
        "pca-baseline": ["--method", "pca"],
        "pca-centered": ["--method", "pca", "--center"],
    }


class TestDeterminismAtTheCommandLine:
    """README "Determinism" on generated sparse tables read back from text:
    permuting the channels changes no estimate beyond rounding, and running
    a command again writes the same bytes."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        m=st.integers(16, 2000),
        data=st.data(),
    )
    def test_permuting_the_channels_changes_no_estimate(self, tmp_path_factory, seed, n, m, data):
        # The bound is TestFrameInvariance's, 64 eps times the data's condition
        # number of the largest value, fixed before the first run.  The PCA
        # baseline's series are eigenvector projections, and LAPACK's eigenvectors
        # of a permuted Gram matrix differ by eps over the relative eigenvalue gap
        # (2.1e-13 at a gap of 5.8e-4, on an exactly permuted matrix), so its bound
        # is divided by that gap.
        perm = data.draw(st.permutations(range(n)))
        table = sparse_table(seed, n, m)
        signal = MultichannelSignal(table)
        eig = symmetric_eig(table @ table.T)
        assume(stand_apart(eig.eigenvalues))
        # the PCA baseline's sign rule: each eigenvector's largest |entry| is positive
        assume(all(stand_apart(np.sort(np.abs(v))[-2:]) for v in eig.eigenvectors.T))
        assume(all(winners_stand_apart(apply_whitening(signal, w)[0].data) for w in METHODS))
        work = tmp_path_factory.mktemp("permute")
        base, permuted = work / "base.txt", work / "permuted.txt"
        write_matrix_text(base, table)
        write_matrix_text(permuted, table[list(perm)])
        order = ",".join(str(perm.index(i) + 1) for i in range(n))  # undoes the permutation
        gap = np.diff(-eig.eigenvalues).min() / eig.eigenvalues[0]
        for name, flags, permuted_flags, conditioning in [
            ("none", ["--whiten", "none"], [], 1.0),
            ("gram-schmidt", ["--whiten", "gram-schmidt"], ["--order", order], 1.0),
            ("pca-whitening", ["--whiten", "pca"], [], 1.0),
            ("pca-baseline", ["--method", "pca"], [], 1 / gap),
        ]:
            est, permuted_est = work / f"{name}.txt", work / f"{name}-permuted.txt"
            assert run("separate", base, *flags, est) == 0
            assert run("separate", permuted, *flags, *permuted_flags, permuted_est) == 0
            expected = np.loadtxt(est, ndmin=2)
            bound = FRAME_TOL * np.linalg.cond(table) * conditioning * np.abs(expected).max()
            np.testing.assert_allclose(np.loadtxt(permuted_est, ndmin=2), expected, rtol=0, atol=bound, err_msg=name)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), m=st.integers(16, 2000))
    def test_a_rerun_writes_the_same_bytes(self, tmp_path_factory, seed, n, m):
        work = tmp_path_factory.mktemp("rerun")
        table = work / "table.txt"
        write_matrix_text(table, sparse_table(seed, n, m))
        for name, flags in separate_variants(n).items():
            doc, compare, est, report = (work / f"{name}-{part}.txt" for part in "dcer")
            written = []
            for _ in range(2):  # the same paths, so evaluate echoes the same names
                assert run("separate", table, *flags, "--out-directions", doc, "--compare", compare, est) == 0
                assert run("evaluate", table, est, "--out", report) == 0
                written.append([path.read_bytes() for path in (doc, compare, est, report)])
            assert written[0] == written[1], name


def montecarlo_config(tmp_path, n_runs=3):
    cfg = tmp_path / "mc.json"
    cfg.write_text(
        json.dumps(
            {
                "preset": "disjoint",
                "noise_sd": [0.001, 0.01],
                "n_runs": n_runs,
                "base_seed": 11,
                "methods": [
                    {"method": "maximum", "whitening": "gram_schmidt"},
                    {"method": "pca"},
                ],
            }
        )
    )
    return cfg


class TestMonteCarlo:
    def test_column_groups_and_determinism(self, tmp_path):
        cfg = montecarlo_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("montecarlo", "--config", cfg, a) == 0
        assert run("montecarlo", "--config", cfg, b) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0].split(",")
        # sample column plus (2 sds x 2 methods x 2 sources)
        assert len(header) == 1 + 8
        assert header[1].startswith("maximum-gramschmidt_sd0.001_src1")
        assert any(col.endswith("sd0.01_src2") for col in header)

    def test_four_noise_levels_one_column_group_each(self, tmp_path):
        cfg = tmp_path / "mc4.json"
        cfg.write_text(
            json.dumps(
                {
                    "preset": "disjoint",
                    "noise_sd": [0.001, 0.005, 0.0075, 0.01],
                    "n_runs": 2,
                    "base_seed": 3,
                    "methods": [
                        {"method": "maximum", "whitening": "gram_schmidt"},
                        {"method": "pca"},
                    ],
                }
            )
        )
        out = tmp_path / "rms.csv"
        assert run("montecarlo", "--config", cfg, out) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert len(header) == 1 + 4 * 2 * 2  # sample + sds x methods x sources
        for sd in ("0.001", "0.005", "0.0075", "0.01"):
            group = [c for c in header if f"_sd{sd}_" in c]
            assert len(group) == 4  # 2 methods x 2 sources per noise level

    def test_sample_column_is_integral_and_rms_is_17_digit_text(self, tmp_path):
        from phasemax.cli import _montecarlo_config
        from phasemax.evaluation import monte_carlo_rms

        cfg = montecarlo_config(tmp_path, n_runs=2)
        out = tmp_path / "rms.csv"
        assert run("montecarlo", "--config", cfg, out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == [str(n) for n in range(len(rows))]
        reports = monte_carlo_rms(_montecarlo_config(json.loads(cfg.read_text())))
        expected = np.vstack([rep.rms for rep in reports])
        assert [row[1:] for row in rows] == [
            [format(float(v), ".17g") for v in column] for column in expected.T
        ]

    def test_shipped_config_is_valid(self):
        from phasemax.cli import _load_json, _montecarlo_config

        path = Path(__file__).resolve().parents[1] / "docs" / "noise-robustness.json"
        cfg = _montecarlo_config(_load_json(path))
        assert cfg.n_runs == 1000
        assert cfg.noise_sds == (0.001, 0.005, 0.0075, 0.01)
        assert cfg.mixing is None
        assert len(cfg.methods) == 2

    def test_unknown_method_key_exits_2(self, tmp_path):
        cfg = tmp_path / "mc.json"
        cfg.write_text(
            json.dumps(
                {
                    "preset": "disjoint",
                    "noise_sd": [0.001],
                    "n_runs": 1,
                    "methods": [{"method": "pca", "oops": True}],
                }
            )
        )
        assert run("montecarlo", "--config", cfg, tmp_path / "o.csv") == 2


class TestPhase:
    def test_columns_and_max_flag(self, tmp_path, mixture_file):
        out = tmp_path / "phase.txt"
        assert run("phase", mixture_file, out) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split() == ["index", "z1", "z2", "r", "is_max"]
        rows = [line.split() for line in lines[1:]]
        assert len(rows) == 1000
        assert sum(row[-1] == "1" for row in rows) == 1

        signal = read_matrix_text(mixture_file).signal
        r = radius_series(signal)
        for n in (0, 300, 999):
            assert float(rows[n][3]) == pytest.approx(r[n], rel=1e-15)

    def test_index_and_flag_are_integral_and_values_17_digit_text(self, tmp_path, mixture_file):
        out = tmp_path / "phase.txt"
        assert run("phase", mixture_file, out) == 0
        rows = [line.split(" ") for line in out.read_text().splitlines()[1:]]
        signal = read_matrix_text(mixture_file).signal
        n_max = int(np.argmax(radius_series(signal)))
        assert [row[0] for row in rows] == [str(n) for n in range(signal.n_samples)]
        assert [row[-1] for row in rows] == ["1" if n == n_max else "0" for n in range(len(rows))]
        values = np.vstack([signal.data, radius_series(signal)])
        assert [row[1:-1] for row in rows] == [
            [format(float(v), ".17g") for v in column] for column in values.T
        ]

    def test_small_values_flag_the_sample_separate_finds(self, tmp_path, capsys):
        # the squares of these values are subnormal: unscaled, the radii keep few
        # digits, and a unit vector built from them is off unit norm by far more than 1e-12
        table = tmp_path / "small.txt"
        table.write_text("3e-160 1e-161\n1e-161 2e-160\n")
        doc, out = tmp_path / "d.txt", tmp_path / "phase.txt"
        assert run("separate", table, "--out-directions", doc, tmp_path / "e.txt") == 0
        assert run("phase", table, out) == 0
        assert capsys.readouterr().err == ""
        lines = doc.read_text().splitlines()
        n_max = int(next(t for t in lines if t.startswith("estimate_1_argmax_index:")).split()[1])
        assert [row.split()[-1] for row in out.read_text().splitlines()[1:]] == [
            "1" if n == n_max else "0" for n in range(2)
        ]

    @pytest.mark.parametrize("scale", ["160", "170"])
    def test_tiny_values_give_radii_within_an_ulp_of_hypot(self, tmp_path, capsys, scale):
        # at 1e-170 every square underflows to 0 unless the values are scaled up first
        table, out = tmp_path / "small.txt", tmp_path / "phase.txt"
        table.write_text(f"3e-{scale} 1e-{int(scale) + 1}\n1e-{int(scale) + 1} 2e-{scale}\n")
        assert run("phase", table, out) == 0
        assert capsys.readouterr().err == ""
        rows = [[float(t) for t in line.split()] for line in out.read_text().splitlines()[1:]]
        for _, z1, z2, r, _ in rows:
            assert abs(r - math.hypot(z1, z2)) <= math.ulp(math.hypot(z1, z2))
        assert [row[-1] for row in rows] == [1.0, 0.0]

    def test_round_trips_radius_exactly(self, tmp_path, mixture_file):
        out = tmp_path / "phase.txt"
        run("phase", mixture_file, out)
        table = np.loadtxt(out, skiprows=1)
        signal = read_matrix_text(mixture_file).signal
        np.testing.assert_array_equal(table[:, 3], radius_series(signal))


class TestEdfCommand:
    def make_edf(self, tmp_path, n=3, m=48):
        rng = np.random.default_rng(17)
        rec = Recording(
            MultichannelSignal(np.cumsum(rng.normal(size=(n, m)), axis=1)),
            tuple(f"lead{i}" for i in range(1, n + 1)),
            16.0,
        )
        path = tmp_path / "synth.edf"
        write_edf(path, rec)
        return path, rec

    def test_extract_channels_and_samples(self, tmp_path):
        path, rec = self.make_edf(tmp_path)
        out = tmp_path / "out.txt"
        assert run("edf", path, "--channels", "2-3", "--samples", 20, out) == 0
        back = read_matrix_text(out)
        assert back.labels == ("lead2", "lead3")
        assert back.signal.data.shape == (2, 20)
        span = np.ptp(rec.signal.data)
        np.testing.assert_allclose(
            back.signal.data, rec.signal.data[1:3, :20], atol=span / 65535
        )

    def test_annotation_selection_exits_5(self, tmp_path):
        rec = Recording(
            MultichannelSignal(np.random.default_rng(3).normal(size=(2, 16))),
            ("real", "EDF Annotations"),
            8.0,
        )
        path = tmp_path / "annot.edf"
        write_edf(path, rec)
        assert run("edf", path, "--channels", "2", tmp_path / "o.txt") == 5

    def test_malformed_header_exits_3(self, tmp_path):
        path = tmp_path / "bad.edf"
        path.write_bytes(b"not an edf file")
        assert run("edf", path, tmp_path / "o.txt") == 3

    def test_zero_record_duration_exits_3(self, tmp_path, capsys):
        path, _ = self.make_edf(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[244:252] = b"0       "
        path.write_bytes(raw)
        assert run("edf", path, tmp_path / "o.txt") == 3
        assert "record_duration" in capsys.readouterr().err

    def test_infinite_physical_range_exits_4(self, tmp_path, capsys):
        path, _ = self.make_edf(tmp_path)
        raw = bytearray(path.read_bytes())
        offset = 256 + 3 * (16 + 80 + 8)  # physical_min then physical_max of 3 signals
        raw[offset : offset + 48] = b"-1e308  " * 3 + b"1e308   " * 3
        path.write_bytes(raw)
        assert run("edf", path, tmp_path / "o.txt") == 4
        assert capsys.readouterr().err == "phasemax: error: signal contains non-finite values\n"

    def labelled_edf(self, tmp_path, labels):
        rng = np.random.default_rng(19)
        rec = Recording(MultichannelSignal(rng.normal(size=(len(labels), 48))), labels, 16.0)
        path = tmp_path / "labelled.edf"
        write_edf(path, rec)
        return path

    def test_whitespace_in_a_label_becomes_underscore(self, tmp_path):
        path = self.labelled_edf(tmp_path, ("ECG I", "ECG  II", "ECG III"))
        out = tmp_path / "out.txt"
        assert run("edf", path, out) == 0
        assert out.read_text().splitlines()[0] == "ECG_I ECG_II ECG_III"
        assert read_matrix_text(out).labels == ("ECG_I", "ECG_II", "ECG_III")
        assert run("separate", out, tmp_path / "e.txt") == 0

    @pytest.mark.parametrize("labels", [("1", "2", "3"), ("a", "", "c")])
    def test_labels_that_would_not_read_back_exit_2(self, tmp_path, labels):
        path = self.labelled_edf(tmp_path, labels)
        out = tmp_path / "o.txt"
        assert run("edf", path, out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("samples", [-10, 0])
    def test_non_positive_samples_exits_2(self, tmp_path, samples):
        path, _ = self.make_edf(tmp_path)
        out = tmp_path / "o.txt"
        assert run("edf", path, "--samples", samples, out) == 2
        assert not out.exists()


class TestEvaluate:
    @staticmethod
    def parse_pairs(path):
        pairs = {}
        for line in path.read_text().splitlines():
            if line.startswith("pair: "):
                fields = dict(part.split("=") for part in line[6:].split())
                pairs[int(fields["source"])] = (
                    int(fields["estimate"]),
                    float(fields["correlation"]),
                )
        return pairs

    def test_truth_vs_truth(self, tmp_path, sources_file):
        out = tmp_path / "report.txt"
        assert run("evaluate", sources_file, sources_file, "--out", out) == 0
        pairs = self.parse_pairs(out)
        assert set(pairs) == {1, 2}
        for source, (estimate, rho) in pairs.items():
            assert estimate == source
            assert rho == pytest.approx(1.0, abs=1e-12)

    def test_permuted_and_negated(self, tmp_path, sources_file):
        src = read_matrix_text(sources_file).signal
        swapped = tmp_path / "swapped.txt"
        write_matrix_text(swapped, np.vstack([-src.data[1], src.data[0]]))
        out = tmp_path / "report.txt"
        assert run("evaluate", sources_file, swapped, "--out", out) == 0
        pairs = self.parse_pairs(out)
        assert pairs[1][0] == 2 and pairs[1][1] == pytest.approx(1.0, abs=1e-12)
        assert pairs[2][0] == 1 and pairs[2][1] == pytest.approx(-1.0, abs=1e-12)

    def test_channel_mismatch_exits_2(self, tmp_path, sources_file):
        single = tmp_path / "single.txt"
        write_matrix_text(single, np.random.default_rng(1).normal(size=(1, 1000)))
        assert run("evaluate", sources_file, single, "--out", tmp_path / "r.txt") == 2


PULSE = {"center": 50, "width": 5, "amplitude": 1.0}
MAXIMUM = {"method": "maximum"}
MC_CONFIG = {"preset": "disjoint", "noise_sd": [0.001], "n_runs": 1, "methods": [{"method": "pca"}]}


MC_FIXTURE = {"n_samples": 100, "sources": [[PULSE], [{**PULSE, "center": 20}]]}
MC_CONFIG_FIXTURE = {k: v for k, v in MC_CONFIG.items() if k != "preset"} | {"fixture": MC_FIXTURE}


def mc_method(method):
    """A one-method Monte-Carlo config whose method entry is ``method``."""
    return ("montecarlo", {**MC_CONFIG, "methods": [method]})


BAD_CONFIGS = {
    "gen-n_samples-text": ("gen", {"n_samples": "abc", "sources": [[PULSE]]}),
    "gen-preset-n_samples-text": ("gen", {"preset": "disjoint", "n_samples": "abc"}),
    "gen-preset-not-string": ("gen", {"preset": ["disjoint"]}),
    "gen-sources-not-list": ("gen", {"n_samples": 100, "sources": 5}),
    "gen-pulse-center-text": ("gen", {"n_samples": 100, "sources": [[{**PULSE, "center": "x"}]]}),
    "gen-pulse-not-object": ("gen", {"n_samples": 100, "sources": [[5]]}),
    "gen-noise_sd-text": ("gen", {"preset": "disjoint", "noise_sd": "loud"}),
    "gen-mixing-text": ("gen", {"preset": "disjoint", "mixing": [["a", 1], [0, 1]]}),
    "mc-n_runs-text": ("montecarlo", {**MC_CONFIG, "n_runs": "x"}),
    "mc-base_seed-list": ("montecarlo", {**MC_CONFIG, "base_seed": [1]}),
    "mc-noise_sd-text": ("montecarlo", {**MC_CONFIG, "noise_sd": ["x"]}),
    "mc-order-text": ("montecarlo", {**MC_CONFIG, "methods": [{**MAXIMUM, "order": ["a", 2]}]}),
    "mc-order-number": ("montecarlo", {**MC_CONFIG, "methods": [{**MAXIMUM, "order": 1}]}),
    "mc-method-number": ("montecarlo", {**MC_CONFIG, "methods": [3]}),
    "gen-n_samples-float": ("gen", {"n_samples": 100.5, "sources": [[PULSE]]}),
    "gen-preset-n_samples-bool": ("gen", {"preset": "disjoint", "n_samples": True}),
    "mc-n_runs-float": ("montecarlo", {**MC_CONFIG, "n_runs": 2.7}),
    "mc-n_runs-bool": ("montecarlo", {**MC_CONFIG, "n_runs": True}),
    "mc-base_seed-bool": ("montecarlo", {**MC_CONFIG, "base_seed": True}),
    "mc-base_seed-float": ("montecarlo", {**MC_CONFIG, "base_seed": 1.5}),
    "mc-order-float": ("montecarlo", {**MC_CONFIG, "methods": [{**MAXIMUM, "order": [1.5, 2]}]}),
    "mc-order-bool": ("montecarlo", {**MC_CONFIG, "methods": [{**MAXIMUM, "order": [True, 2]}]}),
    "mc-base_seed-negative": ("montecarlo", {**MC_CONFIG, "base_seed": -3}),
    "mc-fixture-number": ("montecarlo", {"fixture": 3, "noise_sd": [0.001], "methods": [MAXIMUM]}),
    # a method setting that cannot apply is an error, not ignored
    "mc-centered-text": mc_method({"method": "pca", "centered": "false"}),
    "mc-centered-number": mc_method({"method": "pca", "centered": 1}),
    "mc-maximum-centered": mc_method({**MAXIMUM, "centered": True}),
    "mc-maximum-uncentered": mc_method({**MAXIMUM, "centered": False}),
    "mc-pca-order": mc_method({"method": "pca", "order": [1, 2]}),
    "mc-pca-whitening": mc_method({"method": "pca", "whitening": "pca"}),
    "mc-order-without-gram-schmidt": mc_method({**MAXIMUM, "whitening": "none", "order": [2, 1]}),
    "mc-unknown-whitening": mc_method({**MAXIMUM, "whitening": "zca"}),
    "mc-method-missing": mc_method({"whitening": "none"}),
    "mc-method-list": mc_method({"method": ["pca"]}),
    "mc-noise_sd-negative": ("montecarlo", {**MC_CONFIG, "noise_sd": [-0.5]}),
    "gen-noise_sd-negative": ("gen", {"preset": "disjoint", "noise_sd": -0.5}),
    "gen-noise_sd-nan-text": ("gen", {"preset": "disjoint", "noise_sd": "nan"}),
    # a number field takes a JSON int or float: not a boolean, not a numeric string
    "gen-noise_sd-bool": ("gen", {"preset": "disjoint", "noise_sd": True}),
    "gen-noise_sd-numeric-text": ("gen", {"preset": "disjoint", "noise_sd": "0.01"}),
    "gen-pulse-center-bool": ("gen", {"n_samples": 100, "sources": [[{**PULSE, "center": True}]]}),
    "gen-pulse-width-text": ("gen", {"n_samples": 100, "sources": [[{**PULSE, "width": "9"}]]}),
    "gen-pulse-amplitude-bool": (
        "gen", {"n_samples": 100, "sources": [[{**PULSE, "amplitude": False}]]}
    ),
    "gen-mixing-bool-and-text": ("gen", {"preset": "disjoint", "mixing": [[True, 2], ["1", 3]]}),
    "gen-mixing-numeric-text": ("gen", {"preset": "disjoint", "mixing": [[1, 2], ["1", 3]]}),
    "mc-noise_sd-bool-and-numeric-text": ("montecarlo", {**MC_CONFIG, "noise_sd": [False, "0.01"]}),
    "mc-noise_sd-numeric-text": ("montecarlo", {**MC_CONFIG, "noise_sd": ["0.01"]}),
    "mc-mixing-bool": ("montecarlo", {**MC_CONFIG, "mixing": [[1, 0], [0, True]]}),
    "mc-fixture-pulse-center-numeric-text": (
        "montecarlo",
        {"fixture": {"n_samples": 100, "sources": [[{**PULSE, "center": "50"}]]}, "noise_sd": [0.0],
         "n_runs": 1, "methods": [{"method": "pca"}]},
    ),
    # an integer field takes a JSON number, a list field a JSON array, whitening a string
    "gen-preset-n_samples-numeric-text": ("gen", {"preset": "disjoint", "n_samples": "300"}),
    "gen-n_samples-numeric-text": ("gen", {"n_samples": "100", "sources": [[PULSE]]}),
    "gen-sources-object": ("gen", {"n_samples": 100, "sources": {"a": [PULSE]}}),
    "gen-source-object": ("gen", {"n_samples": 100, "sources": [PULSE]}),
    "mc-n_runs-numeric-text": ("montecarlo", {**MC_CONFIG, "n_runs": "3"}),
    "mc-base_seed-numeric-text": ("montecarlo", {**MC_CONFIG, "base_seed": "7"}),
    "mc-order-string": mc_method({**MAXIMUM, "order": "21"}),
    "mc-order-numeric-text": mc_method({**MAXIMUM, "order": ["2", "1"]}),
    "mc-whitening-null": mc_method({**MAXIMUM, "whitening": None}),
    "mc-whitening-list": mc_method({**MAXIMUM, "whitening": ["pca"]}),
    # keys that would be ignored
    "mc-preset-and-fixture": ("montecarlo", {**MC_CONFIG, "fixture": MC_FIXTURE}),
    "mc-fixture-and-n_samples": (
        "montecarlo", {**MC_CONFIG_FIXTURE, "n_samples": 300},
    ),
    # two methods whose columns would carry the same label
    "mc-two-orders-one-label": (
        "montecarlo", {**MC_CONFIG, "methods": [{**MAXIMUM, "order": [1, 2]}, {**MAXIMUM, "order": [2, 1]}]},
    ),
    "mc-same-method-twice": ("montecarlo", {**MC_CONFIG, "methods": [{"method": "pca"}] * 2}),
    # two noise levels whose columns would carry the same name
    "mc-noise_sd-names-collide": ("montecarlo", {**MC_CONFIG, "noise_sd": [0.001, 0.0010000001]}),
    "mc-noise_sd-repeated": ("montecarlo", {**MC_CONFIG, "noise_sd": [0.01, 0.01]}),
    "mc-noise_sd-empty": ("montecarlo", {**MC_CONFIG, "noise_sd": []}),
    "mc-noise_sd-missing": ("montecarlo", {k: v for k, v in MC_CONFIG.items() if k != "noise_sd"}),
    "mc-methods-object": ("montecarlo", {**MC_CONFIG, "methods": {"method": "pca"}}),
    # a JSON integer beyond float64 is refused, not a traceback
    "gen-noise_sd-huge-integer": ("gen", {"preset": "disjoint", "noise_sd": 10**400}),
    "gen-n_samples-huge-integer": ("gen", {"n_samples": 10**400, "sources": [[PULSE]]}),
    "mc-base_seed-huge-integer": ("montecarlo", {**MC_CONFIG, "base_seed": 10**400}),
    # a sample count whose arrays numpy cannot address is refused, not a traceback
    "gen-preset-n_samples-beyond-memory": ("gen", {"preset": "disjoint", "n_samples": 1e300}),
}


OVERFLOW_TABLE = b"1e200 1\n1 1e200\n3 2\n"  # finite, but the squared radii overflow

# The documented exit code of every error type (README "Exit codes").
EXIT_CODES = {
    "PhasemaxError": 4,
    "InvalidSpecError": 2,
    "DimensionMismatchError": 2,
    "OutOfBoundsError": 2,
    "ParseError": 3,
    "RaggedRowsError": 3,
    "MalformedHeaderError": 3,
    "TruncatedDataError": 3,
    "NonFiniteError": 4,
    "NotSymmetricError": 4,
    "DegenerateInputError": 4,
    "ZeroSignalError": 4,
    "ZeroSeriesError": 4,
    "ZeroVarianceError": 4,
    "UnsupportedFeatureError": 5,
}
ERROR_TYPES = [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.PhasemaxError)
]


class TestExitCodeContract:
    """Bad input ends in a documented exit code and a one-line message, never a traceback."""

    @staticmethod
    def assert_clean_error(capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("phasemax: error: ")

    @pytest.mark.parametrize("command, config", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
    def test_bad_config_value_exits_2(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(command, "--config", cfg, tmp_path / "out") == 2
        self.assert_clean_error(capsys)

    @pytest.mark.parametrize(
        "config, message",
        [
            ({**MC_CONFIG, "fixture": MC_FIXTURE}, "a fixture takes no preset"),
            ({**MC_CONFIG_FIXTURE, "n_samples": 300}, "no top-level n_samples"),
            (mc_method({**MAXIMUM, "whitening": None})[1], "whitening None is not a string"),
            (mc_method({**MAXIMUM, "order": "21"})[1], "order: '21' is not a list"),
            (
                {**MC_CONFIG, "methods": [{**MAXIMUM, "order": [1, 2]}, {**MAXIMUM, "order": [2, 1]}]},
                "label 'maximum-gramschmidt'",
            ),
            ({**MC_CONFIG, "noise_sd": [0.001, 0.0010000001]}, "name '0.001'"),
            # refused when the config is read, not after the 4000 separations before the level
            (
                {"preset": "disjoint", "noise_sd": [0.001, 0.005, math.inf], "n_runs": 1000,
                 "methods": [{"method": "maximum"}, {"method": "pca"}]},
                "noise sd must be finite and >= 0, got inf",
            ),
            (
                {"fixture": {"n_samples": 1e300, "sources": [[PULSE]]}, "noise_sd": [0.0],
                 "n_runs": 1, "methods": [{"method": "pca"}]},
                "float64 samples cannot be allocated",
            ),
        ],
    )
    def test_config_error_names_its_cause(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run("montecarlo", "--config", cfg, tmp_path / "out.csv") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_fixture_config_without_conflicts_runs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(MC_CONFIG_FIXTURE))
        assert run("montecarlo", "--config", cfg, tmp_path / "out.csv") == 0

    @pytest.mark.parametrize(
        "method, message",
        [("max", "maximum found 2 sources and pca 3"), ("pca", "pca found 3 sources and maximum 2")],
    )
    def test_methods_disagreeing_on_the_rank_exit_4(self, tmp_path, capsys, method, message):
        # the third channel is the sum of the first two plus 3e-6 of a third source:
        # the maximum method stops at its energy floor after 2 steps (7.8e-13 of the
        # first energy is left), PCA keeps the third eigenvalue (1.02e-12 of the first)
        rng = np.random.default_rng(2)
        s = np.zeros((3, 3000))
        for row in s:
            row[rng.choice(3000, 30, replace=False)] = rng.uniform(0.5, 1.5, 30)
        table = tmp_path / "rank.txt"
        write_matrix_text(table, np.vstack([s[0], s[1], s[0] + s[1] + 3e-6 * s[2]]))
        args = ("--method", method, "--compare", tmp_path / "c.txt", tmp_path / "e.txt")
        assert run("separate", table, *args) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("phasemax: error: ")
        assert message in err

    @pytest.mark.parametrize(
        "method, label", [({"method": "pca"}, "pca"), ({**MAXIMUM, "whitening": "none"}, "maximum-none")]
    )
    def test_method_finding_fewer_sources_than_the_fixture_exits_4(self, tmp_path, capsys, method, label):
        # a singular mixing of three sources: both methods find two
        fixture = {"n_samples": 100, "sources": [[PULSE], [{**PULSE, "center": 20}], [{**PULSE, "center": 80}]]}
        config = {"fixture": fixture, "mixing": [[1, 0, 1], [0, 1, 1], [1, 1, 2]], "noise_sd": [0],
                  "n_runs": 1, "methods": [method]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run("montecarlo", "--config", cfg, tmp_path / "out.csv") == 4
        assert capsys.readouterr().err == f"phasemax: error: {label} at noise sd 0 found 2 estimates for 3 sources\n"

    @pytest.mark.parametrize("flags, channel", [((), 2), (("--order", "2,1"), 1), (("--order", " 2, 1"), 1)])
    def test_dependent_channel_is_named_in_its_input_numbering(self, tmp_path, capsys, flags, channel):
        table = tmp_path / "dep.txt"
        table.write_text("1 2\n2 4\n3 6\n")
        assert run("separate", table, "--whiten", "gram-schmidt", *flags, tmp_path / "out.txt") == 4
        err = capsys.readouterr().err
        assert err.startswith(f"phasemax: error: channel {channel} is linearly dependent")

    @pytest.mark.parametrize("order", ["a,b", "1,,2", "1.5,2", "True,2"])
    def test_non_integer_order_exits_2(self, tmp_path, capsys, mixture_file, order):
        args = ("--whiten", "gram-schmidt", "--order", order, tmp_path / "out.txt")
        assert run("separate", mixture_file, *args) == 2
        self.assert_clean_error(capsys)

    @pytest.mark.parametrize(
        "flags",
        [
            ("--whiten", "none", "--order", "2,1"),
            ("--whiten", "pca", "--order", "2,1"),
            ("--method", "pca", "--order", "2,1"),
        ],
    )
    def test_order_without_gram_schmidt_exits_2(self, tmp_path, capsys, mixture_file, flags):
        out = tmp_path / "out.txt"
        assert run("separate", mixture_file, *flags, out) == 2
        self.assert_clean_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("sd", ["-0.5", "nan", "inf"])
    def test_bad_noise_sd_exits_2(self, tmp_path, capsys, sd):
        out = tmp_path / "out.txt"
        assert run("gen", "--preset", "disjoint", "--noise-sd", sd, out) == 2
        assert capsys.readouterr().err == f"phasemax: error: noise sd must be finite and >= 0, got {sd}\n"
        assert not out.exists()

    def test_integer_over_4300_digits_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"preset": "disjoint", "noise_sd": 1' + "0" * 5000 + "}")
        assert run("gen", "--config", cfg, tmp_path / "out") == 2
        self.assert_clean_error(capsys)

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"preset": "disjoint\xff"}')
        assert run("gen", "--config", cfg, tmp_path / "out") == 2
        self.assert_clean_error(capsys)

    def test_overflowing_energy_exits_4(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_text("1e200 1\n1 1e200\n3 2\n")  # finite, but the squared radii overflow
        with np.errstate(over="ignore"):
            assert run("separate", big, tmp_path / "out.txt") == 4
        self.assert_clean_error(capsys)

    @pytest.mark.parametrize("compare", [False, True], ids=["alone", "compare"])
    @pytest.mark.parametrize(
        "flags",
        [("--whiten", "none"), ("--whiten", "gram-schmidt"), ("--whiten", "pca"), ("--method", "pca")],
        ids=["none", "gram-schmidt", "pca-whitening", "pca-baseline"],
    )
    def test_overflowing_energy_gives_one_message_on_every_route(self, tmp_path, capsys, flags, compare):
        big = tmp_path / "big.txt"
        big.write_bytes(OVERFLOW_TABLE)
        out = tmp_path / "out.txt"
        extra = ("--compare", tmp_path / "c.txt") if compare else ()
        assert run("separate", big, *flags, *extra, out) == 4
        assert capsys.readouterr().err == "phasemax: error: signal energy overflows float64; rescale the input\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["max", "pca"])
    def test_zero_table_exits_4_with_one_message_for_both_methods(self, tmp_path, capsys, method):
        zero = tmp_path / "zero.txt"
        zero.write_text("0 0\n0 0\n")
        out = tmp_path / "out.txt"
        assert run("separate", zero, "--method", method, out) == 4
        assert capsys.readouterr().err == "phasemax: error: signal is identically zero\n"
        assert not out.exists()

    def test_overflowing_gram_schmidt_whitening_exits_4(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_bytes(OVERFLOW_TABLE)
        out = tmp_path / "out.txt"
        assert run("separate", big, "--whiten", "gram-schmidt", "--order", "2,1", out) == 4
        self.assert_clean_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["phase", "evaluate"])
    def test_overflowing_radii_or_correlation_sums_exit_4(self, tmp_path, capsys, command):
        big = tmp_path / "big.txt"
        big.write_bytes(OVERFLOW_TABLE)
        out = tmp_path / "out.txt"
        args = (big, big, "--out", out) if command == "evaluate" else (big, out)
        assert run(command, *args) == 4
        self.assert_clean_error(capsys)
        assert not out.exists()

    def test_negative_noise_seed_exits_2(self, tmp_path, capsys):
        args = ("--preset", "disjoint", "--noise-sd", "0.1", "--seed", "-1", tmp_path / "out.txt")
        assert run("gen", *args) == 2
        self.assert_clean_error(capsys)

    def test_every_error_type_has_a_documented_code(self):
        assert sorted(c.__name__ for c in ERROR_TYPES) == sorted(EXIT_CODES)

    @pytest.mark.parametrize("error", ERROR_TYPES, ids=lambda c: c.__name__)
    def test_every_error_type_exits_with_its_code(self, tmp_path, capsys, monkeypatch, error):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "_cmd_edf", fail)
        assert run("edf", tmp_path / "in.edf", tmp_path / "out.txt") == EXIT_CODES[error.__name__]
        err = capsys.readouterr().err
        assert err.startswith("phasemax: error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("extra", [("--preset", "disjoint"), ("--n-samples", "50")])
    def test_gen_config_with_preset_or_n_samples_exits_2(self, tmp_path, capsys, extra):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "correlated"}))
        out = tmp_path / "out.txt"
        assert run("gen", "--config", cfg, *extra, out) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_failed_sample_allocation_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "zeros", no_memory)
        out = tmp_path / "out.txt"
        assert run("gen", "--preset", "disjoint", "--n-samples", "5000", out) == 2
        err = capsys.readouterr().err
        assert err == (
            "phasemax: error: n_samples 5000 is too large: "
            "2 x 5000 float64 samples cannot be allocated\n"
        )
        assert not out.exists()

    def test_n_samples_beyond_float64_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out.txt"
        assert run("gen", "--preset", "disjoint", "--n-samples", 10**400, out) == 2
        assert capsys.readouterr().err.startswith("phasemax: error: --n-samples: ")
        assert not out.exists()

    def test_gen_without_config_or_preset_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out.txt"
        assert run("gen", out) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["separate", "phase", "evaluate"])
    def test_non_ascii_matrix_exits_3(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1 2\n3 \xff\n")
        out = tmp_path / "out.txt"
        args = (bad, bad, "--out", out) if command == "evaluate" else (bad, out)
        assert run(command, *args) == 3
        self.assert_clean_error(capsys)


class TestStderrOfAFreshProcess:
    """Run as ``python -m phasemax.cli``, with Python's default warning filters."""

    @pytest.mark.parametrize("command", ["separate", "phase", "evaluate"])
    def test_overflow_prints_one_error_line_and_no_warning(self, tmp_path, command):
        big = tmp_path / "big.txt"
        big.write_bytes(OVERFLOW_TABLE)
        out = tmp_path / "out.txt"
        args = [big, big, "--out", out] if command == "evaluate" else [big, out]
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "default"}
        proc = subprocess.run(
            [sys.executable, "-m", "phasemax.cli", command, *map(str, args)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("phasemax: error:")


# One process runs every command in turn; the table it reads is an 8 x 50 000
# sparse mixture, long enough that OpenBLAS would split a whole-row dot product
# across threads.
THREAD_SCRIPT = """
import json
import numpy as np
from phasemax.cli import main
from phasemax.ingest import write_matrix_text
rng = np.random.default_rng(0)
sources = np.zeros((8, 50_000))
sources[rng.integers(8, size=400), rng.choice(50_000, 400, replace=False)] = rng.standard_normal(400)
write_matrix_text("s.txt", sources)
write_matrix_text("m.txt", rng.standard_normal((8, 8)) @ sources)
with open("mc.json", "w") as fh:
    json.dump({"preset": "disjoint", "noise_sd": [0.01], "n_runs": 3, "methods": [{"method": "pca"}]}, fh)
for argv in [
    ["gen", "--preset", "disjoint", "--n-samples", "50000", "--noise-sd", "0.01", "g.txt"],
    ["phase", "g.txt", "phase.txt"],
    ["separate", "m.txt", "--whiten", "pca", "--out-directions", "wpd.txt", "--compare", "wpc.txt", "wpe.txt"],
    ["separate", "m.txt", "--method", "pca", "--out-directions", "ppd.txt", "ppe.txt"],
    ["separate", "m.txt", "--whiten", "gram-schmidt", "--out-directions", "gsd.txt", "--compare", "gsc.txt", "gse.txt"],
    ["separate", "m.txt", "--out-directions", "nd.txt", "ne.txt"],
    ["evaluate", "s.txt", "wpe.txt", "--out", "wpr.txt"],
    ["montecarlo", "--config", "mc.json", "mc.csv"],
]:
    assert main(argv) == 0, argv
"""


def thread_count_outputs(tmp_path, script, *args):
    """Every file ``script`` writes, run with ``args`` in one fresh process per BLAS thread count, 1 and 2."""
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = {}
    for threads in ("1", "2"):
        work = tmp_path / threads
        work.mkdir()
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
        proc = subprocess.run(
            [sys.executable, "-c", script, *map(str, args)],
            cwd=work,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        outputs[threads] = {path.name: path.read_bytes() for path in sorted(work.iterdir())}
    return outputs


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    outputs = thread_count_outputs(tmp_path, THREAD_SCRIPT)
    assert len(outputs["1"]) == 17
    assert [name for name in outputs["1"] if outputs["1"][name] != outputs["2"][name]] == []


# (seed, channels, samples) of sparse tables long enough that OpenBLAS splits
# whole-row work across threads; odd lengths end in a partial column block.
THREAD_TABLES = [(11, 2, 20_000), (12, 3, 24_577), (13, 5, 30_001), (14, 8, 20_480)]

# One process separates every table it is given, by both PCA routes.
THREAD_TABLES_SCRIPT = """
import sys
from pathlib import Path
from phasemax.cli import main
for table in sys.argv[1:]:
    name = Path(table).stem
    for argv in [
        ["separate", table, "--whiten", "pca", "--out-directions", f"{name}-wd.txt", "--compare", f"{name}-wc.txt", f"{name}-we.txt"],
        ["separate", table, "--method", "pca", "--out-directions", f"{name}-pd.txt", f"{name}-pe.txt"],
    ]:
        assert main(argv) == 0, argv
"""


def test_generated_tables_do_not_depend_on_the_blas_thread_count(tmp_path):
    tables = []
    for seed, n, m in THREAD_TABLES:
        tables.append(tmp_path / f"table{seed}.txt")
        write_matrix_text(tables[-1], sparse_table(seed, n, m))
    outputs = thread_count_outputs(tmp_path, THREAD_TABLES_SCRIPT, *tables)
    assert len(outputs["1"]) == 5 * len(THREAD_TABLES)
    assert [name for name in outputs["1"] if outputs["1"][name] != outputs["2"][name]] == []
