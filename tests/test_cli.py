import json
from pathlib import Path

import numpy as np
import pytest

from phasemax.cli import main, parse_channels, parse_mixing
from phasemax.errors import InvalidSpecError
from phasemax.ingest import read_matrix_text, write_edf, write_matrix_text
from phasemax.ingest import Recording
from phasemax.separation import radius_series
from phasemax.signals import (
    OBLIQUE_MIXING,
    MultichannelSignal,
    disjoint_sources_spec,
    generate_sources,
    mix,
)


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

    def test_zero_input_exits_4(self, tmp_path):
        path = tmp_path / "zero.txt"
        write_matrix_text(path, np.zeros((2, 50)))
        assert run("separate", path, "--method", "max", tmp_path / "e.txt") == 4

    def test_whiten_with_pca_method_exits_2(self, tmp_path, sources_file):
        code = run(
            "separate", sources_file, "--method", "pca", "--whiten", "pca", tmp_path / "e.txt"
        )
        assert code == 2

    def test_missing_input_exits_3(self, tmp_path):
        assert run("separate", tmp_path / "absent.txt", tmp_path / "e.txt") == 3

    def test_usage_error_exits_2(self, tmp_path, sources_file):
        assert run("separate", sources_file, "--method", "bogus", tmp_path / "e.txt") == 2


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
}


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

    @pytest.mark.parametrize("order", ["a,b", "1,,2", "1.5,2", "True,2"])
    def test_non_integer_order_exits_2(self, tmp_path, capsys, mixture_file, order):
        args = ("--whiten", "gram-schmidt", "--order", order, tmp_path / "out.txt")
        assert run("separate", mixture_file, *args) == 2
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

    def test_negative_noise_seed_exits_2(self, tmp_path, capsys):
        args = ("--preset", "disjoint", "--noise-sd", "0.1", "--seed", "-1", tmp_path / "out.txt")
        assert run("gen", *args) == 2
        self.assert_clean_error(capsys)

    @pytest.mark.parametrize("command", ["separate", "phase", "evaluate"])
    def test_non_ascii_matrix_exits_3(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1 2\n3 \xff\n")
        out = tmp_path / "out.txt"
        args = (bad, bad, "--out", out) if command == "evaluate" else (bad, out)
        assert run(command, *args) == 3
        self.assert_clean_error(capsys)
