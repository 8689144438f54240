import numpy as np
import pytest

from phasemax.errors import (
    MalformedHeaderError,
    OutOfBoundsError,
    ParseError,
    RaggedRowsError,
    TruncatedDataError,
    UnsupportedFeatureError,
)
from phasemax.ingest import (
    Recording,
    read_edf,
    read_edf_header,
    read_matrix_text,
    select,
    write_edf,
    write_matrix_text,
)
from phasemax.signals import MultichannelSignal


# ---------------------------------------------------------------------------
# Delimited text
# ---------------------------------------------------------------------------


class TestReadMatrixText:
    def test_basic_table(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n3 4\n5 6\n")
        rec = read_matrix_text(path)
        assert rec.signal.n_channels == 2 and rec.signal.n_samples == 3
        np.testing.assert_array_equal(rec.signal.data, [[1, 3, 5], [2, 4, 6]])
        assert rec.labels == ("ch1", "ch2")

    def test_max_samples_truncates(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("".join(f"{i} {i + 0.5}\n" for i in range(2000)))
        rec = read_matrix_text(path, max_samples=1000)
        assert rec.signal.n_samples == 1000

    def test_header_row_detected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("lead1 lead2\n1 2\n3 4\n")
        rec = read_matrix_text(path)
        assert rec.labels == ("lead1", "lead2")
        assert rec.signal.n_samples == 2

    def test_skip_columns_drops_time_column(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0.0 10 20\n0.1 11 21\n")
        rec = read_matrix_text(path, skip_columns=1)
        assert rec.signal.n_channels == 2
        np.testing.assert_array_equal(rec.signal.data[0], [10, 11])

    def test_comma_delimiter(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        rec = read_matrix_text(path, delimiter=",")
        np.testing.assert_array_equal(rec.signal.data, [[1, 3], [2, 4]])

    def test_scientific_notation(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1e-3 2.5E+2\n-1.5e0 0\n")
        rec = read_matrix_text(path)
        np.testing.assert_allclose(rec.signal.data[:, 0], [1e-3, 2.5e2])

    def test_parse_error_names_line_and_column(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n3 oops\n")
        with pytest.raises(ParseError) as info:
            read_matrix_text(path)
        assert info.value.line == 2 and info.value.column == 2

    def test_non_ascii_byte_names_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"1 2\n" * 20000 + b"5 \xff\n")  # past any read buffer
        with pytest.raises(ParseError) as info:
            read_matrix_text(path)
        assert info.value.line == 20001
        assert "0xff" in str(info.value)

    @pytest.mark.parametrize("max_samples", [1, 15, 16, 17, 95, 96, 500])
    def test_max_samples_equals_slice_of_full_read(self, tmp_path, max_samples):
        path = tmp_path / "multi.edf"
        write_edf(path, synthetic_recording(3, 96, rate=16.0), samples_per_record=16)
        full = read_edf(path, channels=[3, 1]).signal.data
        part = read_edf(path, channels=[3, 1], max_samples=max_samples).signal.data
        np.testing.assert_array_equal(part, full[:, :max_samples])

    @pytest.mark.parametrize("max_samples", [0, -10])
    def test_non_positive_max_samples_rejected(self, tmp_path, max_samples):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n3 4\n")
        with pytest.raises(OutOfBoundsError):
            read_matrix_text(path, max_samples=max_samples)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n3 4 5\n")
        with pytest.raises(RaggedRowsError):
            read_matrix_text(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("\n\n")
        with pytest.raises(ParseError):
            read_matrix_text(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix_text(tmp_path / "absent.txt")

    def test_write_read_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(91)
        data = rng.normal(size=(3, 40)) * 10.0 ** rng.integers(-8, 8, size=(3, 40))
        path = tmp_path / "round.txt"
        write_matrix_text(path, data)
        rec = read_matrix_text(path)
        np.testing.assert_array_equal(rec.signal.data, data)

    def test_write_read_round_trip_with_labels(self, tmp_path):
        path = tmp_path / "round.txt"
        write_matrix_text(path, np.array([[1.5, 2.5]]), labels=["only"])
        rec = read_matrix_text(path)
        assert rec.labels == ("only",)
        np.testing.assert_array_equal(rec.signal.data, [[1.5, 2.5]])


# Values whose text is easy to get wrong: signed zero, the smallest
# subnormal, the edge of the range, inexact decimals, integral values.
AWKWARD = np.array(
    [[-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0], [0.0, 17.0, -1e308, 2.0**53, -4.0]]
)


def oracle_lines(data, labels=None, delimiter=" "):
    """The table written one value at a time, as ``format(v, ".17g")``."""
    header = [] if labels is None else [delimiter.join(labels)]
    rows = [delimiter.join(format(float(v), ".17g") for v in row) for row in np.asarray(data).T]
    return "".join(line + "\n" for line in header + rows)


class TestWriteMatrixText:
    @pytest.mark.parametrize("labels", [None, ["a", "b"]])
    @pytest.mark.parametrize("delimiter", [" ", ","])
    def test_matches_per_value_oracle(self, tmp_path, labels, delimiter):
        path = tmp_path / "awkward.txt"
        write_matrix_text(path, AWKWARD, labels=labels, delimiter=delimiter)
        assert path.read_bytes() == oracle_lines(AWKWARD, labels, delimiter).encode("ascii")

    def test_awkward_values_round_trip_exactly(self, tmp_path):
        path = tmp_path / "awkward.txt"
        write_matrix_text(path, AWKWARD)
        back = read_matrix_text(path).signal.data
        np.testing.assert_array_equal(back, AWKWARD)
        assert np.signbit(back[0, 0]) and not np.signbit(back[1, 0])

    def test_one_dimensional_input_is_one_channel(self, tmp_path):
        path = tmp_path / "one.txt"
        write_matrix_text(path, np.array([1.5, -2.0, 0.25]))
        assert path.read_text() == "1.5\n-2\n0.25\n"
        np.testing.assert_array_equal(read_matrix_text(path).signal.data, [[1.5, -2.0, 0.25]])


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def make_recording(n=8, m=1000):
    rng = np.random.default_rng(92)
    return Recording(
        MultichannelSignal(rng.normal(size=(n, m))),
        tuple(f"lead{i}" for i in range(1, n + 1)),
        500.0,
    )


class TestSelect:
    def test_full_selection_is_identity(self):
        rec = make_recording()
        out = select(rec, range(1, 9))
        np.testing.assert_array_equal(out.signal.data, rec.signal.data)
        assert out.labels == rec.labels

    def test_leads_1_to_4_first_300_samples(self):
        rec = make_recording(8, 1000)
        out = select(rec, [1, 2, 3, 4], (1, 300))
        assert out.signal.data.shape == (4, 300)
        np.testing.assert_array_equal(out.signal.data, rec.signal.data[:4, :300])
        assert out.labels == ("lead1", "lead2", "lead3", "lead4")

    def test_empty_channel_list_rejected(self):
        with pytest.raises(OutOfBoundsError):
            select(make_recording(), [])

    def test_out_of_range_channel_rejected(self):
        with pytest.raises(OutOfBoundsError):
            select(make_recording(), [9])

    def test_bad_sample_range_rejected(self):
        with pytest.raises(OutOfBoundsError):
            select(make_recording(), [1], (0, 10))
        with pytest.raises(OutOfBoundsError):
            select(make_recording(), [1], (5, 2000))

    def test_selection_composes(self):
        rec = make_recording(6, 400)
        once = select(select(rec, [2, 4, 6], (101, 300)), [3, 1], (51, 150))
        # channel composition: [2,4,6] then [3,1] -> [6,2]
        direct = select(rec, [6, 2], (151, 250))
        np.testing.assert_array_equal(once.signal.data, direct.signal.data)
        assert once.labels == direct.labels


# ---------------------------------------------------------------------------
# EDF
# ---------------------------------------------------------------------------


def synthetic_recording(n=2, m=64, rate=32.0, seed=93):
    rng = np.random.default_rng(seed)
    data = np.cumsum(rng.normal(size=(n, m)), axis=1)
    return Recording(
        MultichannelSignal(data), tuple(f"sig{i}" for i in range(n)), rate
    )


class TestEdf:
    def test_scaling_formula_spot_check(self, tmp_path):
        # digital 0 with dig range [-32768, 32767] and phys range [-1, 1]
        # maps to 1/65535 under the standard affine formula
        rec = Recording(MultichannelSignal(np.zeros((1, 4)) + 1.0 / 65535.0), ("x",), 1.0)
        path = tmp_path / "one.edf"
        write_edf(path, rec, physical_range=(-1.0, 1.0))
        back = read_edf(path)
        expected = (0 - (-32768)) * (1.0 - (-1.0)) / (32767 - (-32768)) + (-1.0)
        assert expected == pytest.approx(1.0 / 65535.0, abs=1e-12)
        np.testing.assert_allclose(back.signal.data, expected, atol=1e-12)

    def test_round_trip_within_one_quantum(self, tmp_path):
        rec = synthetic_recording(2, 64)
        path = tmp_path / "two.edf"
        write_edf(path, rec)
        back = read_edf(path)
        assert back.labels == rec.labels
        assert back.sample_rate == pytest.approx(rec.sample_rate)
        for i in range(2):
            span = rec.signal.data[i].max() - rec.signal.data[i].min()
            quantum = span / 65535
            assert np.max(np.abs(back.signal.data[i] - rec.signal.data[i])) <= quantum

    def test_round_trip_exact_at_digital_level(self, tmp_path):
        rec = synthetic_recording(2, 64)
        a, b = tmp_path / "a.edf", tmp_path / "b.edf"
        write_edf(a, rec)
        write_edf(b, read_edf(a), physical_range=None)
        # re-reading what was already quantized must be idempotent
        first = read_edf(a)
        second = read_edf(b)
        np.testing.assert_allclose(second.signal.data, first.signal.data, atol=1e-9)

    def test_multi_record_layout(self, tmp_path):
        rec = synthetic_recording(3, 96, rate=16.0)
        path = tmp_path / "multi.edf"
        write_edf(path, rec, samples_per_record=16)  # 6 records
        back = read_edf(path)
        assert back.signal.data.shape == (3, 96)
        span = np.ptp(rec.signal.data)
        np.testing.assert_allclose(back.signal.data, rec.signal.data, atol=span / 65535)

    def test_channel_selection_by_index_and_label(self, tmp_path):
        rec = synthetic_recording(3, 32)
        path = tmp_path / "sel.edf"
        write_edf(path, rec)
        by_index = read_edf(path, channels=[3, 1])
        assert by_index.labels == ("sig2", "sig0")
        by_label = read_edf(path, channels=["sig2", "sig0"])
        np.testing.assert_array_equal(by_index.signal.data, by_label.signal.data)

    def test_max_samples(self, tmp_path):
        rec = synthetic_recording(2, 64)
        path = tmp_path / "trunc.edf"
        write_edf(path, rec)
        back = read_edf(path, max_samples=10)
        assert back.signal.n_samples == 10

    @pytest.mark.parametrize("max_samples", [1, 15, 16, 17, 95, 96, 500])
    def test_max_samples_equals_slice_of_full_read(self, tmp_path, max_samples):
        path = tmp_path / "multi.edf"
        write_edf(path, synthetic_recording(3, 96, rate=16.0), samples_per_record=16)
        full = read_edf(path, channels=[3, 1]).signal.data
        part = read_edf(path, channels=[3, 1], max_samples=max_samples).signal.data
        np.testing.assert_array_equal(part, full[:, :max_samples])

    @pytest.mark.parametrize("max_samples", [0, -10])
    def test_non_positive_max_samples_rejected(self, tmp_path, max_samples):
        path = tmp_path / "trunc.edf"
        write_edf(path, synthetic_recording(2, 20))
        with pytest.raises(OutOfBoundsError):
            read_edf(path, max_samples=max_samples)

    def test_header_fields(self, tmp_path):
        rec = synthetic_recording(2, 64, rate=32.0)
        path = tmp_path / "hdr.edf"
        write_edf(path, rec, samples_per_record=32)
        with open(path, "rb") as fh:
            header = read_edf_header(fh)
        assert header.n_signals == 2
        assert header.header_bytes == 256 + 256 * 2
        assert header.n_records == 2
        assert header.samples_per_record == (32, 32)
        assert header.digital_min == (-32768, -32768)

    def test_annotation_channel_rejected_when_selected(self, tmp_path):
        rec = Recording(
            MultichannelSignal(np.random.default_rng(5).normal(size=(2, 16))),
            ("real", "EDF Annotations"),
            8.0,
        )
        path = tmp_path / "annot.edf"
        write_edf(path, rec)
        with pytest.raises(UnsupportedFeatureError):
            read_edf(path, channels=[2])
        with pytest.raises(UnsupportedFeatureError):
            read_edf(path)  # default selection touches it too
        ok = read_edf(path, channels=[1])  # explicit real channel still works
        assert ok.labels == ("real",)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "sel.edf"
        write_edf(path, synthetic_recording(2, 16))
        with pytest.raises(OutOfBoundsError):
            read_edf(path, channels=["nope"])


def valid_edf_bytes(tmp_path):
    path = tmp_path / "base.edf"
    write_edf(path, synthetic_recording(2, 64))
    return bytearray(path.read_bytes())


class TestEdfMalformed:
    def test_short_file(self, tmp_path):
        path = tmp_path / "bad.edf"
        path.write_bytes(b"0       too short")
        with pytest.raises(MalformedHeaderError) as info:
            read_edf(path)
        assert info.value.field == "header"

    def test_non_numeric_signal_count(self, tmp_path):
        raw = valid_edf_bytes(tmp_path)
        raw[252:256] = b"abc "
        path = tmp_path / "bad.edf"
        path.write_bytes(raw)
        with pytest.raises(MalformedHeaderError) as info:
            read_edf(path)
        assert info.value.field == "n_signals"

    def test_wrong_header_bytes(self, tmp_path):
        raw = valid_edf_bytes(tmp_path)
        raw[184:192] = b"9999    "
        path = tmp_path / "bad.edf"
        path.write_bytes(raw)
        with pytest.raises(MalformedHeaderError) as info:
            read_edf(path)
        assert info.value.field == "header_bytes"

    def test_degenerate_digital_range(self, tmp_path):
        raw = valid_edf_bytes(tmp_path)
        # digital_min fields for 2 signals start at 256 + 2*(16+80+8+8+8)
        offset = 256 + 2 * (16 + 80 + 8 + 8 + 8)
        raw[offset : offset + 8] = b"32767   "
        path = tmp_path / "bad.edf"
        path.write_bytes(raw)
        with pytest.raises(MalformedHeaderError) as info:
            read_edf(path)
        assert info.value.field == "digital_range"

    @pytest.mark.parametrize(
        "duration", [b"0       ", b"-1      ", b"nan     "], ids=["zero", "negative", "nan"]
    )
    def test_non_positive_record_duration(self, tmp_path, duration):
        raw = valid_edf_bytes(tmp_path)
        raw[244:252] = duration
        path = tmp_path / "bad.edf"
        path.write_bytes(raw)
        with pytest.raises(MalformedHeaderError) as info:
            read_edf(path)
        assert info.value.field == "record_duration"

    def test_truncated_data_records(self, tmp_path):
        raw = valid_edf_bytes(tmp_path)
        path = tmp_path / "bad.edf"
        path.write_bytes(bytes(raw[:-10]))
        with pytest.raises(TruncatedDataError):
            read_edf(path)

    def test_truncated_after_wanted_records(self, tmp_path):
        # the first record is complete, the last one is cut short: a read
        # limited to the first record still reports the damaged file
        path = tmp_path / "multi.edf"
        write_edf(path, synthetic_recording(2, 64), samples_per_record=16)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(TruncatedDataError):
            read_edf(path, max_samples=5)

    def test_unknown_record_count_with_max_samples(self, tmp_path):
        path = tmp_path / "multi.edf"
        write_edf(path, synthetic_recording(2, 64), samples_per_record=16)
        raw = bytearray(path.read_bytes())
        raw[236:244] = b"-1      "
        path.write_bytes(bytes(raw[:-10]))  # 3 whole records and a partial one
        assert read_edf(path).signal.n_samples == 48
        assert read_edf(path, max_samples=40).signal.n_samples == 40
        assert read_edf(path, max_samples=60).signal.n_samples == 48

    def test_discontinuous_edfplus_rejected(self, tmp_path):
        raw = valid_edf_bytes(tmp_path)
        raw[192:197] = b"EDF+D"
        path = tmp_path / "bad.edf"
        path.write_bytes(raw)
        with pytest.raises(UnsupportedFeatureError):
            read_edf(path)

    def test_unknown_record_count_inferred(self, tmp_path):
        raw = valid_edf_bytes(tmp_path)
        raw[236:244] = b"-1      "
        path = tmp_path / "ok.edf"
        path.write_bytes(raw)
        rec = read_edf(path)
        assert rec.signal.n_samples == 64
