import os
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasemax import ingest
from phasemax.errors import (
    DimensionMismatchError,
    InvalidSpecError,
    MalformedHeaderError,
    NonFiniteError,
    OutOfBoundsError,
    ParseError,
    RaggedRowsError,
    TruncatedDataError,
    UnsupportedFeatureError,
)
from phasemax.ingest import (
    Recording,
    format_number,
    read_edf,
    read_edf_header,
    read_matrix_text,
    write_matrix_text,
)
from phasemax.signals import MultichannelSignal
from reference import write_edf


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

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_with_a_header_is_read_in_one_pass(self, tmp_path):
        # a pipe's size reads as 0, less than its header; it can be opened only once
        path = tmp_path / "pipe"
        os.mkfifo(path)
        labels = [f"lead{i}" for i in range(30)]
        text = " ".join(labels) + "\n" + " ".join(["1"] * 30) + "\n"
        writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
        read = {}
        reader = threading.Thread(target=lambda: read.update(rec=read_matrix_text(path)), daemon=True)
        writer.start()
        reader.start()
        reader.join(timeout=30)
        writer.join(timeout=30)
        assert not reader.is_alive() and not writer.is_alive()
        assert read["rec"].labels == tuple(labels)
        np.testing.assert_array_equal(read["rec"].signal.data, np.ones((30, 1)))

    @pytest.mark.parametrize("max_samples", [1, 15, 16, 17, 95, 96, 500])
    def test_max_samples_equals_slice_of_full_read(self, tmp_path, max_samples):
        path = tmp_path / "multi.edf"
        write_edf(path, synthetic_recording(3, 96, rate=16.0), samples_per_record=16)
        full = read_edf(path, channels=[3, 1]).signal.data
        part = read_edf(path, channels=[3, 1], max_samples=max_samples).signal.data
        np.testing.assert_array_equal(part, full[:, :max_samples])

    @pytest.mark.parametrize("delimiter", [";", "\t", " ", ""])
    def test_delimiter_other_than_whitespace_or_comma_rejected(self, tmp_path, delimiter):
        path = tmp_path / "m.txt"
        path.write_text("1;2\n3;4\n")
        with pytest.raises(InvalidSpecError):
            read_matrix_text(path, delimiter=delimiter)

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


# Values whose text is easy to get wrong, for tables a caller passes raw.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
           np.nan, np.inf, -np.inf, 0.1, -1.0 / 3.0, 2.0**53, 1e16, 123456789.0]


def oracle_lines(data, labels=None, delimiter=" "):
    """The table written one value at a time, as ``format(v, ".17g")``."""
    header = [] if labels is None else [delimiter.join(labels)]
    rows = [delimiter.join(format(float(v), ".17g") for v in row) for row in np.asarray(data).T]
    return "".join(line + "\n" for line in header + rows)


@st.composite
def channel_tables(draw):
    """N x M tables, or 1-D ones: the first channels each repeat at most
    M / 4 drawn values, the rest draw every value, so tables fall on both
    sides of the writer's cut, also with sparse channels before a varied one."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 40))
    n_sparse = draw(st.integers(0, n))
    value = st.one_of(st.sampled_from(SPECIAL), st.floats())
    rows = []
    for i in range(n):
        few = draw(st.lists(value, min_size=1, max_size=max(1, m // 4)))
        picks = st.sampled_from(few) if i < n_sparse else value
        rows.append(draw(st.lists(picks, min_size=m, max_size=m)))
    table = np.array(rows, dtype=float).reshape(n, m)
    return table[0] if n == 1 and draw(st.booleans()) else table


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

    @pytest.mark.parametrize("block", [1, 4, 5, 7, 10, 11])
    def test_block_boundaries_match_oracle(self, tmp_path, monkeypatch, block):
        # 2 x 5 values cut into blocks of whole rows; a block narrower than a row is one row
        monkeypatch.setattr(ingest, "_WRITE_BLOCK", block)
        path = tmp_path / "blocks.txt"
        write_matrix_text(path, AWKWARD, labels=["a", "b"])
        assert path.read_bytes() == oracle_lines(AWKWARD, ["a", "b"]).encode("ascii")

    @pytest.mark.parametrize("block", [1, 4, 5, 7, 10, 11, 40, 41])
    def test_gathered_block_boundaries_match_oracle(self, tmp_path, monkeypatch, block):
        # 2 x 20 values, 5 distinct per channel, so each block is gathered from
        # the table of texts, which is itself formatted in blocks of this size
        table = np.tile(AWKWARD, 4)
        assert ingest._distinct_codes(table) is not None
        monkeypatch.setattr(ingest, "_WRITE_BLOCK", block)
        path = tmp_path / "blocks.txt"
        write_matrix_text(path, table, labels=["a", "b"])
        assert path.read_bytes() == oracle_lines(table, ["a", "b"]).encode("ascii")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        table=channel_tables(),
        delimiter=st.sampled_from([" ", ","]),
        labelled=st.booleans(),
        block=st.sampled_from([1, 3, 8, 32768]),
    )
    # the special values, each channel with a quarter of its samples distinct
    @example(table=np.reshape(SPECIAL[:12] * 4, (3, 16)), delimiter=",", labelled=True, block=5)
    # sparse channels first, then one too varied: the fallback after two unique calls
    @example(
        table=np.array([[-0.0] * 8, [1e308, 5e-324] * 4, SPECIAL[:8]]),
        delimiter=" ",
        labelled=False,
        block=32768,
    )
    def test_matches_per_value_oracle_on_either_side_of_the_cut(
        self, table, delimiter, labelled, block
    ):
        rows = np.atleast_2d(table)
        gathered = all(4 * len(np.unique(row.view(np.int64))) <= rows.shape[1] for row in rows)
        assert (ingest._distinct_codes(rows) is not None) == gathered
        labels = [f"c{i}" for i in range(len(rows))] if labelled else None
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "_WRITE_BLOCK", block):
            path = Path(tmp) / "table.txt"
            write_matrix_text(path, table, labels=labels, delimiter=delimiter)
            written = path.read_bytes()
        assert written == oracle_lines(rows, labels, delimiter).encode("ascii")

    def test_no_samples_writes_only_the_labels(self, tmp_path):
        path = tmp_path / "empty.txt"
        write_matrix_text(path, np.empty((2, 0)), labels=["a", "b"])
        assert path.read_text() == "a b\n"

    def test_three_dimensional_input_rejected(self, tmp_path):
        with pytest.raises(DimensionMismatchError):
            write_matrix_text(tmp_path / "cube.txt", np.zeros((2, 2, 2)))

    def test_one_dimensional_input_is_one_channel(self, tmp_path):
        path = tmp_path / "one.txt"
        write_matrix_text(path, np.array([1.5, -2.0, 0.25]))
        assert path.read_text() == "1.5\n-2\n0.25\n"
        np.testing.assert_array_equal(read_matrix_text(path).signal.data, [[1.5, -2.0, 0.25]])

    @pytest.mark.parametrize("delimiter", ["\t", "%", "\0", ";", "", "  ", ", "])
    @pytest.mark.parametrize("table", [np.tile([[1.5], [3.0]], 8), AWKWARD], ids=["gathered", "formatted"])
    def test_delimiter_other_than_space_or_comma_rejected(self, tmp_path, table, delimiter):
        path = tmp_path / "delimited.txt"
        with pytest.raises(InvalidSpecError):
            write_matrix_text(path, table, delimiter=delimiter)
        assert not path.exists()

    def test_non_ascii_label_rejected_and_the_file_kept(self, tmp_path):
        path = tmp_path / "kept.txt"
        path.write_bytes(b"earlier\n")
        with pytest.raises(InvalidSpecError):
            write_matrix_text(path, AWKWARD, labels=["a", "é"])
        assert path.read_bytes() == b"earlier\n"

    @pytest.mark.parametrize(
        "labels, delimiter",
        [
            (["ECG I", "ECG II"], " "),  # read back as 4 columns: ragged
            (["ECG I", "ECG II"], ","),  # the reader strips and splits on whitespace runs
            (["a\tb", "c"], " "),
            (["1", "2"], " "),  # every label a number: read back as a data row
            (["1", "2"], ","),
            (["nan", "-inf"], " "),
            (["a"], " "),  # fewer labels than channels
            (["a", "b", "c"], " "),
            (["a", ""], " "),  # an empty label vanishes
            (["a", ""], ","),
            (["a,b", "c"], ","),  # the delimiter splits the label
        ],
    )
    def test_label_that_would_not_read_back_rejected_and_the_file_kept(
        self, tmp_path, labels, delimiter
    ):
        path = tmp_path / "kept.txt"
        path.write_bytes(b"earlier\n")
        with pytest.raises(InvalidSpecError):
            write_matrix_text(path, AWKWARD, labels=labels, delimiter=delimiter)
        assert path.read_bytes() == b"earlier\n"

    @pytest.mark.parametrize(
        "labels, delimiter",
        [
            (["ECG_I", "ECG_II"], " "),
            (["ECG_I", "ECG_II"], ","),
            (["1", "b"], " "),  # one label that is not a number makes the row a header
            (["x", "1e5"], ","),
            (["a,b", "c"], " "),  # a comma is no delimiter of a space-separated file
        ],
    )
    def test_accepted_labels_read_back(self, tmp_path, labels, delimiter):
        path = tmp_path / "labelled.txt"
        write_matrix_text(path, AWKWARD, labels=labels, delimiter=delimiter)
        back = read_matrix_text(path, delimiter=None if delimiter == " " else delimiter)
        assert back.labels == tuple(labels)
        np.testing.assert_array_equal(back.signal.data, AWKWARD)


def formatted(values):
    """Each value's text as ``_Formatter.words`` writes it, NULs dropped."""
    words = ingest._Formatter().words(np.asarray(values, dtype=float))
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in words]


# Exact decimal ties: 18 significant digits, the last a 5, rounded half to even.
TIES = [3 * 2.0**-24, 5 * 2.0**-24, 7 * 2.0**-24, 1e14 + 0.125, 1e14 + 0.375,
        1e14 + 0.625, 1e14 + 0.875, 123456789012345.625]


class TestFormatter:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(), max_size=64))
    def test_matches_format_number_on_floats(self, values):
        assert formatted(values) == [format_number(v) for v in values]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=64))
    def test_matches_format_number_on_bit_patterns(self, patterns):
        values = np.array(patterns, dtype=np.int64).view(np.float64)
        assert formatted(values) == [format_number(v) for v in values]

    def test_matches_format_number_on_edge_values(self):
        big = np.finfo(np.float64).max
        values = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                  np.finfo(np.float64).tiny, np.nextafter(np.finfo(np.float64).tiny, 0), big, -big,
                  1e-4, np.nextafter(1e-4, 0), 1e-5, 1e16, 1e17, 1e17 - 16, 1e-19, 0.1, 100.0]
        values += [10.0**j for j in range(-20, 25)]  # the float64 nearest each power of ten
        values += [np.nextafter(10.0**j, side) for j in range(-20, 25) for side in (0, np.inf)]
        values += [2.0**j for j in range(-1074, 1024)]
        values += [-v for v in values]
        assert formatted(values) == [format_number(v) for v in values]

    def test_exact_decimal_ties_go_through_percent(self):
        _, _, slow = ingest._Formatter()._decimal(np.array(TIES))
        assert slow.tolist() == list(range(len(TIES)))
        assert formatted(TIES) == [format_number(v) for v in TIES]
        # half to even, both ways
        assert formatted(TIES[3:5]) == ["100000000000000.12", "100000000000000.38"]

    def test_standard_normals_take_the_fast_path(self):
        values = np.random.default_rng(11).standard_normal(200_000)
        _, _, slow = ingest._Formatter()._decimal(values)
        assert slow.size == 0
        assert formatted(values) == [format_number(v) for v in values]


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

    @pytest.mark.parametrize(
        "channels, max_samples", [(None, None), (None, 200), ([3, 1], 77), ([2], 1)]
    )
    def test_physical_values_are_the_affine_formula_bitwise(self, tmp_path, channels, max_samples):
        # per-channel physical ranges, an asymmetric digital range, 3 records
        rng = np.random.default_rng(8)
        data = np.cumsum(rng.normal(size=(3, 288)), axis=1) * [[1.0], [1e-3], [250.0]]
        path = tmp_path / "affine.edf"
        rec = Recording(MultichannelSignal(data), ("a", "b", "c"), 96.0)
        write_edf(path, rec, digital_range=(-1000, 3000), samples_per_record=96)
        with open(path, "rb") as fh:
            header = read_edf_header(fh)
            digital = np.frombuffer(fh.read(), "<i2").reshape(3, 3, 96)  # record, signal, sample
        got = read_edf(path, channels=channels, max_samples=max_samples).signal.data
        selected = range(3) if channels is None else [c - 1 for c in channels]
        assert got.shape == (len(selected), max_samples or 288)
        for row, i in zip(got, selected):
            d = digital[:, i].reshape(-1).astype(float)
            span = (header.physical_max[i] - header.physical_min[i]) / (
                header.digital_max[i] - header.digital_min[i]
            )
            expected = (d - header.digital_min[i]) * span + header.physical_min[i]
            assert row.tobytes() == expected[:max_samples].tobytes()

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

    def test_header_bytes_follow_the_edf_layout(self, tmp_path):
        # every field spelled out at its EDF specification width, in file order
        rec = Recording(MultichannelSignal([[0.0, 1, 2, 3], [4, 5, 6, 7]]), ("a", "lead2"), 2.0)
        path = tmp_path / "golden.edf"
        write_edf(path, rec, physical_range=(-1, 1), samples_per_record=2)
        expected = b"".join(
            (
                b"0".ljust(8),  # version, bytes 0-7
                b"synthetic".ljust(80),  # patient id, 8-87
                b"phasemax test writer".ljust(80),  # recording id, 88-167
                b"01.01.00",  # start date, 168-175
                b"00.00.00",  # start time, 176-183
                b"768".ljust(8),  # header bytes, 184-191
                b" " * 44,  # reserved, 192-235
                b"2".ljust(8),  # data records, 236-243
                b"1".ljust(8),  # record duration in s, 244-251
                b"2".ljust(4),  # signals, 252-255
                b"a".ljust(16) + b"lead2".ljust(16),  # labels, 256-287
                b" " * 160,  # transducer types, 80 each
                b" " * 16,  # physical dimensions, 8 each
                b"-1".ljust(8) * 2,  # physical minima
                b"1".ljust(8) * 2,  # physical maxima
                b"-32768".ljust(8) * 2,  # digital minima
                b"32767".ljust(8) * 2,  # digital maxima
                b" " * 160,  # prefiltering, 80 each
                b"2".ljust(8) * 2,  # samples per record
                b" " * 64,  # reserved, 32 each
            )
        )
        assert len(expected) == 256 + 2 * 256
        assert path.read_bytes()[:768] == expected

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

    @pytest.mark.parametrize("duration", [b"x       ", b"0       "], ids=["text", "zero"])
    def test_bad_record_duration_reported_before_bad_signal_count(self, tmp_path, duration):
        raw = valid_edf_bytes(tmp_path)
        raw[244:252] = duration
        raw[252:256] = b"abc "
        path = tmp_path / "bad.edf"
        path.write_bytes(raw)
        with pytest.raises(MalformedHeaderError) as info:
            read_edf(path)
        assert info.value.field == "record_duration"

    def test_infinite_physical_range_is_non_finite(self, tmp_path):
        raw = valid_edf_bytes(tmp_path)
        # physical_min then physical_max of 2 signals, from 256 + 2*(16+80+8)
        offset = 256 + 2 * (16 + 80 + 8)
        raw[offset : offset + 32] = b"-1e308  -1e308  1e308   1e308   "
        path = tmp_path / "bad.edf"
        path.write_bytes(raw)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
            read_edf(path)

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
