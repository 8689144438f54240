"""``read_matrix_text`` against the token-by-token reader it falls back to.

The chunk parser must give exactly what the token loop gives: the same
array (sign of zero included), the same labels, or the same exception
with the same message, line and column, whatever the chunk size and the
number of threads.  The explicit examples pin every input on which
strtold and ``float()`` are known to differ by themselves (hexadecimal
and ``nan(...)`` tokens, tokens strtold reads only in part, and the
values that long double rounds to a float64 midpoint), so each one has
to be routed to the token loop or read again by ``float()``.
"""

import decimal
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pytest

from phasemax import ingest
from phasemax.ingest import _read_tokens, read_matrix_text

DIFFERENTIAL = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

NUMBERS = ["0", "1", "-1", "-0", "-0.0", "2.5", "3e-7", "1e308", "5e-324", "1e-400", ".5", "1.", "+4"]
ODD_TOKENS = ["nan", "-nan", "-inf", "Infinity", "1_0", "#", "#3", "x", "1e", "0x10", "", " ", "\t", "\x1f"]
LABELS = ["a", "lead1", "t"]
ODD_LABELS = ["x y", "#", "1_0"]
LINE_ENDS = ["\n", "\r\n", "\r"]
ODD_LINE_ENDS = ["\f", "\v", "\x1c", "\x1e"]

number = st.one_of(
    st.sampled_from(NUMBERS),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
)


SEPARATORS = {None: [" ", "  ", "\t", " \t"], ",": [",", ", ", " ,"]}


@st.composite
def table_bytes(draw, delimiter):
    """``(bytes, delimiter)``: rectangular numeric rows; half the tables also get
    odd tokens, rows, separators and bytes."""
    odd = draw(st.booleans())
    token = st.one_of(number, st.sampled_from(ODD_TOKENS)) if odd else number
    line_end = st.sampled_from(LINE_ENDS + ODD_LINE_ENDS if odd else LINE_ENDS)
    width = draw(st.integers(1, 4))
    sep = draw(st.sampled_from(SEPARATORS[delimiter] + (SEPARATORS[","] if odd else [])))
    lines = []
    if draw(st.booleans()):
        label = st.sampled_from(LABELS + ODD_LABELS if odd else LABELS)
        lines.append(sep.join(draw(label) for _ in range(width)))
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["row"] * 6 + (["blank", "ragged"] if odd else ["blank"])))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", ",", "\x1f"] if odd else [""])))
            continue
        n = width if kind == "row" else draw(st.integers(1, 5))
        lines.append(sep.join(draw(token) for _ in range(n)))
    ends = [draw(line_end) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no line end after the last row
    raw = text.encode("ascii")
    if odd and draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3\xa9", b"\x85"])) + raw[at:]
    return raw, delimiter


def outcome(reader, path, delimiter, skip_columns):
    """The array and labels a reader returns, or what it raises."""
    try:
        rec = reader(path, delimiter, skip_columns)
    except Exception as exc:  # every class is compared, not only the package's own
        return ("raised", type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))
    return ("read", rec.signal.data, rec.labels)


def assert_same(raw, delimiter, skip_columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.txt"
        path.write_bytes(raw)
        slow = outcome(_read_tokens, path, delimiter, skip_columns)
        assert_outcome(outcome(read_matrix_text, path, delimiter, skip_columns), slow)
        # about five chunks, on four threads
        with mock.patch.object(ingest, "_CHUNK", len(raw) // 4 + 1), mock.patch.object(
            os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, create=True
        ):
            assert_outcome(outcome(read_matrix_text, path, delimiter, skip_columns), slow)


def assert_outcome(fast, slow):
    assert fast[0] == slow[0], (fast, slow)
    if fast[0] == "raised":
        assert fast == slow
        return
    _, data, labels = fast
    _, expected, expected_labels = slow
    assert labels == expected_labels
    assert data.shape == expected.shape
    assert data.flags.c_contiguous
    np.testing.assert_array_equal(data, expected)
    np.testing.assert_array_equal(np.signbit(data), np.signbit(expected))


@DIFFERENTIAL
@given(
    table=st.sampled_from([None, ","]).flatmap(table_bytes),
    skip_columns=st.integers(0, 2),
)
@example(table=(b"1_0 2\n3 4\n", None), skip_columns=0)
@example(table=(b"a b\n1_0 2\n", None), skip_columns=0)
@example(table=(b"1 2\n3 #4\n", None), skip_columns=0)
@example(table=(b"1,2\n#,4\n", ","), skip_columns=0)
@example(table=(b"1 2\f3 4\n", None), skip_columns=0)
@example(table=(b"1 2\x0b3 4\x1c5 6\x1d7 8\x1e", None), skip_columns=1)
@example(table=(b"a b\r1 2\r3 4\r", None), skip_columns=0)
@example(table=(b"1,2\r3,4", ","), skip_columns=0)
@example(table=(b"1,2\n, ,\n3,4\n", ","), skip_columns=0)
@example(table=(b"1,2\n \n\x1f\n3,4\n", ","), skip_columns=0)
@example(table=(b" \n1,2\n", ","), skip_columns=0)
@example(table=(b"a,b\n\t\n1,2\n\t,\n", ","), skip_columns=0)
@example(table=(b"\t\n a,b\n1,2\n", ","), skip_columns=1)
@example(table=(b"", None), skip_columns=0)
@example(table=(b"", ","), skip_columns=0)
@example(table=(b"a b\n", None), skip_columns=0)
@example(table=(b"a,b\n\n", ","), skip_columns=0)
@example(table=(b"1 2\n3 4\n5 \xff\n", None), skip_columns=0)
@example(table=(b"1 2\n3 4\n5\n", None), skip_columns=0)
@example(table=(b"a b c\n1 2\n3 4\n", None), skip_columns=0)
@example(table=(b"a,b,c\n1,2\n", ","), skip_columns=0)
@example(table=(b"a b\n1 2 3\n", None), skip_columns=0)
@example(table=(b"-0 0\n-0.0 5e-324\n", None), skip_columns=0)
@example(table=(b"1 2\n3 4\n", None), skip_columns=2)
@example(table=(b"1 nan\n", None), skip_columns=0)
@example(table=(b"-nan 1\n", None), skip_columns=0)
@example(table=(b"-nan,1\n", ","), skip_columns=0)
@example(table=(b"0x1p3 2\n", None), skip_columns=1)
@example(table=(b"nan(1) 2\n", None), skip_columns=1)
@example(table=(b"nan(1),2\n", ","), skip_columns=1)
@example(table=(b"1-2 3\n", None), skip_columns=0)
@example(table=(b"1 1.5.5\n", None), skip_columns=0)
@example(table=(b"1 2\n1e5e5 3\n", None), skip_columns=0)
@example(table=(b"1 2\n3 1e", None), skip_columns=0)
@example(table=(b"9007199254740993.0000000001 9007199254740993\n", None), skip_columns=0)
@example(table=(b"2.4703282292062328e-324 2.4703282292062329e-324\n", None), skip_columns=0)
@example(table=(b"1.7976931348623159e308 1.7976931348623158e308\n", None), skip_columns=1)
@example(table=(b"1 1.797693134862315807937289714053e308\n", None), skip_columns=0)
@example(table=(b"1 2\r3 4\r", None), skip_columns=0)
@example(table=(b"1 2\r\n3 4\r\n", None), skip_columns=0)
@example(table=(b"a,b\r\n1,2\r\n3,4", ","), skip_columns=0)
@example(table=(b"1,2,3\n4,,5 6\n", ","), skip_columns=0)
@example(table=(b"1,2\n3 4\n", ","), skip_columns=0)
@example(table=(b"a\rb\n1 2\n", None), skip_columns=0)
@example(table=(b"a b\x0c1 2\n3 4 5 6\n", None), skip_columns=0)
@example(table=(b"1 2\n" * 300_000 + b"3\n4 5\n", None), skip_columns=0)
@example(table=(b"1.2345678901234567 2\n" * 3 + b"1 2\n" * 40, None), skip_columns=0)
@example(table=(b"12\n34\n56\n78\n", None), skip_columns=0)
def test_chunk_parser_matches_token_loop(table, skip_columns):
    assert_same(*table, skip_columns)


def halfway_texts(x):
    """Decimal texts at, just above and just below the midpoint of ``x`` and its
    float64 successor, whole and cut to 17 and 21 significant digits."""
    with decimal.localcontext() as context:
        context.prec = 1200
        lower, upper = decimal.Decimal(x), decimal.Decimal(float(np.nextafter(x, np.inf)))
        middle = (lower + upper) / 2
        nudge = (upper - lower) / 10**25
        texts = [f"{v:e}" for v in (middle, middle + nudge, middle - nudge)]
        context.prec = 17
        texts.append(f"{+middle:e}")
        context.prec = 21
        texts.append(f"{+middle:e}")
    return texts


@DIFFERENTIAL
@given(
    st.lists(
        st.floats(min_value=0, allow_infinity=False, allow_nan=False).filter(lambda v: v < np.finfo(float).max),
        min_size=1,
        max_size=8,
    )
)
@example([0.0, 5e-324, 2.0**-1022, 2.0**53, 1.0, 0.1, np.finfo(float).max / 2])
def test_values_near_float64_midpoints_read_as_float_reads_them(values):
    # on the chunk parser itself, not through a fallback
    texts = [t for v in values for t in halfway_texts(v)]
    expected = np.array([float(t) for t in texts])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.txt"
        path.write_text("\n".join(texts) + "\n")
        columns, labels = ingest._read_chunks(path, None)
    assert labels is None
    np.testing.assert_array_equal(columns[0].view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize(
    "raw, chunked",
    [
        (b" \n1,2\n", True),
        (b"1,2\n\t\n3,4\n", True),
        (b"a,b\n , \n1,2\n", False),
        (b"\x1f\r\n1,2\r\n,,\r\n", False),
    ],
    ids=["space", "tab", "commas", "unit-separator"],
)
def test_csv_lines_of_blanks_are_skipped_by_either_reader(tmp_path, raw, chunked):
    # the chunk parser skips a line of blanks; a line of blanks and commas, or
    # a byte it does not take, sends the file to the token loop, which skips it
    path = tmp_path / "table.csv"
    path.write_bytes(raw)
    assert (ingest._read_chunks(path, ",") is not None) == chunked
    expected = _read_tokens(path, ",", 0).signal.data
    np.testing.assert_array_equal(read_matrix_text(path, ",").signal.data, expected)
