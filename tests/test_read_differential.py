"""``read_matrix_text`` against the token-by-token reader it falls back to.

The np.loadtxt path must give exactly what the token loop gives: the
same array (sign of zero included), the same labels, or the same
exception with the same message, line and column.  The explicit
examples pin every input on which the two parsers are known to differ
by themselves, so each one has to be routed to the token loop.  CSV
lines of only blanks and commas are among them: loadtxt rejects them
and the token loop skips them, and the last test holds such files to
the token loop.
"""

import tempfile
from pathlib import Path

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
ODD_TOKENS = ["nan", "-inf", "Infinity", "1_0", "#", "#3", "x", "1e", "0x10", "", " ", "\t", "\x1f"]
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
        fast = outcome(read_matrix_text, path, delimiter, skip_columns)
        slow = outcome(_read_tokens, path, delimiter, skip_columns)
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
def test_loadtxt_path_matches_token_loop(table, skip_columns):
    assert_same(*table, skip_columns)


@pytest.mark.parametrize(
    "raw",
    [b" \n1,2\n", b"1,2\n\t\n3,4\n", b"a,b\n , \n1,2\n", b"\x1f\r\n1,2\r\n,,\r\n"],
    ids=["space", "tab", "commas", "unit-separator"],
)
def test_csv_lines_of_blanks_go_to_the_token_loop(tmp_path, raw):
    # loadtxt rejects such a line, so the token loop reads the file and skips it
    path = tmp_path / "table.csv"
    path.write_bytes(raw)
    assert ingest._loadtxt(path, ",") is None
    expected = _read_tokens(path, ",", 0).signal.data
    np.testing.assert_array_equal(read_matrix_text(path, ",").signal.data, expected)
