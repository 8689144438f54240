"""Loading experimental multichannel data.

Two carriers are supported:

* delimited text matrices, one channel per column, with an optional
  header row of labels (auto-detected: a first row that does not parse
  as numbers is a header);
* a minimal reader for EDF (European Data Format) biosignal files:
  continuous recordings, ASCII fixed-field headers, 16-bit
  little-endian two's-complement samples grouped signal by signal
  inside each data record.  EDF+ annotation channels are detected and
  refused rather than parsed, and discontinuous (EDF+D) files are
  refused outright.

Channel indices are 1-based at every public boundary, matching the
usual lead numbering of ECG recordings; storage is 0-based internally.
A matching text writer is included so pipelines can round-trip text
files; EDF is only read.
"""

from __future__ import annotations

import collections
import functools
import io
import itertools
import os
from dataclasses import dataclass, make_dataclass

import numpy as np

from .errors import (
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
from .signals import MultichannelSignal

_ANNOTATION_LABEL = "EDF Annotations"
_NUMBER_FORMAT = "%.17g"  # round-trips float64; integral values below 1e17 print as integers


@dataclass(frozen=True)
class Recording:
    """A loaded multichannel recording with channel labels."""

    signal: MultichannelSignal
    labels: tuple
    sample_rate: float | None = None

    def __post_init__(self):
        if len(self.labels) != self.signal.n_channels:
            raise OutOfBoundsError(
                f"{len(self.labels)} labels for {self.signal.n_channels} channels"
            )
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))


# ---------------------------------------------------------------------------
# Delimited text matrices
# ---------------------------------------------------------------------------

_CHUNK = 1 << 18  # bytes read at a time, then to the end of the line; 1 MiB chunks grew each thread's heap by ~8 MB
# The bytes of blank-separated numbers, inf, infinity and nan; any other
# byte after the header sends the file to the token loop.
_NUMBER_BYTES = b"0123456789+-.eE \t\r\ninfatyINFATY"
_COMMAS_TO_BLANKS = bytes.maketrans(b",", b" ")
# Below this, half the spacing of float64 values (2**-1075) is not a float64.
_LOWEST_BINADE = 2 * np.finfo(np.float64).tiny
_WRITE_BLOCK = 8192  # values per block: 1024 rows of 8 channels; _Formatter.words holds ~300 bytes a value
_MAX_TEXT = 24  # longest _NUMBER_FORMAT text of a float64, e.g. -2.2250738585072014e-308


def _tokenize(line, delimiter):
    if delimiter is None:
        return line.split()
    return [tok.strip() for tok in line.split(delimiter)]


def _header(lines, delimiter):
    """``(labels, skiprows, width)`` of ``lines``: the header row's labels (None if
    the first row is numeric), the lines to skip, and the first row's token count
    (0 if every line is blank)."""
    for lineno, line in enumerate(lines, start=1):
        tokens = _tokenize(line, delimiter)
        if not tokens or all(t == "" for t in tokens):
            continue
        try:
            list(map(float, tokens))
        except ValueError:
            return tokens, lineno, len(tokens)
        return None, 0, len(tokens)
    return None, 0, 0


def _recording(columns, labels, skip_columns) -> Recording:
    """Channels ``columns[skip_columns:]`` with their labels, or ch1..chN."""
    width = len(columns)
    if not 0 <= skip_columns < width:
        raise OutOfBoundsError(f"skip_columns {skip_columns} outside 0..{width - 1}")
    data = np.asarray(columns[skip_columns:], dtype=float, order="C")  # this call's own array
    if not np.isfinite(data).all():
        raise NonFiniteError("signal contains non-finite values")
    kept_labels = (
        tuple(labels[skip_columns:])
        if labels is not None
        else tuple(f"ch{i}" for i in range(1, data.shape[0] + 1))
    )
    return Recording(MultichannelSignal._wrap(data), kept_labels, None)


def read_matrix_text(path, delimiter: str | None = None, skip_columns: int = 0) -> Recording:
    """Read a numeric table, one channel per column.

    Whitespace- and comma-delimited files are parsed in line-aligned
    chunks of about 256 KiB, one thread per available core
    (``_read_chunks``); the result does not depend on the number of
    threads.  A file with a byte that is not part of a number, a blank,
    a delimiter or an LF or CRLF line end, with a row of the wrong
    width, a token that does not parse, a CSV field left empty, or no
    data, goes through a token-by-token reader instead, which gives the
    same result or names the line and column of the fault.

    Parameters
    ----------
    path : str or Path
        File to read.
    delimiter : {None, ","}
        None splits on any whitespace; pass "," for CSV.
    skip_columns : int
        Leading columns to drop (e.g. a time/index column).

    Raises
    ------
    ParseError
        Naming the 1-based line and column of the first bad token, or
        the line of the first byte that is not ASCII.
    RaggedRowsError
        If rows have differing column counts.
    OutOfBoundsError
        If ``skip_columns`` leaves no column.
    InvalidSpecError
        If ``delimiter`` is neither None nor ",".
    """
    if delimiter not in (None, ","):
        raise InvalidSpecError(f"delimiter must be None or ',', got {delimiter!r}")
    loaded = _read_chunks(path, delimiter)
    if loaded is None:
        return _read_tokens(path, delimiter, skip_columns)
    return _recording(*loaded, skip_columns)


def _chunks(fh):
    """The bytes of ``fh`` in runs of whole lines of about ``_CHUNK`` bytes; the
    last run may lack its line end."""
    while chunk := fh.read(_CHUNK):
        yield chunk + fh.readline()


def _parse_chunk(chunk, delimiter, width):
    """The rows of ``chunk``, whole lines, as float64 (rows x width), or None for the token loop.

    Every byte must belong to a number, a blank, a delimiter or an LF or
    CRLF line end; every line must hold ``width`` numbers or none; and
    in CSV every field must hold one.  ``np.fromstring`` parses the
    numbers to long double (strtold, without the GIL), and they are
    rounded to float64.  That rounds twice, so ``float()`` reads again
    each token whose long double lies halfway between two float64
    values (where the two roundings can differ), is below
    ``_LOWEST_BINADE`` or rounds to an infinity.  Where long double is
    float64, no long double lies halfway.
    """
    allowed = _NUMBER_BYTES if delimiter is None else _NUMBER_BYTES + b","
    if chunk.translate(None, allowed) or (b"\r" in chunk and chunk.count(b"\r") != chunk.count(b"\r\n")):
        return None
    if delimiter is not None:
        dense = chunk.translate(None, b" \t\r")
        if b",," in dense or b"\n," in dense or b",\n" in dense or dense[:1] == b"," or dense[-1:] == b",":
            return None  # an empty field, or a line of only blanks and commas
        commas = chunk.count(b",")
        chunk = chunk.translate(_COMMAS_TO_BLANKS)
    # a line end before the first line and after the last, then one number more
    padded = b"\n" + chunk + b"\n0"
    codes = np.frombuffer(padded, dtype=np.uint8)
    blank = codes <= 32  # blank, tab, CR or LF
    before = np.flatnonzero(blank[:-1] > blank[1:])  # the byte before each token
    per_line = np.diff(np.searchsorted(before, np.flatnonzero(codes == 10)))
    rows = np.count_nonzero(per_line)
    if not np.all((per_line == 0) | (per_line == width)):
        return None
    if delimiter is not None and commas != rows * (width - 1):
        return None
    try:
        wide = np.fromstring(padded, dtype=np.longdouble, sep=" ")
    except ValueError:  # a token not read to its end
        return None
    if len(wide) != len(before):  # older numpy warns and stops at such a token
        return None
    wide = wide[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        values = wide.astype(np.float64)
        # wide - values is exact; as a float64 a half spacing stays exact, and any
        # other value rounded onto one only adds a token to read again
        low = (wide - values).astype(np.float64)
        twice = low + low
        # halfway: values + twice is the float64 neighbour, exactly
        doubtful = (values + twice) - values == twice
        doubtful &= low != 0
        magnitude = np.abs(values)
        doubtful |= (magnitude < _LOWEST_BINADE) | (magnitude == np.inf)
    at = np.flatnonzero(doubtful)
    if at.size:
        tokens = chunk.split()
        values[at] = [float(tokens[i]) for i in at.tolist()]
    return values.reshape(rows, width)


def _in_order(parse, chunks, workers):
    """``parse(chunk)`` for each chunk, in order, on ``workers`` threads with at
    most ``2 * workers`` chunks read ahead."""
    if workers < 2:
        yield from map(parse, chunks)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        pending = collections.deque()
        for chunk in chunks:
            pending.append(pool.submit(parse, chunk))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _read_chunks(path, delimiter):
    """``(channels, labels)`` parsed by ``_parse_chunk``, or None to use the token loop."""
    with open(path, "rb") as fh:
        chunks = _chunks(fh)
        head = next(chunks, b"")
        try:
            text = head.decode("ascii")
        except UnicodeDecodeError:
            return None
        lines = text.split("\n")
        labels, skiprows, width = _header(lines, delimiter)
        start = sum(map(len, lines[:skiprows])) + skiprows  # the byte after the header
        # no other line break than LF and CRLF up to there, where str.splitlines would split
        if not width or start > len(head) or len(text[:start].splitlines()) != skiprows:
            return None
        size = os.fstat(fh.fileno()).st_size
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = min(cores, -(-size // _CHUNK))
        parse = functools.partial(_parse_chunk, delimiter=delimiter, width=width)
        # Room for the rows of the file at the first chunk's density and 1/16 more,
        # grown if short.  Each block is copied in here and freed, so the threads'
        # heaps hold no more than the chunks in flight.
        table, rows = None, 0
        for block in _in_order(parse, itertools.chain([head[start:]], chunks), workers):
            if block is None:
                return None
            if table is None:
                density = len(block) / max(len(head) - start, 1)
                table = np.empty((int(density * max(size - start, 0) * 17 / 16) + 1, width))  # size 0: a pipe
            if rows + len(block) > len(table):
                table = np.concatenate((table[:rows], np.empty((rows + len(block), width))))
            table[rows : rows + len(block)] = block
            rows += len(block)
    if not rows:
        return None
    return np.ascontiguousarray(table[:rows].T), labels


def _read_tokens(path, delimiter, skip_columns) -> Recording:
    """``read_matrix_text`` one token at a time, locating the first fault."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file in one call, so the offset is absolute
        raw, at = exc.object, exc.start
        lineno = raw.count(b"\n", 0, at) + 1
        raise ParseError(f"line {lineno}: byte {raw[at]:#04x} is not ASCII", line=lineno) from None

    labels, skiprows, width = _header(lines, delimiter)
    columns = [[] for _ in range(width)]
    for lineno, line in enumerate(lines[skiprows:], start=skiprows + 1):
        tokens = _tokenize(line, delimiter)
        if not tokens or all(t == "" for t in tokens):
            continue
        if len(tokens) != width:
            raise RaggedRowsError(
                f"line {lineno}: expected {width} columns, found {len(tokens)}",
                line=lineno,
            )
        for colno, token in enumerate(tokens, start=1):
            try:
                columns[colno - 1].append(float(token))
            except ValueError:
                raise ParseError(
                    f"line {lineno}, column {colno}: {token!r} is not a number",
                    line=lineno,
                    column=colno,
                ) from None

    if not columns or not columns[0]:
        raise ParseError("file contains no data rows")
    return _recording(columns, labels, skip_columns)


def format_number(x: float) -> str:
    """Locale-independent decimal text that round-trips float64."""
    return _NUMBER_FORMAT % float(x)


# _NUMBER_FORMAT in numpy: the words of _Formatter.words and their tables.
_WORDS = 6  # uint64 words a value takes
_FREXP_MIN = -1073  # np.frexp exponent of 5e-324; that of the largest float64 is 1024
_SPLIT = 2.0**27 + 1  # Dekker's splitter: a float64 times it gives two 26-bit halves
_TIE = 2.0**-40  # closer to a half-integer than this, a value is formatted by `%`
_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)  # the n low bytes
# Indexed by the digit (0-16) the decimal point follows, 17 for no point:
# the part of each 8-digit lane left of the point, and the "." placed in
# the byte before the part right of it (or after the first digit).
_POINTS = range(18)
_LEFT1 = _BYTES[[i if 1 <= i <= 8 else 8 for i in _POINTS]]
_LEFT2 = _BYTES[[i - 8 if 9 <= i <= 16 else 8 for i in _POINTS]]
_DOT0 = np.array([ord(".") << 56 if i == 0 else 0 for i in _POINTS], dtype=np.uint64)
_DOT1 = np.array([ord(".") << 8 * (i - 1) if 1 <= i <= 8 else 0 for i in _POINTS], dtype=np.uint64)
_DOT2 = np.array([ord(".") << 8 * (i - 9) if 9 <= i <= 16 else 0 for i in _POINTS], dtype=np.uint64)
# Indexed by the last digit (0-16) kept: the bytes kept of each lane.
_KEEP1 = _BYTES[[min(i, 8) for i in range(17)]]
_KEEP2 = _BYTES[[max(i - 8, 0) for i in range(17)]]
# Indexed by -k for 1e-4 <= |x| < 1 (k the decimal exponent): "0.", "0.0"... in bytes 1-5.
_LEADING = np.array([0] + [int.from_bytes(b"0." + b"0" * z, "little") << 8 for z in range(4)],
                    dtype=np.uint64)
_ASCII = np.uint64(0x3030303030303030)  # "0" in every byte


def _ratio(p2, p10):
    """``2**p2 * 10**p10`` as an integer numerator and denominator."""
    return (1 << max(p2, 0)) * 10 ** max(p10, 0), (1 << max(-p2, 0)) * 10 ** max(-p10, 0)


class _Formatter:
    """``_NUMBER_FORMAT`` text of float64 arrays, computed in numpy.

    A finite x = m * 2**e (0.5 <= m < 1) with k = floor(log10 2**(e-1))
    lies in [10**k, 2 * 10**(k+1)).  Its 17 significant digits are the
    integer nearest y = x * 10**(16-k-j), where j = 1 if x >= 10**(k+1)
    and 0 otherwise, so that 1e16 <= y < 1e17.  y is m times the
    constant 2**e * 10**(16-k-j), held as a double-double hi + lo, by
    Dekker's exact two-product (Dekker 1971), with an error below
    2**-46.  A y within ``_TIE`` of a half-integer (an exact decimal tie
    or nearly one), a nan and an inf are formatted by ``%`` instead, so
    every text is ``_NUMBER_FORMAT % x``, byte for byte.

    The constants of an exponent are made from Python integers when the
    exponent first occurs; one instance serves one table.
    """

    def __init__(self):
        size = 1024 - _FREXP_MIN + 1
        self.known = np.zeros(size, dtype=bool)
        self.k = np.zeros(size, dtype=np.int64)
        self.above = np.zeros(size)  # the least m with x >= 10**(k+1)
        # hi split into its two halves, and lo; column 2 * (e - _FREXP_MIN) + j
        self.hi_high, self.hi_low, self.lo = np.zeros((3, 2 * size))
        # each number below 10**4 as its four digits, first digit in byte 0
        n = np.arange(10**4, dtype=np.uint64)
        self.digits = np.zeros(10**4, dtype=np.uint64)
        for shift in (24, 16, 8, 0):
            self.digits |= (n % np.uint64(10)) << np.uint64(shift)
            n //= np.uint64(10)

    def _learn(self, index):
        """Make the constants of the exponents ``index + _FREXP_MIN`` not yet known."""
        for i in np.unique(index[~self.known[index]]).tolist():
            e = i + _FREXP_MIN
            # floor(log10 2**(e-1)) from the digit count of 2**|e-1|, no power of ten for e != 1
            bits = abs(e - 1)
            k = len(str(1 << bits)) - 1 if e >= 1 else -len(str(1 << bits))
            num, den = _ratio(-e, k + 1)
            least = num / den  # int / int is correctly rounded
            top, bottom = least.as_integer_ratio()
            self.above[i] = least if top * den >= num * bottom else np.nextafter(least, np.inf)
            for j in (0, 1):
                num, den = _ratio(e, 16 - k - j)
                hi = num / den
                top, bottom = hi.as_integer_ratio()
                split = _SPLIT * hi
                high = split - (split - hi)
                c = 2 * i + j
                self.hi_high[c], self.hi_low[c] = high, hi - high
                self.lo[c] = (num * bottom - top * den) / (den * bottom)
            self.k[i] = k
            self.known[i] = True

    def _lane(self, v):
        """int64 numbers below 10**8 as their eight digits (0-9), first digit in byte 0."""
        high = v // 10**4
        return self.digits[high] | (self.digits[v - high * 10**4] << np.uint64(32))

    def _decimal(self, x):
        """``(digits, k, slow)``: the 17 significant digits of each ``|x|``
        as an int64 in [1e16, 1e17) (0 for 0), the decimal exponent of the
        first digit, and the positions to format by ``%``."""
        m, e = np.frexp(np.abs(x))
        finite = np.isfinite(m)
        m[~finite], e[~finite] = 0.0, 0
        index = e.astype(np.intp)  # intp indices gather fastest
        index -= _FREXP_MIN
        self._learn(index)
        j = m >= self.above[index]
        k = self.k[index] + j
        k[m == 0] = 0  # zero prints as "0", in fixed notation
        index *= 2
        index += j
        hi_high, hi_low = self.hi_high[index], self.hi_low[index]
        split = _SPLIT * m
        m_high = split - (split - m)
        m_low = m - m_high
        y = m * (hi_high + hi_low)  # an integer: y >= 1e16 > 2**53, or 0
        # the rounding error of y, plus m * lo, plus 1/2
        half = m_high * hi_high - y
        half += m_high * hi_low
        half += m_low * hi_high
        half += m_low * hi_low
        half += m * self.lo[index]
        half += 0.5
        tie = np.abs(half - np.rint(half)) < _TIE
        digits = y.astype(np.int64)
        digits += np.floor(half).astype(np.int64)
        carry = digits == 10**17
        digits[carry] = 10**16
        k += carry
        return digits, k, np.flatnonzero(~finite | tie)

    def words(self, x):
        """``(len(x), _WORDS)`` uint64 whose bytes, NULs dropped, are the texts of float64 ``x``.

        Word 0 holds the sign, the "0." and zeros of 1e-4 <= |x| < 1,
        the first digit and a "." after it.  Words 1-2 and 3-4 hold
        digits 2-9 and 10-17, each lane split at the decimal point into
        two words, with the "." in the byte before the second part.
        Word 5 holds "e+dd" or "e-ddd" in bytes 0-4; its byte 7 is NUL,
        free for a delimiter.  Zeros after the last digit kept are NUL.
        """
        digits, k, slow = self._decimal(x)
        first = digits // 10**16
        digits -= first * 10**16
        high = digits // 10**8
        digits -= high * 10**8
        lane1, lane2 = self._lane(high), self._lane(digits)
        # the last nonzero digit from the highest nonzero byte of each lane
        byte1 = (np.frexp(lane1.astype(np.float64))[1] - 1) >> 3  # -1 for no nonzero byte
        byte2 = (np.frexp(lane2.astype(np.float64))[1] - 1) >> 3
        last = np.where(byte2 >= 0, 9 + byte2, 1 + byte1)
        fixed = (k >= -4) & (k < 17)
        leading = fixed & (k < 0)
        whole = np.where(fixed & (k >= 0), k, 0)  # the digit the point follows
        keep = np.maximum(whole, last)
        at = np.where((last > whole) & ~leading, whole, 17)
        lane1 |= _ASCII
        lane1 &= _KEEP1[keep]
        lane2 |= _ASCII
        lane2 &= _KEEP2[keep]

        out = np.empty((len(x), _WORDS), dtype="<u8")
        first |= 0x30
        out[:, 0] = (
            np.signbit(x) * np.uint64(ord("-"))
            | _LEADING[np.where(leading, -k, 0)]
            | (first.view(np.uint64) << np.uint64(48))
            | _DOT0[at]
        )
        left = _LEFT1[at]
        out[:, 1] = lane1 & left
        out[:, 2] = (lane1 & ~left) | _DOT1[at]
        left = _LEFT2[at]
        out[:, 3] = lane2 & left
        out[:, 4] = (lane2 & ~left) | _DOT2[at]
        out[:, 5] = 0
        scientific = np.flatnonzero(~fixed)
        if scientific.size:
            k = k[scientific]
            power = np.abs(k)
            out[scientific, 5] = (
                np.uint64(ord("e"))
                | np.where(k < 0, np.uint64(ord("-") << 8), np.uint64(ord("+") << 8))
                | (self.digits[power] << np.uint64(16))  # 4 digits in bytes 2-5, the first 0
                | np.where(power >= 100, np.uint64(0x30 << 24), np.uint64(0))
                | np.uint64(0x3030 << 32)
            )
        if slow.size:
            texts = ((_NUMBER_FORMAT + "\n") * slow.size) % tuple(x[slow].tolist())
            texts = np.array(texts.encode("ascii").split(), dtype=f"S{8 * _WORDS}")
            out[slow] = texts.view("<u8").reshape(-1, _WORDS)
        return out


def _distinct_codes(arr):
    """``(values, codes)`` with ``arr`` equal bitwise to ``values[codes]``, or None.

    ``values`` holds each channel's distinct float64 bit patterns (-0.0
    apart from 0.0), channel after channel; ``codes`` is int32.  None as
    soon as a channel has more distinct values than a quarter of its
    samples.  Up to there the table of texts (25 bytes a value,
    compacted from the formatter's 48 bytes of words) and the codes (4
    bytes a sample) take at most 10.25 bytes a sample, about one and a
    quarter copies of the input.
    """
    n, m = arr.shape
    if n == 0:
        return None
    codes = np.empty((n, m), dtype=np.int32)
    keys, offset = [], 0
    for i in range(n):
        distinct, inverse = np.unique(arr[i].view(np.int64), return_inverse=True)
        if 4 * len(distinct) > m:
            return None
        codes[i] = inverse + offset
        keys.append(distinct)
        offset += len(distinct)
    return np.concatenate(keys).view(np.float64), codes


def _write_texts(fh, texts, ends):
    """Write ``texts`` (rows x channels x bytes, NUL-padded) with ``ends`` in each last byte."""
    texts[:, :, -1] = ends
    fh.write(texts.tobytes().translate(None, b"\0"))


def _write_formatted(fh, rows, ends, step):
    """Write ``rows`` (samples x channels), ``step`` rows per block of words."""
    formatter = _Formatter()
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        words = formatter.words(block.ravel())
        _write_texts(fh, words.view(np.uint8).reshape(*block.shape, 8 * _WORDS), ends)


def _write_gathered(fh, values, codes, ends, step):
    """Write ``values[codes]``, each distinct value formatted once, ``step`` rows per gather."""
    # A value's text NUL-padded to _MAX_TEXT bytes, then a slot for the
    # delimiter, or the newline after a row's last value.
    formatter = _Formatter()
    table = np.empty(len(values), dtype=f"S{_MAX_TEXT + 1}")
    for start in range(0, len(values), _WRITE_BLOCK):
        words = formatter.words(values[start : start + _WRITE_BLOCK])
        words[:, -1] |= np.uint64(ord("\n") << 56)
        table[start : start + len(words)] = words.tobytes().translate(None, b"\0").split()
    table = table.view(f"V{_MAX_TEXT + 1}")
    for start in range(0, codes.shape[1], step):
        block = np.ascontiguousarray(codes[:, start : start + step].T)
        _write_texts(fh, table[block].view(np.uint8).reshape(*block.shape, -1), ends)


def _header_line(labels, n_channels: int, delimiter: str) -> bytes:
    """The label row, or ``InvalidSpecError`` if ``read_matrix_text`` would misread it."""
    labels = [str(l) for l in labels]
    if len(labels) != n_channels:
        raise InvalidSpecError(f"{len(labels)} labels for {n_channels} channels")
    for label in labels:
        # split() gives [label] only for a non-empty label without whitespace
        if label.split() != [label] or delimiter in label or not label.isascii():
            raise InvalidSpecError(
                f"label {label!r} is empty, not ASCII, or holds whitespace or {delimiter!r}"
            )
    try:
        list(map(float, labels))
    except ValueError:
        return (delimiter.join(labels) + "\n").encode("ascii")
    raise InvalidSpecError(f"labels {labels} all parse as numbers and would read back as data")


def write_matrix_text(path, data, labels=None, delimiter: str = " ") -> None:
    """Write channels-as-columns 17-digit text, optionally with a header.

    A 1-D array is one channel and reads back as a 1 x M matrix.  Every
    value is written as ``format_number`` writes it, computed in numpy
    (``_Formatter``; exact decimal ties, nan and inf go through ``%``),
    in blocks of about ``_WRITE_BLOCK`` values.  When no channel has more
    distinct values than a quarter of its samples (a dequantised EDF
    recording), each distinct value is formatted once and the blocks are
    gathered from that table of texts.  Both paths write the same bytes.

    Labels must read back as a header of ``read_matrix_text``: one per
    channel, each non-empty, ASCII and free of whitespace and of the
    delimiter, and not all of them numbers.

    Raises
    ------
    InvalidSpecError
        If ``delimiter`` is neither " " nor ",", or the labels would not
        read back; the file is then left as it was.
    DimensionMismatchError
        If ``data`` is neither 1-D nor 2-D.
    """
    if delimiter not in (" ", ","):
        raise InvalidSpecError(f"delimiter must be ' ' or ',', got {delimiter!r}")
    arr = data.data if isinstance(data, MultichannelSignal) else np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr[np.newaxis]
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected a 1-D or 2-D table, got shape {arr.shape}")
    header = b"" if labels is None else _header_line(labels, arr.shape[0], delimiter)
    step = max(1, _WRITE_BLOCK // max(1, arr.shape[0]))
    ends = np.full(arr.shape[0], ord(delimiter), dtype=np.uint8)
    ends[-1:] = ord("\n")
    distinct = _distinct_codes(arr)
    with open(path, "wb") as fh:
        fh.write(header)
        if distinct is None:
            _write_formatted(fh, arr.T, ends, step)
        else:
            _write_gathered(fh, *distinct, ends, step)


# ---------------------------------------------------------------------------
# EDF
# ---------------------------------------------------------------------------

_FIXED_FIELDS = (
    ("version", 8),
    ("patient_id", 80),
    ("recording_id", 80),
    ("start_date", 8),
    ("start_time", 8),
    ("header_bytes", 8),
    ("reserved", 44),
    ("n_records", 8),
    ("record_duration", 8),
    ("n_signals", 4),
)

_SIGNAL_FIELDS = (
    ("label", 16),
    ("transducer", 80),
    ("physical_dim", 8),
    ("physical_min", 8),
    ("physical_max", 8),
    ("digital_min", 8),
    ("digital_max", 8),
    ("prefiltering", 80),
    ("samples_per_record", 8),
    ("signal_reserved", 32),
)

# The numeric header fields and their types; every other field is text.
_NUMBERS = {
    "header_bytes": int,
    "n_records": int,
    "record_duration": float,
    "n_signals": int,
    "physical_min": float,
    "physical_max": float,
    "digital_min": int,
    "digital_max": int,
    "samples_per_record": int,
}

# Fixed-header numbers checked as they are parsed: (rule, predicate).
_RANGES = {
    "record_duration": ("positive and finite", lambda v: 0.0 < v < np.inf),
    "n_signals": (">= 1", lambda v: v >= 1),
}

# Every fixed field, then the labels and the numeric signal fields as tuples.
EdfHeader = make_dataclass(
    "EdfHeader",
    [(name, _NUMBERS.get(name, str)) for name, _ in _FIXED_FIELDS]
    + [("labels", tuple)]
    + [(name, tuple) for name, _ in _SIGNAL_FIELDS if name in _NUMBERS],
    frozen=True,
    namespace={"__doc__": "Parsed EDF header, fixed part plus per-signal tuples.", "__module__": __name__},
)


def _split(raw: bytes, table, count: int) -> dict:
    """Header bytes -> ``{field: [count stripped values]}``; blocks are stored field-major."""
    values, offset = {}, 0
    for name, size in table:
        try:
            values[name] = [
                raw[i : i + size].decode("ascii").strip()
                for i in range(offset, offset + count * size, size)
            ]
        except UnicodeDecodeError:
            raise MalformedHeaderError(name, f"header field {name} is not ASCII") from None
        offset += count * size
    return values


def _number(name: str, text: str):
    """Parse numeric header field ``name`` as its ``_NUMBERS`` type and check its range."""
    kind = _NUMBERS[name]
    try:
        value = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise MalformedHeaderError(name, f"header field {name}: {text!r} is not {what}") from None
    if name in _RANGES and not _RANGES[name][1](value):
        raise MalformedHeaderError(name, f"{name} must be {_RANGES[name][0]}, got {value}")
    return value


def read_edf_header(fh: io.BufferedReader) -> EdfHeader:
    """Parse and validate the fixed and per-signal EDF headers."""
    raw = fh.read(256)
    if len(raw) < 256:
        raise MalformedHeaderError("header", "file shorter than the 256-byte EDF header")
    fields = {
        name: _number(name, text) if name in _NUMBERS else text
        for name, (text,) in _split(raw, _FIXED_FIELDS, 1).items()
    }
    n_signals = fields["n_signals"]
    if fields["header_bytes"] != 256 + 256 * n_signals:
        raise MalformedHeaderError(
            "header_bytes",
            f"header_bytes is {fields['header_bytes']}, expected {256 + 256 * n_signals} for {n_signals} signals",
        )
    if fields["reserved"].startswith("EDF+D"):
        raise UnsupportedFeatureError("discontinuous EDF+D recordings are not supported")

    raw_signals = fh.read(256 * n_signals)
    if len(raw_signals) < 256 * n_signals:
        raise MalformedHeaderError("signal_header", "file ends inside the signal headers")
    per_signal = {
        name: tuple(_number(name, text) if name in _NUMBERS else text for text in texts)
        for name, texts in _split(raw_signals, _SIGNAL_FIELDS, n_signals).items()
    }
    digital_min, digital_max = per_signal["digital_min"], per_signal["digital_max"]
    for i in range(n_signals):
        if digital_max[i] <= digital_min[i]:
            raise MalformedHeaderError(
                "digital_range",
                f"signal {i + 1}: digital max {digital_max[i]} must exceed digital min {digital_min[i]}",
            )
        if per_signal["samples_per_record"][i] < 1:
            raise MalformedHeaderError(
                "samples_per_record", f"signal {i + 1}: samples_per_record must be >= 1"
            )
    # the header keeps the labels and the numeric signal fields
    kept = {name: per_signal[name] for name in _NUMBERS if name in per_signal}
    return EdfHeader(**fields, labels=per_signal["label"], **kept)


def _resolve_channels(header: EdfHeader, channel_selection) -> list:
    if channel_selection is None:
        indices = list(range(header.n_signals))
    else:
        indices = []
        for item in channel_selection:
            if isinstance(item, str) and not item.strip().lstrip("+-").isdigit():
                label = item.strip()
                try:
                    indices.append(header.labels.index(label))
                except ValueError:
                    raise OutOfBoundsError(f"no channel labelled {label!r}") from None
            else:
                idx = int(item)
                if not 1 <= idx <= header.n_signals:
                    raise OutOfBoundsError(f"channel {idx} outside 1..{header.n_signals}")
                indices.append(idx - 1)
    if not indices:
        raise OutOfBoundsError("channel selection is empty")
    for i in indices:
        if header.labels[i] == _ANNOTATION_LABEL:
            raise UnsupportedFeatureError(
                f"channel {i + 1} is an EDF+ annotations channel and cannot be read as a signal"
            )
    return indices


def read_edf(path, channels=None, max_samples: int | None = None) -> Recording:
    """Read selected channels of an EDF file as physical values.

    Parameters
    ----------
    path : str or Path
        EDF file.
    channels : sequence, optional
        1-based indices and/or label strings, in the order wanted;
        None selects every signal.
    max_samples : int, optional
        Keep only the first ``max_samples`` samples per channel.

    Returns
    -------
    Recording
        Physical values via the standard EDF affine map
        ``v = (d - dig_min) * (phys_max - phys_min) / (dig_max - dig_min) + phys_min``.

    Raises
    ------
    MalformedHeaderError, UnsupportedFeatureError, TruncatedDataError,
    OutOfBoundsError
    """
    if max_samples is not None and max_samples < 1:
        raise OutOfBoundsError(f"max_samples must be >= 1, got {max_samples}")
    with open(path, "rb") as fh:
        header = read_edf_header(fh)
        indices = _resolve_channels(header, channels)

        rates = {header.samples_per_record[i] / header.record_duration for i in indices}
        if len(rates) > 1:
            raise UnsupportedFeatureError(
                "selected channels have differing sample rates; select per-rate groups instead"
            )

        samples_per_record = sum(header.samples_per_record)
        record_bytes = 2 * samples_per_record
        available = os.fstat(fh.fileno()).st_size - header.header_bytes
        n_records = header.n_records
        if n_records == -1:  # unknown; infer from the file size
            n_records = available // record_bytes
        if n_records < 1:
            raise TruncatedDataError("file contains no complete data record")
        if available < n_records * record_bytes:
            raise TruncatedDataError(
                f"expected {n_records * record_bytes} data bytes, found {available}"
            )
        if max_samples is not None:  # only the records that hold the wanted samples
            n_records = min(n_records, -(-max_samples // header.samples_per_record[indices[0]]))
        payload = fh.read(n_records * record_bytes)

    table = np.frombuffer(payload, dtype="<i2").reshape(n_records, samples_per_record)
    offsets = np.concatenate(([0], np.cumsum(header.samples_per_record)))
    n_samples = n_records * header.samples_per_record[indices[0]]
    if max_samples is not None:
        n_samples = min(n_samples, max_samples)

    data = np.empty((len(indices), n_samples))
    for row, i in zip(data, indices):
        span = (header.physical_max[i] - header.physical_min[i]) / (
            header.digital_max[i] - header.digital_min[i]
        )
        # in place, in the order of (d - dig_min) * span + phys_min; the
        # int16 samples become float64 before the subtraction
        row[:] = table[:, offsets[i] : offsets[i + 1]].reshape(-1)[:n_samples]
        row -= header.digital_min[i]
        row *= span
        row += header.physical_min[i]
        if not np.isfinite(row).all():
            raise NonFiniteError("signal contains non-finite values")

    rate = header.samples_per_record[indices[0]] / header.record_duration
    return Recording(
        MultichannelSignal._wrap(data),
        tuple(header.labels[i] for i in indices),
        rate,
    )
