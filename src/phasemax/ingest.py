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
A matching text writer and a small EDF writer are included so tests and
pipelines can round-trip files; the EDF writer is not a general-purpose
exporter.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    MalformedHeaderError,
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


def select(rec: Recording, channels, sample_range=None) -> Recording:
    """Sub-recording by 1-based channel list and inclusive sample range.

    ``sample_range`` is a ``(first, last)`` pair, 1-based and inclusive,
    or None for all samples.  Labels are carried over.

    Raises
    ------
    OutOfBoundsError
        On an empty channel list or any index/range outside the
        recording.
    """
    n, m = rec.signal.n_channels, rec.signal.n_samples
    channels = [int(c) for c in channels]
    if not channels:
        raise OutOfBoundsError("channel selection is empty")
    for c in channels:
        if not 1 <= c <= n:
            raise OutOfBoundsError(f"channel {c} outside 1..{n}")
    if sample_range is None:
        first, last = 1, m
    else:
        first, last = int(sample_range[0]), int(sample_range[1])
    if not (1 <= first <= last <= m):
        raise OutOfBoundsError(f"sample range {first}..{last} outside 1..{m}")
    rows = [c - 1 for c in channels]
    data = rec.signal.data[rows, first - 1 : last]
    return Recording(
        MultichannelSignal(data),
        tuple(rec.labels[i] for i in rows),
        rec.sample_rate,
    )


# ---------------------------------------------------------------------------
# Delimited text matrices
# ---------------------------------------------------------------------------


def _tokenize(line, delimiter):
    if delimiter is None:
        return line.split()
    return [tok.strip() for tok in line.split(delimiter)]


def read_matrix_text(
    path,
    delimiter: str | None = None,
    skip_columns: int = 0,
    max_samples: int | None = None,
) -> Recording:
    """Read a numeric table, one channel per column.

    Parameters
    ----------
    path : str or Path
        File to read.
    delimiter : str, optional
        None splits on any whitespace; pass "," for CSV.
    skip_columns : int
        Leading columns to drop (e.g. a time/index column).
    max_samples : int, optional
        Keep only the first ``max_samples`` rows of data.

    Raises
    ------
    ParseError
        Naming the 1-based line and column of the first bad token, or
        the line of the first byte that is not ASCII.
    RaggedRowsError
        If rows have differing column counts.
    OutOfBoundsError
        If ``max_samples`` is below 1 or ``skip_columns`` leaves no column.
    """
    if max_samples is not None and max_samples < 1:
        raise OutOfBoundsError(f"max_samples must be >= 1, got {max_samples}")
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file in one call, so the offset is absolute
        raw, at = exc.object, exc.start
        lineno = raw.count(b"\n", 0, at) + 1
        raise ParseError(f"line {lineno}: byte {raw[at]:#04x} is not ASCII", line=lineno) from None

    labels = None
    width = None
    columns: list = []
    n_rows = 0
    for lineno, line in enumerate(lines, start=1):
        if max_samples is not None and n_rows >= max_samples:
            break
        tokens = _tokenize(line, delimiter)
        if not tokens or all(t == "" for t in tokens):
            continue
        if width is None:
            width = len(tokens)
            try:
                first = [float(t) for t in tokens]
            except ValueError:
                labels = tokens
                continue
            columns = [[v] for v in first]
            n_rows = 1
            continue
        if len(tokens) != width:
            raise RaggedRowsError(
                f"line {lineno}: expected {width} columns, found {len(tokens)}",
                line=lineno,
            )
        if columns == []:
            columns = [[] for _ in range(width)]
        for colno, token in enumerate(tokens, start=1):
            try:
                columns[colno - 1].append(float(token))
            except ValueError:
                raise ParseError(
                    f"line {lineno}, column {colno}: {token!r} is not a number",
                    line=lineno,
                    column=colno,
                ) from None
        n_rows += 1

    if width is None or not columns:
        raise ParseError("file contains no data rows")
    if not 0 <= skip_columns < width:
        raise OutOfBoundsError(f"skip_columns {skip_columns} outside 0..{width - 1}")

    data = np.array(columns[skip_columns:], dtype=float)
    kept_labels = (
        tuple(labels[skip_columns:])
        if labels is not None
        else tuple(f"ch{i}" for i in range(1, data.shape[0] + 1))
    )
    return Recording(MultichannelSignal(data), kept_labels, None)


def format_number(x: float) -> str:
    """Locale-independent decimal text that round-trips float64."""
    return _NUMBER_FORMAT % float(x)


def write_matrix_text(path, data, labels=None, delimiter: str = " ") -> None:
    """Write channels-as-columns 17-digit text, optionally with a header.

    A 1-D array is one channel and reads back as a 1 x M matrix.
    """
    arr = data.data if isinstance(data, MultichannelSignal) else np.asarray(data, dtype=float)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if labels is not None:
            fh.write(delimiter.join(str(l) for l in labels) + "\n")
        np.savetxt(fh, arr.T, fmt=_NUMBER_FORMAT, delimiter=delimiter)


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


@dataclass(frozen=True)
class EdfHeader:
    """Parsed EDF header, fixed part plus per-signal arrays."""

    version: str
    patient_id: str
    recording_id: str
    start_date: str
    start_time: str
    header_bytes: int
    reserved: str
    n_records: int
    record_duration: float
    n_signals: int
    labels: tuple
    physical_min: tuple
    physical_max: tuple
    digital_min: tuple
    digital_max: tuple
    samples_per_record: tuple


def _ascii(raw: bytes, field: str) -> str:
    try:
        return raw.decode("ascii").strip()
    except UnicodeDecodeError:
        raise MalformedHeaderError(field, f"header field {field} is not ASCII") from None


def _int_field(text: str, field: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedHeaderError(field, f"header field {field}: {text!r} is not an integer") from None


def _float_field(text: str, field: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise MalformedHeaderError(field, f"header field {field}: {text!r} is not a number") from None


def read_edf_header(fh: io.BufferedReader) -> EdfHeader:
    """Parse and validate the fixed and per-signal EDF headers."""
    raw = fh.read(256)
    if len(raw) < 256:
        raise MalformedHeaderError("header", "file shorter than the 256-byte EDF header")
    fields = {}
    offset = 0
    for name, size in _FIXED_FIELDS:
        fields[name] = _ascii(raw[offset : offset + size], name)
        offset += size

    header_bytes = _int_field(fields["header_bytes"], "header_bytes")
    n_records = _int_field(fields["n_records"], "n_records")
    record_duration = _float_field(fields["record_duration"], "record_duration")
    if not 0.0 < record_duration < np.inf:
        raise MalformedHeaderError(
            "record_duration", f"record_duration must be positive and finite, got {record_duration}"
        )
    n_signals = _int_field(fields["n_signals"], "n_signals")
    if n_signals < 1:
        raise MalformedHeaderError("n_signals", f"n_signals must be >= 1, got {n_signals}")
    if header_bytes != 256 + 256 * n_signals:
        raise MalformedHeaderError(
            "header_bytes",
            f"header_bytes is {header_bytes}, expected {256 + 256 * n_signals} for {n_signals} signals",
        )
    if fields["reserved"].startswith("EDF+D"):
        raise UnsupportedFeatureError("discontinuous EDF+D recordings are not supported")

    raw_signals = fh.read(256 * n_signals)
    if len(raw_signals) < 256 * n_signals:
        raise MalformedHeaderError("signal_header", "file ends inside the signal headers")
    per_signal = {}
    offset = 0
    for name, size in _SIGNAL_FIELDS:  # fields are stored field-major
        values = []
        for _ in range(n_signals):
            values.append(_ascii(raw_signals[offset : offset + size], name))
            offset += size
        per_signal[name] = values

    physical_min = tuple(_float_field(v, "physical_min") for v in per_signal["physical_min"])
    physical_max = tuple(_float_field(v, "physical_max") for v in per_signal["physical_max"])
    digital_min = tuple(_int_field(v, "digital_min") for v in per_signal["digital_min"])
    digital_max = tuple(_int_field(v, "digital_max") for v in per_signal["digital_max"])
    samples_per_record = tuple(
        _int_field(v, "samples_per_record") for v in per_signal["samples_per_record"]
    )
    for i in range(n_signals):
        if digital_max[i] <= digital_min[i]:
            raise MalformedHeaderError(
                "digital_range",
                f"signal {i + 1}: digital max {digital_max[i]} must exceed digital min {digital_min[i]}",
            )
        if samples_per_record[i] < 1:
            raise MalformedHeaderError(
                "samples_per_record", f"signal {i + 1}: samples_per_record must be >= 1"
            )

    return EdfHeader(
        version=fields["version"],
        patient_id=fields["patient_id"],
        recording_id=fields["recording_id"],
        start_date=fields["start_date"],
        start_time=fields["start_time"],
        header_bytes=header_bytes,
        reserved=fields["reserved"],
        n_records=n_records,
        record_duration=record_duration,
        n_signals=n_signals,
        labels=tuple(per_signal["label"]),
        physical_min=physical_min,
        physical_max=physical_max,
        digital_min=digital_min,
        digital_max=digital_max,
        samples_per_record=samples_per_record,
    )


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

    out = []
    for i in indices:
        digital = table[:, offsets[i] : offsets[i + 1]].reshape(-1).astype(float)
        span = (header.physical_max[i] - header.physical_min[i]) / (
            header.digital_max[i] - header.digital_min[i]
        )
        physical = (digital - header.digital_min[i]) * span + header.physical_min[i]
        out.append(physical if max_samples is None else physical[:max_samples])

    rate = header.samples_per_record[indices[0]] / header.record_duration
    return Recording(
        MultichannelSignal(np.vstack(out)),
        tuple(header.labels[i] for i in indices),
        rate,
    )


def _padded(text: str, size: int, field: str) -> bytes:
    raw = text.encode("ascii")
    if len(raw) > size:
        raise MalformedHeaderError(field, f"{field} value {text!r} exceeds {size} bytes")
    return raw.ljust(size)


def _number_field(value: float, field: str) -> str:
    """Shortest decimal text for a float that fits an 8-byte EDF field."""
    for digits in range(7, 0, -1):
        text = format(float(value), f".{digits}g")
        if len(text) <= 8:
            return text
    raise MalformedHeaderError(field, f"cannot represent {value!r} in 8 bytes")


def write_edf(
    path,
    rec: Recording,
    physical_range=None,
    digital_range=(-32768, 32767),
    samples_per_record: int | None = None,
) -> None:
    """Write a Recording as a minimal single-rate EDF file.

    Exists so tests and synthetic pipelines can round-trip data; not a
    general exporter.  All channels share the digital range and the
    per-record sample count, which must divide the sample count.
    ``physical_range`` defaults to each channel's own (min, max),
    widened when degenerate.
    """
    data = rec.signal.data
    n, m = data.shape
    spr = m if samples_per_record is None else int(samples_per_record)
    if spr < 1 or m % spr != 0:
        raise MalformedHeaderError(
            "samples_per_record", f"samples_per_record {spr} must divide sample count {m}"
        )
    n_records = m // spr
    dmin, dmax = int(digital_range[0]), int(digital_range[1])
    if dmax <= dmin:
        raise MalformedHeaderError("digital_range", "digital max must exceed digital min")

    ranges = []
    for i in range(n):
        if physical_range is not None:
            pmin, pmax = float(physical_range[0]), float(physical_range[1])
        else:
            pmin, pmax = float(data[i].min()), float(data[i].max())
            if pmax <= pmin:
                pmin, pmax = pmin - 1.0, pmax + 1.0
        ranges.append((pmin, pmax))

    duration = 1.0 if rec.sample_rate is None else spr / rec.sample_rate
    header = b"".join(
        (
            _padded("0", 8, "version"),
            _padded("synthetic", 80, "patient_id"),
            _padded("phasemax test writer", 80, "recording_id"),
            _padded("01.01.00", 8, "start_date"),
            _padded("00.00.00", 8, "start_time"),
            _padded(str(256 + 256 * n), 8, "header_bytes"),
            _padded("", 44, "reserved"),
            _padded(str(n_records), 8, "n_records"),
            _padded(_number_field(duration, "record_duration"), 8, "record_duration"),
            _padded(str(n), 4, "n_signals"),
        )
    )
    signal_header = b"".join(
        (
            b"".join(_padded(rec.labels[i], 16, "label") for i in range(n)),
            b"".join(_padded("", 80, "transducer") for _ in range(n)),
            b"".join(_padded("", 8, "physical_dim") for _ in range(n)),
            b"".join(_padded(_number_field(ranges[i][0], "physical_min"), 8, "physical_min") for i in range(n)),
            b"".join(_padded(_number_field(ranges[i][1], "physical_max"), 8, "physical_max") for i in range(n)),
            b"".join(_padded(str(dmin), 8, "digital_min") for _ in range(n)),
            b"".join(_padded(str(dmax), 8, "digital_max") for _ in range(n)),
            b"".join(_padded("", 80, "prefiltering") for _ in range(n)),
            b"".join(_padded(str(spr), 8, "samples_per_record") for _ in range(n)),
            b"".join(_padded("", 32, "signal_reserved") for _ in range(n)),
        )
    )

    # Re-parse the written physical ranges so digitization uses exactly
    # what a reader will see.
    written_ranges = [
        (
            float(_number_field(pmin, "physical_min")),
            float(_number_field(pmax, "physical_max")),
        )
        for pmin, pmax in ranges
    ]
    records = np.empty((n_records, n * spr), dtype="<i2")
    for i in range(n):
        pmin, pmax = written_ranges[i]
        scaled = (data[i] - pmin) * (dmax - dmin) / (pmax - pmin) + dmin
        digital = np.clip(np.rint(scaled), dmin, dmax).astype("<i2")
        records[:, i * spr : (i + 1) * spr] = digital.reshape(n_records, spr)

    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(signal_header)
        fh.write(records.tobytes())
