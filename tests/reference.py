"""Plain reference implementations that the tests check the package against.

They spell out what the package computes in a faster or more guarded
way, and take no care over bad arguments:

* ``explicit_deflation``: the paper's loop step by step (take the sample
  farthest from the origin, project every sample onto its direction,
  deflate the whole residual, repeat), which ``separate_maximum``
  performs implicitly;
* ``pearson``: the correlation of one pair of series, which the blocked
  correlation pass of ``associate`` computes for every pair at once;
* ``write_edf``: a minimal single-rate EDF writer, so that tests and the
  console smoke can make files for ``read_edf`` and ``phasemax edf``.

Outside pytest, put this directory on ``PYTHONPATH`` to import them.
"""

from collections import namedtuple

import numpy as np

from phasemax.ingest import _FIXED_FIELDS, _SIGNAL_FIELDS
from phasemax.separation import DEFAULT_ENERGY_FLOOR

Step = namedtuple("Step", "direction index radius series residual")


def explicit_deflation(z):
    """Yield one ``Step`` per source extracted from the N x M working data ``z``.

    Each step takes the sample farthest from the origin (the earliest on
    ties), its unit vector ``d``, the series ``d . z`` and the residual
    ``z - outer(d, series)``, which the next step works on.  The loop
    stops after N steps or once the residual's sum of squares is at most
    ``DEFAULT_ENERGY_FLOOR`` times that of ``z``.
    """
    floor = DEFAULT_ENERGY_FLOOR * np.sum(z**2)
    for _ in range(len(z)):
        r = np.sqrt(np.sum(z**2, axis=0))
        index = int(np.argmax(r))
        direction = z[:, index] / r[index]
        series = direction @ z
        z = z - np.outer(direction, series)
        yield Step(direction, index, float(r[index]), series, z)
        if np.sum(z**2) <= floor:
            return


def pearson(x, y) -> float:
    """Centred Pearson correlation of two equal-length series."""
    xc = np.asarray(x, dtype=float) - np.mean(x)
    yc = np.asarray(y, dtype=float) - np.mean(y)
    return float(np.dot(xc, yc) / (np.sqrt(np.dot(xc, xc)) * np.sqrt(np.dot(yc, yc))))


def write_edf(
    path, rec, physical_range=None, digital_range=(-32768, 32767), samples_per_record=None
):
    """Write a Recording as a single-rate EDF file.

    Every channel shares the digital range and the samples per record
    (by default all of them, in one record), which must divide the
    sample count.  ``physical_range`` defaults to each channel's own
    (min, max), widened by 1 on each side when the channel is constant.
    """
    data = rec.signal.data
    n, m = data.shape
    spr = m if samples_per_record is None else samples_per_record
    dmin, dmax = digital_range
    ranges = [physical_range or (row.min(), row.max()) for row in data]
    ranges = [(low, high) if high > low else (low - 1.0, high + 1.0) for low, high in ranges]
    duration = 1.0 if rec.sample_rate is None else spr / rec.sample_rate
    fixed = {
        "version": "0",
        "patient_id": "synthetic",
        "recording_id": "phasemax test writer",
        "start_date": "01.01.00",
        "start_time": "00.00.00",
        "header_bytes": str(256 + 256 * n),
        "n_records": str(m // spr),
        "record_duration": _number_field(duration),
        "n_signals": str(n),
    }
    per_signal = {
        "label": rec.labels,
        "physical_min": [_number_field(low) for low, _ in ranges],
        "physical_max": [_number_field(high) for _, high in ranges],
        "digital_min": [str(dmin)] * n,
        "digital_max": [str(dmax)] * n,
        "samples_per_record": [str(spr)] * n,
    }
    header = _fields({name: [text] for name, text in fixed.items()}, _FIXED_FIELDS, 1)
    header += _fields(per_signal, _SIGNAL_FIELDS, n)
    records = np.empty((m // spr, n * spr), dtype="<i2")
    for i in range(n):
        # digitise with the physical range exactly as the reader parses it
        low, high = float(per_signal["physical_min"][i]), float(per_signal["physical_max"][i])
        digital = np.rint((data[i] - low) * (dmax - dmin) / (high - low) + dmin)
        records[:, i * spr : (i + 1) * spr] = np.clip(digital, dmin, dmax).reshape(-1, spr)
    with open(path, "wb") as fh:
        fh.write(header + records.tobytes())


def _number_field(value) -> str:
    """The most digits of ``value`` (at most 7) that fit an 8-byte EDF field."""
    texts = (format(float(value), f".{digits}g") for digits in range(7, 0, -1))
    return next(text for text in texts if len(text) <= 8)


def _fields(values, table, count) -> bytes:
    """Header bytes of ``values`` laid out field-major; a field not given is blank."""
    return b"".join(
        text.encode("ascii").ljust(size)
        for name, size in table
        for text in values.get(name, [""] * count)
    )
