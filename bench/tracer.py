"""Spans around the calls into each ``phasemax`` module, from outside the package.

``Tracer.installed()`` replaces every traced function, in every module
namespace that binds it, by a wrapper that records a span (name, start
and end from ``perf_counter_ns``, parent) and a few counts taken from
the arguments and the result; leaving the block puts the originals
back.  ``MultichannelSignal`` is counted, not timed, through its
``__init__``.  A traced function the package no longer has reads 0.
No file of the package changes.  Spans stay in
memory until ``write`` is called.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import functools
import importlib
import statistics
import time
from pathlib import Path

import numpy as np

import phasemax

LAYERS = ("cli", "ingest", "signals", "whitening", "numerics", "separation", "pca", "evaluation")
_LAYER_MODULES = {layer: importlib.import_module(f"phasemax.{layer}") for layer in LAYERS}
_MODULES = [phasemax, *_LAYER_MODULES.values()]


def _rchar() -> tuple:
    """Bytes this process has read so far (``rchar`` of /proc/self/io),
    and the bytes this call read to find out, which count in the next value."""
    with open("/proc/self/io", "rb") as fh:
        text = fh.read()
    for line in text.splitlines():
        if line.startswith(b"rchar:"):
            return int(line.split()[1]), len(text)
    raise RuntimeError("/proc/self/io has no rchar line")


def _values_written(args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    return {"values": np.size(getattr(data, "data", data))}


# Counts recorded per call, computed from the arguments and the result.
_COUNTERS = {
    "ingest.read_matrix_text": lambda args, kwargs, result: {"values": result.signal.data.size},
    "ingest.write_matrix_text": _values_written,
    "ingest.read_edf": lambda args, kwargs, result: {"useful_bytes": 2 * result.signal.data.size},
    "numerics.symmetric_eig": lambda args, kwargs, result: {"max_n": len(result.eigenvalues)},
    # Size of the N x M residual each call produces: computed from the
    # shape, not measured.
    "separation.deflate": lambda args, kwargs, result: {"bytes_computed": result.data.nbytes},
}

TRACED = (
    "cli.main",
    "ingest.read_matrix_text",
    "ingest.write_matrix_text",
    "ingest.read_edf",
    "numerics.symmetric_eig",
    "numerics.gram_schmidt_orthonormal",
    "whitening.whiten_gram_schmidt",
    "whitening.whiten_pca",
    "separation.separate_maximum",
    "separation.find_maximum_direction",
    "separation.project_source",
    "separation.deflate",
    "pca.pca_separate",
    "evaluation.pearson",
    "evaluation.associate",
    "evaluation.monte_carlo_rms",
    "signals.add_noise",
)


class Tracer:
    """Records spans and counts of the traced calls of one iteration at a time."""

    def __init__(self):
        self.iterations = []  # one list of spans per traced iteration
        self.spans = None
        self.counts = None
        self._stack = []

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        reads = name == "ingest.read_edf"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(span_id)
            rchar, own = _rchar() if reads else (0, 0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, name, start, end)
            if reads:
                self.counts[name + ".bytes_read"] += _rchar()[0] - rchar - own
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    key = f"{name}.{key}"
                    if key.endswith(".max_n"):
                        self.counts[key] = max(self.counts[key], value)
                    else:
                        self.counts[key] += value
            return result

        return traced

    def _count_constructions(self, init):
        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            self.counts["signals.MultichannelSignal.constructions"] += 1
            init(obj, *args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Trace one iteration: wrap every binding, then restore it."""
        self.spans = []
        self.counts = collections.Counter()
        patched = []
        for name in TRACED:
            layer, attr = name.split(".")
            original = getattr(_LAYER_MODULES[layer], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in _MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, key, original))
                        setattr(module, key, wrapper)
        signal_cls = phasemax.MultichannelSignal
        init = signal_cls.__init__
        signal_cls.__init__ = self._count_constructions(init)
        try:
            yield
        finally:
            signal_cls.__init__ = init
            for module, key, original in reversed(patched):
                setattr(module, key, original)
            self.iterations.append(self.spans)

    def summary(self) -> dict:
        """Per-layer metrics of the iteration traced last."""
        total = collections.Counter()
        self_s = collections.Counter()
        calls = collections.Counter()
        for _, parent, name, start, end in self.spans:
            seconds = (end - start) * 1e-9
            total[name] += seconds
            self_s[name] += seconds
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][2]] -= seconds
        out = {}
        for name in TRACED:
            label = "cli" if name == "cli.main" else name
            out[f"{label}.s"] = total[name]
            out[f"{label}.self_s"] = self_s[name]
            out[f"{label}.calls"] = calls[name]
        for name in ("ingest.read_matrix_text", "ingest.write_matrix_text"):
            seconds = total[name]
            out[f"{name}.values_per_s"] = self.counts[f"{name}.values"] / seconds if seconds else 0.0
        read = self.counts["ingest.read_edf.bytes_read"]
        out["ingest.read_edf.bytes_read"] = read
        out["ingest.read_edf.useful_ratio"] = (
            self.counts["ingest.read_edf.useful_bytes"] / read if read else 0.0
        )
        for key in (
            "numerics.symmetric_eig.max_n",
            "separation.deflate.bytes_computed",
            "signals.MultichannelSignal.constructions",
        ):
            out[key] = self.counts[key]
        return out

    def write(self, path: Path) -> None:
        """Write every recorded span as CSV, one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["iteration", "span", "parent", "name", "start_ns", "end_ns"])
            for k, spans in enumerate(self.iterations):
                out.writerows((k,) + span for span in spans)


def median_summary(summaries) -> dict:
    """Lower median of each metric over the traced iterations, so that
    counts stay whole and every value is one that was observed."""
    return {key: statistics.median_low(s[key] for s in summaries) for key in summaries[0]}
