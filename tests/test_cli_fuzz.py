"""Fuzz the command line: any input ends in a documented exit code, never a traceback.

Random token tables go to every command that reads a text matrix,
corrupted EDF files to ``edf``, and random JSON objects to ``gen`` and
``montecarlo``.  Each run must return 0, 2, 3, 4 or 5 from ``main`` and
print no traceback.  The example counts keep the module to a few
seconds; raise ``max_examples`` for a longer campaign.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from phasemax.cli import main
from phasemax.ingest import Recording, write_edf
from phasemax.signals import MultichannelSignal

EXIT_CODES = {0, 2, 3, 4, 5}

FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_clean(argv):
    """Run ``main`` and return its exit code, asserting the contract holds."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")  # numpy overflow warnings are not part of the contract
        code = main([str(a) for a in argv])
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


# ---------------------------------------------------------------------------
# Token tables
# ---------------------------------------------------------------------------

TOKENS = [
    b"0", b"1", b"-1", b"2.5", b"-0", b"3e-7", b"1e308", b"-1e308", b"1e200", b"5e-324",
    b"nan", b"inf", b"-inf", b"NaN", b"x", b"1e", b"--", b"0x10", b"\xff", b"\xc3\xa9",
]

token = st.one_of(
    st.sampled_from(TOKENS),
    st.floats(allow_nan=True, allow_infinity=True).map(lambda v: repr(v).encode("ascii")),
)


@st.composite
def token_table(draw):
    """Text bytes: mostly rectangular rows of tokens, with blank and ragged lines."""
    width = draw(st.integers(1, 3))
    sep = draw(st.sampled_from([b" ", b"\t", b","]))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row", "row", "row", "row", "blank", "ragged"]))
        if kind == "blank":
            lines.append(b"")
            continue
        n = width if kind == "row" else draw(st.integers(1, 4))
        lines.append(sep.join(draw(token) for _ in range(n)))
    return b"\n".join(lines) + draw(st.sampled_from([b"", b"\n"]))


TABLE_COMMANDS = [
    ("separate", "--whiten", "none"),
    ("separate", "--whiten", "gram-schmidt"),
    ("separate", "--whiten", "pca"),
    ("separate", "--whiten", "gram-schmidt", "--order", "2,1"),
    ("separate", "--method", "pca"),
    ("separate", "--method", "pca", "--center"),
    ("separate", "--compare", "{dir}/compare.txt", "--out-directions", "{dir}/dirs.txt"),
    ("separate", "--skip-columns", "1"),
    ("phase",),
]

OVERFLOW_TABLE = b"1e200 1\n1 1e200\n3 2\n"  # finite, but the squared radii overflow


@FUZZ
@given(table=token_table(), command=st.sampled_from(TABLE_COMMANDS))
@example(table=OVERFLOW_TABLE, command=TABLE_COMMANDS[0])
def test_table_commands_keep_exit_contract(table, command):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "in.txt")
        src.write_bytes(table)
        args = [a.format(dir=tmp) for a in command]
        run_clean(args[:1] + [src] + args[1:] + [Path(tmp, "out.txt")])


@FUZZ
@given(truth=token_table(), estimates=token_table())
def test_evaluate_keeps_exit_contract(truth, estimates):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "truth.txt"), Path(tmp, "estimates.txt")
        a.write_bytes(truth)
        b.write_bytes(estimates)
        run_clean(["evaluate", a, b, "--out", Path(tmp, "report.txt")])


# ---------------------------------------------------------------------------
# EDF files
# ---------------------------------------------------------------------------


def _valid_edf() -> bytes:
    data = np.random.default_rng(3).normal(size=(3, 40))
    rec = Recording(MultichannelSignal(data), ("I", "II", "III"), 20.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "ok.edf")
        write_edf(path, rec, samples_per_record=10)
        return path.read_bytes()


VALID_EDF = _valid_edf()


@st.composite
def edf_bytes(draw):
    """A valid 3-signal EDF file with a few bytes overwritten, then maybe cut short."""
    raw = bytearray(VALID_EDF)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(raw) - 1))
        raw[at] = draw(st.sampled_from(b"0123456789-+. \xff")) if at < 1024 else draw(st.integers(0, 255))
    return bytes(raw[: draw(st.integers(0, len(raw)))]) if draw(st.booleans()) else bytes(raw)


@FUZZ
@given(
    content=st.one_of(edf_bytes(), token_table()),
    channels=st.sampled_from([None, "1-3", "2,1", "III", "0", "4", "x", "1-"]),
    samples=st.sampled_from([None, "-3", "0", "1", "15", "1000", "abc"]),
)
def test_edf_keeps_exit_contract(content, channels, samples):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "in.edf")
        src.write_bytes(content)
        args = ["edf", src]
        if channels is not None:
            args += ["--channels", channels]
        if samples is not None:
            args += ["--samples", samples]
        run_clean(args + [Path(tmp, "out.txt")])


# ---------------------------------------------------------------------------
# JSON configs
# ---------------------------------------------------------------------------

json_value = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-5, 5),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=4),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# Sizes stay small so no example can ask for a huge array or a long sweep.
size = st.one_of(
    st.integers(-2, 64), st.floats(-2, 64), st.sampled_from([True, "10", None, [5], 1e400])
)
runs = st.one_of(st.integers(-1, 3), st.sampled_from([2.0, 2.5, True, "2", None]))
number = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 80), json_value)
pulse = st.one_of(
    st.fixed_dictionaries({"center": number, "width": number, "amplitude": number}), json_value
)
sources = st.one_of(st.lists(st.lists(pulse, max_size=2), max_size=3), json_value)
mixing = st.one_of(st.lists(st.lists(number, min_size=1, max_size=3), max_size=3), json_value)
preset = st.one_of(st.sampled_from(["disjoint", "correlated", "coincident", "other"]), json_value)
method = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "method": st.sampled_from(["maximum", "pca", "ica"]) | json_value,
            "whitening": st.sampled_from(["gram_schmidt", "pca", "none", "zca"]) | json_value,
            "order": st.lists(st.integers(-1, 3), max_size=3) | json_value,
            "centered": json_value,
        },
    ),
    json_value,
)

gen_config = st.fixed_dictionaries(
    {},
    optional={
        "preset": preset,
        "n_samples": size,
        "sources": sources,
        "mixing": mixing,
        "noise_sd": number,
        "unknown": json_value,
    },
)
montecarlo_config = st.fixed_dictionaries(
    {"n_runs": runs},
    optional={
        "preset": preset,
        "fixture": st.fixed_dictionaries({"n_samples": size, "sources": sources}) | json_value,
        "n_samples": size,
        "mixing": mixing,
        "noise_sd": st.lists(number, max_size=3) | json_value,
        "base_seed": st.integers(-3, 2**64),
        "methods": st.lists(method, max_size=3) | json_value,
        "unknown": json_value,
    },
)


@FUZZ
@given(
    config=gen_config,
    extra=st.sampled_from(
        [(), ("--seed", "-1", "--noise-sd", "0.1"), ("--mixing", "1,2;3,4"), ("--noise-sd", "nan")]
    ),
)
def test_gen_keeps_exit_contract(config, extra):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "gen.json")
        cfg.write_text(json.dumps(config))
        run_clean(["gen", "--config", cfg, *extra, Path(tmp, "out.txt")])


@FUZZ
@given(config=montecarlo_config)
def test_montecarlo_keeps_exit_contract(config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "mc.json")
        cfg.write_text(json.dumps(config))
        run_clean(["montecarlo", "--config", cfg, Path(tmp, "out.csv")])
