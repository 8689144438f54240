"""Command-line surface for the separation pipeline.

Subcommands: ``gen`` (synthesize sources), ``separate`` (run the maximum
method or the PCA baseline), ``montecarlo`` (seeded noise-robustness
sweep), ``phase`` (export the phase trajectory for plotting), ``edf``
(EDF to text extraction) and ``evaluate`` (source/estimate association
report).

Exit codes are a stable scripting contract: 0 success, 2 usage or
configuration error, 3 I/O or file-content error, 4 degenerate
numerical input, 5 unsupported format feature.  Each error type in
``phasemax.errors`` declares its code as ``exit_code``; an ``OSError``
exits 3.  All numeric output is 17-significant-digit locale-independent
decimal text, so a command with fixed inputs and seed writes
byte-identical files on every run on the same machine and numpy/LAPACK
build.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import evaluation, ingest, separation, signals
from .errors import InvalidSpecError, PhasemaxError, ZeroSignalError
from .ingest import format_number as _fmt

PRESETS = {
    "disjoint": signals.disjoint_sources_spec,
    "correlated": signals.correlated_sources_spec,
    "coincident": signals.coincident_peaks_spec,
}


# ---------------------------------------------------------------------------
# Config parsing (JSON documents, unknown keys rejected)
# ---------------------------------------------------------------------------


def _require_keys(obj: dict, allowed, context: str) -> None:
    if not isinstance(obj, dict):
        raise InvalidSpecError(f"{context}: must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise InvalidSpecError(f"unknown key(s) in {context}: {', '.join(sorted(unknown))}")


def _array(value, context: str) -> list:
    """A list field: a JSON array, so ``"21"`` is not read as the list ``["2", "1"]``."""
    if not isinstance(value, list):
        raise InvalidSpecError(f"{context}: {value!r} is not a list")
    return value


def _number(value, context: str) -> float:
    """A number field: a JSON int or float, so ``true`` or ``"12"`` is not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidSpecError(f"{context}: {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond float64
        raise InvalidSpecError(f"{context}: {value} is too large") from None


def _integer(value, context: str) -> int:
    """An integer field: a whole JSON number, so ``2.7``, ``true`` or ``"12"`` is not converted."""
    if not _number(value, context).is_integer():
        raise InvalidSpecError(f"{context}: {value!r} is not a valid int")
    return int(value)


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # bad JSON, bad UTF-8, or an integer over 4300 digits
            raise InvalidSpecError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise InvalidSpecError(f"{path}: top level must be an object")
    return obj


def _pulse_from_json(obj, context: str) -> signals.Pulse:
    keys = ("center", "width", "amplitude")
    _require_keys(obj, keys, context)
    for key in keys:
        if key not in obj:
            raise InvalidSpecError(f"{context}: missing field {key}")
    return signals.Pulse(*(_number(obj[key], f"{context}: {key}") for key in keys))


def _fixture_from_json(obj, context: str = "fixture") -> signals.PulseTrainSpec:
    _require_keys(obj, ("n_samples", "sources"), context)
    if "n_samples" not in obj or "sources" not in obj:
        raise InvalidSpecError(f"{context}: needs n_samples and sources")
    sources = tuple(
        tuple(
            _pulse_from_json(p, f"{context}: source {j}, pulse {k}")
            for k, p in enumerate(_array(train, f"{context}: source {j}"), start=1)
        )
        for j, train in enumerate(_array(obj["sources"], f"{context}: sources"), start=1)
    )
    return signals.PulseTrainSpec(_integer(obj["n_samples"], f"{context}: n_samples"), sources)


def _preset_from_json(obj) -> signals.PulseTrainSpec:
    name = obj["preset"]
    if not isinstance(name, str) or name not in PRESETS:
        raise InvalidSpecError(f"config: unknown preset {name!r}; expected {sorted(PRESETS)}")
    return PRESETS[name](_integer(obj.get("n_samples", 1000), "config: n_samples"))


def _gen_config(obj) -> tuple:
    _require_keys(obj, ("preset", "n_samples", "sources", "mixing", "noise_sd"), "config")
    noise_sd = _number(obj.get("noise_sd", 0.0), "config: noise_sd")
    mixing = _mixing_from_json(obj["mixing"]) if obj.get("mixing") is not None else None
    if "preset" in obj:
        if "sources" in obj:
            raise InvalidSpecError("config: give either preset or sources, not both")
        spec = _preset_from_json(obj)
    else:
        spec = _fixture_from_json(
            {k: obj[k] for k in ("n_samples", "sources") if k in obj}, "config"
        )
    return spec, mixing, noise_sd


def _mixing_from_json(obj, context: str = "mixing") -> np.ndarray:
    rows = obj if isinstance(obj, list) and all(isinstance(row, list) for row in obj) else []
    if not rows or any(len(row) != len(rows) for row in rows):
        raise InvalidSpecError(f"{context}: must be a square matrix of numbers")
    return np.array([[_number(v, context) for v in row] for row in rows])


# The keys a Monte-Carlo method entry may carry besides "method".
_METHOD_KEYS = {"maximum": ("whitening", "order"), "pca": ("centered",)}


def _method_from_json(obj, context: str) -> evaluation.MethodSpec:
    name = obj.get("method") if isinstance(obj, dict) else None
    if not isinstance(name, str) or name not in _METHOD_KEYS:
        raise InvalidSpecError(f'{context}: must be an object with method "maximum" or "pca"')
    _require_keys(obj, ("method",) + _METHOD_KEYS[name], f"{context} ({name})")
    order = None
    if "order" in obj:
        items = _array(obj["order"], f"{context}: order")
        order = tuple(_integer(i, f"{context}: order") for i in items)
    whitening = obj.get("whitening")
    if "whitening" in obj and not isinstance(whitening, str):
        raise InvalidSpecError(f"{context}: whitening {whitening!r} is not a string")
    return evaluation.MethodSpec(
        name=name,
        whitening=whitening,
        order=order,
        centered=obj.get("centered", False),
    )


def _montecarlo_config(obj) -> evaluation.MonteCarloConfig:
    allowed = ("fixture", "preset", "n_samples", "mixing", "noise_sd", "n_runs", "base_seed", "methods")
    _require_keys(obj, allowed, "config")
    if "fixture" in obj:
        if "preset" in obj or "n_samples" in obj:
            raise InvalidSpecError("config: a fixture takes no preset and no top-level n_samples")
        fixture = _fixture_from_json(obj["fixture"])
    elif "preset" in obj:
        fixture = _preset_from_json(obj)
    else:
        raise InvalidSpecError("config: needs a fixture or a preset")
    sds = _array(obj.get("noise_sd"), "config: noise_sd")
    methods = _array(obj.get("methods"), "config: methods")
    mixing = _mixing_from_json(obj["mixing"]) if obj.get("mixing") is not None else None
    return evaluation.MonteCarloConfig(
        fixture=fixture,
        noise_sds=tuple(_number(s, "config: noise_sd") for s in sds),
        n_runs=_integer(obj.get("n_runs", 200), "config: n_runs"),
        base_seed=_integer(obj.get("base_seed", 0), "config: base_seed"),
        methods=tuple(
            _method_from_json(m, f"config: methods[{k}]") for k, m in enumerate(methods)
        ),
        mixing=mixing,
    )


def parse_mixing(text: str) -> np.ndarray:
    """Parse an inline matrix like ``"1.3,2;1,3"`` (rows split by ;)."""
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
    except ValueError:
        raise InvalidSpecError(f"cannot parse mixing matrix {text!r}") from None
    return _mixing_from_json(rows, "--mixing")


def parse_channels(text: str) -> list:
    """Parse ``"2-5"``, ``"1,3,7"`` or label names into a selection list."""
    items: list = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part and not part.startswith("-"):
            lo, _, hi = part.partition("-")
            if lo.strip().isdigit() and hi.strip().isdigit():
                items.extend(range(int(lo), int(hi) + 1))
                continue
        items.append(int(part) if part.lstrip("+-").isdigit() else part)
    if not items:
        raise InvalidSpecError(f"empty channel selection {text!r}")
    return items


# ---------------------------------------------------------------------------
# Output documents
# ---------------------------------------------------------------------------


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _directions_doc(result: separation.SeparationResult) -> list:
    lines = [
        f"method: {result.method}",
        f"whitening: {result.whitening.method}",
    ]
    if result.whitening.channel_order is not None:
        lines.append(
            "channel_order: " + " ".join(str(i) for i in result.whitening.channel_order)
        )
    lines.append(f"n_estimates: {len(result.estimates)}")
    for k, est in enumerate(result.estimates, start=1):
        lines.append(f"estimate_{k}_direction: " + " ".join(_fmt(v) for v in est.direction))
        if est.argmax_index is not None:
            lines.append(f"estimate_{k}_argmax_index: {est.argmax_index}")
        if est.radius is not None:
            lines.append(f"estimate_{k}_radius: {_fmt(est.radius)}")
    lines.append("residual_energy: " + " ".join(_fmt(e) for e in result.residual_energy))
    for i, row in enumerate(result.whitening.forward, start=1):
        lines.append(f"whitening_forward_row_{i}: " + " ".join(_fmt(v) for v in row))
    return lines


def _association_doc(report: evaluation.AssociationReport, left: str, right: str) -> list:
    lines = [f"n_pairs: {len(report.pairs)}"]
    for i, j, rho in report.pairs:  # 1-based in the document
        lines.append(f"pair: {left}={i + 1} {right}={j + 1} correlation={_fmt(rho)}")
    for i, row in enumerate(report.correlation_matrix, start=1):
        lines.append(f"correlation_row_{i}: " + " ".join(_fmt(v) for v in row))
    return lines


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.config is not None:
        if args.n_samples is not None:
            raise InvalidSpecError("--n-samples applies to --preset only")
        spec, mixing, noise_sd = _gen_config(_load_json(args.config))
    else:
        n_samples = 1000 if args.n_samples is None else _integer(args.n_samples, "--n-samples")
        spec, mixing, noise_sd = PRESETS[args.preset](n_samples), None, 0.0
    if args.mixing is not None:  # inline form wins over the config
        mixing = parse_mixing(args.mixing)
    if args.noise_sd != 0.0:  # a nonzero inline sd wins over the config
        noise_sd = args.noise_sd
    noise = signals.NoiseSpec(noise_sd, args.seed)
    out = signals.generate_sources(spec)
    if mixing is not None:
        out = signals.mix(out, mixing)
    out = signals.add_noise(out, noise)
    ingest.write_matrix_text(args.out, out)
    return 0


def _read_signal(path, skip_columns=0) -> signals.MultichannelSignal:
    return ingest.read_matrix_text(path, skip_columns=skip_columns).signal


def _cmd_separate(args) -> int:
    try:
        order = tuple(int(i) for i in args.order.split(",")) if args.order else None
    except ValueError:
        raise InvalidSpecError(f"--order: {args.order!r} is not a list of ints like 2,1") from None
    if args.method == "pca" and args.whiten != "none":
        raise InvalidSpecError("--whiten applies to --method max only")
    methods = {
        "max": evaluation.MethodSpec("maximum", args.whiten, order),
        "pca": evaluation.MethodSpec("pca"),
    }
    other = "pca" if args.method == "max" else "max"
    signal = _read_signal(args.input, skip_columns=args.skip_columns)
    if args.center:
        signal = signals.center(signal)

    result = methods[args.method].run(signal)
    ingest.write_matrix_text(args.out_estimates, result.series_matrix)
    if args.out_directions is not None:
        _write_lines(args.out_directions, _directions_doc(result))

    if args.compare is not None:
        report = evaluation.cross_method_correlations(result, methods[other].run(signal))
        _write_lines(args.compare, _association_doc(report, args.method, other))
    return 0


def _cmd_montecarlo(args) -> int:
    cfg = _montecarlo_config(_load_json(args.config))
    reports = evaluation.monte_carlo_rms(cfg)
    header = ["sample"] + [
        f"{rep.method}_sd{rep.noise_sd:g}_src{src + 1}"
        for rep in reports
        for src in range(cfg.fixture.n_sources)
    ]
    table = np.vstack([np.arange(cfg.fixture.n_samples)] + [rep.rms for rep in reports])
    ingest.write_matrix_text(args.out, table, labels=header, delimiter=",")
    return 0


def _cmd_phase(args) -> int:
    signal = _read_signal(args.input, skip_columns=args.skip_columns)
    r = separation.radius_series(signal)
    n_max = int(np.argmax(r))  # the earliest sample wins ties
    if r[n_max] == 0.0:  # a nonzero radius is at least sqrt(5e-324) ~ 2.2e-162
        raise ZeroSignalError("signal is identically zero; no direction exists")
    header = ["index"] + [f"z{i + 1}" for i in range(signal.n_channels)] + ["r", "is_max"]
    index = np.arange(signal.n_samples)
    table = np.vstack([index, signal.data, r, index == n_max])
    ingest.write_matrix_text(args.out, table, labels=header)
    return 0


def _cmd_edf(args) -> int:
    channels = parse_channels(args.channels) if args.channels else None
    rec = ingest.read_edf(args.input, channels=channels, max_samples=args.samples)
    labels = ["_".join(label.split()) for label in rec.labels]  # "ECG I" -> "ECG_I"
    ingest.write_matrix_text(args.out, rec.signal, labels=labels)
    return 0


def _cmd_evaluate(args) -> int:
    truth = _read_signal(args.truth)
    estimates = _read_signal(args.estimates)
    report = evaluation.associate(truth, estimates)
    echo = [f"truth: {args.truth}", f"estimates: {args.estimates}"]
    _write_lines(args.out, echo + _association_doc(report, "source", "estimate"))
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasemax",
        description="Sparse source separation via phase-space maxima.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic sparse sources")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="JSON pulse-train config")
    source.add_argument("--preset", choices=sorted(PRESETS), help="bundled fixture")
    p.add_argument("--n-samples", type=int, help="sample count for presets (default 1000)")
    p.add_argument("--mixing", help='inline mixing matrix, e.g. "1.3,2;1,3"')
    p.add_argument("--noise-sd", type=float, default=0.0, help="add seeded Gaussian noise")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument("out", help="output text matrix, one channel per column")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("separate", help="estimate sources from a mixture file")
    p.add_argument("input", help="text matrix, one channel per column")
    p.add_argument("--method", choices=("max", "pca"), default="max")
    p.add_argument(
        "--whiten",
        choices=("none", "gram-schmidt", "pca"),
        default="none",
        help="pre-whitening for the max method",
    )
    p.add_argument("--order", help="1-based channel order for gram-schmidt, e.g. 2,1")
    p.add_argument("--center", action="store_true", help="subtract channel means first")
    p.add_argument("--skip-columns", type=int, default=0, help="leading input columns to drop")
    p.add_argument("--out-directions", help="write directions/energies document here")
    p.add_argument("--compare", help="also run the other method; write association here")
    p.add_argument("out_estimates", help="output text matrix of estimated series")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("montecarlo", help="seeded Monte-Carlo RMS noise sweep")
    p.add_argument("--config", required=True, help="JSON sweep config")
    p.add_argument("out", help="output CSV of RMS series")
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("phase", help="export the phase trajectory for plotting")
    p.add_argument("input", help="text matrix, one channel per column")
    p.add_argument("--skip-columns", type=int, default=0)
    p.add_argument("out", help="output table: index, channels, radius, max flag")
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("edf", help="extract channels from an EDF file to text")
    p.add_argument("input", help="EDF file")
    p.add_argument("--channels", help='1-based selection, e.g. "2-5" or "1,3" or labels')
    p.add_argument("--samples", type=int, help="keep only the first N samples")
    p.add_argument("out", help="output text matrix with a label header row")
    p.set_defaults(func=_cmd_edf)

    p = sub.add_parser("evaluate", help="associate estimates with true sources")
    p.add_argument("truth", help="text matrix of true sources")
    p.add_argument("estimates", help="text matrix of estimated sources")
    p.add_argument("--out", required=True, help="association report (structured text)")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        # --whiten uses a dash on the command line, modules use a underscore
        if getattr(args, "whiten", None) is not None:
            args.whiten = args.whiten.replace("-", "_")
        # overflow is reported as one NonFiniteError line, not numpy warnings first
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (PhasemaxError, OSError) as exc:
        print(f"phasemax: error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
