"""The phasemax benchmark: one workload, run in a closed loop, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

Run from anywhere inside a checkout that holds ``src/phasemax`` and
``docs/noise-robustness.json``.  The seed makes the inputs; ``--seconds``
bounds the measured loop (one iteration starts only when the previous one
has ended, and only if the median iteration still fits); ``--small`` runs
the reduced sizes the smoke tests use.

With ``--trace 0`` the iterations run untraced and the end-to-end metrics
of BENCHMARK.json are reported.  With ``--trace 1`` untraced and traced
iterations alternate; the traced ones give the per-layer metrics, and the
difference of the two medians is ``trace.overhead_s``.  Every metric is
printed as ``name value unit`` first; the last line is the JSON result.
Spans of the traced iterations are written to
``.bench_work/traces/<workload>-seed<N>.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up runs in this many fresh processes; setup_s is their median.
SETUP_PROBES = 7

# Workloads run.py accepts beyond those of BENCHMARK.json.  The paper's
# Monte-Carlo sweep is kept for its exact per-layer counts, but not gated:
# its wall time spread past the 0.25 bound between runs on a shared host
# (README.md, "Machine and noise").
UNGATED_WORKLOADS = ("montecarlo-paper",)

# One BLAS thread: the arrays are small or Python-bound, and a second
# thread on a 2-core host adds run-to-run spread, not speed.
BLAS_THREADS = 1
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_program():
    """Import phasemax from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "phasemax" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no phasemax package at {SRC}")
    sys.path.insert(0, str(SRC))
    import phasemax

    if Path(phasemax.__file__).resolve().parent != SRC / "phasemax":
        raise SystemExit(f"run.py: imported phasemax from {phasemax.__file__}, not {SRC}")


def setup_probe(workload: str, seed: int, small: bool) -> float:
    """Seconds to import phasemax and build the inputs, in this process."""
    start = time.perf_counter()
    _import_program()
    import workloads

    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workloads.WORKLOADS[workload](seed, Path(tmp), small)
        return time.perf_counter() - start


def _setup_seconds(workload: str, seed: int, small: bool) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)] + (["--small"] if small else [])
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run(spec: dict, workload: str, seed: int, seconds: float, trace: bool, small: bool) -> tuple:
    """Measure one workload; return (result dict, human-readable lines)."""
    _import_program()
    WORK.mkdir(exist_ok=True)
    setup_s = _setup_seconds(workload, seed, small)

    import tracer as tracing
    import workloads

    attempted = failed = 0
    walls = {False: [], True: []}  # successful iterations, untraced / traced
    durations = []  # every iteration, for the stopping rule
    corrs = []
    tracer = tracing.Tracer()
    summaries = []
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        # The reduced reference case runs first and untimed, which also
        # finishes lazy imports and fills caches before the loop.  A
        # difference of -1 stands for other shapes or a failed case.
        (tmp / "reference").mkdir()
        attempted += 1
        try:
            diff = workloads.reference_diff(workload, tmp / "reference")
        except Exception:
            traceback.print_exc()
            failed += 1
            diff = -1.0
        else:
            # Only the Monte-Carlo CSV is held to the reference; for the
            # other two the difference is a diagnostic.
            if workload == "montecarlo-paper" and not 0 <= diff <= workloads.MONTECARLO_REFERENCE_TOL:
                print(f"reference case differs by {diff:.3g}", file=sys.stderr)
                failed += 1

        case = workloads.WORKLOADS[workload](seed, tmp, small)
        start = time.perf_counter()
        while True:
            traced = trace and len(durations) % 2 == 1
            if (
                durations
                and (not trace or len(durations) >= 2)
                and time.perf_counter() - start + statistics.median(durations) > seconds
            ):
                break
            attempted += 1
            try:
                with tracer.installed() if traced else contextlib.nullcontext():
                    began = time.perf_counter()
                    try:
                        rc = case.iterate()
                    finally:
                        durations.append(time.perf_counter() - began)
                if rc != 0:
                    raise workloads.CheckFailed(f"exit code {rc}")
                corrs.append(case.check())
                walls[traced].append(durations[-1])
            except Exception:
                traceback.print_exc()
                failed += 1
            if traced:
                summaries.append(tracer.summary())
    if trace:
        tracer.write(WORK / "traces" / f"{workload}-seed{seed}.csv")

    def median_wall(traced):
        return statistics.median(walls[traced] or durations)

    wall_s = median_wall(False)
    values = {
        "wall_s": wall_s,
        "throughput": case.work / wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "min_abs_corr": min(corrs) if corrs else 0.0,
    }
    if trace:
        values.update(tracing.median_summary(summaries))
        values["trace.overhead_s"] = median_wall(True) - wall_s
        values["check.output_max_abs_diff"] = diff

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    lines = [
        f"workload {workload}  seed {seed}  trace {int(trace)}  blas_threads {BLAS_THREADS}",
        f"iterations {len(durations)} (traced {len(walls[True])})  "
        f"error_rate {failed / attempted:.6g}  ({failed} failed of {attempted} attempted)",
        "iteration_s " + " ".join(f"{d:.4f}" for d in durations),
    ]
    lines += [f"{name:<48} {m['value']:.9g} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]] + list(UNGATED_WORKLOADS)
    )
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for smoke tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for variable in _THREAD_VARIABLES:  # before numpy is imported
        os.environ[variable] = str(BLAS_THREADS)

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed, args.small))
        return 0
    result, lines = run(spec, args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
