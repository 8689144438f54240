"""Smoke tests of the benchmark at reduced sizes.

    python3 -m pytest -q bench/test_smoke.py

They run every workload through ``run.py --small``, check the result
line against BENCHMARK.json, and check that a corrupted output counts
as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]] + list(run.UNGATED_WORKLOADS)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_printed_with_its_unit(name, trace):
    done = _run("--workload", name, "--seed", "5", "--seconds", "0.5", "--trace", trace, "--small")
    assert done.returncode == 0, done.stderr
    *lines, last = done.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in lines)
    assert any("error_rate 0" in line for line in lines)
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def _case(name, tmp_path, seed=5):
    case = workloads.WORKLOADS[name](seed, tmp_path, small=True)
    assert case.iterate() == 0
    case.check()
    return case


def test_counts_repeat_exactly(tmp_path):
    case = workloads.MonteCarloPaper(5, tmp_path, small=True)
    tracer = tracing.Tracer()
    summaries = []
    for _ in range(2):
        with tracer.installed():
            assert case.iterate() == 0
        summaries.append(tracer.summary())
    counts = [k for k in summaries[0] if k.endswith((".calls", "constructions", "bytes_computed"))]
    assert [summaries[0][k] for k in counts] == [summaries[1][k] for k in counts]
    # 2 x 2 correlations per association, one association per separation
    assert summaries[0]["evaluation.pearson.calls"] == 4 * case.work
    assert summaries[0]["separation.deflate.calls"] == case.work  # 2 steps, half the runs
    assert summaries[0]["numerics.symmetric_eig.calls"] == case.work // 2


def test_noise_estimate_fails_wide_check(tmp_path):
    case = _case("wide-separate-api", tmp_path)
    estimates = case.maximum.series_matrix.copy()
    estimates[3] = np.random.default_rng(0).standard_normal(estimates.shape[1])
    with pytest.raises(workloads.CheckFailed):
        case.check(estimates)


def test_noise_estimate_fails_ecg_check(tmp_path):
    case = _case("ecg-edf-pipeline", tmp_path)
    estimates = case.read_estimates()
    estimates[0] = np.random.default_rng(0).standard_normal(estimates.shape[1])
    with pytest.raises(workloads.CheckFailed):
        case.check(estimates)


def test_noise_column_fails_montecarlo_check(tmp_path):
    case = _case("montecarlo-paper", tmp_path)
    lines = case.out.read_text().splitlines()
    noise = np.random.default_rng(0).uniform(0.0, 1.0, len(lines) - 1)
    rows = [line.split(",") for line in lines[1:]]
    for row, value in zip(rows, noise):
        row[1] = f"{value:.17g}"  # maximum-gramschmidt_sd0.001_src1
    case.out.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    with pytest.raises(workloads.CheckFailed):
        case.check()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
