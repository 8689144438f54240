"""Seeded inputs, one iteration and the output check of each workload.

Every workload is a class whose constructor is the set-up (it builds the
inputs from the seed), whose ``iterate`` is the timed work, and whose
``check`` verifies the outputs of the last iteration.  Inputs go to the
program only through its public entry points: ``phasemax.cli.main`` for
the command-line workloads and the ``phasemax`` package namespace for
the API workload.  Both are looked up at call time, so the tracer's
wrappers see every call.

Run this file as a script to record ``reference.npz``, the outputs of
each workload at its reduced size and ``REFERENCE_SEED``; ``run.py``
compares against it as ``check.output_max_abs_diff``:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/workloads.py
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

import phasemax
from phasemax import cli

ROOT = Path(__file__).resolve().parent.parent
PAPER_CONFIG = ROOT / "docs" / "noise-robustness.json"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.npz"

REFERENCE_SEED = 20260808  # base_seed of the shipped noise-robustness config

# A recovered source counts as separated at this |correlation| or above.
# Disjoint-support sources come out at |rho| ~ 1; the 16-bit EDF
# quantisation costs the ECG pipeline less than 1e-4.
MIN_ABS_CORR_FLOOR = 0.99

# Largest absolute difference from the recorded Monte-Carlo reference
# that still passes.  The CSV is written with 17 significant digits, so
# an unchanged program reproduces it exactly; this allows a different
# summation order or eigensolver, not a different result.
MONTECARLO_REFERENCE_TOL = 1e-9

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def sparse_sources(rng, n_sources: int, n_samples: int, slot: int) -> np.ndarray:
    """Pulse trains with disjoint support: each slot belongs to one source.

    The samples are cut into slots of ``slot`` samples; every slot holds
    one Gaussian pulse, truncated to the slot, owned by a single source.
    Overlapping random pulse trains are not sparse enough for the
    method and would benchmark a failed separation.
    """
    n_slots = n_samples // slot
    owner = rng.integers(n_sources, size=n_slots)
    owner[:n_sources] = rng.permutation(n_sources)  # every source owns a slot
    amplitude = rng.uniform(0.5, 1.5, size=n_slots)
    centre = slot / 2 + rng.uniform(-slot / 10, slot / 10, size=n_slots)
    t = np.arange(slot)
    pulses = amplitude[:, None] * np.exp(-0.5 * ((t[None, :] - centre[:, None]) / (slot / 10)) ** 2)
    data = np.zeros((n_sources, n_slots, slot))
    data[owner, np.arange(n_slots)] = pulses
    return data.reshape(n_sources, n_slots * slot)


def mixing_matrix(rng, n: int) -> np.ndarray:
    """Standard-normal n x n mixing, redrawn until its condition number is at most 100 n.

    A nearly singular draw would amplify the 16-bit EDF quantisation past
    the correlation floor on some seeds (condition 2682 already costs
    the ECG pipeline 1.6e-3 of correlation).
    """
    while True:
        mixing = rng.standard_normal((n, n))
        if np.linalg.cond(mixing) <= 100 * n:
            return mixing


def min_abs_corr(truth: np.ndarray, estimates: np.ndarray) -> float:
    """Worst |Pearson correlation| over a greedy source/estimate pairing.

    Pairs are taken largest |correlation| first, as ``phasemax.associate``
    does, but computed here independently of the program.  NaN (from a
    constant estimate) propagates so that the check fails.
    """
    if truth.shape != estimates.shape:
        return float("nan")
    # Row by row, so that no centred copy of a whole matrix is made: the
    # check must not raise the run's peak memory above the program's.
    def centred_norms(x):
        return np.array([np.linalg.norm(row - row.mean()) for row in x])

    cross = truth @ estimates.T - np.outer(truth.sum(axis=1), estimates.mean(axis=1))
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.abs(cross) / np.outer(centred_norms(truth), centred_norms(estimates))
    if not np.all(np.isfinite(c)):
        return float("nan")
    worst = 1.0
    for _ in range(len(c)):
        i, j = np.unravel_index(np.argmax(c), c.shape)
        worst = min(worst, float(c[i, j]))
        c[i, :] = -1.0
        c[:, j] = -1.0
    return worst


def _numbers(path) -> np.ndarray:
    """Every number in a structured-text document, in order."""
    return np.array(_NUMBER.findall(Path(path).read_text()), dtype=float)


class CheckFailed(Exception):
    """An output check found a wrong result."""


class MonteCarloPaper:
    """``phasemax montecarlo`` on the shipped noise-robustness config.

    Only ``base_seed`` changes with the seed (and ``n_runs`` at the
    reduced size).  The work unit is one separation.
    """

    name = "montecarlo-paper"
    SMALL_RUNS = 20

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        self.cfg = json.loads(PAPER_CONFIG.read_text())
        self.cfg["base_seed"] = seed
        if small:
            self.cfg["n_runs"] = self.SMALL_RUNS
        self.config_path = workdir / "montecarlo.json"
        self.config_path.write_text(json.dumps(self.cfg))
        self.out = workdir / "montecarlo.csv"
        self.work = self.cfg["n_runs"] * len(self.cfg["noise_sd"]) * len(self.cfg["methods"])

    def iterate(self) -> int:
        return cli.main(["montecarlo", "--config", str(self.config_path), str(self.out)])

    def _table(self):
        lines = self.out.read_text().splitlines()
        header = lines[0].split(",")
        rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
        return header, rows

    def outputs(self) -> np.ndarray:
        return self._table()[1][:, 1:].ravel()

    def check(self) -> float:
        """Validate the CSV; return the worst mean |cosine| of the maximum method.

        The unit-norm, sign-aligned estimate e and truth t of one run
        satisfy ``|e - t|^2 = 2 - 2 e.t``, so the mean over runs of the
        estimate's cosine with its source is ``1 - sum_n rms[n]^2 / 2``.
        """
        header, rows = self._table()
        spec = cli.PRESETS[self.cfg["preset"]](self.cfg.get("n_samples", 1000))
        labels = ["maximum-gramschmidt", "pca"]
        expected = ["sample"] + [
            f"{label}_sd{sd:g}_src{k}"
            for sd in self.cfg["noise_sd"]
            for label in labels
            for k in range(1, spec.n_sources + 1)
        ]
        if header != expected:
            raise CheckFailed(f"CSV header {header[:4]}... differs from the expected columns")
        if rows.shape != (spec.n_samples, len(expected)) or not np.all(np.isfinite(rows)):
            raise CheckFailed(f"CSV has shape {rows.shape} or non-finite values")
        if not np.array_equal(rows[:, 0], np.arange(spec.n_samples)):
            raise CheckFailed("CSV sample column is not 0..n-1")
        rms = dict(zip(expected[1:], rows[:, 1:].T))

        # Criterion C5: both methods clean at the lowest noise level, and
        # PCA ahead of the maximum method near source 2's pulses at 0.01.
        source1 = phasemax.generate_sources(spec).data[0]
        peak1 = np.max(np.abs(source1)) / np.sqrt(source1 @ source1)
        for label in labels:
            worst = rms[f"{label}_sd0.001_src1"].max()
            if not worst < 0.02 * peak1:
                raise CheckFailed(f"{label} at sd 0.001: peak RMS {worst:.3g} >= {0.02 * peak1:.3g}")
        mask = np.zeros(spec.n_samples, dtype=bool)
        for pulse in spec.sources[1]:
            mask[int(pulse.center - 2 * pulse.width) : int(pulse.center + 2 * pulse.width) + 1] = True
        ratio = rms["maximum-gramschmidt_sd0.01_src1"][mask].mean() / rms["pca_sd0.01_src1"][mask].mean()
        if not ratio >= 1.2:
            raise CheckFailed(f"maximum/pca RMS ratio at sd 0.01 is {ratio:.3f} < 1.2")

        return min(
            1.0 - float(np.sum(rms[f"maximum-gramschmidt_sd{sd:g}_src{k}"] ** 2)) / 2.0
            for sd in self.cfg["noise_sd"]
            for k in range(1, spec.n_sources + 1)
        )


def _edf_bytes(data: np.ndarray, labels, samples_per_record: int) -> bytes:
    """A continuous 16-bit EDF file with 1 s records, one rate for all signals.

    Written here rather than with ``phasemax.write_edf`` so that the
    input stays the same whatever the program's writer does.
    """
    n, m = data.shape
    n_records = m // samples_per_record
    bound = np.maximum(1, np.ceil(np.abs(data).max(axis=1))).astype(int)
    dmin, dmax = -32768, 32767

    def field(values, size):
        return b"".join(str(v).encode("ascii").ljust(size) for v in values)

    header = b"".join(
        (
            field(["0"], 8),
            field(["bench"], 80),
            field(["synthetic sparse mixture"], 80),
            field(["01.01.26"], 8),
            field(["00.00.00"], 8),
            field([256 + 256 * n], 8),
            field([""], 44),
            field([n_records], 8),
            field([1], 8),
            field([n], 4),
            field(labels, 16),
            field([""] * n, 80),
            field(["mV"] * n, 8),
            field(-bound, 8),
            field(bound, 8),
            field([dmin] * n, 8),
            field([dmax] * n, 8),
            field([""] * n, 80),
            field([samples_per_record] * n, 8),
            field([""] * n, 32),
        )
    )
    digital = np.empty((n, m), dtype="<i2")
    for i in range(n):  # one channel at a time keeps the set-up's memory small
        scaled = (data[i] + bound[i]) * ((dmax - dmin) / (2.0 * bound[i])) + dmin
        digital[i] = np.clip(np.rint(scaled), dmin, dmax)
    records = digital.reshape(n, n_records, samples_per_record).transpose(1, 0, 2)
    return header + records.tobytes()


class EcgEdfPipeline:
    """``phasemax edf`` then ``phasemax separate``, the README's ECG workflow.

    The EDF holds 10 signals at 1 kHz: leads 1-8 are a seeded mixture of
    8 disjoint-support sparse sources, leads 9-10 seeded noise that the
    pipeline does not select.  The work unit is one channel-sample
    separated.
    """

    name = "ecg-edf-pipeline"
    N_LEADS = 8
    SLOT = 100

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        total, self.n_samples = (4000, 3000) if small else (300_000, 200_000)
        rng = np.random.default_rng(seed)
        self.sources = sparse_sources(rng, self.N_LEADS, total, self.SLOT)
        mixing = mixing_matrix(rng, self.N_LEADS)
        leads = np.empty((self.N_LEADS + 2, total))
        np.matmul(mixing, self.sources, out=leads[: self.N_LEADS])
        leads[self.N_LEADS :] = 0.1 * rng.standard_normal((2, total))
        self.edf = workdir / "leads.edf"
        self.edf.write_bytes(_edf_bytes(leads, [f"lead{i}" for i in range(1, 11)], 1000))
        self.text = workdir / "leads.txt"
        self.estimates = workdir / "estimates.txt"
        self.directions = workdir / "directions.txt"
        self.compare = workdir / "compare.txt"
        self.work = self.N_LEADS * self.n_samples

    def iterate(self) -> int:
        rc = cli.main(
            ["edf", str(self.edf), "--channels", f"1-{self.N_LEADS}",
             "--samples", str(self.n_samples), str(self.text)]
        )
        if rc != 0:
            return rc
        return cli.main(
            ["separate", str(self.text), "--method", "max", "--whiten", "gram-schmidt",
             "--out-directions", str(self.directions), "--compare", str(self.compare),
             str(self.estimates)]
        )

    def outputs(self) -> np.ndarray:
        return np.concatenate([_numbers(self.directions), _numbers(self.compare)])

    def read_estimates(self) -> np.ndarray:
        return np.loadtxt(self.estimates, ndmin=2).T

    def check(self, estimates: np.ndarray | None = None) -> float:
        """Return min |corr| of the estimates against the true sources."""
        if estimates is None:
            estimates = self.read_estimates()
        if estimates.shape != (self.N_LEADS, self.n_samples):
            raise CheckFailed(f"estimates have shape {estimates.shape}")
        worst = min_abs_corr(self.sources[:, : self.n_samples], estimates)
        if not worst >= MIN_ABS_CORR_FLOOR:
            raise CheckFailed(f"min |corr| {worst:.6f} below {MIN_ABS_CORR_FLOOR}")
        if f"n_pairs: {self.N_LEADS}" not in self.compare.read_text():
            raise CheckFailed("compare document does not pair every estimate")
        return worst


class WideSeparateApi:
    """``separate_maximum`` with PCA whitening, ``pca_separate`` and
    ``cross_method_correlations`` on 32 sparse sources held in memory.

    The work unit is one channel-sample separated.
    """

    name = "wide-separate-api"
    SLOT = 50

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        n, m = (8, 4000) if small else (32, 100_000)
        rng = np.random.default_rng(seed)
        self.sources = sparse_sources(rng, n, m, self.SLOT)
        self.signal = phasemax.MultichannelSignal(mixing_matrix(rng, n) @ self.sources)
        self.work = n * m

    def iterate(self) -> int:
        self.maximum = phasemax.separate_maximum(self.signal, whitening="pca")
        self.pca = phasemax.pca_separate(self.signal)
        self.report = phasemax.cross_method_correlations(self.maximum, self.pca)
        return 0

    def outputs(self) -> np.ndarray:
        return np.concatenate(
            [
                np.ravel([e.direction for e in self.maximum.estimates]),
                self.maximum.residual_energy,
                self.maximum.whitening.forward.ravel(),
                np.ravel([e.direction for e in self.pca.estimates]),
                self.report.correlation_matrix.ravel(),
            ]
        )

    def check(self, estimates: np.ndarray | None = None) -> float:
        """Return min |corr| of the maximum-method estimates against the sources."""
        if estimates is None:
            estimates = self.maximum.series_matrix
        n = self.sources.shape[0]
        if len(self.pca.estimates) != n or self.report.correlation_matrix.shape != (n, n):
            raise CheckFailed("PCA baseline or cross-method report is incomplete")
        worst = min_abs_corr(self.sources, estimates)
        if not worst >= MIN_ABS_CORR_FLOOR:
            raise CheckFailed(f"min |corr| {worst:.6f} below {MIN_ABS_CORR_FLOOR}")
        return worst


WORKLOADS = {w.name: w for w in (MonteCarloPaper, EcgEdfPipeline, WideSeparateApi)}


def reference_outputs(name: str, workdir: Path) -> np.ndarray:
    """Checked outputs of one workload at its reduced size and the reference seed."""
    case = WORKLOADS[name](REFERENCE_SEED, workdir, small=True)
    rc = case.iterate()
    if rc != 0:
        raise CheckFailed(f"reference case exited {rc}")
    case.check()
    return case.outputs()


def reference_diff(name: str, workdir: Path) -> float:
    """Largest |difference| of the reference case from ``reference.npz``; -1 if the shapes differ."""
    got = reference_outputs(name, workdir)
    with np.load(REFERENCE_FILE) as recorded:
        expected = recorded[name]
    if got.shape != expected.shape:
        return -1.0
    return float(np.max(np.abs(got - expected)))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        arrays = {name: reference_outputs(name, Path(tmp)) for name in WORKLOADS}
    np.savez(REFERENCE_FILE, **arrays)
    print(f"wrote {REFERENCE_FILE}: " + ", ".join(f"{k} {v.size}" for k, v in arrays.items()))
