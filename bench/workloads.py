"""The benchmark's workloads: inputs from a seed, one operation, its check.

One operation is one identification, driven through the public API of the
``plastinfer`` source tree of this checkout (``src/``). Operation ``i`` of a
run draws its dataset seed and sampler seed from ``SeedSequence(seed, i)``,
so a seed fixes every input of a run and the program receives only the
generated inputs.

Why these three (``BENCHMARK.json`` declares the last two, which reach
every module; see README.md):

- ``pp-coverage`` is the criterion-6 identification. Its target is cheap,
  so the sampler, the prior and the posterior's per-call overhead take
  most of the time.
- ``lenh-double`` is the repository's own LE-NH stress-and-strain
  configuration. The implicit ``stress_lenh`` solves inside the likelihood
  take almost all of the time and the sampler almost none.
- ``cli-lh-double`` is the criterion-9 LE-LH stress-and-strain set run
  through ``plastinfer.cli``: closed-form affine likelihood, a 5k-step
  3-D adaptive history, and all of the post-processing and file output
  that the library workloads skip.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import plastinfer  # noqa: E402
from plastinfer import cli  # noqa: E402
from plastinfer import (  # noqa: E402
    ConfigurationError,
    DomainError,
    LogPosterior,
    ModelKind,
    NumericalError,
    ParameterVector,
    SamplerConfig,
    TruncatedNormalPrior,
)

from ess import min_ess  # noqa: E402

if not Path(plastinfer.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"plastinfer was imported from {plastinfer.__file__}, not from {SRC}")

GRID_12 = np.linspace(2.4e-4, 12 * 2.4e-4, 12)
MAP_RTOL = 1e-12


class OperationFailed(Exception):
    """An operation's output check failed or its CLI call exited non-zero."""


# Failures an operation may end with; the run records them and goes on.
FAILURES = (NumericalError, DomainError, ConfigurationError, OperationFailed)


@dataclass(frozen=True)
class Outcome:
    """What the benchmark takes from a checked operation."""

    min_ess: float
    covered: bool | None = None


def _seeds(seed: int, index: int) -> tuple[int, int]:
    data_seed, chain_seed = np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(2)
    return int(data_seed), int(chain_seed)


def _check_samples(samples: np.ndarray) -> None:
    if not np.all(np.isfinite(samples)):
        raise OperationFailed("chain holds non-finite samples")
    if np.any(samples < 0.0):
        raise OperationFailed("chain holds negative samples")


def _check_map(target: LogPosterior, state, stored: float) -> None:
    fresh = target(np.asarray(state, dtype=float))
    if not (math.isfinite(stored) and abs(fresh - stored) <= MAP_RTOL * abs(fresh)):
        raise OperationFailed(f"stored MAP log-density {stored!r} != fresh evaluation {fresh!r}")


class LibraryWorkload:
    """An identification through the library: generate, sample, summarize."""

    def __init__(
        self,
        seed: int,
        *,
        kind: ModelKind,
        truth: ParameterVector,
        prior: TruncatedNormalPrior,
        stress_std: float,
        strain_std: float | None,
        sampler: dict,
        check_coverage: bool = False,
    ) -> None:
        self.seed = seed
        self.kind = kind
        self.truth = truth
        self.prior = prior
        self.stress_std = stress_std
        self.strain_std = strain_std
        self.sampler = sampler
        self.check_coverage = check_coverage

    def target(self, index: int) -> LogPosterior:
        data_seed, _ = _seeds(self.seed, index)
        if self.strain_std is None:
            data = plastinfer.generate_single_noise(
                self.truth, self.kind, GRID_12, self.stress_std, data_seed
            )
        else:
            data = plastinfer.generate_double_noise(
                self.truth, self.kind, GRID_12, self.stress_std, self.strain_std, data_seed
            )
        return LogPosterior(self.kind, self.prior, data)

    def operation(self, index: int):
        target = self.target(index)
        _, chain_seed = _seeds(self.seed, index)
        chain = plastinfer.run_adaptive_mh(target, SamplerConfig(**self.sampler, seed=chain_seed))
        return target, chain, plastinfer.summarize(chain)

    def check(self, index: int, result) -> Outcome:
        target, chain, summary = result
        _check_samples(chain.samples)
        _check_map(target, summary.map_estimate, summary.map_log_density)
        covered = None
        if self.check_coverage:
            truth = self.truth.to_array()
            covered = bool(summary.credible.ellipsoid_available and summary.credible.contains(truth)[0])
        retained, _ = chain.retained()
        return Outcome(min_ess(retained), covered)


def pp_coverage(seed: int, workdir: Path) -> LibraryWorkload:
    return LibraryWorkload(
        seed,
        kind=ModelKind.PERFECT_PLASTICITY,
        truth=ParameterVector(E=210.0, sigma_y0=0.25),
        prior=TruncatedNormalPrior([200.0, 0.29], [[2500.0, 0.0], [0.0, 2.7778e-4]]),
        stress_std=0.01,
        strain_std=None,
        sampler={"n_samples": 10_000, "burn_in": 3_000, "step_scale": 1.0},
        check_coverage=True,
    )


def lenh_double(seed: int, workdir: Path) -> LibraryWorkload:
    # A short chain: at about 10 ms per target call, 200 steps keep an
    # operation near 2 s, so one run holds a couple of dozen operations.
    std = np.array([50.0, 0.0166667, 0.333333, 0.05])
    return LibraryWorkload(
        seed,
        kind=ModelKind.NONLINEAR_HARDENING,
        truth=ParameterVector(E=210.0, sigma_y0=0.25, H=2.0, n=0.57),
        prior=TruncatedNormalPrior([200.0, 0.29, 2.5, 0.57], np.diag(std * std)),
        stress_std=0.01,
        strain_std=1e-4,
        sampler={"n_samples": 200, "burn_in": 40, "step_scale": 0.02},
    )


class CliWorkload:
    """``plastinfer generate`` then ``plastinfer identify``, in process.

    Each operation works in its own directory under ``workdir`` and
    removes it once checked.
    """

    kind = ModelKind.LINEAR_HARDENING
    truth = {"E": 210.0, "sigma_y0": 0.25, "H": 50.0}
    noise = {"stress_std": 0.01, "strain_std": 1e-4}
    prior = {
        "mean": [200.0, 0.29, 60.0],
        "covariance": [[2500.0, 0.0, 0.0], [0.0, 2.7778e-4, 0.0], [0.0, 0.0, 100.0]],
    }
    # A quarter of criterion 9's 20k steps and 5k burn-in: an operation
    # takes about 2.5 s, so one run holds a couple of dozen of them.
    n_samples = 5_000
    burn_in = 1_250

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self._prior = TruncatedNormalPrior(self.prior["mean"], self.prior["covariance"])

    def target(self, index: int) -> LogPosterior:
        data_seed, _ = _seeds(self.seed, index)
        data = plastinfer.generate_double_noise(
            ParameterVector(**self.truth), self.kind, GRID_12,
            self.noise["stress_std"], self.noise["strain_std"], data_seed,
        )
        return LogPosterior(self.kind, self._prior, data)

    def _call(self, argv: list[str]) -> None:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise OperationFailed(f"plastinfer {argv[0]} exited {code}: {err.getvalue().strip()}")

    def operation(self, index: int) -> Path:
        data_seed, chain_seed = _seeds(self.seed, index)
        run = Path(tempfile.mkdtemp(prefix=f"op{index}-", dir=self.workdir))
        generate = {
            "model": self.kind.value,
            "parameters": self.truth,
            "strains": {"start": 2.4e-4, "step": 2.4e-4, "count": 12},
            "noise": self.noise,
            "seed": data_seed,
        }
        identify = {
            "model": self.kind.value,
            "prior": self.prior,
            "sampler": {
                "adaptive": True,
                "n_samples": self.n_samples,
                "burn_in": self.burn_in,
                "seed": chain_seed,
            },
        }
        (run / "generate.json").write_text(json.dumps(generate))
        (run / "identify.json").write_text(json.dumps(identify))
        (run / "data").mkdir()
        data_path = str(run / "data" / "data.csv")
        self._call(["generate", "--config", str(run / "generate.json"), "--output", data_path])
        self._call([
            "identify", "--config", str(run / "identify.json"),
            "--data", data_path, "--output-dir", str(run / "out"),
        ])
        return run

    def check(self, index: int, run: Path) -> Outcome:
        try:
            out = run / "out"
            summary = json.loads((out / "summary.json").read_text())
            for key, value in summary.items():
                if key not in ("model", "parameter_names", "seed") and not np.all(
                    np.isfinite(np.asarray(value, dtype=float))
                ):
                    raise OperationFailed(f"summary.json field {key!r} is not finite")
            table = np.loadtxt(out / "chain.csv", delimiter=",", skiprows=1, ndmin=2)
            samples = table[:, :-1]
            _check_samples(samples)
            if samples.shape[0] != self.n_samples:
                raise OperationFailed(f"chain.csv has {samples.shape[0]} rows, not {self.n_samples}")
            data = plastinfer.read_measurements(run / "data" / "data.csv")
            target = LogPosterior(self.kind, self._prior, data)
            _check_map(target, summary["map"], summary["map_log_density"])
            band = np.loadtxt(out / "band.csv", delimiter=",", skiprows=1, ndmin=2)
            if not (np.all(np.isfinite(band)) and np.all(band[:, 1] <= band[:, 2])):
                raise OperationFailed("band.csv violates lower <= upper")
            return Outcome(min_ess(samples[self.burn_in :]))
        finally:
            shutil.rmtree(run)


# Factory taking (seed, workdir), and the rough seconds one operation takes
# on a 2-core x86 machine, which sizes the traced run.
WORKLOADS = {
    "pp-coverage": (pp_coverage, 2.2),
    "lenh-double": (lenh_double, 2.2),
    "cli-lh-double": (CliWorkload, 2.5),
}
