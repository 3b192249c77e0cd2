"""Random-walk Metropolis samplers and chain post-processing.

``run_mh`` and ``run_adaptive_mh`` enter one Metropolis loop proposing
``x + z A``, z standard normal. A is the step scale times the identity;
the adaptive entry point periodically replaces it by the scaled R factor
of the QR decomposition of the chain's centered history (the Adaptive
Metropolis of Haario, Saksman and Tamminen, 2001), so correlated
posteriors mix without hand-tuning at O(dim^2) per step. The loop scores
proposals ahead: a step's random draws do not depend on earlier
acceptances, so the proposals that follow from the current state if
every step is rejected are scored in one batched target call, and the
chain walks them up to the first acceptance (the pre-fetching of
Brockwell, 2006, done by vectorization). The chain is the same, draw for
draw and bit for bit, as scoring one proposal per step. Post-processing
lives here too: moment summaries, credible regions (Gaussian ellipsoid and
highest-density subset), effective sample size, convergence traces,
response envelopes and CSV persistence.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import _integer, _number, _numbers, _read_object, _read_table, _strings, _write_table
from .errors import ConfigurationError, DomainError, NumericalError
from .likelihood import _special
from .models import ModelKind, _as_strain_array, stress_rows
from .posterior import LogPosterior

__all__ = [
    "SamplerConfig",
    "Chain",
    "ChainSummary",
    "CredibleRegion",
    "ConvergenceTrace",
    "run_mh",
    "run_adaptive_mh",
    "summarize",
    "credible_region",
    "convergence_trace",
    "effective_sample_size",
    "response_band",
    "save_chain",
    "load_chain",
]


def _check_seed(seed: object, name: str = "seed") -> int | None:
    """``seed`` as a Python int, or None; anything but None or a nonnegative
    integer (numpy integers included, bools not) is a configuration error."""
    return None if seed is None else _integer(seed, name, 0)


@dataclass(frozen=True, eq=False)
class SamplerConfig:
    """Run settings shared by both samplers.

    ``step_scale`` defaults to 2.38 divided by the square root of the
    dimension, the classical random-walk scaling. ``adapt_every`` and
    ``history_cap`` only matter for the adaptive driver: the proposal is
    rebuilt every ``adapt_every`` steps from the most recent
    ``history_cap`` states (all of them when the cap is None).
    """

    n_samples: int
    burn_in: int = 0
    step_scale: float | None = None
    initial: np.ndarray | None = None
    adapt_every: int = 1000
    history_cap: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ConfigurationError(f"n_samples must be >= 1, got {self.n_samples!r}")
        if not 0 <= self.burn_in < self.n_samples:
            raise ConfigurationError(
                f"burn_in must satisfy 0 <= burn_in < n_samples, got {self.burn_in!r}"
            )
        if self.step_scale is not None and not (
            np.isfinite(self.step_scale) and self.step_scale > 0.0
        ):
            raise ConfigurationError(f"step_scale must be > 0, got {self.step_scale!r}")
        if self.adapt_every < 1:
            raise ConfigurationError(f"adapt_every must be >= 1, got {self.adapt_every!r}")
        if self.history_cap is not None and self.history_cap < 2:
            raise ConfigurationError(f"history_cap must be >= 2, got {self.history_cap!r}")
        if self.initial is not None:
            initial = np.asarray(self.initial, dtype=float).reshape(-1)
            if not np.all(np.isfinite(initial)):
                raise ConfigurationError("initial state must be finite")
            object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "seed", _check_seed(self.seed))


# The typed reader of each ``SamplerConfig`` field in a JSON settings block.
_SETTING_READERS = {
    "n_samples": _integer,
    "burn_in": _integer,
    "step_scale": _number,
    "initial": _numbers,
    "adapt_every": _integer,
    "history_cap": _integer,
    "seed": _check_seed,
}


def _read_config(block: dict, name: str, required: bool = False) -> SamplerConfig:
    """The ``SamplerConfig`` that the JSON object ``block`` holds, each value
    read by its field's typed reader (null stands for a None default) and
    named ``name`` and its key in an error. A key left out takes its field's
    default, unless ``required`` or the field has none."""
    values = {}
    for field in fields(SamplerConfig):
        if field.name not in block and (required or field.default is MISSING):
            raise ConfigurationError(f"missing {field.name!r} in {name}")
        value = block.get(field.name, field.default)
        if value is not None or field.default is not None:
            value = _SETTING_READERS[field.name](value, f"{name} {field.name}")
        values[field.name] = value
    return SamplerConfig(**values)


@dataclass(frozen=True, eq=False)
class Chain:
    """States generated by a sampler run, in order, burn-in included.

    ``samples[i]`` is the state after step ``i + 1``; the starting state is
    not stored. ``log_densities`` holds the target value at each stored
    state, so the maximum-density state can be read off without
    re-evaluating anything.
    """

    samples: np.ndarray
    log_densities: np.ndarray
    n_accepted: int
    config: SamplerConfig

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def dimension(self) -> int:
        return self.samples.shape[1]

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.samples.shape[0]

    def retained(self) -> tuple[np.ndarray, np.ndarray]:
        """Samples and log-densities with the configured burn-in prefix
        dropped, which must leave at least one sample."""
        b = self.config.burn_in
        if b >= len(self):
            raise ConfigurationError(f"burn_in {b} leaves none of the chain's {len(self)} samples")
        return self.samples[b:], self.log_densities[b:]


def _history_factor(history: np.ndarray, scale: float) -> np.ndarray | None:
    """The adapted proposal factor (see ``run_adaptive_mh``), zero-padded to a
    square when the history has fewer rows than the dimension; None when
    every state is identical."""
    centered = history - history.mean(axis=0)
    if np.all(centered == 0.0):
        return None
    m, dim = history.shape
    factor = np.zeros((dim, dim))
    r = np.linalg.qr(centered, mode="r")
    factor[: r.shape[0]] = scale / math.sqrt(m - 1) * r
    return factor


# Most proposals scored in one batched target call.
_MAX_LOOKAHEAD = 8


def _metropolis(target: LogPosterior, config: SamplerConfig, adaptive: bool) -> Chain:
    """The Metropolis loop behind both entry points.

    Two streams are spawned from the seed (``SeedSequence(seed).spawn(2)``):
    child 0 gives each step's standard normals z for the proposal
    ``x + z A``, child 1 its ``u`` from (0, 1], so ``log ratio >= log u`` is
    always well-defined and a proposal off the support (log-density
    ``-inf``) is never accepted. Each stream is drawn once, for the whole
    chain, so z is the size of the samples and log u of the log-densities.
    The step scale defaults to 2.38 / sqrt(dim).

    The next k proposals of the all-reject path are built from the current
    state by one elementwise product summed per row (a row has the same
    bits in any batch) and scored in one ``log_density`` call; the steps
    take them up to the first acceptance, and the next batch starts from
    the new state. k covers about two acceptance intervals,
    ceil(2 (i + 4) / (accepted + 1)) at step i (``_MAX_LOOKAHEAD`` at the
    start), as one more row costs little next to one more call; it is
    clipped to [1, ``_MAX_LOOKAHEAD``], and a batch never crosses an
    adaptation step or the end of the chain. When a batch raises, its rows
    are scored again one at a time, in order, so an error or a NaN stops
    the chain only at a proposal a step uses, as with one call per step.
    """
    x = np.array(target.prior.mean, dtype=float) if config.initial is None else config.initial
    if x.size != target.dimension:
        raise ConfigurationError(
            f"initial state has {x.size} components, target needs {target.dimension}"
        )
    lp = target(x)
    if not np.isfinite(lp):
        raise ConfigurationError(
            f"starting state {x!r} has zero posterior density; pass an "
            "initial point inside the support"
        )
    dim = x.size
    scale = config.step_scale or 2.38 / math.sqrt(dim)
    fixed = scale * np.eye(dim)
    z_stream, u_stream = map(np.random.default_rng, np.random.SeedSequence(config.seed).spawn(2))

    n = config.n_samples
    samples = np.empty((n, dim))
    log_densities = np.empty(n)
    z = z_stream.standard_normal(samples.shape)
    log_u = np.log(1.0 - u_stream.random(log_densities.shape)).tolist()
    n_accepted = 0
    x0 = x
    factor = fixed
    i = 0
    while i < n:
        end = n
        if adaptive:
            if i > 0 and i % config.adapt_every == 0:
                history = np.vstack([x0, samples[:i]])
                if config.history_cap is not None:
                    history = history[-config.history_cap :]
                adapted = _history_factor(history, scale)
                factor = fixed if adapted is None else adapted
            end = min(end, (i // config.adapt_every + 1) * config.adapt_every)
        k = min(_MAX_LOOKAHEAD, end - i, -(-2 * (i + 4) // (n_accepted + 1)))
        proposals = x + (z[i : i + k, :, None] * factor).sum(axis=1)
        try:
            scores = target.log_density(proposals).tolist()
        except (DomainError, NumericalError):
            scores = None
        for r, proposal in enumerate(proposals):
            lp_prop = target(proposal) if scores is None else scores[r]
            if math.isnan(lp_prop):
                raise NumericalError(
                    f"target log-density is NaN at proposal {proposal!r} from state {x!r}"
                )
            accepted = lp_prop - lp >= log_u[i]
            if accepted:
                x, lp = proposal, lp_prop
                n_accepted += 1
            samples[i] = x
            log_densities[i] = lp
            i += 1
            if accepted:
                break
    return Chain(samples=samples, log_densities=log_densities, n_accepted=n_accepted, config=config)


def run_mh(target: LogPosterior, config: SamplerConfig) -> Chain:
    """Metropolis sampling with a fixed isotropic Gaussian proposal."""
    return _metropolis(target, config, adaptive=False)


def run_adaptive_mh(target: LogPosterior, config: SamplerConfig) -> Chain:
    """Metropolis sampling with a history-shaped proposal.

    The first adaptation period is ``run_mh`` draw for draw. From then on,
    every ``adapt_every`` steps the recorded states (starting state
    included, truncated to the trailing ``history_cap`` rows) are centered
    into a deviation matrix K with m rows, and proposals for the next
    period are ``x + z A`` with ``A = (scale / sqrt(m - 1)) R``, R the
    triangular factor of K = QR and z standard normal of the dimension's
    length. As R^T R = K^T K, that is the law of ``(scale / sqrt(m - 1)) z' K``
    with z' of length m (the history's covariance times the squared step
    scale) at O(dim^2) instead of O(m dim) per step. A degenerate history,
    every state identical, falls back to the fixed proposal for that period.
    Proposals are scored ahead in batches that end at each adaptation step
    (see ``_metropolis``); the chain equals scoring them one per step.
    """
    return _metropolis(target, config, adaptive=True)


# The share of the posterior mass that every credible region holds.
CREDIBLE_LEVEL = 0.95


@dataclass(frozen=True, eq=False)
class CredibleRegion:
    """Two views of a credible set at ``CREDIBLE_LEVEL``.

    The ellipsoid view fits a Gaussian to the samples and takes the
    chi-squared contour holding that share of the Gaussian's mass; it is
    unavailable when the sample covariance is singular. The
    highest-density view keeps that share of the samples with the largest
    recorded log-density, no shape assumption involved.
    """

    center: np.ndarray
    covariance: np.ndarray
    radius_sq: float
    ellipsoid_available: bool
    hpd_threshold: float
    hpd_mask: np.ndarray

    def mahalanobis_sq(self, points: np.ndarray) -> np.ndarray:
        """Squared ellipsoid distance of points, shape (m, dim) or (dim,)."""
        if not self.ellipsoid_available:
            raise NumericalError("ellipsoid view unavailable: sample covariance is singular")
        pts = np.atleast_2d(np.asarray(points, dtype=float)) - self.center
        sol = np.linalg.solve(self.covariance, pts.T)
        return np.einsum("ij,ji->i", pts, sol)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Ellipsoid membership of points; see ``mahalanobis_sq``."""
        return self.mahalanobis_sq(points) <= self.radius_sq


def credible_region(samples: np.ndarray, log_densities: np.ndarray) -> CredibleRegion:
    """Build both credible views from retained samples.

    The ellipsoid's squared radius is the chi-squared quantile of
    ``CREDIBLE_LEVEL`` with ``dim`` degrees of freedom, computed as
    ``2 * gammaincinv(dim / 2, CREDIBLE_LEVEL)`` (the inverse of the
    regularized lower incomplete gamma function): the expression
    ``scipy.stats.chi2.ppf`` evaluates, with the same bits, without
    importing ``scipy.stats``.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    log_densities = np.asarray(log_densities, dtype=float).reshape(-1)
    if samples.shape[0] != log_densities.size:
        raise ConfigurationError("samples and log-densities must have matching lengths")
    center = samples.mean(axis=0)
    deviation = samples - center
    covariance = deviation.T @ deviation / samples.shape[0]
    covariance = 0.5 * (covariance + covariance.T)
    try:
        np.linalg.cholesky(covariance)
        available = True
    except np.linalg.LinAlgError:
        available = False
    radius_sq = float(2.0 * _special().gammaincinv(samples.shape[1] / 2, CREDIBLE_LEVEL))
    threshold = float(np.quantile(log_densities, 1.0 - CREDIBLE_LEVEL))
    mask = log_densities >= threshold
    return CredibleRegion(
        center=center,
        covariance=covariance,
        radius_sq=radius_sq,
        ellipsoid_available=available,
        hpd_threshold=threshold,
        hpd_mask=mask,
    )


@dataclass(frozen=True, eq=False)
class ChainSummary:
    """Moment and mode estimates from the retained part of a chain."""

    mean: np.ndarray
    covariance: np.ndarray
    map_estimate: np.ndarray
    map_log_density: float
    credible: CredibleRegion
    n_retained: int
    acceptance_rate: float

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))


def summarize(chain: Chain) -> ChainSummary:
    """Mean, covariance, maximum-density state and credible region of the
    chain's states past its configured burn-in.

    The covariance divides by the retained count, not count minus one;
    with chains of thousands of states the difference is far below the
    Monte Carlo error, and the convention matches the estimator the
    credible ellipsoid is built from.
    """
    samples, log_densities = chain.retained()
    region = credible_region(samples, log_densities)
    best = int(np.argmax(log_densities))
    return ChainSummary(
        mean=region.center,
        covariance=region.covariance,
        map_estimate=samples[best].copy(),
        map_log_density=float(log_densities[best]),
        credible=region,
        n_retained=samples.shape[0],
        acceptance_rate=chain.acceptance_rate,
    )


@dataclass(frozen=True, eq=False)
class ConvergenceTrace:
    """Running first and second moments plus a flatness score.

    ``drift`` is the spread of the running mean over the second half of
    the chain relative to its final magnitude, one value per component;
    ``score`` is the largest of them. Small scores mean the running mean
    stopped moving.
    """

    running_mean: np.ndarray
    running_std: np.ndarray
    drift: np.ndarray
    score: float


def convergence_trace(samples: np.ndarray) -> ConvergenceTrace:
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    counts = np.arange(1, samples.shape[0] + 1, dtype=float)[:, None]
    running_mean = np.cumsum(samples, axis=0) / counts
    running_sq = np.cumsum(samples * samples, axis=0) / counts
    running_std = np.sqrt(np.maximum(running_sq - running_mean**2, 0.0))
    tail = running_mean[samples.shape[0] // 2 :]
    spread = tail.max(axis=0) - tail.min(axis=0)
    denom = np.maximum(np.abs(tail[-1]), np.finfo(float).tiny)
    drift = spread / denom
    return ConvergenceTrace(
        running_mean=running_mean,
        running_std=running_std,
        drift=drift,
        score=float(drift.max()),
    )


def effective_sample_size(values: np.ndarray) -> float:
    """Autocorrelation-adjusted sample count of a scalar chain.

    Uses the initial positive sequence estimator: autocorrelations are
    summed in adjacent pairs and the sum truncated at the first
    nonpositive pair, which is conservative for reversible chains. A
    constant chain has no information; its size is returned unchanged.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    n = values.size
    if n < 4:
        return float(n)
    centered = values - values.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, nfft)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), nfft)[:n] / n
    if acov[0] <= 0.0:
        return float(n)
    rho = acov / acov[0]
    n_pairs = (n - 1) // 2
    pair_sums = rho[1 : 2 * n_pairs : 2] + rho[2 : 2 * n_pairs + 1 : 2]
    total = 0.0
    for value in pair_sums:
        if value <= 0.0:
            break
        total += value
    tau = max(1.0 + 2.0 * total, np.finfo(float).tiny)
    return float(min(n / tau, n))


def response_band(
    kind: ModelKind, samples: np.ndarray, strain_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise envelope of response curves over parameter samples.

    Returns the minimum and maximum theoretical stress at each grid strain
    across all sampled parameter vectors, evaluated for all of them in one
    vectorized response.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    strain_grid = _as_strain_array(strain_grid)
    if samples.shape[1] != kind.dimension or not (np.isfinite(samples) & (samples >= 0.0)).all():
        raise DomainError(f"{kind.value} needs finite, nonnegative rows of {kind.parameter_names}")
    curves = stress_rows(kind, strain_grid.reshape(-1), samples)
    shape = strain_grid.shape
    return (
        np.min(curves, axis=0, initial=np.inf).reshape(shape),
        np.max(curves, axis=0, initial=-np.inf).reshape(shape),
    )


def save_chain(chain: Chain, path: str | Path, parameter_names: list[str]) -> None:
    """Write a chain as CSV plus a JSON sidecar with the run settings.

    The CSV holds one row per state, the parameter columns under
    ``parameter_names`` first and the log-density last; the sidecar (same
    stem, .json) records the names, the sampler configuration, seed and
    acceptance count so the run can be identified and reloaded later.
    """
    path = Path(path)
    if len(parameter_names) != chain.dimension:
        raise ConfigurationError(
            f"expected {chain.dimension} parameter names, got {len(parameter_names)}"
        )
    _write_table(path, [*parameter_names, "log_density"], np.column_stack([chain.samples, chain.log_densities]))
    initial = chain.config.initial
    sidecar = {
        "parameter_names": parameter_names,
        **{field.name: getattr(chain.config, field.name) for field in fields(SamplerConfig)},
        "initial": None if initial is None else initial.tolist(),
        "n_accepted": chain.n_accepted,
    }
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_chain(path: str | Path) -> tuple[Chain, list[str]]:
    """Read back a chain written by ``save_chain``.

    Returns the chain and the parameter names from the sidecar, whose
    settings go through the reader of the CLI's sampler block, every key
    required: a missing or mistyped one is a configuration error naming its
    key, and so is a sidecar or table that cannot be read, or a table
    without rows. A table whose row count differs from the sidecar's
    ``n_samples`` is loaded as it stands, with ``burn_in`` reset to 0, and a
    ``UserWarning`` names both counts. An ``n_accepted`` above the number
    of loaded samples is a configuration error.
    """
    path = Path(path)
    sidecar = _read_object(path.with_suffix(".json"), "chain sidecar")
    _, *rows = _read_table(path, "chain table")
    if not rows:
        raise ConfigurationError(f"chain table {path} has no rows")
    table = np.array([values for _, values in rows])
    names = _strings(sidecar.get("parameter_names"), "sidecar parameter_names", table.shape[1] - 1)
    config = _read_config(sidecar, "chain sidecar", required=True)
    n_accepted = _integer(sidecar.get("n_accepted"), "sidecar n_accepted", 0)
    if table.shape[0] != config.n_samples:
        warnings.warn(
            f"{path} holds {table.shape[0]} rows but its sidecar records "
            f"n_samples={config.n_samples}; loading {table.shape[0]} samples with burn_in reset to 0",
            UserWarning,
            stacklevel=2,
        )
        config = replace(config, n_samples=table.shape[0], burn_in=0)
    if n_accepted > config.n_samples:
        raise ConfigurationError(f"sidecar n_accepted must be <= n_samples={config.n_samples}, got {n_accepted}")
    return Chain(table[:, :-1], table[:, -1], n_accepted, config), names
