"""Command-line entry point.

Subcommands cover the full workflow: ``generate`` synthesizes noisy
measurement sets, ``identify`` samples a posterior for one dataset,
``analytic`` evaluates the closed-form linear-elastic posterior,
``prior-sweep`` tabulates how the prior's influence fades with data,
``heterogeneity`` pools specimens drawn from a population, and
``mismatch`` fits a deliberately wrong model to generated data.

Every subcommand reads one JSON config, which ``main`` reads and passes
on; command-line flags carry only paths and, on the four verbs that draw
random numbers (all but ``analytic`` and ``prior-sweep``), the seed. Exit
codes: 0 on success, 2 for configuration or domain errors (argparse uses
the same code for bad flags), 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from collections import namedtuple
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .data import (
    MeasurementSet,
    SpecimenPopulation,
    _flag,
    _integer,
    _number,
    _numbers,
    _object,
    _parse_noise,
    _read_object,
    _require,
    _write_table,
    draw_specimens,
    generate_double_noise,
    generate_single_noise,
    read_measurements,
    write_measurements,
)
from .errors import ConfigurationError, DomainError, NumericalError
from .likelihood import QuadratureSpec
from .models import ModelKind, ParameterVector
from .posterior import AnalyticLEPosterior, LogPosterior, analytic_le_posterior
from .priors import TruncatedNormalPrior
from .sampler import (
    CREDIBLE_LEVEL,
    SamplerConfig,
    _check_seed,
    _read_config,
    convergence_trace,
    effective_sample_size,
    response_band,
    run_adaptive_mh,
    run_mh,
    save_chain,
    summarize,
)

__all__ = ["main"]

# Below this acceptance rate a sampled run warns that its chain hardly moved.
_ACCEPTANCE_FLOOR = 0.05


def _warn_low_acceptance(rate: float, where: str = "") -> None:
    """Warn on stderr when a chain (``where``, as " in replicate 2") accepted
    under ``_ACCEPTANCE_FLOOR`` of its proposals; the run still succeeds."""
    if rate < _ACCEPTANCE_FLOOR:
        print(
            f"warning: acceptance rate {rate:.3f}{where} is below {_ACCEPTANCE_FLOOR}; "
            "the chain hardly moved, consider a smaller step_scale",
            file=sys.stderr,
        )


def _parse_parameters(kind: ModelKind, block: object) -> ParameterVector:
    block = _object(block, "parameters")
    extra = set(block) - set(kind.parameter_names)
    if extra:
        raise ConfigurationError(
            f"parameters {sorted(extra)} are not used by {kind.value}; "
            f"expected {list(kind.parameter_names)}"
        )
    context = f"parameters for {kind.value}"
    values = [_number(_require(block, name, context), name) for name in kind.parameter_names]
    return ParameterVector.from_array(kind, np.array(values))


def _parse_strains(block: object) -> np.ndarray:
    if isinstance(block, list):
        return _numbers(block, "strains")
    if isinstance(block, dict):
        start = _number(_require(block, "start", "'strains'"), "strains start")
        step = _number(_require(block, "step", "'strains'"), "strains step")
        count = _integer(_require(block, "count", "'strains'"), "strains count", 1)
        return start + step * np.arange(count)
    raise ConfigurationError(f"strains must be a list or a start/step/count object, got {block!r}")


def _parse_prior(block: object, dimension: int) -> TruncatedNormalPrior:
    """The prior block of every verb: ``mean`` plus either ``covariance`` or
    ``std``, one std entry > 0 per mean entry; a number stands for a
    one-entry list."""
    block = _object(block, "prior")
    mean = np.atleast_1d(_numbers(_require(block, "mean", "'prior'"), "prior mean"))
    if "covariance" in block and "std" in block:
        raise ConfigurationError("give the prior either 'covariance' or 'std', not both")
    if "covariance" in block:
        covariance = _numbers(block["covariance"], "prior covariance")
    elif "std" in block:
        std = np.atleast_1d(_numbers(block["std"], "prior std"))
        if std.shape != mean.shape or not np.all(std > 0.0):
            raise ConfigurationError(f"prior std must be > 0, one entry per mean entry, got {block['std']!r}")
        covariance = np.diag(std * std)
    else:
        raise ConfigurationError("prior needs 'covariance' or 'std'")
    prior = TruncatedNormalPrior(mean, covariance)
    if prior.dimension != dimension:
        raise ConfigurationError(
            f"prior has dimension {prior.dimension}, the model needs {dimension}"
        )
    return prior


def _seed(override: int | None, pinned: object, stream: np.random.Generator | None = None) -> int:
    """The seed rule of the seeded verbs. A run seed (no ``stream``) is
    ``override`` (``--seed``), else ``pinned``, the seed of the verb's own
    config (``identify``'s ``sampler.seed``, else the top-level ``seed``),
    else one drawn here from OS entropy, so that the run can record it. A
    chain seed of ``mismatch`` or ``heterogeneity`` (no ``override``) is
    ``pinned``, the ``fit.sampler.seed``, else one drawn from ``stream``, a
    stream that no data draw uses. Each given value must be None or a
    nonnegative integer, else it is a configuration error, the config's
    seed even when it is overridden."""
    seed = _check_seed(pinned)
    seed = seed if override is None else _check_seed(override)
    if seed is not None:
        return seed
    return np.random.SeedSequence().entropy if stream is None else int(stream.integers(2**63))


_Fit = namedtuple("_Fit", "kind prior sampler run")


def _parse_fit(block: dict, context: str) -> _Fit:
    """The model kind, prior and ``SamplerConfig`` of a sampled verb's fit
    block (``identify``'s config, the ``fit`` block of ``mismatch`` and
    ``heterogeneity``), and the ``run`` function, ``run_adaptive_mh`` or
    ``run_mh`` as the sampler's ``adaptive`` selects; any other sampler key
    is a configuration error naming it."""
    kind = ModelKind.parse(_require(block, "model", context))
    prior = _parse_prior(_require(block, "prior", context), kind.dimension)
    sampler = _object(_require(block, "sampler", context), "sampler")
    known = [field.name for field in fields(SamplerConfig)] + ["adaptive"]
    for key in sampler:
        if key not in known:
            raise ConfigurationError(f"sampler takes only {', '.join(map(repr, known))}; got {key!r}")
    run = run_adaptive_mh if _flag(sampler.get("adaptive", True), "sampler adaptive") else run_mh
    return _Fit(kind, prior, _read_config(sampler, "sampler"), run)


def _parse_quadrature(config: dict) -> QuadratureSpec | None:
    block = config.get("quadrature")
    if block is None:
        return None
    block = _object(block, "quadrature")
    for key in block:
        if key != "panels":
            raise ConfigurationError(f"quadrature takes only 'panels', got {key!r}")
    return QuadratureSpec(panels=_integer(block.get("panels", QuadratureSpec.panels), "quadrature panels"))


def _apply_noise_override(data: MeasurementSet, config: dict) -> MeasurementSet:
    allow = _flag(config.get("allow_regime_change", False), "allow_regime_change")
    block = config.get("noise")
    if block is None:
        return data
    override = _parse_noise(block)
    if override.double != data.noise.double and not allow:
        raise ConfigurationError(
            "config noise regime differs from the dataset sidecar; set "
            '"allow_regime_change": true to reinterpret the data'
        )
    return data.with_noise(override)


def _generate(block: dict, seed: int, context: str) -> MeasurementSet:
    """The measurement set that ``block`` (model, parameters, strains and
    noise) describes, drawn with ``seed``."""
    kind = ModelKind.parse(_require(block, "model", context))
    x = _parse_parameters(kind, _require(block, "parameters", context))
    strains = _parse_strains(_require(block, "strains", context))
    noise = _parse_noise(_require(block, "noise", context))
    if noise.double:
        return generate_double_noise(
            x, kind, strains, noise.stress_std, noise.strain_std, seed, noise.strain_limit
        )
    return generate_single_noise(x, kind, strains, noise.stress_std, seed)


def _closed_form(prior: TruncatedNormalPrior, sets: list[MeasurementSet]) -> AnalyticLEPosterior:
    """The closed-form linear-elastic posterior of the one-entry ``prior``
    given the stress-only ``sets`` pooled, which share one stress std."""
    return analytic_le_posterior(
        float(prior.mean[0]),
        math.sqrt(prior.covariance[0, 0]),
        np.concatenate([s.strains for s in sets]),
        np.concatenate([s.stresses for s in sets]),
        sets[0].noise.stress_std,
    )


def _cmd_generate(args: argparse.Namespace, config: dict) -> int:
    data = _generate(config, _seed(args.seed, config.get("seed")), "config")
    write_measurements(data, args.output)
    print(f"wrote {args.output}")
    return 0


def _run_identification(
    data: MeasurementSet, config: dict, fit: _Fit, out_dir: Path, seed: int, chain_seed: int
) -> int:
    """Sample ``fit``'s posterior given ``data`` with ``chain_seed`` and write
    the chain, summary and band; ``config`` holds the optional
    ``quadrature`` and ``band`` blocks, and ``summary.json`` records the run
    seed ``seed``."""
    kind = fit.kind
    quadrature = _parse_quadrature(config)
    band = _object(config.get("band", {}), "band")
    max_strain = _number(band.get("max_strain", data.strains.max().item()), "band max_strain")
    if max_strain < 0.0:
        raise ConfigurationError(f"band max_strain must be >= 0, got {max_strain!r}")
    count = _integer(band.get("count", 100), "band count", 1)
    samples = _integer(band.get("samples", 500), "band samples", 1)
    target = LogPosterior(kind, fit.prior, data, quadrature)

    chain = fit.run(target, replace(fit.sampler, seed=chain_seed))
    summary = summarize(chain)
    retained, _ = chain.retained()
    trace = convergence_trace(retained)
    if trace.score > 0.05:
        print(
            f"warning: running mean still drifting (score {trace.score:.3g}); "
            "consider a longer chain or more burn-in",
            file=sys.stderr,
        )
    _warn_low_acceptance(chain.acceptance_rate)

    out_dir.mkdir(parents=True, exist_ok=True)
    names = list(kind.parameter_names)
    save_chain(chain, out_dir / "chain.csv", names)
    report = {
        "model": kind.value,
        "parameter_names": names,
        "mean": summary.mean.tolist(),
        "std": summary.std.tolist(),
        "covariance": summary.covariance.tolist(),
        "map": summary.map_estimate.tolist(),
        "map_log_density": summary.map_log_density,
        "acceptance_rate": summary.acceptance_rate,
        "n_retained": summary.n_retained,
        "effective_sample_size": [effective_sample_size(retained[:, j]) for j in range(kind.dimension)],
        "credible_level": CREDIBLE_LEVEL,
        "credible_ellipsoid_available": summary.credible.ellipsoid_available,
        "credible_radius_sq": summary.credible.radius_sq,
        "hpd_threshold": summary.credible.hpd_threshold,
        "drift_score": trace.score,
        "seed": seed,
    }
    (out_dir / "summary.json").write_text(json.dumps(report, indent=2) + "\n")

    # The envelope is drawn over the credible subset, thinned so a long
    # chain does not turn plotting data into the slowest step.
    in_region = retained[summary.credible.hpd_mask]
    grid = np.linspace(0.0, max_strain, count)
    lower, upper = response_band(kind, in_region[:: max(1, in_region.shape[0] // samples)], grid)
    _write_table(out_dir / "band.csv", ["strain", "lower", "upper"], np.column_stack([grid, lower, upper]))

    for name, mean, std in zip(names, summary.mean, summary.std):
        print(f"{name}: mean {mean:.6g}, std {std:.6g}")
    print(f"acceptance rate {summary.acceptance_rate:.3f}; outputs in {out_dir}")
    return 0


def _cmd_identify(args: argparse.Namespace, config: dict) -> int:
    data = _apply_noise_override(read_measurements(args.data), config)
    fit = _parse_fit(config, "config")
    seed = _seed(args.seed, fit.sampler.seed)
    return _run_identification(data, config, fit, Path(args.output_dir), seed, seed)


def _cmd_analytic(args: argparse.Namespace, config: dict) -> int:
    data = _apply_noise_override(read_measurements(args.data), config)
    if data.noise.double:
        raise ConfigurationError(
            "the closed-form posterior covers stress-only noise; reinterpret "
            "the data or use 'identify'"
        )
    posterior = _closed_form(_parse_prior(_require(config, "prior", "config"), 1), [data])
    report = {"mean": posterior.mean, "std": posterior.std}
    if args.output is not None:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")
    print(f"E: mean {posterior.mean:.6g}, std {posterior.std:.6g}")
    return 0


def _cmd_prior_sweep(args: argparse.Namespace, config: dict) -> int:
    data = _apply_noise_override(read_measurements(args.data), config)
    if data.noise.double:
        raise ConfigurationError("the prior sweep uses the closed-form stress-only posterior")
    grid = _object(_require(config, "prior_grid", "config"), "prior_grid")

    def _axis(key: str) -> np.ndarray:
        name = f"prior_grid {key}"
        block = _require(grid, key, "'prior_grid'")
        if isinstance(block, list):
            return _numbers(block, name)
        if isinstance(block, dict):
            return np.linspace(
                _number(_require(block, "start", name), f"{name} start"),
                _number(_require(block, "stop", name), f"{name} stop"),
                _integer(_require(block, "count", name), f"{name} count", 1),
            )
        raise ConfigurationError(f"{name} must be a list or a start/stop/count object, got {block!r}")

    means, stds = _axis("mean"), _axis("std")
    if np.any(stds <= 0.0):
        raise ConfigurationError(f"prior_grid std must be > 0, got {float(stds.min())!r}")
    counts = _require(config, "counts", "config")
    if not isinstance(counts, list):
        raise ConfigurationError(f"counts must be a list of integers, got {counts!r}")
    counts = [_integer(c, "counts") for c in counts]
    if any(c < 0 or c > len(data) for c in counts):
        raise ConfigurationError(f"counts must lie in [0, {len(data)}]")

    rows = []
    for count in counts:
        strains = data.strains[:count]
        stresses = data.stresses[:count]
        # Grid corners with weak data can push the location within a few
        # scales of zero; the truncation note does not apply here because
        # the clamp below is exactly the truncated mode.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            locations = [
                analytic_le_posterior(m, s, strains, stresses, data.noise.stress_std).mean
                for m in means
                for s in stds
            ]
        maps = np.maximum(np.asarray(locations), 0.0)
        rows.append((count, float(maps.min()), float(maps.max()), float(maps.max() - maps.min())))

    _write_table(args.output, ["count", "map_min", "map_max", "map_spread"], rows)
    print(f"wrote {args.output}")
    return 0


def _cmd_heterogeneity(args: argparse.Namespace, config: dict) -> int:
    """Pooled identification of specimens drawn from a population.

    All specimens are described by one parameter vector during
    identification, so the posterior spread measures how much of the
    population's heterogeneity the pooled data can recover. With a
    ``prior`` block the closed-form stress-only route is used (linear
    elastic only); a ``fit`` block instead runs a pooled sampled
    identification, whose likelihood scores the points of all specimens
    (one noise spec) in one kernel, and records each replicate's acceptance
    rate. A seedless run draws its seed and prints it, so ``--seed
    <printed>`` replays it.
    """
    pop_block = _object(_require(config, "population", "config"), "population")
    kind = ModelKind.parse(pop_block.get("model", "LE"))
    population = SpecimenPopulation(
        kind=kind,
        mean=np.atleast_1d(_numbers(_require(pop_block, "mean", "'population'"), "population mean")),
        covariance=np.atleast_2d(
            _numbers(_require(pop_block, "covariance", "'population'"), "population covariance")
        ),
        count=_integer(_require(pop_block, "count", "'population'"), "population count", 1),
    )
    per_specimen = _object(_require(config, "per_specimen", "config"), "per_specimen")
    strains = _parse_strains(_require(per_specimen, "strains", "'per_specimen'"))
    noise = _parse_noise(_require(per_specimen, "noise", "'per_specimen'"))
    if noise.double:
        raise ConfigurationError("the heterogeneity study uses stress-only noise")
    replicates = _integer(config.get("replicates", 1), "replicates", 1)
    seed = _seed(args.seed, config.get("seed"))
    fit = config.get("fit")
    if ("prior" in config) == (fit is not None):
        raise ConfigurationError("give either a 'prior' block (closed form) or a 'fit' block (sampled), not both")

    if fit is None:
        if kind is not ModelKind.LINEAR_ELASTIC:
            raise ConfigurationError(
                "the closed-form route covers the linear elastic model; use a 'fit' block for the others"
            )
        prior = _parse_prior(config["prior"], 1)
        columns = ["replicate", "posterior_mean", "posterior_std"]

        def estimate(rep: int, sets: list[MeasurementSet], chain_stream: np.random.Generator) -> tuple:
            posterior = _closed_form(prior, sets)
            return posterior.mean, posterior.std

    else:
        fit = _parse_fit(_object(fit, "fit"), "'fit'")
        if fit.kind is not kind:
            raise ConfigurationError(
                f"the pooled fit uses the population model; got {fit.kind.value} vs {kind.value}"
            )
        names = list(kind.parameter_names)
        pairs = [(i, j) for i in range(len(names)) for j in range(i + 1, len(names))]
        means, stds = [f"mean_{p}" for p in names], [f"std_{p}" for p in names]
        corrs = [f"corr_{names[i]}_{names[j]}" for i, j in pairs]
        columns = ["replicate", *means, *stds, *corrs, "acceptance_rate"]

        def estimate(rep: int, sets: list[MeasurementSet], chain_stream: np.random.Generator) -> tuple:
            chain_config = replace(fit.sampler, seed=_seed(None, fit.sampler.seed, chain_stream))
            summary = summarize(fit.run(LogPosterior(kind, fit.prior, sets), chain_config))
            _warn_low_acceptance(summary.acceptance_rate, f" in replicate {rep}")
            scale = np.maximum(summary.std, np.finfo(float).tiny)
            corr = summary.covariance / np.outer(scale, scale)
            return (*summary.mean, *summary.std, *(corr[i, j] for i, j in pairs), summary.acceptance_rate)

    root = np.random.default_rng(seed)
    rows = []
    for rep in range(replicates):
        spec_seed, noise_seed = root.spawn(2)
        specimens = draw_specimens(population, spec_seed)
        # One more noise child seeds the chain; the specimens' children keep their keys.
        *child_seeds, chain_stream = noise_seed.spawn(population.count + 1)
        sets = [
            generate_single_noise(x, kind, strains, noise.stress_std, child)
            for x, child in zip(specimens, child_seeds)
        ]
        rows.append((rep, *estimate(rep, sets, chain_stream)))

    _write_table(args.output, columns, rows)
    print(f"seed {seed}")
    print(f"wrote {args.output}")
    return 0


def _cmd_mismatch(args: argparse.Namespace, config: dict) -> int:
    """Generate from ``truth`` and fit ``fit``. The data are drawn from
    children 0 and 1 of the run seed, and an unpinned chain seed from
    child 2, so data and chain share no stream and ``--seed <recorded>``
    replays the run."""
    if not _flag(config.get("allow_mismatch", False), "allow_mismatch"):
        raise ConfigurationError(
            'fitting a model other than the generating one requires "allow_mismatch": true'
        )
    truth = _object(_require(config, "truth", "config"), "truth")
    block = _object(_require(config, "fit", "config"), "fit")
    fit = _parse_fit(block, "'fit'")
    seed = _seed(args.seed, config.get("seed"))
    data = _generate(truth, seed, "'truth'")
    chain_seed = _seed(None, fit.sampler.seed, np.random.default_rng(seed).spawn(3)[2])

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_measurements(data, out_dir / "data.csv")
    return _run_identification(data, block, fit, out_dir, seed, chain_seed)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plastinfer",
        description="Bayesian identification of elastoplastic parameters from tension tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p: argparse.ArgumentParser, seeded: bool = True) -> None:
        p.add_argument("--config", required=True, help="JSON configuration file")
        if seeded:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("generate", help="synthesize a noisy measurement set")
    _common(p)
    p.add_argument("--output", required=True, help="measurement CSV to write")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("identify", help="sample the posterior for one dataset")
    _common(p)
    p.add_argument("--data", required=True, help="measurement CSV written by 'generate'")
    p.add_argument("--output-dir", required=True, help="directory for chain and summary")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("analytic", help="closed-form linear-elastic posterior")
    _common(p, seeded=False)
    p.add_argument("--data", required=True, help="measurement CSV")
    p.add_argument("--output", default=None, help="optional JSON result path")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("prior-sweep", help="map spread over a prior grid vs data count")
    _common(p, seeded=False)
    p.add_argument("--data", required=True, help="measurement CSV")
    p.add_argument("--output", required=True, help="CSV of spreads to write")
    p.set_defaults(func=_cmd_prior_sweep)

    p = sub.add_parser("heterogeneity", help="pooled identification over a specimen population")
    _common(p)
    p.add_argument("--output", required=True, help="CSV of replicate posteriors to write")
    p.set_defaults(func=_cmd_heterogeneity)

    p = sub.add_parser("mismatch", help="generate from one model and fit another")
    _common(p)
    p.add_argument("--output-dir", required=True, help="directory for data, chain and summary")
    p.set_defaults(func=_cmd_mismatch)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, _read_object(args.config, "config"))
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
