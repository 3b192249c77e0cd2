"""Command-line entry point.

Subcommands cover the full workflow: ``generate`` synthesizes noisy
measurement sets, ``identify`` samples a posterior for one dataset,
``analytic`` evaluates the closed-form linear-elastic posterior,
``prior-sweep`` tabulates how the prior's influence fades with data,
``heterogeneity`` pools specimens drawn from a population, and
``mismatch`` fits a deliberately wrong model to generated data.

Every subcommand reads one JSON config; command-line flags carry only
paths, the seed and verbosity. Exit codes: 0 on success, 2 for
configuration or domain errors (argparse uses the same code for bad
flags), 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import (
    MeasurementSet,
    NoiseSpec,
    SpecimenPopulation,
    draw_specimens,
    generate_double_noise,
    generate_single_noise,
    read_measurements,
    write_measurements,
)
from .errors import ConfigurationError, DomainError, NumericalError
from .likelihood import QuadratureSpec
from .models import ModelKind, ParameterVector
from .posterior import LogPosterior, analytic_le_posterior
from .priors import TruncatedNormalPrior
from .sampler import (
    SamplerConfig,
    _check_seed,
    convergence_trace,
    effective_sample_size,
    response_band,
    run_adaptive_mh,
    run_mh,
    save_chain,
    summarize,
)

__all__ = ["main"]


def _load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigurationError(f"{path} must contain a JSON object")
    return config


def _require(config: dict, key: str, context: str) -> object:
    if key not in config:
        raise ConfigurationError(f"missing {key!r} in {context}")
    return config[key]


def _parse_parameters(kind: ModelKind, block: object) -> ParameterVector:
    if not isinstance(block, dict):
        raise ConfigurationError("'parameters' must be an object of named values")
    extra = set(block) - set(kind.parameter_names)
    if extra:
        raise ConfigurationError(
            f"parameters {sorted(extra)} are not used by {kind.value}; "
            f"expected {list(kind.parameter_names)}"
        )
    try:
        values = [float(block[name]) for name in kind.parameter_names]
    except KeyError as exc:
        raise ConfigurationError(f"missing parameter {exc.args[0]!r} for {kind.value}") from None
    return ParameterVector.from_array(kind, np.array(values))


def _parse_strains(block: object) -> np.ndarray:
    if isinstance(block, list):
        return np.asarray(block, dtype=float)
    if isinstance(block, dict):
        start = float(_require(block, "start", "'strains'"))
        step = float(_require(block, "step", "'strains'"))
        count = int(_require(block, "count", "'strains'"))
        if count < 1:
            raise ConfigurationError(f"strain count must be >= 1, got {count}")
        return start + step * np.arange(count)
    raise ConfigurationError("'strains' must be a list or a start/step/count object")


def _parse_noise(block: object) -> NoiseSpec:
    if not isinstance(block, dict):
        raise ConfigurationError("'noise' must be an object")
    stress_std = float(_require(block, "stress_std", "'noise'"))
    strain_std = block.get("strain_std")
    limit = block.get("strain_limit")
    return NoiseSpec(
        stress_std=stress_std,
        strain_std=None if strain_std is None else float(strain_std),
        strain_limit=np.inf if limit is None else float(limit),
    )


def _parse_prior(block: object, dimension: int) -> TruncatedNormalPrior:
    if not isinstance(block, dict):
        raise ConfigurationError("'prior' must be an object")
    mean = np.atleast_1d(np.asarray(_require(block, "mean", "'prior'"), dtype=float))
    if "covariance" in block and "std" in block:
        raise ConfigurationError("give the prior either 'covariance' or 'std', not both")
    if "covariance" in block:
        covariance = np.asarray(block["covariance"], dtype=float)
    elif "std" in block:
        std = np.atleast_1d(np.asarray(block["std"], dtype=float))
        covariance = np.diag(std * std)
    else:
        raise ConfigurationError("prior needs 'covariance' or 'std'")
    prior = TruncatedNormalPrior(mean, covariance)
    if prior.dimension != dimension:
        raise ConfigurationError(
            f"prior has dimension {prior.dimension}, the model needs {dimension}"
        )
    return prior


def _seed(override: int | None, block: dict) -> int | None:
    """The seed a verb runs with: ``override`` if given, else ``block``'s
    ``seed``. Each must be None or a nonnegative integer, else it is a
    configuration error, the block's seed even when it is overridden."""
    seed = _check_seed(block.get("seed"))
    return seed if override is None else _check_seed(override)


def _parse_sampler(block: object, seed: int | None) -> tuple[SamplerConfig, bool]:
    if not isinstance(block, dict):
        raise ConfigurationError("'sampler' must be an object")
    adaptive = bool(block.get("adaptive", True))
    initial = block.get("initial")
    config = SamplerConfig(
        n_samples=int(_require(block, "n_samples", "'sampler'")),
        burn_in=int(block.get("burn_in", 0)),
        step_scale=None if block.get("step_scale") is None else float(block["step_scale"]),
        initial=None if initial is None else np.asarray(initial, dtype=float),
        adapt_every=int(block.get("adapt_every", 1000)),
        history_cap=None if block.get("history_cap") is None else int(block["history_cap"]),
        seed=_seed(seed, block),
    )
    return config, adaptive


def _parse_quadrature(config: dict) -> QuadratureSpec | None:
    block = config.get("quadrature")
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ConfigurationError("'quadrature' must be an object")
    panels, width = block.get("panels", QuadratureSpec.panels), block.get("width", QuadratureSpec.width)
    if isinstance(panels, bool) or not isinstance(panels, (int, np.integer)):
        raise ConfigurationError(f"quadrature panels must be an integer, got {panels!r}")
    if isinstance(width, bool) or not isinstance(width, (int, float)) or not np.isfinite(width):
        raise ConfigurationError(f"quadrature width must be a finite number, got {width!r}")
    return QuadratureSpec(panels=int(panels), width=float(width))


def _apply_noise_override(data: MeasurementSet, config: dict) -> MeasurementSet:
    block = config.get("noise")
    if block is None:
        return data
    override = _parse_noise(block)
    if override.double != data.noise.double and not config.get("allow_regime_change", False):
        raise ConfigurationError(
            "config noise regime differs from the dataset sidecar; set "
            '"allow_regime_change": true to reinterpret the data'
        )
    return data.with_noise(override)


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _say(verbose: bool, message: str) -> None:
    if verbose:
        print(message)


def _cmd_generate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    kind = ModelKind.parse(str(_require(config, "model", "config")))
    x = _parse_parameters(kind, _require(config, "parameters", "config"))
    strains = _parse_strains(_require(config, "strains", "config"))
    noise = _parse_noise(_require(config, "noise", "config"))
    seed = _seed(args.seed, config)
    if seed is None:
        # Drawn here, not by the generator, so the provenance records it.
        seed = np.random.SeedSequence().entropy
    if noise.double:
        data = generate_double_noise(
            x, kind, strains, noise.stress_std, noise.strain_std, seed, noise.strain_limit
        )
    else:
        data = generate_single_noise(x, kind, strains, noise.stress_std, seed)
    write_measurements(data, args.output)
    _say(args.verbose, f"model {kind.value}, {len(data)} points, seed {seed}")
    print(f"wrote {args.output}")
    return 0


def _run_identification(
    data: MeasurementSet,
    config: dict,
    out_dir: Path,
    seed: int | None,
    verbose: bool,
) -> int:
    kind = ModelKind.parse(str(_require(config, "model", "config")))
    prior = _parse_prior(_require(config, "prior", "config"), kind.dimension)
    sampler_config, adaptive = _parse_sampler(_require(config, "sampler", "config"), seed)
    if sampler_config.seed is None:
        # Draw the seed here rather than let the sampler read OS entropy,
        # so summary.json and the chain sidecar record a replayable value.
        sampler_config = replace(sampler_config, seed=np.random.SeedSequence().entropy)
    quadrature = _parse_quadrature(config)
    target = LogPosterior(kind, prior, data, quadrature)

    _say(verbose, f"sampling {kind.value}, {sampler_config.n_samples} steps, adaptive={adaptive}")
    chain = (run_adaptive_mh if adaptive else run_mh)(target, sampler_config)
    summary = summarize(chain)
    retained, _ = chain.retained()
    trace = convergence_trace(retained)
    if trace.score > 0.05:
        print(
            f"warning: running mean still drifting (score {trace.score:.3g}); "
            "consider a longer chain or more burn-in",
            file=sys.stderr,
        )

    out_dir.mkdir(parents=True, exist_ok=True)
    names = list(kind.parameter_names)
    save_chain(chain, out_dir / "chain.csv", names)
    report = {
        "model": kind.value,
        "parameter_names": names,
        "mean": _jsonable(summary.mean),
        "std": _jsonable(summary.std),
        "covariance": _jsonable(summary.covariance),
        "map": _jsonable(summary.map_estimate),
        "map_log_density": summary.map_log_density,
        "acceptance_rate": summary.acceptance_rate,
        "n_retained": summary.n_retained,
        "effective_sample_size": [effective_sample_size(retained[:, j]) for j in range(kind.dimension)],
        "credible_level": summary.credible.level,
        "credible_ellipsoid_available": summary.credible.ellipsoid_available,
        "credible_radius_sq": summary.credible.radius_sq,
        "hpd_threshold": summary.credible.hpd_threshold,
        "drift_score": trace.score,
        "seed": sampler_config.seed,
    }
    (out_dir / "summary.json").write_text(json.dumps(report, indent=2) + "\n")

    band = config.get("band", {})
    if not isinstance(band, dict):
        raise ConfigurationError("'band' must be an object")
    max_strain = float(band.get("max_strain", float(data.strains.max())))
    count = int(band.get("count", 100))
    # The envelope is drawn over the credible subset, thinned so a long
    # chain does not turn plotting data into the slowest step.
    in_region = retained[summary.credible.hpd_mask]
    thin = max(1, in_region.shape[0] // int(band.get("samples", 500)))
    grid = np.linspace(0.0, max_strain, count)
    lower, upper = response_band(kind, in_region[::thin], grid)
    table = np.column_stack([grid, lower, upper])
    np.savetxt(
        out_dir / "band.csv",
        table,
        fmt="%.17g",
        delimiter=",",
        header="strain,lower,upper",
        comments="",
    )

    for name, mean, std in zip(names, summary.mean, summary.std):
        print(f"{name}: mean {mean:.6g}, std {std:.6g}")
    print(f"acceptance rate {summary.acceptance_rate:.3f}; outputs in {out_dir}")
    return 0


def _cmd_identify(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    data = _apply_noise_override(read_measurements(args.data), config)
    return _run_identification(data, config, Path(args.output_dir), args.seed, args.verbose)


def _cmd_analytic(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    data = _apply_noise_override(read_measurements(args.data), config)
    if data.noise.double:
        raise ConfigurationError(
            "the closed-form posterior covers stress-only noise; reinterpret "
            "the data or use 'identify'"
        )
    block = _require(config, "prior", "config")
    if not isinstance(block, dict):
        raise ConfigurationError("'prior' must be an object")
    posterior = analytic_le_posterior(
        float(np.squeeze(np.asarray(_require(block, "mean", "'prior'"), dtype=float))),
        float(np.squeeze(np.asarray(_require(block, "std", "'prior'"), dtype=float))),
        data.strains,
        data.stresses,
        data.noise.stress_std,
    )
    report = {"mean": posterior.mean, "std": posterior.std}
    if args.output is not None:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")
    print(f"E: mean {posterior.mean:.6g}, std {posterior.std:.6g}")
    return 0


def _cmd_prior_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    data = _apply_noise_override(read_measurements(args.data), config)
    if data.noise.double:
        raise ConfigurationError("the prior sweep uses the closed-form stress-only posterior")
    grid = _require(config, "prior_grid", "config")
    if not isinstance(grid, dict):
        raise ConfigurationError("'prior_grid' must be an object")

    def _axis(block: object, name: str) -> np.ndarray:
        if isinstance(block, list):
            return np.asarray(block, dtype=float)
        if isinstance(block, dict):
            return np.linspace(
                float(_require(block, "start", name)),
                float(_require(block, "stop", name)),
                int(_require(block, "count", name)),
            )
        raise ConfigurationError(f"{name} must be a list or a start/stop/count object")

    means = _axis(_require(grid, "mean", "'prior_grid.mean'"), "'prior_grid.mean'")
    stds = _axis(_require(grid, "std", "'prior_grid.std'"), "'prior_grid.std'")
    if np.any(stds <= 0.0):
        raise ConfigurationError("prior stds must be > 0")
    counts = [int(c) for c in _require(config, "counts", "config")]
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
        _say(args.verbose, f"k={count}: map spread {rows[-1][3]:.6g}")

    table = np.asarray(rows, dtype=float)
    np.savetxt(
        args.output,
        table,
        fmt="%.17g",
        delimiter=",",
        header="count,map_min,map_max,map_spread",
        comments="",
    )
    print(f"wrote {args.output}")
    return 0


def _cmd_heterogeneity(args: argparse.Namespace) -> int:
    """Pooled identification of specimens drawn from a population.

    All specimens are described by one parameter vector during
    identification, so the posterior spread measures how much of the
    population's heterogeneity the pooled data can recover. With a
    ``prior`` block the closed-form stress-only route is used (linear
    elastic only); a ``fit`` block instead runs a pooled sampled
    identification, each specimen's measurement set contributing its own
    likelihood term.
    """
    config = _load_config(args.config)
    pop_block = _require(config, "population", "config")
    if not isinstance(pop_block, dict):
        raise ConfigurationError("'population' must be an object")
    kind = ModelKind.parse(str(pop_block.get("model", "LE")))
    population = SpecimenPopulation(
        kind=kind,
        mean=np.atleast_1d(np.asarray(_require(pop_block, "mean", "'population'"), dtype=float)),
        covariance=np.atleast_2d(
            np.asarray(_require(pop_block, "covariance", "'population'"), dtype=float)
        ),
        count=int(_require(pop_block, "count", "'population'")),
    )
    per_specimen = _require(config, "per_specimen", "config")
    if not isinstance(per_specimen, dict):
        raise ConfigurationError("'per_specimen' must be an object")
    strains = _parse_strains(_require(per_specimen, "strains", "'per_specimen'"))
    noise = _parse_noise(_require(per_specimen, "noise", "'per_specimen'"))
    if noise.double:
        raise ConfigurationError("the heterogeneity study uses stress-only noise")
    replicates = int(config.get("replicates", 1))
    if replicates < 1:
        raise ConfigurationError(f"replicates must be >= 1, got {replicates}")
    seed = _seed(args.seed, config)
    fit = config.get("fit")
    if ("prior" in config) == (fit is not None):
        raise ConfigurationError("give either a 'prior' block (closed form) or a 'fit' block (sampled), not both")

    if fit is None:
        if kind is not ModelKind.LINEAR_ELASTIC:
            raise ConfigurationError(
                "the closed-form route covers the linear elastic model; use a 'fit' block for the others"
            )
        prior_block = _require(config, "prior", "config")
        if not isinstance(prior_block, dict):
            raise ConfigurationError("'prior' must be an object")
        prior_mean = float(
            np.squeeze(np.asarray(_require(prior_block, "mean", "'prior'"), dtype=float))
        )
        prior_std = float(
            np.squeeze(np.asarray(_require(prior_block, "std", "'prior'"), dtype=float))
        )
    else:
        if not isinstance(fit, dict):
            raise ConfigurationError("'fit' must be an object")
        fit_kind = ModelKind.parse(str(_require(fit, "model", "'fit'")))
        if fit_kind is not kind:
            raise ConfigurationError(
                f"the pooled fit uses the population model; got {fit_kind.value} vs {kind.value}"
            )
        prior = _parse_prior(_require(fit, "prior", "'fit'"), kind.dimension)
        sampler_config, adaptive = _parse_sampler(_require(fit, "sampler", "'fit'"), None)

    root = np.random.default_rng(seed)
    rows = []
    columns = ["replicate"]
    names = list(kind.parameter_names)
    for rep in range(replicates):
        spec_seed, noise_seed = root.spawn(2)
        specimens = draw_specimens(population, spec_seed)
        child_seeds = noise_seed.spawn(population.count)
        sets = [
            generate_single_noise(x, kind, strains, noise.stress_std, child)
            for x, child in zip(specimens, child_seeds)
        ]
        if fit is None:
            posterior = analytic_le_posterior(
                prior_mean,
                prior_std,
                np.concatenate([s.strains for s in sets]),
                np.concatenate([s.stresses for s in sets]),
                noise.stress_std,
            )
            columns = ["replicate", "posterior_mean", "posterior_std"]
            rows.append((rep, posterior.mean, posterior.std))
            _say(args.verbose, f"replicate {rep}: mean {posterior.mean:.6g}, std {posterior.std:.6g}")
        else:
            target = LogPosterior(kind, prior, sets)
            chain = (run_adaptive_mh if adaptive else run_mh)(target, sampler_config)
            summary = summarize(chain)
            std = summary.std
            corr = summary.covariance / np.outer(
                np.maximum(std, np.finfo(float).tiny), np.maximum(std, np.finfo(float).tiny)
            )
            row = [rep, *summary.mean, *std]
            columns = (
                ["replicate"]
                + [f"mean_{p}" for p in names]
                + [f"std_{p}" for p in names]
                + [f"corr_{names[i]}_{names[j]}" for i in range(len(names)) for j in range(i + 1, len(names))]
            )
            row += [corr[i, j] for i in range(len(names)) for j in range(i + 1, len(names))]
            rows.append(tuple(row))
            _say(args.verbose, f"replicate {rep}: mean {summary.mean}, std {std}")

    np.savetxt(
        args.output,
        np.asarray(rows, dtype=float),
        fmt="%.17g",
        delimiter=",",
        header=",".join(columns),
        comments="",
    )
    print(f"wrote {args.output}")
    return 0


def _cmd_mismatch(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if not config.get("allow_mismatch", False):
        raise ConfigurationError(
            'fitting a model other than the generating one requires "allow_mismatch": true'
        )
    truth = _require(config, "truth", "config")
    fit = _require(config, "fit", "config")
    if not isinstance(truth, dict) or not isinstance(fit, dict):
        raise ConfigurationError("'truth' and 'fit' must be objects")

    true_kind = ModelKind.parse(str(_require(truth, "model", "'truth'")))
    x = _parse_parameters(true_kind, _require(truth, "parameters", "'truth'"))
    strains = _parse_strains(_require(truth, "strains", "'truth'"))
    noise = _parse_noise(_require(truth, "noise", "'truth'"))
    seed = _seed(args.seed, config)
    if noise.double:
        data = generate_double_noise(
            x, true_kind, strains, noise.stress_std, noise.strain_std, seed, noise.strain_limit
        )
    else:
        data = generate_single_noise(x, true_kind, strains, noise.stress_std, seed)

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_measurements(data, out_dir / "data.csv")
    _say(args.verbose, f"generated {len(data)} points from {true_kind.value}")
    return _run_identification(data, fit, out_dir, seed, args.verbose)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plastinfer",
        description="Bayesian identification of elastoplastic parameters from tension tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--verbose", action="store_true", help="print progress details")

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
    _common(p)
    p.add_argument("--data", required=True, help="measurement CSV")
    p.add_argument("--output", default=None, help="optional JSON result path")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("prior-sweep", help="map spread over a prior grid vs data count")
    _common(p)
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
        return args.func(args)
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
