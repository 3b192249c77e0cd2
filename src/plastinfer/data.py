"""Noise specifications, synthetic measurements, file I/O and typed JSON readers.

Measurements are (strain, stress) pairs with stress in GPa. Two noise
regimes exist: stress-only (additive Gaussian noise on the stress) and
stress-and-strain (independent additive Gaussian noise on both channels).

Files are a CSV with header ``strain,stress`` (17 significant digits, which
round-trips float64 exactly) plus a JSON sidecar next to it (same stem,
``.json`` suffix) holding the noise specification and provenance. Every
CSV table of the package goes through one writer and one reader, and
every JSON file through one reader; the sidecars and the command line's
configs share one set of typed readers: the key, string and flag readers
live here, and the readers of numbers in ``errors``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from pathlib import Path
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, NumericalError, _integer, _number, _numbers
from .models import ModelKind, ParameterVector, stress
from .priors import _normal_moments

__all__ = [
    "NoiseSpec",
    "MeasurementSet",
    "SpecimenPopulation",
    "generate_single_noise",
    "generate_double_noise",
    "draw_specimens",
    "read_measurements",
    "write_measurements",
]


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model attached to a measurement set.

    Attributes:
        stress_std: standard deviation of the stress noise in GPa.
        strain_std: standard deviation of the strain noise; ``None`` marks
            the stress-only regime.
        strain_limit: upper bound of the admissible true strain (the
            physical limit of the tensile tester); ``inf`` by default.

    Zero standard deviations are tolerated here so that exact, noise-free
    sets can be generated for testing; likelihood evaluation rejects them.
    """

    stress_std: float
    strain_std: float | None = None
    strain_limit: float = math.inf

    def __post_init__(self) -> None:
        stress_std = _number(self.stress_std, "stress_std", 0)
        strain_std = None if self.strain_std is None else _number(self.strain_std, "strain_std", 0)
        limit = self.strain_limit
        unbounded = isinstance(limit, (float, np.floating)) and limit == math.inf
        if not unbounded and _number(limit, "strain_limit") <= 0.0:
            raise ConfigurationError(f"strain_limit must be > 0, got {limit!r}")
        vars(self).update(stress_std=stress_std, strain_std=strain_std, strain_limit=float(limit))

    @property
    def double(self) -> bool:
        """True in the stress-and-strain regime."""
        return self.strain_std is not None


@dataclass(frozen=True)
class MeasurementSet:
    """Ordered (strain, stress) measurements plus their noise model.

    ``strains`` must be strictly increasing and hold at least one entry.
    In the stress-and-strain regime the strains are measured values and may
    be negative; only theoretical strains are confined to the tension
    domain.
    """

    strains: np.ndarray
    stresses: np.ndarray
    noise: NoiseSpec
    provenance: str = ""

    def __post_init__(self) -> None:
        strains = _numbers(self.strains, "strains")
        stresses = _numbers(self.stresses, "stresses")
        if strains.size != stresses.size:
            raise ConfigurationError(
                f"strain/stress length mismatch: {strains.size} vs {stresses.size}"
            )
        if strains.size < 1:
            raise ConfigurationError("k >= 1 required: a measurement set cannot be empty")
        if strains.size > 1 and not np.all(np.diff(strains) > 0.0):
            raise ConfigurationError("strains must be strictly increasing")
        object.__setattr__(self, "strains", strains)
        object.__setattr__(self, "stresses", stresses)

    def __len__(self) -> int:
        return self.strains.size

    def with_noise(self, noise: NoiseSpec) -> "MeasurementSet":
        """Same points, reinterpreted under a different noise model."""
        return replace(self, noise=noise)


@dataclass(frozen=True)
class SpecimenPopulation:
    """Normal population of specimen parameters for heterogeneity studies."""

    kind: ModelKind
    mean: np.ndarray
    covariance: np.ndarray
    count: int

    def __post_init__(self) -> None:
        mean, cov = _normal_moments(self.mean, self.covariance, "population")
        if mean.size != self.kind.dimension:
            raise ConfigurationError(
                f"population mean has {mean.size} entries, {self.kind.value} needs {self.kind.dimension}"
            )
        eigvals = np.linalg.eigvalsh(cov)
        if eigvals.min() < -1e-10 * max(1.0, eigvals.max()):
            raise ConfigurationError("population covariance must be positive semi-definite")
        vars(self).update(mean=mean, covariance=cov, count=_integer(self.count, "population count", 1))


def _require(block: dict, key: str, context: str) -> object:
    if key not in block:
        raise ConfigurationError(f"missing {key!r} in {context}")
    return block[key]


def _object(value: object, name: str, keys: tuple) -> dict:
    """``value`` if it is a JSON object holding no key outside ``keys``, else
    a configuration error naming the first other key."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{name} must be an object, got {value!r}")
    others = [key for key in value if key not in keys]
    if others:
        raise ConfigurationError(f"{name} takes only {', '.join(map(repr, keys))}; got {others[0]!r}")
    return value


def _strings(value: object, name: str, count: int) -> list[str]:
    """``value`` if it is a list of ``count`` strings, else a configuration
    error: a string is never split into its characters."""
    if not (isinstance(value, list) and len(value) == count and all(isinstance(v, str) for v in value)):
        raise ConfigurationError(f"{name} must be a list of {count} strings, got {value!r}")
    return value


def _flag(value: object, name: str) -> bool:
    """``value`` if it is a JSON boolean, else a configuration error: the
    string "false" would otherwise read as true."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be true or false, got {value!r}")
    return value


def _parse_noise(block: object) -> NoiseSpec:
    """The noise block of a config or a dataset sidecar: ``stress_std``,
    plus ``strain_std`` for the stress-and-strain regime, ``strain_limit``
    for a bounded tester (null or absent: unbounded) and ``regime``, which,
    when given, must name the regime that ``strain_std`` selects."""
    block = _object(block, "noise", ("regime", "stress_std", "strain_std", "strain_limit"))
    strain_std, limit = block.get("strain_std"), block.get("strain_limit")
    # JSON has no infinity: a limit that parses to one (1e400) is refused here.
    limit = math.inf if limit is None else _number(limit, "strain_limit")
    noise = NoiseSpec(_require(block, "stress_std", "'noise'"), strain_std, limit)
    regime = "stress-strain" if noise.double else "stress-only"
    if block.get("regime", regime) != regime:
        raise ConfigurationError(f"regime {block['regime']!r} disagrees with strain_std {strain_std!r}")
    return noise


def _check_strain_grid(strains) -> np.ndarray:
    grid = _numbers(strains, "strain grid")
    if grid.size < 1:
        raise ConfigurationError("k >= 1 required: empty strain grid")
    if np.any(grid < 0.0):
        raise ConfigurationError(f"strain grid must be >= 0, got {float(grid.min())!r}")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise ConfigurationError("strain grid must be strictly increasing")
    return grid


def _generate_set(x: ParameterVector, kind: ModelKind, strains, noise: NoiseSpec, seed) -> MeasurementSet:
    """Measurements of the response of ``x`` at the true ``strains`` under
    ``noise``, drawn with ``seed``.

    The seed spawns two child streams, child 0 for the stress noise and
    child 1 for the strain noise, so a stress-and-strain set degenerates to
    the stress-only set of the same seed when the strain noise vanishes.
    The stress noise is applied at the true strain (the generative reading:
    the specimen deforms to the true strain, both channels are then read
    off with their own instrument errors). Pairs are sorted by measured
    strain so the stored set is strictly increasing; sorting keeps each
    (strain, stress) pair together and the likelihood treats points as
    exchangeable, so no information is moved. Exact strains are already in
    order.
    """
    grid = _check_strain_grid(strains)
    if np.any(grid > noise.strain_limit):
        raise ConfigurationError("strain grid exceeds the tester's strain limit")
    stress_rng, strain_rng = np.random.default_rng(seed).spawn(2)
    measured_stress = stress(grid, x, kind) + noise.stress_std * stress_rng.standard_normal(grid.size)
    measured_strain = grid + noise.strain_std * strain_rng.standard_normal(grid.size) if noise.double else grid
    order = np.argsort(measured_strain, kind="stable")
    provenance = f"synthetic model={kind.value} x={x.to_array().tolist()} seed={seed}"
    return MeasurementSet(measured_strain[order], measured_stress[order], noise, provenance)


def generate_single_noise(
    x: ParameterVector,
    kind: ModelKind,
    strains,
    stress_std: float,
    seed: int,
) -> MeasurementSet:
    """Measurements with Gaussian noise on the stress only: the strains are
    exact and pass through unchanged, the stresses are the theoretical
    response plus i.i.d. Normal(0, stress_std**2) draws (see ``_generate_set``)."""
    return _generate_set(x, kind, strains, NoiseSpec(stress_std=stress_std), seed)


def generate_double_noise(
    x: ParameterVector,
    kind: ModelKind,
    strains,
    stress_std: float,
    strain_std: float,
    seed: int,
    strain_limit: float = math.inf,
) -> MeasurementSet:
    """Measurements with independent Gaussian noise on stress and strain,
    sorted by measured strain (see ``_generate_set``)."""
    return _generate_set(x, kind, strains, NoiseSpec(stress_std, strain_std, strain_limit), seed)


def draw_specimens(pop: SpecimenPopulation, seed) -> list[ParameterVector]:
    """Draw specimen parameter vectors, rejecting negative components.

    Draws are i.i.d. multivariate normal; rows with any negative component
    are discarded and redrawn. A rejection rate above 99.9% while specimens
    are still missing aborts with a configuration error: such a population
    is incompatible with the nonnegativity support.
    """
    rng = np.random.default_rng(seed)
    accepted = np.empty((0, pop.mean.size))
    proposed = 0
    batch = max(pop.count, 16)
    while len(accepted) < pop.count:
        if proposed >= 1000 * pop.count and len(accepted) < 0.001 * proposed:
            raise ConfigurationError(
                f"specimen rejection rate above 99.9% ({len(accepted)}/{proposed} accepted); "
                "population mass is almost entirely outside the nonnegative support"
            )
        rows = rng.multivariate_normal(pop.mean, pop.covariance, size=batch)
        proposed += batch
        accepted = np.concatenate([accepted, rows[(rows >= 0.0).all(axis=1)]])
    return [ParameterVector.from_array(pop.kind, row) for row in accepted[: pop.count]]


def _read_text(path, label: str) -> str:
    """The text of file ``path``: a missing or unreadable file (a directory,
    say), or one whose bytes are not UTF-8 text, is a configuration error
    naming ``label`` and the path."""
    try:
        return Path(path).read_text()
    except OSError as err:
        raise ConfigurationError(f"cannot read {label} {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise ConfigurationError(f"malformed {label} {path}: {err}") from None


def _read_object(path, label: str) -> dict:
    """The JSON object in file ``path``: a file ``_read_text`` rejects, a
    malformed one, or one holding anything but an object, is a
    configuration error naming ``label`` and the path."""
    text = _read_text(path, label)
    try:
        value = json.loads(text)
    except ValueError as err:
        raise ConfigurationError(f"malformed {label} {path}: {err}") from None
    if not isinstance(value, dict):
        raise ConfigurationError(f"{label} {path} must contain a JSON object")
    return value


def _write_text(path, text: str) -> None:
    """Write ``text`` to file ``path``: a path that cannot be written (in a
    missing directory, say) is a configuration error naming it."""
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise ConfigurationError(f"cannot write {path}: {err.strerror}") from None


def _write_object(path, obj: dict) -> None:
    """Write the JSON object ``obj`` to file ``path``, indented by 2. JSON
    has no infinity or NaN: a field holding one is a numerical error naming
    the path and the field, raised before the file is opened."""
    for key, value in obj.items():
        try:
            json.dumps(value, allow_nan=False)
        except ValueError:
            raise NumericalError(f"cannot write {path}: {key} is not finite") from None
    _write_text(path, json.dumps(obj, indent=2, allow_nan=False) + "\n")


def _write_table(path, columns: list[str], rows) -> None:
    """Write ``rows`` of numbers (none at all is a table too) as a CSV with
    a ``columns`` header, each value with 17 significant digits, which
    round-trips float64. One format operation over the whole table gives
    the bytes of ``np.savetxt`` with ``fmt="%.17g"``, which formats row by
    row, in about half the time. A column holding an infinity or NaN is a
    numerical error, raised before the file is opened."""
    table = np.asarray(rows, dtype=float)
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():
        raise NumericalError(f"cannot write {path}: {columns[int(np.argmin(finite))]} is not finite")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    _write_text(path, ",".join(columns) + "\n" + (row * len(table)) % tuple(table.ravel().tolist()))


def _read_table(path, label: str) -> Iterator:
    """Yield the header line of CSV file ``path``, then its data rows, each
    its line number and values; blank lines are skipped. A row is parsed
    only when it is drawn, so a caller can check the header first. A file
    ``_read_text`` rejects, an empty one, or a row that does not hold one
    finite number per header column, is a configuration error naming the
    path and the line. The mirror of :func:`_write_table`: ``float`` reads
    its 17 digits back to the same bits."""
    lines = _read_text(path, label).splitlines()
    if not lines:
        raise ConfigurationError(f"{path}: empty file")
    yield lines[0]
    width = lines[0].count(",") + 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise ConfigurationError(f"{path}:{lineno}: expected {width} comma-separated values, got {line!r}")
        try:
            values = [float(cell) for cell in cells]
        except ValueError as err:
            raise ConfigurationError(f"{path}:{lineno}: non-numeric value in {line!r} ({err})") from None
        if not all(map(math.isfinite, values)):
            raise ConfigurationError(f"{path}:{lineno}: non-finite value in {line!r}")
        yield lineno, values


def write_measurements(mset: MeasurementSet, path) -> None:
    """Write the CSV file and its JSON sidecar."""
    path = Path(path)
    _write_table(path, ["strain", "stress"], np.column_stack([mset.strains, mset.stresses]))
    sidecar = {
        "noise": {
            "regime": "stress-strain" if mset.noise.double else "stress-only",
            "stress_std": mset.noise.stress_std,
            "strain_std": mset.noise.strain_std,
            # JSON has no infinity; null encodes an unbounded tester.
            "strain_limit": None if math.isinf(mset.noise.strain_limit) else mset.noise.strain_limit,
        },
        "provenance": mset.provenance,
    }
    _write_object(path.with_suffix(".json"), sidecar)


def _parse_sidecar(path) -> tuple[NoiseSpec, str]:
    raw = _read_object(path, "sidecar")
    try:
        noise = _parse_noise(_require(raw, "noise", "sidecar"))
        _require(raw["noise"], "regime", "sidecar noise")
    except ConfigurationError as err:
        raise ConfigurationError(f"invalid sidecar {path}: {err}") from None
    return noise, str(raw.get("provenance", ""))


def read_measurements(path) -> MeasurementSet:
    """Read a measurement CSV plus sidecar written by :func:`write_measurements`.

    Raises:
        ConfigurationError: on a file that cannot be read as text (missing,
            a directory, not UTF-8), naming the path; on malformed or
            non-finite rows or ordering problems, naming the offending line.
    """
    path = Path(path)
    table = _read_table(path, "measurement file")
    header = next(table)
    if header.strip() != "strain,stress":
        raise ConfigurationError(f"{path}:1: expected header 'strain,stress', got {header!r}")
    rows = list(table)
    if not rows:
        raise ConfigurationError(f"{path}: k >= 1 required, found no data rows")
    for (_, (previous, _)), (lineno, (strain, _)) in zip(rows, rows[1:]):
        if strain <= previous:
            raise ConfigurationError(f"{path}:{lineno}: strains must be strictly increasing")

    noise, provenance = _parse_sidecar(path.with_suffix(".json"))
    strains, stresses = np.array([values for _, values in rows]).T.copy()
    return MeasurementSet(strains=strains, stresses=stresses, noise=noise, provenance=provenance)
