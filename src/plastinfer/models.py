"""Constitutive models for monotonic uniaxial tension.

Four one-dimensional stress responses are provided, in increasing order of
complexity:

* linear elastic (``LE``),
* linear elastic-perfectly plastic (``LE-PP``),
* linear elastic-linear hardening (``LE-LH``),
* linear elastic-nonlinear (power-law) hardening (``LE-NH``).

Stresses are expressed in GPa and strains are dimensionless. The yield
point sits at strain ``sigma_y0 / E``; the boundary itself is treated as
elastic, which is immaterial for the response value because both branches
coincide there. The nonlinear-hardening stress is only defined implicitly
and is obtained by a safeguarded bracketing solve.

All evaluation functions are pure and accept scalar or array strains.
``stress_rows`` evaluates many parameter vectors at once; the
single-vector functions are one-row calls of it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError

__all__ = [
    "ModelKind",
    "ParameterVector",
    "stress_le",
    "stress_lepp",
    "stress_lelh",
    "stress_lenh",
    "stress",
    "stress_rows",
    "yield_strain",
]


class ModelKind(enum.Enum):
    """The supported constitutive models."""

    LINEAR_ELASTIC = "LE"
    PERFECT_PLASTICITY = "LE-PP"
    LINEAR_HARDENING = "LE-LH"
    NONLINEAR_HARDENING = "LE-NH"

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return _PARAMETER_NAMES[self]

    @property
    def dimension(self) -> int:
        return len(_PARAMETER_NAMES[self])

    @classmethod
    def parse(cls, token: str) -> "ModelKind":
        """Look up a model by its short name (case-insensitive)."""
        if isinstance(token, cls):
            return token
        want = str(token).strip().upper()
        for kind in cls:
            if kind.value == want:
                return kind
        known = ", ".join(k.value for k in cls)
        raise ConfigurationError(f"unknown model {token!r}; expected one of {known}")


_PARAMETER_NAMES: dict[ModelKind, tuple[str, ...]] = {
    ModelKind.LINEAR_ELASTIC: ("E",),
    ModelKind.PERFECT_PLASTICITY: ("E", "sigma_y0"),
    ModelKind.LINEAR_HARDENING: ("E", "sigma_y0", "H"),
    ModelKind.NONLINEAR_HARDENING: ("E", "sigma_y0", "H", "n"),
}


@dataclass(frozen=True)
class ParameterVector:
    """Material parameters of a constitutive model.

    Attributes:
        E: Young's modulus in GPa.
        sigma_y0: initial yield stress in GPa (plastic models only).
        H: plastic modulus in GPa (hardening models only).
        n: dimensionless hardening exponent (nonlinear hardening only).

    All present components must be finite and nonnegative; that is the
    support of every prior used in this package.
    """

    E: float
    sigma_y0: float | None = None
    H: float | None = None
    n: float | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            value = float(value)
            if not np.isfinite(value) or value < 0.0:
                raise DomainError(f"parameter {f.name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, f.name, value)

    @classmethod
    def from_array(cls, kind: ModelKind, values) -> "ParameterVector":
        """Build a parameter vector for ``kind`` from an ordered array."""
        values = np.asarray(values, dtype=float).reshape(-1)
        names = kind.parameter_names
        if values.shape != (len(names),):
            raise DomainError(
                f"{kind.value} needs {len(names)} parameters {names}, got {values.size}"
            )
        return cls(**dict(zip(names, values)))

    def to_array(self) -> np.ndarray:
        """Present components in canonical order (E, sigma_y0, H, n)."""
        return np.array(
            [getattr(self, f.name) for f in fields(self) if getattr(self, f.name) is not None],
            dtype=float,
        )

    @property
    def dimension(self) -> int:
        return sum(getattr(self, f.name) is not None for f in fields(self))

    def require_kind(self, kind: ModelKind) -> None:
        """Raise unless exactly the components of ``kind`` are present."""
        present = tuple(f.name for f in fields(self) if getattr(self, f.name) is not None)
        if present != kind.parameter_names:
            raise DomainError(
                f"{kind.value} needs components {kind.parameter_names}, got {present}"
            )


def yield_strain(x: ParameterVector) -> float:
    """Strain at which plastic flow begins, ``sigma_y0 / E``.

    Raises:
        DomainError: if ``E == 0`` or the model has no yield stress.
    """
    if x.sigma_y0 is None:
        raise DomainError("yield strain undefined: parameter vector has no yield stress")
    if x.E == 0.0:
        raise DomainError("yield strain undefined for E = 0")
    return x.sigma_y0 / x.E


def _as_strain_array(strain):
    eps = np.asarray(strain, dtype=float)
    if (eps < 0.0).any() or not np.isfinite(eps).all():
        raise DomainError("strains must be finite and >= 0 (monotonic tension)")
    return eps


def _components(x: ParameterVector, kind: ModelKind) -> list[float]:
    """The components of ``x`` that ``kind`` uses, in canonical order."""
    values = [getattr(x, name) for name in kind.parameter_names]
    if None in values:
        raise DomainError(f"{kind.value} requires {', '.join(kind.parameter_names)}")
    return values


def stress(strain, x: ParameterVector, kind: ModelKind):
    """Theoretical stress of ``kind`` at ``strain`` (scalar or array): a
    one-row ``stress_rows``."""
    eps = _as_strain_array(strain)
    out = stress_rows(kind, eps.reshape(-1), np.array([_components(x, kind)]))[0]
    return out.reshape(eps.shape) if eps.ndim else float(out[0])


def stress_le(strain, x: ParameterVector):
    """Linear elastic stress ``E * strain``."""
    return stress(strain, x, ModelKind.LINEAR_ELASTIC)


def stress_lepp(strain, x: ParameterVector):
    """Perfectly plastic stress: elastic up to yield, then constant ``sigma_y0``."""
    return stress(strain, x, ModelKind.PERFECT_PLASTICITY)


def stress_lelh(strain, x: ParameterVector):
    """Linear hardening stress.

    Below the yield strain the response is ``E * strain``; above it the
    stress continues with the reduced slope ``H * E / (H + E)``.
    """
    return stress(strain, x, ModelKind.LINEAR_HARDENING)


def stress_lenh(strain, x: ParameterVector):
    """Nonlinear (power-law) hardening stress.

    Above the yield strain the stress s solves the implicit equation

        s = sigma_y0 + H * (strain - s / E) ** n,

    which has a unique root in ``(sigma_y0, E * strain]`` because the
    residual is strictly increasing in s there. The root is found by
    bisection (robust even for n < 1, where the residual is not Lipschitz
    near ``s = E * strain``) followed by a guarded Newton polish.

    Raises:
        DomainError: for parameters outside the model domain.
        NumericalError: if the bracket fails or the residual tolerance
            ``1e-12 * max(1, sigma_y0)`` cannot be met.
    """
    return stress(strain, x, ModelKind.NONLINEAR_HARDENING)


def stress_rows(kind: ModelKind, strain: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Theoretical stress of ``kind`` for many parameter vectors at once.

    ``values`` holds one raw parameter array per row, shape (m, dim), in
    canonical order (E, sigma_y0, H, n), each finite and nonnegative;
    ``strain`` is a 1-D array of finite nonnegative strains. Returns the
    stresses, shape (m, strain.size). Every element is computed from its
    own row alone, so a row gives the same bits in any batch.

    Raises:
        DomainError: if any row is outside the model's domain.
        NumericalError: if an implicit LE-NH solve fails for any row.
    """
    E, *rest = values.T[:, :, None]
    if kind is ModelKind.LINEAR_ELASTIC:
        return E * strain
    if kind is ModelKind.NONLINEAR_HARDENING:
        sy, H, n = rest
        if (E <= 0.0).any():
            raise DomainError("LE-NH requires E > 0")
        if (n <= 0.0).any():
            raise DomainError("LE-NH requires n > 0")
        out = E * strain
        rows, points = np.nonzero(strain > sy / E)
        if rows.size:
            out[rows, points] = _implicit_stress(
                strain[points], *(c[rows, 0] for c in (E, sy, H, n))
            )
        return out
    sy = rest[0]
    # With E = 0 the elastic line is flat at zero stress and yield is never
    # reached: the yield strain is then inf or NaN, which no strain exceeds.
    with np.errstate(divide="ignore", invalid="ignore"):
        ey = sy / E
    if kind is ModelKind.PERFECT_PLASTICITY:
        if ((E == 0.0) & (sy > 0.0)).any():
            raise DomainError("yield strain undefined: E = 0 with sigma_y0 > 0")
        return np.where(strain > ey, sy, E * strain)
    H = rest[1]
    if (H + E == 0.0).any():
        raise DomainError("LE-LH undefined for H + E = 0")
    with np.errstate(invalid="ignore"):
        plastic = sy + H * E / (H + E) * (strain - ey)
    return np.where(strain > ey, plastic, E * strain)


def _implicit_stress(eps, E, sy, H, n) -> np.ndarray:
    """Root of g(s) = s - sy - H * (eps - s/E)**n on [sy, E*eps], elementwise
    over arrays of equal shape (one strain and parameter set per element)."""
    lo = sy.copy()
    hi = E * eps
    # g(sy) = -H * (eps - sy/E)**n <= 0 and g(E*eps) = E*eps - sy > 0, so the
    # bracket is guaranteed for admissible parameters; check anyway so a
    # numerical surprise surfaces with context instead of silent garbage.
    g_lo = -H * np.power(eps - sy / E, n)
    g_hi = hi - sy
    bad = (g_lo > 0.0) | (g_hi < 0.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericalError(
            "no bracket for implicit stress: "
            f"strain={eps[i]!r}, E={float(E[i])!r}, sigma_y0={float(sy[i])!r}, "
            f"H={float(H[i])!r}, n={float(n[i])!r}, "
            f"g(sigma_y0)={g_lo[i]!r}, g(E*strain)={g_hi[i]!r}"
        )

    for _ in range(64):
        mid = 0.5 * (lo + hi)
        t = np.maximum(eps - mid / E, 0.0)
        gm = mid - sy - H * np.power(t, n)
        below = gm < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    sigma = 0.5 * (lo + hi)

    # Newton polish; the derivative is >= 1 so steps are tame. Where the
    # derivative overflows (t == 0 with n < 1) the step degenerates to zero.
    for _ in range(2):
        t = np.maximum(eps - sigma / E, 0.0)
        g = sigma - sy - H * np.power(t, n)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            dg = np.where(H == 0.0, 1.0, 1.0 + (H * n / E) * np.power(t, n - 1.0))
        step = np.where(np.isfinite(dg), g / dg, 0.0)
        cand = sigma - step
        ok = np.isfinite(cand) & (cand >= sy) & (cand <= E * eps)
        sigma = np.where(ok, cand, sigma)

    t = np.maximum(eps - sigma / E, 0.0)
    resid = np.abs(sigma - sy - H * np.power(t, n))
    # Achievable accuracy is limited by how the residual amplifies one-ulp
    # input noise: |dg/ds| ulp(s) from the stress plus |dg/de| ulp(e) from
    # the strain cancellation inside t. Just above yield with n < 1 both
    # derivatives diverge and that floor, not the absolute tolerance,
    # bounds what any solver can deliver; the root itself stays accurate
    # to resid / |dg/ds|, far below an ulp of the stress.
    u = np.finfo(float).eps
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        hardening_slope = (H * n / E) * np.power(t, n - 1.0)
    hardening_slope = np.where(np.isfinite(hardening_slope), hardening_slope, np.inf)
    noise_scale = (1.0 + hardening_slope) * np.maximum(np.abs(sigma), sy) + hardening_slope * E * eps
    tol = 1e-12 * np.maximum(1.0, sy) + 8.0 * u * noise_scale
    if np.any(resid > tol):
        i = int(np.argmax(resid - tol))
        raise NumericalError(
            f"implicit stress residual {resid[i]:.3e} exceeds {tol[i]:.3e} at "
            f"strain={eps[i]!r}, E={float(E[i])!r}, sigma_y0={float(sy[i])!r}, "
            f"H={float(H[i])!r}, n={float(n[i])!r}"
        )
    return sigma
