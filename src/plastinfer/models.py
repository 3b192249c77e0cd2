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
coincide there. LE and LE-PP are LE-LH with the hardening switched off (LE
never yields, LE-PP has H = 0); with E = 0 none of them yields, and the
response is zero at every strain. LE-NH requires E > 0 and n > 0. Its
stress is only defined implicitly, by
``s = sigma_y0 + H * (strain - s / E)**n``; past yield it is computed in a
plastic coordinate in which stress and strain are both explicit (the
plastic strain for n >= 1 or H = 0, the stress excess over yield for
n < 1), with one Newton inversion from the strain to that coordinate. Both
likelihoods use the same coordinate.

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
    "stress_lenh",
    "stress",
    "stress_rows",
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


def stress_lenh(strain, x: ParameterVector):
    """Nonlinear (power-law) hardening stress: ``stress`` for ``LE-NH``."""
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
        NumericalError: if the Newton inversion of an LE-NH plastic
            coordinate does not converge for any element.
    """
    if kind is ModelKind.NONLINEAR_HARDENING:
        return _lenh_response(strain, values)[0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        E, ey, sy, slope = _affine_columns(kind, values)
        return np.where(strain > ey, sy + slope * (strain - ey), E * strain)


def _affine_columns(kind: ModelKind, values: np.ndarray) -> list:
    """The columns E, yield strain, sigma_y0 and plastic slope of LE, LE-PP
    or LE-LH parameter rows, each of shape (m, 1) or a scalar. All three
    are LE-LH rows: LE-PP has H = 0, and LE also sigma_y0 = inf, so it never
    yields. Nor does a row with E = 0 (yield strain inf); the slope of a
    row that never yields, which may be NaN, is never used. Such rows
    divide by zero or make NaNs, so callers run this under ``np.errstate``."""
    E = values[:, :1]
    sy = np.inf if kind is ModelKind.LINEAR_ELASTIC else values[:, 1:2]
    H = values[:, 2:] if kind is ModelKind.LINEAR_HARDENING else 0.0
    return [E, np.where(E == 0.0, np.inf, sy / E), sy, H * E / (H + E)]


def _lenh_columns(values: np.ndarray) -> np.ndarray:
    """The columns E, sigma_y0, H, n of LE-NH parameter rows, each of shape
    (m, 1), once every row is checked to lie in the model's domain."""
    columns = values.T[:, :, None]
    E, _, _, n = columns
    if (E <= 0.0).any():
        raise DomainError("LE-NH requires E > 0")
    if (n <= 0.0).any():
        raise DomainError("LE-NH requires n > 0")
    return columns


def _plastic_groups(values: np.ndarray, plastic: np.ndarray):
    """The (row, point) elements where ``plastic`` (m, k) holds, split by
    the plastic coordinate of their row: yields ``(rows, points, x, excess)``
    per nonempty group, ``x`` holding the elements' (E, sigma_y0, H, n) as
    1-D arrays and ``excess`` the coordinate flag of ``_plastic_path``."""
    rows, points = np.nonzero(plastic)
    excess = ((values[:, 2] > 0.0) & (values[:, 3] < 1.0))[rows]
    for flag in (True, False):
        group = excess == flag
        if group.any():
            r = rows[group]
            yield r, points[group], [c[r] for c in values.T], flag


def _lenh_response(strain: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stress and log d(strain)/d(plastic strain) of LE-NH parameter rows at
    the 1-D ``strain``, each (m, strain.size), 0 on the elastic branch; both
    from the plastic coordinate t. In the plastic strain the derivative is
    the path's slope; in the stress excess v it is
    1 + n H / (E (v/H)**(1/n - 1)), taken in log form because for n << 1
    the power underflows long before the plastic strain is resolved."""
    E, sy, _, _ = _lenh_columns(values)
    stress = E * strain
    log_slope = np.zeros(stress.shape)
    for r, p, x, excess in _plastic_groups(values, strain > sy / E):
        t = _plastic_coordinate(strain[p], x, excess)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            stress[r, p], _, slope = _plastic_path(t, x, excess)
            if excess:
                E_p, _, H, n = x
                # log(n) apart: a subnormal n makes 1/n inf, and n H / E 0.
                log_ratio = np.log(n) + np.log(H / E_p) - (1.0 / n - 1.0) * np.log(t / H)
                log_slope[r, p] = np.logaddexp(0.0, log_ratio)
            else:
                log_slope[r, p] = np.log(slope)
    return stress, log_slope


def _power(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """``base ** exponent`` for an exponent broadcast against ``base``'s shape.

    numpy evaluates a power whose exponent array holds a single value of
    0.5, 2 or -1 as a square root, square or reciprocal, which can differ
    from the general power in the last bit; a one-row batch would then
    give other bits than the same row in a larger batch. Such an exponent
    is spread to the full shape first.
    """
    if np.size(exponent) == 1:
        exponent = np.full(np.shape(base), exponent)
    return np.power(base, exponent)


def _plastic_path(t, x, excess: bool):
    """Stress, total strain and d(strain)/dt at plastic coordinates ``t >= 0``.

    Both stress and strain are explicit in ``t``, and ``t = 0`` is the
    yield point. With ``excess`` false (n >= 1 or H = 0) ``t`` is the
    plastic strain u, so stress = sigma_y0 + H u**n; with ``excess`` true
    (H > 0 and n < 1) it is the stress excess v = stress - sigma_y0, so
    u = (v / H)**(1/n). Either way strain = stress / E + u, and the chosen
    variable keeps d(strain)/dt finite and bounded below by min(1, 1/E).
    ``x`` holds (E, sigma_y0, H, n), each broadcastable against ``t``.
    """
    E, sy, H, n = x
    if excess:
        sigma = sy + t
        ratio = t / H
        growth = _power(ratio, 1.0 / n - 1.0)  # n * H * du/dv
        return sigma, sigma / E + ratio * growth, 1.0 / E + growth / (n * H)
    n = np.where(H == 0.0, 1.0, n)  # the hardening term vanishes; keep 0 * t**(n - 1) finite at t = 0
    sigma = sy + H * _power(t, n)
    return sigma, sigma / E + t, 1.0 + (H * n / E) * _power(t, n - 1.0)


def _stress_coordinate(sigma: np.ndarray, x, excess: bool) -> np.ndarray:
    """The coordinate t of ``_plastic_path`` at which the stress is ``sigma``
    (0 at or below yield); inf or NaN with H = 0, whose stress is flat."""
    _, sy, H, n = x
    v = np.maximum(sigma - sy, 0.0)
    return v if excess else _power(v / H, 1.0 / n)


def _plastic_coordinate(strain: np.ndarray, x, excess: bool) -> np.ndarray:
    """Invert ``_plastic_path``: the coordinate t at which strain is reached,
    elementwise (``x`` holds one parameter array per component).

    Strain exceeds yield by a convex increasing function of t (a linear
    term plus a power >= 1), so Newton started at or above the root
    decreases monotonically onto it. The start is the smaller of the two
    values at which either term alone reaches the excess, which brackets
    the root within a factor of two; the yield strain itself starts, and
    stays, at t = 0 exactly. Convergence is judged on the strain residual,
    against a few ulps of the strain plus the change one ulp of t makes
    (t times the slope): for n << 1 far past yield the strain is so steep
    in the stress excess that no double t meets a bound on the strain
    alone. Each element stops at its own convergence.

    Raises:
        NumericalError: if some element has not converged after 60 steps.
    """
    E, sy, H, n = x
    excess_strain = np.maximum(strain - sy / E, 0.0)
    # n H underflowing makes infs and NaNs; a NaN never counts as converged.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if excess:
            t = np.fmin(E * excess_strain, H * _power(excess_strain, n))
        else:
            t = np.fmin(excess_strain, _power(excess_strain * E / H, 1.0 / n))
        for _ in range(60):  # a handful suffice; the cap only turns a stall into an error
            _, reached, slope = _plastic_path(t, x, excess)
            resid = reached - strain
            tol = np.finfo(float).eps * (4.0 * strain + t * slope)
            done = np.abs(resid) <= tol
            if np.all(done):
                return t
            t = np.where(done, t, np.maximum(t - resid / slope, 0.0))
        i = int(np.argmax(np.abs(resid) - tol))
    raise NumericalError(
        f"plastic coordinate not reached: strain={strain[i]!r}, residual {resid[i]:.3e}, "
        f"x={np.array([c[i] for c in x])!r}"
    )
