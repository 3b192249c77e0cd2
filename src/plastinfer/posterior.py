"""Posterior construction: analytic linear-elastic case and the general target.

The linear elastic model with a Gaussian prior on the modulus and Gaussian
stress noise is conjugate, so the posterior over the nonnegative reals is a
truncated Gaussian with closed-form location and scale. Everything else is
sampled; ``LogPosterior`` packages prior, model and data into the
unnormalized log-density the samplers target.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import MeasurementSet
from .errors import ConfigurationError, _number, _numbers
from .likelihood import QuadratureSpec, likelihood_kernel
from .models import ModelKind
from .priors import TruncatedNormalPrior

__all__ = ["AnalyticLEPosterior", "analytic_le_posterior", "LogPosterior"]


@dataclass(frozen=True)
class AnalyticLEPosterior:
    """Location and scale of the conjugate linear-elastic posterior.

    Both refer to the underlying untruncated Gaussian; the actual
    posterior is its restriction to ``E >= 0``. When the location sits
    many scales above zero (the usual case for stiff materials) the
    truncation is immaterial.

    Attributes:
        mean: posterior location in the stress unit per unit strain.
        std: posterior scale, same unit.
    """

    mean: float
    std: float


def analytic_le_posterior(
    prior_mean: float,
    prior_std: float,
    strains: np.ndarray,
    stresses: np.ndarray,
    stress_std: float,
) -> AnalyticLEPosterior:
    """Closed-form posterior for the linear elastic modulus.

    Derived by completing the square in the product of the Gaussian prior
    and the Gaussian likelihood of ``k`` stress measurements at known
    strains; with no data the prior is returned unchanged.

    Args:
        prior_mean: prior location of the modulus.
        prior_std: prior scale, > 0.
        strains: measurement strains, shape (k,), k >= 0, read as
            ``MeasurementSet`` reads them (a bool or string is refused).
        stresses: measured stresses, shape (k,), read likewise.
        stress_std: stress noise standard deviation, > 0.

    Returns:
        AnalyticLEPosterior with the updated location and scale.
    """
    prior_mean = _number(prior_mean, "prior mean")
    prior_std = _number(prior_std, "prior std")
    stress_std = _number(stress_std, "stress std")
    if prior_std <= 0.0:
        raise ConfigurationError(f"prior std must be > 0, got {prior_std!r}")
    if stress_std <= 0.0:
        raise ConfigurationError(f"stress std must be > 0, got {stress_std!r}")
    strains = _numbers(strains, "strains")
    stresses = _numbers(stresses, "stresses")
    if strains.shape != stresses.shape:
        raise ConfigurationError("strains and stresses must have matching shapes")

    s2 = stress_std * stress_std
    p2 = prior_std * prior_std
    denom = s2 + p2 * float(np.sum(strains * strains))
    mean = (s2 * prior_mean + p2 * float(np.sum(strains * stresses))) / denom
    std = float(np.sqrt(s2 * p2 / denom))
    if mean <= 8.0 * std:
        warnings.warn(
            "analytic posterior location is within 8 scales of zero; the "
            "nonnegativity truncation is no longer negligible and the "
            "returned mean/std describe the untruncated Gaussian only",
            stacklevel=2,
        )
    return AnalyticLEPosterior(mean=mean, std=std)


class LogPosterior:
    """Unnormalized log-posterior over nonnegative material parameters.

    ``log_density`` scores a stack of parameter arrays in one vectorized
    pass; calling the target on one array is a one-row ``log_density``.
    Off the nonnegative orthant the value is ``-inf`` and the likelihood is
    never touched, so the samplers can propose freely. The likelihood
    kernel of all the sets is resolved once, here (``likelihood_kernel``,
    which also judges ``quadrature``); a call then works on raw arrays, and
    each row's value has the same bits in any batch.

    ``data`` may be one measurement set, a sequence of sets (independent
    specimens pooled into one identification: their log-likelihoods add),
    or ``None`` for the bare truncated prior; the last is the cheapest way
    to exercise a sampler against a distribution with known moments.
    """

    def __init__(
        self,
        kind: ModelKind,
        prior: TruncatedNormalPrior,
        data: MeasurementSet | Sequence[MeasurementSet] | None = None,
        quadrature: QuadratureSpec | None = None,
    ) -> None:
        if prior.dimension != kind.dimension:
            raise ConfigurationError(
                f"prior dimension {prior.dimension} does not match "
                f"{kind.value} dimension {kind.dimension}"
            )
        if data is None:
            sets: tuple[MeasurementSet, ...] = ()
        elif isinstance(data, MeasurementSet):
            sets = (data,)
        else:
            sets = tuple(data)
            if not sets:
                raise ConfigurationError("an empty sequence of measurement sets is ambiguous; pass None for a prior-only target")
        self.kind = kind
        self.prior = prior
        self.data = sets
        self._kernel = likelihood_kernel(kind, sets, quadrature)

    @property
    def dimension(self) -> int:
        return self.kind.dimension

    def log_density(self, points: np.ndarray) -> np.ndarray:
        """Log-posterior of each row of ``points``, shape (k, dimension).

        Raises ``DomainError`` or ``NumericalError`` when a row on the
        support does; rows off the support never reach a kernel.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ConfigurationError(f"expected parameter rows of shape (k, {self.dimension})")
        lp = self.prior.log_density(points)
        live = lp > -np.inf
        if live.all():
            lp += self._kernel(points)
        elif live.any():
            lp[live] += self._kernel(points[live])
        return lp

    def __call__(self, values: np.ndarray) -> float:
        values = np.asarray(values, dtype=float).reshape(1, -1)
        return float(self.log_density(values)[0])
