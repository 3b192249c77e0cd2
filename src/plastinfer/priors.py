"""Truncated multivariate normal priors with nonnegativity support.

The prior is a normal density restricted to the nonnegative orthant, kept
unnormalized: the truncation constant cancels in Metropolis ratios and in
MAP or mean extraction, so it is never computed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ConfigurationError

__all__ = ["TruncatedNormalPrior"]


class TruncatedNormalPrior:
    """Unnormalized normal log-density on the nonnegative orthant.

    The log-density is ``-0.5 * (x - mean)^T C^{-1} (x - mean)`` for x with
    all components >= 0 and ``-inf`` otherwise. The covariance is factorized
    once at construction, into the inverse of its Cholesky factor; an
    ill-conditioned or asymmetric covariance is a configuration error
    raised here, not at call time.
    """

    def __init__(self, mean, covariance) -> None:
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(covariance, dtype=float))
        if mean.ndim != 1:
            raise ConfigurationError("prior mean must be a vector")
        if cov.shape != (mean.size, mean.size):
            raise ConfigurationError(
                f"prior covariance must be {mean.size}x{mean.size}, got {cov.shape}"
            )
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ConfigurationError("prior mean and covariance must be finite")
        scale = max(1.0, float(np.abs(cov).max()))
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12 * scale):
            raise ConfigurationError("prior covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ConfigurationError("prior covariance must be positive definite") from None
        self.mean = mean
        self.covariance = cov
        self._whiten = solve_triangular(chol, np.eye(mean.size), lower=True)

    @property
    def dimension(self) -> int:
        return self.mean.size

    def log_density(self, x) -> float:
        """Unnormalized log-density at ``x`` (vector of length ``dimension``)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.mean.size:
            raise ConfigurationError(f"expected {self.mean.size} components, got {x.size}")
        # NaN fails both comparisons, so it is off the support too.
        if not all(0.0 <= v < math.inf for v in x.tolist()):
            return -math.inf
        z = self._whiten @ (x - self.mean)
        return -0.5 * float(z @ z)
