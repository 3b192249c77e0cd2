"""Truncated multivariate normal priors with nonnegativity support.

The prior is a normal density restricted to the nonnegative orthant, kept
unnormalized: the truncation constant cancels in Metropolis ratios and in
MAP or mean extraction, so it is never computed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, _numbers

__all__ = ["TruncatedNormalPrior"]


def _normal_moments(mean, covariance, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``mean`` as a vector and ``covariance`` as a matrix of matching
    shape, both read by ``_numbers`` and the matrix symmetric, else a
    configuration error that begins with ``name``; each caller tests
    definiteness itself."""
    mean = _numbers(mean, f"{name} mean")
    cov = np.atleast_2d(_numbers(covariance, f"{name} covariance", 2))
    if cov.shape != (mean.size, mean.size):
        raise ConfigurationError(f"{name} covariance must be {mean.size}x{mean.size}, got {cov.shape}")
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(cov).max()))):
        raise ConfigurationError(f"{name} covariance must be symmetric")
    return mean, cov


class TruncatedNormalPrior:
    """Unnormalized normal log-density on the nonnegative orthant.

    The log-density is ``-0.5 * (x - mean)^T C^{-1} (x - mean)`` for x with
    all components >= 0 and ``-inf`` otherwise. The covariance is factorized
    once at construction, into the inverse of its Cholesky factor (numpy's,
    so the import loads no ``scipy.linalg``); an ill-conditioned or
    asymmetric covariance is a configuration error raised here, not at call
    time.
    """

    def __init__(self, mean, covariance) -> None:
        mean, cov = _normal_moments(mean, covariance, "prior")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ConfigurationError("prior covariance must be positive definite") from None
        self.mean = mean
        self.covariance = cov
        self._whiten = np.linalg.inv(chol)

    @property
    def dimension(self) -> int:
        return self.mean.size

    def log_density(self, x):
        """Unnormalized log-density at ``x``.

        ``x`` is one vector of length ``dimension``, giving a float, or a
        stack of them, shape (k, dimension), giving one value per row. The
        quadratic form is summed per row by ``einsum``, not by a matrix
        product, so a row gives the same bits alone as in any stack.
        """
        points = np.asarray(x, dtype=float)
        rows = points if points.ndim == 2 else points.reshape(1, -1)
        if rows.shape[1] != self.mean.size:
            raise ConfigurationError(f"expected {self.mean.size} components, got {rows.shape[1]}")
        deviation = rows - self.mean
        off = None
        if not (rows.min(initial=0.0) >= 0.0 and rows.max(initial=0.0) < math.inf):
            # NaN fails both comparisons, so it is off the support too.
            off = ~((rows >= 0.0) & (rows < math.inf)).all(axis=1)
            deviation[off] = 0.0  # an infinity would warn (inf * 0) in the form
        z = np.einsum("ij,kj->ki", self._whiten, deviation)
        out = -0.5 * np.einsum("ki,ki->k", z, z)
        if off is not None:
            out[off] = -math.inf
        return out if points.ndim == 2 else float(out[0])
