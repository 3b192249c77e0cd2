"""Effective sample size owned by the benchmark.

A frozen copy of the initial positive sequence estimator, so that a later
change to ``plastinfer.sampler.effective_sample_size`` cannot redefine the
``ess_per_s`` metric. ``test_bench.py`` checks that the two agree on chains
of the current library.
"""

from __future__ import annotations

import numpy as np


def effective_sample_size(values) -> float:
    """Autocorrelation-adjusted sample count of a scalar chain.

    Autocorrelations are summed in adjacent pairs and the sum is truncated
    at the first nonpositive pair. A chain shorter than four states, or a
    constant one, returns its length.
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


def min_ess(samples) -> float:
    """Smallest per-parameter effective sample size of a (n, dim) chain."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    return min(effective_sample_size(samples[:, j]) for j in range(samples.shape[1]))
