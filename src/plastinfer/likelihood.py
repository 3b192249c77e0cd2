"""Log-likelihoods for every model and noise-regime combination.

Stress-only regime: Gaussian residuals between measured and theoretical
stresses. For the implicit nonlinear-hardening model the density carries a
change-of-variables factor on the plastic branch (the implicit response
maps stress intervals nonuniformly): the Gaussian term is divided by
d(strain)/d(plastic strain) = ``1 + (H*n/E) * u**(n-1)``, which ``models``
returns with the stress, both from the plastic coordinate.

Stress-and-strain regime: the true strain is unobserved, so each point's
density marginalizes it over ``[0, a]`` (``a`` being the tester's strain
limit):

    p(stress_m, strain_m | x) =
        integral  N(stress_m; response(e), S_sigma^2) N(e; strain_m, S_eps^2) de.

For the three explicit models the response is affine on each branch and
the integral has a closed form: the Gaussian marginal of the measured
stress times the mass a truncated Gaussian in the true strain assigns to
the branch interval. These closed forms were re-derived from the
marginalization integral and are checked against adaptive quadrature in
the test suite. For the implicit model the plastic branch is integrated
by Gauss-Legendre in a plastic coordinate in which the stress and the
total strain are explicit (``models``): the plastic strain for n >= 1 or
H = 0, the stress excess for n < 1. ``_lenh_kernel`` gives the window, the
screen and the blocking.

Everything is composed in log space; with ten or more measurements the
raw products underflow double precision.

Each model and regime is one kernel, a function of raw parameter rows
with the measured points bound once (``likelihood_kernel``); the sets of a
target that share a noise spec are scored as one array of points. A kernel
scores many parameter vectors in one vectorized pass, and every row's
value is computed from that row alone, so it has the same bits in any
batch; ``log_likelihood`` is a one-row call.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .data import MeasurementSet, NoiseSpec
from .errors import ConfigurationError, NumericalError, _integer
from .models import (
    ModelKind,
    ParameterVector,
    _affine_columns,
    _components,
    _lenh_columns,
    _lenh_response,
    _plastic_coordinate,
    _plastic_groups,
    _plastic_path,
    _stress_coordinate,
    stress_rows,
)

__all__ = [
    "QuadratureSpec",
    "log_likelihood",
]

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


@functools.cache
def _special():
    """``scipy.special``, imported on the first call (about 0.24 s and 24 MB
    of a fresh process on a 2-core host): only the stress-and-strain
    kernels, the LE-NH quadrature rule and the credible radius use it, so
    the package import, the closed-form verbs and the other targets load
    no scipy."""
    import scipy.special

    return scipy.special


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature settings for the implicit-model marginalization.

    Attributes:
        panels: resolution, even and >= 4: ``panels // 4 + 1`` nodes per
            window (``_gauss_table``), 97 at the default 384.
    """

    panels: int = 384

    def __post_init__(self) -> None:
        if _integer(self.panels, "quadrature panels", 4) % 2 != 0:
            raise ConfigurationError(f"quadrature panels must be even, got {self.panels!r}")
        vars(self).update(panels=int(self.panels))


def _noise_stds(noise: NoiseSpec) -> tuple[float, float | None, float]:
    """The stress std, strain std and strain limit of ``noise``, whose stds
    must be positive."""
    if noise.stress_std <= 0.0 or (noise.double and noise.strain_std <= 0.0):
        regime = "stress-and-strain" if noise.double else "stress-only"
        raise ConfigurationError(f"{regime} likelihood requires positive noise stds")
    return noise.stress_std, noise.strain_std, noise.strain_limit


# Parameter rows, shape (k, dim), to one log-likelihood per row. The regime
# kernels below bind the measured points as two 1-D arrays: one set's, or the
# concatenated points of the sets that share ``noise``.
Kernel = Callable[[np.ndarray], np.ndarray]


def _single_kernel(kind: ModelKind, strains: np.ndarray, stresses: np.ndarray, noise: NoiseSpec) -> Kernel:
    s, _, _ = _noise_stds(noise)
    offset = strains.size * (0.5 * _LOG_2PI + math.log(s))

    def kernel(values: np.ndarray) -> np.ndarray:
        if kind is ModelKind.NONLINEAR_HARDENING:
            theoretical, log_jac = _lenh_response(strains, values)
        else:
            theoretical, log_jac = stress_rows(kind, strains, values), 0.0
        resid = stresses - theoretical
        return np.sum(-0.5 * (resid / s) ** 2 - log_jac, axis=1) - offset

    return kernel


def _log_gauss_mass(lo_z: np.ndarray, hi_z: np.ndarray) -> np.ndarray:
    """log of the standard-normal mass between z-scores, robust in the tails.

    An interval that lies more above zero than below is mirrored,
    a = min(lo, -hi) and b = min(hi, -lo), so that |b| <= |a|: one on a
    single side of zero is then measured in the lower tail, where
    ``log_ndtr`` keeps full precision, and one straddling zero subtracts the
    smaller tail, Phi(a) <= 1 - Phi(b). One form, log Phi(b) + log1p(-Phi(a)
    / Phi(b)), serves every element but an interval across or ending at zero
    narrower than 0.3 (b >= 0 and b - a < 0.3), where Phi(a) and Phi(b) lie
    near 1/2 and their difference keeps only about eps / width of relative
    precision; its mass is the sum (erf(b / sqrt 2) + erf(-a / sqrt 2)) / 2
    of two nonnegative terms, computed on that subset alone.
    """
    a = np.minimum(lo_z, -hi_z)
    b = np.minimum(hi_z, -lo_z)
    special = _special()
    with np.errstate(divide="ignore", invalid="ignore"):
        log_b = special.log_ndtr(b)
        # fmin: two bounds far in one tail both give -inf, and their
        # difference is NaN where the mass is 0.
        out = log_b + np.log1p(-np.exp(np.fmin(special.log_ndtr(a) - log_b, 0.0)))
        # b - a is the width; the straddle test runs only once one is narrow.
        narrow = b - a < 0.3
        if narrow.any():
            # Under errstate: an empty interval at zero (a = b = 0) sums to 0.
            narrow &= b >= 0.0
            out[narrow] = np.log(0.5 * (special.erf(b[narrow] * _SQRT_HALF) + special.erf(-a[narrow] * _SQRT_HALF)))
    return np.where(hi_z > lo_z, out, -np.inf)


def _log_affine_branch(sm, em, s_sig, s_eps, intercept, slope, lo, hi) -> np.ndarray:
    """Per-point log of the marginalization integral over affine branches.

    Evaluates log of
        integral_lo^hi N(sm; intercept + slope*e, s_sig^2) N(e; em, s_eps^2) de
    as marginal-times-mass: completing the square in the true strain e
    leaves the Gaussian marginal of sm (variance slope^2 s_eps^2 + s_sig^2)
    times the mass of the conditional Gaussian in e on [lo, hi]. Branch
    parameters given as columns give one row of terms per branch; the
    constants of a branch (1/variance, the center's gain on the residual,
    1/sd) are computed on those columns before the per-point pass.
    """
    s_eps2 = s_eps * s_eps
    variance = slope * slope * s_eps2 + s_sig * s_sig
    inv_variance = 1.0 / variance
    gain = slope * s_eps2 * inv_variance
    inv_sd = np.sqrt(variance) * (1.0 / (s_sig * s_eps))
    resid = sm - intercept - slope * em
    log_marginal = resid * resid * (-0.5 * inv_variance) - 0.5 * (_LOG_2PI + np.log(variance))
    center = em + gain * resid
    mass = _log_gauss_mass((lo - center) * inv_sd, (hi - center) * inv_sd)
    # An empty interval carries no mass whatever its line, which is NaN for
    # the plastic branch of a row that never yields.
    return np.where(hi > lo, log_marginal + mass, -np.inf)


def _affine_kernel(kind: ModelKind, em: np.ndarray, sm: np.ndarray, noise: NoiseSpec) -> Kernel:
    """Stress-and-strain kernel of LE, LE-PP and LE-LH from the columns of
    ``models._affine_columns``: the elastic branch on [0, ey] and the
    plastic one on [ey, a] (empty when ey = inf), each an (intercept, slope,
    strain interval) per parameter row, go through one (branches x rows x
    points) pass and each point's two terms are combined with logaddexp."""
    s_sig, s_eps, a = _noise_stds(noise)

    def kernel(values: np.ndarray) -> np.ndarray:
        # (intercept, slope, lo, hi) x branch x row x 1.
        table = np.zeros((4, 2, len(values), 1))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            E, ey, sy, slope = _affine_columns(kind, values)
            table[0, 1] = sy - slope * ey
        table[1] = E, slope
        table[2, 1] = ey
        table[3, 0] = np.minimum(ey, a)
        table[3, 1] = a
        terms = _log_affine_branch(sm, em, s_sig, s_eps, *table)
        return np.logaddexp(terms[0], terms[1]).sum(axis=1)

    return kernel


def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] of the n-point Gauss-Legendre rule by
    scipy's ``roots_legendre`` recipe (``_gen_roots_and_weights``, after
    Golub and Welsch 1969): eigenvalues of the Jacobi matrix, one Newton
    step, log-normalised weights, symmetrised and scaled to sum to 2. The
    eigenvalues come from numpy, not ``scipy.linalg``; both solvers end in
    LAPACK's ``dsterf``, and ``TestLegendreRule`` checks that the result
    equals ``roots_legendre``'s bit for bit."""
    k = np.arange(1.0, n)
    eval_legendre = _special().eval_legendre
    u = np.linalg.eigvalsh(np.diag(k * np.sqrt(1.0 / (4 * k * k - 1)), 1), UPLO="U")
    p_n = eval_legendre(n, u)
    dp_n = (-n * u * p_n + n * eval_legendre(n - 1, u)) / (1 - u**2)
    u -= p_n / dp_n
    p_prev = eval_legendre(n - 1, u)
    log_p, log_dp = np.log(np.abs(p_prev)), np.log(np.abs(dp_n))
    p_prev /= np.exp((log_p.max() + log_p.min()) / 2.0)
    dp_n /= np.exp((log_dp.max() + log_dp.min()) / 2.0)
    w = 1.0 / (p_prev * dp_n)
    w = (w + w[::-1]) / 2
    w *= 2.0 / w.sum()
    return (u - u[::-1]) / 2, w


@functools.lru_cache(maxsize=8)
def _gauss_table(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] of one composite rule of ``panels // 4 +
    1`` nodes, which every plastic window uses: a third of them (at least
    one) graded into [0, 0.05] by u = 0.05 s^4 (weights 0.2 s^3 times the
    rule's), the rest plain on [0.05, 1], each part a Gauss-Legendre rule
    (``_legendre_rule``). A window that starts at yield has an integrand
    like a fractional power of the distance to yield there, which a plain
    rule resolves slowly; the grading, with three vanishing derivatives of
    the map at s = 0, resolves it, and elsewhere the integrand is smooth.

    Cached per ``panels``; the arrays are shared between callers and
    therefore read-only.
    """
    n = panels // 4 + 1
    graded = max(1, n // 3)
    s, ws = _legendre_rule(graded)
    u, wu = _legendre_rule(n - graded)
    s = 0.5 * (s + 1.0)
    nodes = np.concatenate([0.05 * s**4, 0.05 + 0.475 * (u + 1.0)])
    weights = np.concatenate([0.1 * s**3 * ws, 0.475 * wu])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _log_window_sums(h: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """log(sum(weights * exp(-h))) over the last axis, for h >= 0: the
    exponentials are shifted by each row's least h and enter as a product
    with the weights, so one log per row is taken. A row whose h are all
    inf gives -inf (log 0: callers run this under ``np.errstate``), a row
    holding a NaN gives NaN."""
    h_min = h.min(axis=-1, keepdims=True)
    shift = np.where(h_min < np.inf, h_min, 0.0)
    return np.log((np.exp(shift - h) * weights).sum(axis=-1)) - shift[..., 0]


# Most quadrature nodes evaluated together in the LE-NH node stage. At 384
# panels (97 nodes) a block is 168 windows, each float64 temporary just
# under 128 KiB and a block's working set within a 2 MiB L2. On a 2-vCPU
# host, with 129-node windows, 8-row calls ran 11% slower at 2**13 and 21%
# at 2**12, the per-block overhead counting more often, and 16-row calls
# 40% slower at 2**15.
_BLOCK_NODES = 2**14

# Half-width of an LE-NH plastic window in strain-noise stds, and the bound
# of its stress band (``_lenh_kernel``); Gaussian mass beyond 8 sigma is
# below 1e-15, far under every tolerance used here.
_WIDTH = 8.0

# A plastic window is dropped when a bound on its integral lies this far
# (in log) below the point's elastic term: it would move their logaddexp
# by less than e**-60 relative, some 1e-26.
_SCREEN_MARGIN = 60.0


def _lenh_kernel(em: np.ndarray, sm: np.ndarray, noise: NoiseSpec, quadrature: QuadratureSpec) -> Kernel:
    """Closed-form elastic branch; the plastic branch by Gauss-Legendre in
    the plastic coordinate of ``_plastic_path`` on a window of ``_WIDTH``
    strain-noise stds around each measured strain, clipped to the plastic
    range, the tester limit and the stress band |stress - measured| <=
    s_sig sqrt(G + _WIDTH^2), G the least z_strain^2 + z_stress^2 at the
    window ends and where the stress meets the measurement: outside it the
    integrand is below exp(-_WIDTH^2 / 2) times its value at the best of
    those points. H = 0 has no band, and a band that misses the window (by
    rounding) leaves it whole.

    A window is screened out before any of that when it cannot count: the
    plastic integral is at most the strain Gaussian's mass past yield,
    Phi((e_m - e_y) / s_eps), times the stress Gaussian's peak over
    stresses of at least sigma_y0, and a window whose bound lies
    ``_SCREEN_MARGIN`` below the elastic term is left out.

    The windows of a batch are integrated per plastic coordinate: both ends
    of all of them in one (Newton) solve, their nodes in blocks of at most
    ``_BLOCK_NODES`` nodes (whole windows, at least one), so a call's peak
    memory does not grow with the batch. At the nodes h is half the sum of
    the two Gaussians' squared z-scores, and each window's weights (rule
    weight times d(strain)/d(coordinate)) multiply exp(h_min - h), so one
    log is taken per window (``_log_window_sums``). As every node operation
    is elementwise or reduces over one window's nodes, neither the blocking
    nor the screen of another row changes a single bit of a row."""
    s_sig, s_eps, a = _noise_stds(noise)
    window_lo, window_hi = em - _WIDTH * s_eps, np.minimum(a, em + _WIDTH * s_eps)
    unit_nodes, unit_weights = _gauss_table(quadrature.panels)
    log_norm = -_LOG_2PI - math.log(s_sig) - math.log(s_eps)
    log_peak = -0.5 * _LOG_2PI - math.log(s_sig)
    # At the nodes, half the squared z-scores: (c_eps (e_m - strain))^2 + ...
    c_eps, c_sig = math.sqrt(0.5) / s_eps, math.sqrt(0.5) / s_sig
    # Per point: measured stress and strain, and both times their c.
    point_table = np.array([sm, em, em * c_eps, sm * c_sig])

    def plastic_log_mass(lo, hi, x, points, excess):
        """log of the plastic-branch integral over windows [lo, hi], one per
        (parameter row, measurement) pair; ``x`` holds the pairs' parameter
        components."""
        H = x[2]
        s_m, e_m, em_c, sm_c = point_table[:, points]
        t_lo, t_hi = _plastic_coordinate(np.array([lo, hi]), x, excess)
        t_s = np.minimum(np.maximum(_stress_coordinate(s_m, x, excess), t_lo), t_hi)
        sigma, strain, _ = _plastic_path(np.array([t_lo, t_s, t_hi]), x, excess)
        z2 = ((e_m - strain) / s_eps) ** 2 + ((s_m - sigma) / s_sig) ** 2
        reach = s_sig * np.sqrt(z2.min(axis=0) + _WIDTH * _WIDTH)
        band_lo, band_hi = _stress_coordinate(s_m - np.array([reach, -reach]), x, excess)
        band_lo, band_hi = np.fmax(t_lo, band_lo), np.fmin(t_hi, band_hi)
        clip = (H > 0.0) & (band_lo < band_hi)
        t_lo = np.where(clip, band_lo, t_lo)
        span = np.where(clip, band_hi, t_hi) - t_lo
        out = np.empty(len(lo))
        step = max(1, _BLOCK_NODES // unit_nodes.size)
        for start in range(0, len(lo), step):
            b = slice(start, start + step)
            t = t_lo[b, None] + span[b, None] * unit_nodes
            sigma, strain, slope = _plastic_path(t, [c[b, None] for c in x], excess)
            h = (em_c[b, None] - strain * c_eps) ** 2 + (sm_c[b, None] - sigma * c_sig) ** 2
            out[b] = _log_window_sums(h, unit_weights * slope)
            # The block's temporaries go before the next block makes its own,
            # so a call holds about one block. h alone lives on until then:
            # made after the others, it keeps the heap under it from being
            # handed back to the system and faulted in again page by page
            # (glibc trims a free top of 128 KiB or more), which made calls
            # of many blocks half again as slow.
            del t, sigma, strain, slope
        return out + np.log(span) + log_norm

    def kernel(values: np.ndarray) -> np.ndarray:
        E, sy, _, _ = _lenh_columns(values)
        # A subnormal E makes the yield strain inf; n H underflowing makes
        # infs and NaNs in the plastic branch, reported below as a NaN.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ey = sy / E
            elastic = _log_affine_branch(sm, em, s_sig, s_eps, 0.0, E, 0.0, np.minimum(ey, a))
            lo = np.maximum(ey, window_lo)
            # The screen's bound, less log_peak.
            cap = _special().log_ndtr((em - ey) / s_eps)
            cap -= np.maximum(sy - sm, 0.0) ** 2 * (0.5 / (s_sig * s_sig))
            # A NaN elastic term drops the window, and its point is reported.
            live = (window_hi > lo) & (elastic - (_SCREEN_MARGIN + log_peak) <= cap)
            plastic = np.full(lo.shape, -np.inf)
            for r, p, x, excess in _plastic_groups(values, live):
                plastic[r, p] = plastic_log_mass(lo[r, p], window_hi[p], x, p, excess)
            per_point = np.logaddexp(elastic, plastic)
        total = per_point.sum(axis=1)
        if not (total < np.inf).all():  # a NaN or +inf point makes its row's sum one
            bad = ~(np.isfinite(per_point) | (per_point == -np.inf))
            if bad.any():
                r, p = np.argwhere(bad)[0]
                raise NumericalError(
                    "non-finite quadrature for measurement "
                    f"(strain={em[p]!r}, stress={sm[p]!r}) at x={values[r]!r}"
                )
        return total

    return kernel


def likelihood_kernel(
    kind: ModelKind, sets: Sequence[MeasurementSet], quadrature: QuadratureSpec | None = None
) -> Kernel:
    """The summed log-likelihood of independent measurement ``sets`` under
    ``kind`` as a function of raw parameter rows, shape (k, dim): finite,
    nonnegative, in canonical order (E, sigma_y0, H, n); returns one value
    per row, zeros when ``sets`` is empty. The sets are grouped by noise
    spec, and each group's points are scored by one kernel of its regime.
    ``quadrature`` is only meaningful for the nonlinear hardening model
    with some stress-and-strain set, whose kernel gets the default when it
    is None; passing it anywhere else is a configuration error.
    """
    groups: dict[NoiseSpec, list[tuple[np.ndarray, np.ndarray]]] = {}
    for data in sets:
        groups.setdefault(data.noise, []).append((data.strains, data.stresses))
    lenh = kind is ModelKind.NONLINEAR_HARDENING
    if quadrature is not None and not (lenh and any(noise.double for noise in groups)):
        raise ConfigurationError(
            "quadrature settings only apply to the nonlinear hardening model "
            "with stress-and-strain noise"
        )
    kernels = []
    for noise, group in groups.items():
        em, sm = np.concatenate(group, axis=1)
        if not noise.double:
            kernels.append(_single_kernel(kind, em, sm, noise))
        elif lenh:
            kernels.append(_lenh_kernel(em, sm, noise, quadrature or QuadratureSpec()))
        else:
            kernels.append(_affine_kernel(kind, em, sm, noise))
    if len(kernels) == 1:
        return kernels[0]
    return lambda values: sum((kernel(values) for kernel in kernels), np.zeros(len(values)))


def log_likelihood(
    x: ParameterVector,
    kind: ModelKind,
    data: MeasurementSet,
    quadrature: QuadratureSpec | None = None,
) -> float:
    """Log-likelihood of ``data`` under ``kind`` with parameters ``x``; see
    ``likelihood_kernel``."""
    kernel = likelihood_kernel(kind, [data], quadrature)
    return float(kernel(np.array([_components(x, kind)]))[0])
