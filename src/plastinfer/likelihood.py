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
by Gauss-Legendre on a window bounded by both Gaussians, not in the true
strain but in a plastic coordinate in which the stress and the total
strain are explicit: the plastic strain u for n >= 1 (or H = 0), the
stress excess v = stress - sigma_y0 for n < 1. The coordinate, its Newton
inversion from the strain and the domain checks live in ``models``, where
they also give the forward response. The Jacobian d(strain)/d(coordinate)
enters the quadrature weights, so only the window ends need an inversion.
These are solved for a whole batch at once; the nodes are then evaluated
in blocks of at most ``_BLOCK_NODES`` nodes (whole windows), so the
node-stage temporaries of one call take a fixed amount of memory, about
1.5 MB, whatever the number of rows.

Everything is computed and composed in log space; with ten or more
measurements the raw products underflow double precision.

Each model and regime is one kernel, a function of raw parameter rows
with the measurement set bound once (``likelihood_kernel``). A kernel
scores many parameter vectors in one vectorized pass, and every row's
value is computed from that row alone, so it has the same bits in any
batch; ``log_likelihood`` is a one-row call.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, roots_legendre

from .data import MeasurementSet
from .errors import ConfigurationError, NumericalError
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


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature settings for the implicit-model marginalization.

    Attributes:
        panels: resolution, even and >= 2: ``panels // 4 + 1``
            Gauss-Legendre nodes per window.
        width: half-width of the window in strain-noise stds, and the bound
            of its stress band (``_lenh_kernel``); Gaussian mass beyond 8
            sigma is below 1e-15, far under every tolerance used here.
    """

    panels: int = 512
    width: float = 8.0

    def __post_init__(self) -> None:
        if self.panels < 2 or self.panels % 2 != 0:
            raise ConfigurationError(f"panels must be an even integer >= 2, got {self.panels!r}")
        if not np.isfinite(self.width) or self.width < 4.0:
            raise ConfigurationError(f"width must be >= 4, got {self.width!r}")


def _require_single(data: MeasurementSet) -> float:
    if data.noise.double:
        raise ConfigurationError(
            "stress-and-strain data passed to a stress-only likelihood; "
            "reinterpret the set explicitly if that is intended"
        )
    if data.noise.stress_std <= 0.0:
        raise ConfigurationError("stress-only likelihood requires stress_std > 0")
    return data.noise.stress_std


def _require_double(data: MeasurementSet) -> tuple[float, float, float]:
    if not data.noise.double:
        raise ConfigurationError(
            "stress-only data passed to a stress-and-strain likelihood; "
            "reinterpret the set explicitly if that is intended"
        )
    if data.noise.stress_std <= 0.0 or data.noise.strain_std <= 0.0:
        raise ConfigurationError("stress-and-strain likelihood requires positive noise stds")
    return data.noise.stress_std, data.noise.strain_std, data.noise.strain_limit


# Parameter rows, shape (k, dim), to one log-likelihood per row.
Kernel = Callable[[np.ndarray], np.ndarray]


def _single_kernel(kind: ModelKind, data: MeasurementSet) -> Kernel:
    s = _require_single(data)
    strains, stresses = data.strains, data.stresses
    offset = len(data) * (0.5 * _LOG_2PI + math.log(s))

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

    Chosen element by element: an interval on one side of zero is measured
    in the lower tail (an upper one mirrored onto it), where ``log_ndtr``
    keeps full precision; one straddling zero is well-scaled as it is.
    """
    upper = lo_z >= 0.0
    a = np.where(upper, -hi_z, lo_z)
    b = np.where(upper, -lo_z, hi_z)
    # The forms not chosen for an element may take logs of zero there.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_b = log_ndtr(b)
        # fmin: two bounds far in one tail both give -inf, and their
        # difference is NaN where the mass is 0.
        tail = log_b + np.log1p(-np.exp(np.fmin(log_ndtr(a) - log_b, 0.0)))
        middle = np.log1p(-(ndtr(lo_z) + ndtr(-hi_z)))
    out = np.where(upper | (hi_z <= 0.0), tail, middle)
    return np.where(hi_z > lo_z, out, -np.inf)


def _log_affine_branch(sm, em, s_sig, s_eps, intercept, slope, lo, hi) -> np.ndarray:
    """Per-point log of the marginalization integral over affine branches.

    Evaluates log of
        integral_lo^hi N(sm; intercept + slope*e, s_sig^2) N(e; em, s_eps^2) de
    as marginal-times-mass: completing the square in the true strain e
    leaves the Gaussian marginal of sm (variance slope^2 s_eps^2 + s_sig^2)
    times the mass of the conditional Gaussian in e on [lo, hi]. Branch
    parameters given as columns give one row of terms per branch.
    """
    variance = slope * slope * s_eps * s_eps + s_sig * s_sig
    resid = sm - intercept - slope * em
    log_marginal = -0.5 * resid * resid / variance - 0.5 * (_LOG_2PI + np.log(variance))
    center = em + slope * s_eps * s_eps * resid / variance
    sd = s_sig * s_eps / np.sqrt(variance)
    mass = _log_gauss_mass((lo - center) / sd, (hi - center) / sd)
    # An empty interval carries no mass whatever its line, which is NaN for
    # the plastic branch of a row that never yields.
    return np.where(hi > lo, log_marginal + mass, -np.inf)


def _affine_kernel(kind: ModelKind, data: MeasurementSet) -> Kernel:
    """Stress-and-strain kernel of LE, LE-PP and LE-LH from the columns of
    ``models._affine_columns``: the elastic branch on [0, ey] and the
    plastic one on [ey, a] (empty when ey = inf), each an (intercept, slope,
    strain interval) per parameter row, go through one (branches x rows x
    points) pass and each point's two terms are combined with logaddexp."""
    s_sig, s_eps, a = _require_double(data)
    sm, em = data.stresses, data.strains

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


# Smooth clustering map for the nodes when the integration window starts
# exactly at the yield strain: the plastic response behaves like a
# fractional power of the distance to yield there, which a rule on a plain
# mesh resolves slowly. The map 6u^5 - 5u^6 has four vanishing derivatives
# at u = 0, smoothing the pulled-back integrand, while its interior
# stretch stays below 2.5 so the rest of the window is not starved.
def _cluster_map(u: np.ndarray) -> np.ndarray:
    return u**5 * (6.0 - 5.0 * u)


@functools.lru_cache(maxsize=8)
def _gauss_table(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] of the ``panels // 4 + 1``-point
    Gauss-Legendre rule, row 0 plain and row 1 through ``_cluster_map``
    (weights times 30 u^4 (1 - u)), so a window picks its row by index.

    Cached per ``panels``; the arrays are shared between callers and
    therefore read-only.
    """
    u, w = roots_legendre(panels // 4 + 1)
    u, w = 0.5 * (u + 1.0), 0.5 * w
    nodes = np.stack([u, _cluster_map(u)])
    weights = np.stack([w, w * 30.0 * u**4 * (1.0 - u)])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _log_sum_exp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, shifted by each row's maximum. A
    row that is all -inf gives -inf."""
    peak = np.max(a, axis=-1, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - peak), axis=-1)) + peak[..., 0]


# Most quadrature nodes evaluated together in the LE-NH node stage. At 512
# panels (129 nodes) a block is 127 windows, each float64 temporary just
# under 128 KiB and a block's working set within a 2 MiB L2. On a 2-vCPU
# host 8-row calls ran 11% slower at 2**13 and 21% at 2**12, the per-block
# overhead counting more often, and 16-row calls 40% slower at 2**15.
_BLOCK_NODES = 2**14


def _lenh_kernel(data: MeasurementSet, quadrature: QuadratureSpec) -> Kernel:
    """Closed-form elastic branch; the plastic branch by Gauss-Legendre in
    the plastic coordinate of ``_plastic_path`` on a window of ``width``
    strain-noise stds around each measured strain, clipped to the plastic
    range, the tester limit and the stress band |stress - measured| <=
    s_sig sqrt(G + width^2), G the least z_strain^2 + z_stress^2 at the
    window ends and where the stress meets the measurement: outside it the
    integrand is below exp(-width^2 / 2) times its value at the best of
    those points. H = 0 has no band, and a band that misses the window (by
    rounding) leaves it whole. The windows of a batch are integrated per
    plastic coordinate: their ends in one (Newton) solve, their nodes in
    blocks of at most ``_BLOCK_NODES`` nodes (whole windows, at least one),
    so a call's peak memory does not grow with the batch; as every node
    operation is elementwise or reduces over one window's nodes, the
    blocking does not change a single bit."""
    s_sig, s_eps, a = _require_double(data)
    sm, em = data.stresses, data.strains
    width = quadrature.width
    window_lo, window_hi = em - width * s_eps, em + width * s_eps
    unit_nodes, unit_weights = _gauss_table(quadrature.panels)
    log_norm = -_LOG_2PI - math.log(s_sig) - math.log(s_eps)

    def plastic_log_mass(lo, hi, x, points, excess):
        """log of the plastic-branch integral over windows [lo, hi], one per
        (parameter row, measurement) pair; ``x`` holds the pairs' parameter
        components."""
        _, _, H, n = x
        s_m, e_m = sm[points], em[points]
        ends = _plastic_coordinate(np.concatenate([lo, hi]), [np.concatenate([c, c]) for c in x], excess)
        t_lo, t_hi = ends[: len(lo)], ends[len(lo) :]
        # n H underflowing makes infs and NaNs; the caller reports a NaN.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t_s = np.minimum(np.maximum(_stress_coordinate(s_m, x, excess), t_lo), t_hi)
            sigma, strain, _ = _plastic_path(np.array([t_lo, t_s, t_hi]), x, excess)
            z2 = ((e_m - strain) / s_eps) ** 2 + ((s_m - sigma) / s_sig) ** 2
            reach = s_sig * np.sqrt(z2.min(axis=0) + width * width)
            band_lo = np.fmax(t_lo, _stress_coordinate(s_m - reach, x, excess))
            band_hi = np.fmin(t_hi, _stress_coordinate(s_m + reach, x, excess))
            clip = (H > 0.0) & (band_lo < band_hi)
            t_lo = np.where(clip, band_lo, t_lo)
            span = np.where(clip, band_hi, t_hi) - t_lo
            # Only a window still starting at yield (t = 0) needs the
            # clustered mesh; with n = 1 or H = 0 the integrand is smooth.
            mesh = ((t_lo == 0.0) & (H > 0.0) & (n != 1.0)).astype(np.intp)
            out = np.empty(len(lo))
            step = max(1, _BLOCK_NODES // unit_nodes.shape[1])
            for start in range(0, len(lo), step):
                b = slice(start, start + step)
                t = t_lo[b, None] + span[b, None] * unit_nodes[mesh[b]]
                sigma, strain, slope = _plastic_path(t, [c[b, None] for c in x], excess)
                log_f = (
                    -0.5 * ((e_m[b, None] - strain) / s_eps) ** 2
                    - 0.5 * ((s_m[b, None] - sigma) / s_sig) ** 2
                    + log_norm
                )
                out[b] = _log_sum_exp(log_f + np.log(span[b, None] * unit_weights[mesh[b]] * slope))
        return out

    def kernel(values: np.ndarray) -> np.ndarray:
        E, sy, _, _ = _lenh_columns(values)
        ey = sy / E

        elastic = _log_affine_branch(sm, em, s_sig, s_eps, 0.0, E, 0.0, np.minimum(ey, a))

        lo = np.maximum(ey, window_lo)
        hi = np.broadcast_to(np.minimum(a, window_hi), lo.shape)
        plastic = np.full(lo.shape, -np.inf)
        for r, p, x, excess in _plastic_groups(values, hi > lo):
            plastic[r, p] = plastic_log_mass(lo[r, p], hi[r, p], x, p, excess)

        with np.errstate(invalid="ignore"):
            per_point = np.logaddexp(elastic, plastic)
        bad = ~(np.isfinite(per_point) | (per_point == -np.inf))
        if bad.any():
            r, p = np.argwhere(bad)[0]
            raise NumericalError(
                "non-finite quadrature for measurement "
                f"(strain={em[p]!r}, stress={sm[p]!r}) at x={values[r]!r}"
            )
        return np.sum(per_point, axis=1)

    return kernel


def likelihood_kernel(
    kind: ModelKind, data: MeasurementSet, quadrature: QuadratureSpec | None = None
) -> Kernel:
    """The log-likelihood of ``data`` under ``kind`` as a function of raw
    parameter rows, shape (k, dim): finite, nonnegative, in canonical order
    (E, sigma_y0, H, n); returns one value per row. Dispatches on the data's
    noise regime. ``quadrature`` is only
    meaningful for the nonlinear hardening model in the stress-and-strain
    regime; passing it anywhere else is a configuration error.
    """
    needs_quadrature = kind is ModelKind.NONLINEAR_HARDENING and data.noise.double
    if quadrature is not None and not needs_quadrature:
        raise ConfigurationError(
            "quadrature settings only apply to the nonlinear hardening model "
            "with stress-and-strain noise"
        )
    if not data.noise.double:
        return _single_kernel(kind, data)
    if needs_quadrature:
        return _lenh_kernel(data, quadrature or QuadratureSpec())
    return _affine_kernel(kind, data)


def log_likelihood(
    x: ParameterVector,
    kind: ModelKind,
    data: MeasurementSet,
    quadrature: QuadratureSpec | None = None,
) -> float:
    """Log-likelihood of ``data`` under ``kind`` with parameters ``x``; see
    ``likelihood_kernel``."""
    kernel = likelihood_kernel(kind, data, quadrature)
    return float(kernel(np.array([_components(x, kind)]))[0])
