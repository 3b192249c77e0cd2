"""Tests for the measurement log-likelihoods.

The stress-only forms are checked against hand arithmetic, the
change-of-variables identity between the hardening models and, for LE-NH,
a long-double oracle of the change-of-variables factor. Every
stress-and-strain closed form is checked against adaptive quadrature of
its defining marginalization integral, plus the limit and reduction
identities that tie the four models together.
"""

from __future__ import annotations

import functools
import math
import re
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermeval
from scipy.integrate import quad
from scipy.special import erf, log_ndtr, logsumexp, ndtr, roots_legendre
from scipy.stats import norm

from plastinfer import (
    ConfigurationError,
    DomainError,
    LogPosterior,
    MeasurementSet,
    ModelKind,
    NoiseSpec,
    NumericalError,
    ParameterVector,
    QuadratureSpec,
    SamplerConfig,
    TruncatedNormalPrior,
    generate_double_noise,
    generate_single_noise,
    log_likelihood,
    run_adaptive_mh,
    stress,
)
from plastinfer import likelihood
from plastinfer.likelihood import _log_gauss_mass, _log_window_sums, likelihood_kernel
from plastinfer.models import _plastic_coordinate, _plastic_path, _response, stress_rows

LOG_2PI = math.log(2.0 * math.pi)

GRID_12 = np.linspace(2.4e-4, 12 * 2.4e-4, 12)

AFFINE_KINDS = [ModelKind.LINEAR_ELASTIC, ModelKind.PERFECT_PLASTICITY, ModelKind.LINEAR_HARDENING]

REGIMES = pytest.mark.parametrize("double", [False, True], ids=["stress-only", "stress-and-strain"])

needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is plain double on this platform",
)


def _single_set(strains, stresses, s=0.01) -> MeasurementSet:
    return MeasurementSet(
        strains=np.asarray(strains, float),
        stresses=np.asarray(stresses, float),
        noise=NoiseSpec(stress_std=s),
    )


def _double_set(strains, stresses, s_sig=0.01, s_eps=1e-4, a=math.inf) -> MeasurementSet:
    return MeasurementSet(
        strains=np.asarray(strains, float),
        stresses=np.asarray(stresses, float),
        noise=NoiseSpec(stress_std=s_sig, strain_std=s_eps, strain_limit=a),
    )


def _oracle_double_point(x, kind, sm, em, s_sig, s_eps, a) -> float:
    """Adaptive quadrature of the defining strain marginalization.

    Integrates the product of the two Gaussian densities over the true
    strain, splitting at the yield strain so the integrator never
    straddles the response kink. Returns the log of the integral.
    """
    lo = max(0.0, em - 12.0 * s_eps)
    hi = min(a, em + 12.0 * s_eps)
    if hi <= lo:
        return -math.inf

    def log_integrand(e):
        r_sig = (sm - stress(e, x, kind)) / s_sig
        r_eps = (em - e) / s_eps
        return -0.5 * r_sig**2 - 0.5 * r_eps**2

    # Factor the peak out so quad works near 1 even for unlikely data: the
    # shift is the log-integrand's maximum over a fine grid of the window,
    # so the integrand stays below about 1 and math.exp cannot overflow.
    shift = float(np.max(log_integrand(np.linspace(lo, hi, 4001))))

    def integrand(e: float) -> float:
        return math.exp(log_integrand(e) - shift)

    breaks = []
    if x.sigma_y0 is not None and x.E > 0.0:
        ey = x.sigma_y0 / x.E
        if lo < ey < hi:
            breaks.append(ey)
    value, _ = quad(integrand, lo, hi, points=breaks or None, limit=400, epsabs=0.0, epsrel=1e-12)
    return math.log(value) + shift - LOG_2PI - math.log(s_sig) - math.log(s_eps)


def _strain_space_lenh_point(row, sm, em, s_sig, s_eps, width=8.0) -> float:
    """The LE-NH stress-and-strain log-likelihood of one point over the
    kernel's domain, integrated directly in the true strain: the elastic
    branch on [0, sigma_y0/E], the plastic one on [sigma_y0/E, inf) within
    ``width`` strain stds of ``em``. The plastic window is split where the
    stress meets ``sm`` (at sm/E + ((sm - sigma_y0)/H)**(1/n)); each piece
    gets 60 panels of 20-point Gauss-Legendre, graded towards yield by
    e - sigma_y0/E ~ s**4 on a piece that starts there, where the response
    behaves like a fractional power of the distance to yield. Doubling
    the panels moves no set's value in the accuracy test by more than
    2e-14."""
    E, sy, H, n = row
    ey = sy / E
    pieces = [(0.0, ey, 1)]
    lo, hi = max(ey, em - width * s_eps), em + width * s_eps
    if hi > lo:
        meet = sm / E + ((sm - sy) / H) ** (1.0 / n) if sm > sy and H > 0.0 else lo
        cuts = sorted({lo, min(max(meet, lo), hi), hi})
        pieces += [(p, q, 4 if p == ey else 1) for p, q in zip(cuts, cuts[1:])]
    u, w = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, 1.0, 61)
    s = (edges[:-1, None] + np.diff(edges)[:, None] * (u + 1.0) / 2.0).ravel()
    ws = (np.diff(edges)[:, None] * w / 2.0).ravel()
    strain = np.concatenate([p + (q - p) * s**k for p, q, k in pieces])
    weight = np.concatenate([(q - p) * k * s ** (k - 1) * ws for p, q, k in pieces])
    sigma = stress(strain, ParameterVector(*row), ModelKind.NONLINEAR_HARDENING)
    log_f = -0.5 * ((sm - sigma) / s_sig) ** 2 - 0.5 * ((em - strain) / s_eps) ** 2
    return float(logsumexp(log_f, b=weight)) - LOG_2PI - math.log(s_sig) - math.log(s_eps)


def _long_double_lenh(strain, E, sy, H, n):
    """LE-NH stress and log d(strain)/d(plastic strain) in long double, by
    bisection of the stress excess v (H > 0): strain = (sy + v)/E + u, with
    the plastic strain u = (v/H)**(1/n) explicit, so the factor
    log(1 + n H / (E (v/H)**(1/n - 1))) takes no difference of nearly equal
    strains. Broadcasts its arguments; at or below yield v = 0 and the
    factor is inf."""
    strain, E, sy, H, n = (
        np.asarray(c, dtype=np.longdouble) for c in np.broadcast_arrays(strain, E, sy, H, n)
    )
    lo, hi = np.zeros_like(strain), np.maximum(E * strain - sy, 0)
    for _ in range(160):
        v = (lo + hi) / 2
        below = (sy + v) / E + (v / H) ** (1 / n) < strain
        lo, hi = np.where(below, v, lo), np.where(below, hi, v)
    v = (lo + hi) / 2
    with np.errstate(divide="ignore"):
        return sy + v, np.log1p(n * H / E * (v / H) ** (1 - 1 / n))


def _long_double_single_lenh(x: ParameterVector, mset: MeasurementSet) -> float:
    """The stress-only LE-NH log-likelihood of ``mset``, every point past
    yield, from ``_long_double_lenh``."""
    sigma, log_jac = _long_double_lenh(mset.strains, x.E, x.sigma_y0, x.H, x.n)
    s = mset.noise.stress_std
    terms = -0.5 * ((mset.stresses - sigma) / s) ** 2 - log_jac
    return float(np.sum(terms) - len(mset) * (0.5 * np.log(2 * np.pi, dtype=np.longdouble) + np.log(s)))


def _random_instance(rng, kind):
    """One random (x, measurement, noise) draw around the yield region."""
    E = rng.uniform(20.0, 300.0)
    sy = rng.uniform(0.05, 0.6)
    H = rng.uniform(0.0, 80.0)
    x = {
        ModelKind.LINEAR_ELASTIC: ParameterVector(E=E),
        ModelKind.PERFECT_PLASTICITY: ParameterVector(E=E, sigma_y0=sy),
        ModelKind.LINEAR_HARDENING: ParameterVector(E=E, sigma_y0=sy, H=H),
    }[kind]
    s_sig = rng.uniform(0.003, 0.05)
    s_eps = rng.uniform(2e-5, 5e-4)
    ey = sy / E
    # Mix of interior, near-yield and censored windows.
    mode = rng.integers(0, 4)
    if mode == 0:
        em = rng.uniform(0.0, 3e-3)
    elif mode == 1:
        em = ey + rng.uniform(-3.0, 3.0) * s_eps
    else:
        em = rng.uniform(0.5, 4.0) * ey
    em = max(em, 0.0)
    true_strain = max(em + rng.uniform(-1.5, 1.5) * s_eps, 0.0)
    sm = stress(true_strain, x, kind) + rng.uniform(-2.5, 2.5) * s_sig
    a = math.inf if rng.random() < 0.7 else em + rng.uniform(-2.0, 6.0) * s_eps
    if a <= 0.0:
        a = math.inf
    return x, sm, em, s_sig, s_eps, a


class TestSingleNoise:
    def test_linear_elastic_arithmetic(self):
        """One-point value matches the Gaussian formula written out."""
        x = ParameterVector(E=210.0)
        mset = _single_set([7.25e-4], [0.1576], s=0.01)
        expected = -((0.1576 - 0.15225) ** 2) / 2e-4 - 0.5 * LOG_2PI - math.log(0.01)
        got = log_likelihood(x, ModelKind.LINEAR_ELASTIC, mset)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_zero_residual_is_the_maximum(self):
        """Exact data maximize each model's stress-only likelihood."""
        strains = np.array([5e-4, 1.5e-3, 3e-3])
        cases = [
            (ModelKind.LINEAR_ELASTIC, ParameterVector(E=210.0)),
            (ModelKind.PERFECT_PLASTICITY, ParameterVector(E=210.0, sigma_y0=0.25)),
            (ModelKind.LINEAR_HARDENING, ParameterVector(E=210.0, sigma_y0=0.25, H=50.0)),
        ]
        for kind, x in cases:
            exact = stress(strains, x, kind)
            best = log_likelihood(x, kind, _single_set(strains, exact))
            assert best == pytest.approx(-3 * (0.5 * LOG_2PI + math.log(0.01)), rel=1e-12)
            worse = log_likelihood(x, kind, _single_set(strains, exact + 0.005))
            assert worse < best

    def test_nonlinear_jacobian_constant_at_unit_exponent(self):
        """With n=1 the hardening density differs from the linear one by
        exactly -log(1 + H/E) per plastic point (change of variables)."""
        E, sy, H = 210.0, 0.25, 50.0
        xn = ParameterVector(E=E, sigma_y0=sy, H=H, n=1.0)
        xl = ParameterVector(E=E, sigma_y0=sy, H=H)
        strains = np.array([5e-4, 1e-3, 1.5e-3, 2e-3, 4e-3])
        mset = _single_set(strains, stress(strains, xl, ModelKind.LINEAR_HARDENING) + 0.003)
        n_plastic = int(np.sum(strains > sy / E))
        got = log_likelihood(xn, ModelKind.NONLINEAR_HARDENING, mset)
        want = (
            log_likelihood(xl, ModelKind.LINEAR_HARDENING, mset)
            - n_plastic * math.log(1.0 + H / E)
        )
        assert got == pytest.approx(want, rel=1e-12, abs=1e-10)

    def test_zero_hardening_drops_the_jacobian(self):
        """With H=0 the hardening model is perfect plasticity exactly."""
        xn = ParameterVector(E=210.0, sigma_y0=0.25, H=0.0, n=0.5)
        xp = ParameterVector(E=210.0, sigma_y0=0.25)
        strains = np.array([5e-4, 2e-3, 4e-3])
        mset = _single_set(strains, [0.10, 0.24, 0.26])
        got = log_likelihood(xn, ModelKind.NONLINEAR_HARDENING, mset)
        want = log_likelihood(xp, ModelKind.PERFECT_PLASTICITY, mset)
        assert got == pytest.approx(want, rel=1e-12)

    def test_additivity(self):
        x = ParameterVector(E=210.0, sigma_y0=0.25)
        whole = _single_set([5e-4, 1e-3, 2e-3, 3e-3], [0.10, 0.20, 0.24, 0.26])
        part_a = _single_set([5e-4, 1e-3], [0.10, 0.20])
        part_b = _single_set([2e-3, 3e-3], [0.24, 0.26])
        kind = ModelKind.PERFECT_PLASTICITY
        assert log_likelihood(x, kind, whole) == pytest.approx(
            log_likelihood(x, kind, part_a) + log_likelihood(x, kind, part_b),
            rel=1e-14,
        )

    def test_zero_noise_rejected(self):
        mset = _single_set([1e-3], [0.21], s=0.0)
        with pytest.raises(ConfigurationError):
            log_likelihood(ParameterVector(E=210.0), ModelKind.LINEAR_ELASTIC, mset)


class TestDoubleNoiseOracle:
    """Closed forms against quadrature of the defining integral."""

    @pytest.mark.parametrize("kind", AFFINE_KINDS)
    def test_matches_quadrature(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.value.encode()))
        checked = 0
        for _ in range(150):
            x, sm, em, s_sig, s_eps, a = _random_instance(rng, kind)
            oracle = _oracle_double_point(x, kind, sm, em, s_sig, s_eps, a)
            if oracle == -math.inf:
                continue
            got = log_likelihood(x, kind, _double_set([em], [sm], s_sig, s_eps, a))
            assert abs(math.expm1(got - oracle)) < 1e-8, (x, sm, em, s_sig, s_eps, a)
            checked += 1
        assert checked > 100

    def test_nonlinear_matches_quadrature(self):
        rng = np.random.default_rng(99)
        for _ in range(12):
            E = rng.uniform(100.0, 300.0)
            sy = rng.uniform(0.1, 0.4)
            H = rng.uniform(0.5, 10.0)
            n = rng.uniform(0.3, 1.5)
            x = ParameterVector(E=E, sigma_y0=sy, H=H, n=n)
            s_sig, s_eps = 0.01, 1e-4
            em = sy / E + rng.uniform(-2.0, 20.0) * s_eps
            em = max(em, 0.0)
            sm = stress(max(em, 0.0), x, ModelKind.NONLINEAR_HARDENING) + rng.uniform(-2, 2) * s_sig
            oracle = _oracle_double_point(x, ModelKind.NONLINEAR_HARDENING, sm, em, s_sig, s_eps, math.inf)
            got = log_likelihood(x, ModelKind.NONLINEAR_HARDENING, _double_set([em], [sm], s_sig, s_eps))
            assert abs(math.expm1(got - oracle)) < 1e-7, (x, sm, em)

    @pytest.mark.parametrize(
        "case, n_kind",
        [(0, "random"), (1, "below_one"), (2, "above_one"), (3, "random"), (4, "below_one"), (5, "above_one")],
    )
    def test_nonlinear_sets_match_quadrature(self, case, n_kind):
        """Random 12-point sets, n in [0.15, 3] and H in [0, 10] (exactly 0
        in case 3), point by point against adaptive quadrature, and the
        whole set against the sum of its points. Each set puts four
        windows across the yield corner, so some start exactly at yield,
        and the exponent also sits just below and just above 1, where the
        integration variable switches."""
        rng = np.random.default_rng(1000 + case)
        E = rng.uniform(100.0, 300.0)
        sy = rng.uniform(0.1, 0.4)
        H = 0.0 if case == 3 else rng.uniform(0.0, 10.0)
        n = {
            "random": rng.uniform(0.15, 3.0),
            "below_one": 1.0 - 10.0 ** rng.uniform(-6.0, -2.0),
            "above_one": 1.0 + 10.0 ** rng.uniform(-6.0, -2.0),
        }[n_kind]
        x = ParameterVector(E=E, sigma_y0=sy, H=H, n=n)
        s_sig, s_eps = 0.01, 1e-4
        ey = x.sigma_y0 / x.E
        true_strains = np.abs(
            np.concatenate(
                [ey + rng.uniform(-6.0, 6.0, size=4) * s_eps, rng.uniform(0.2, 3.0, size=8) * ey]
            )
        )
        strains = np.abs(true_strains + s_eps * rng.standard_normal(12))
        stresses = stress(true_strains, x, ModelKind.NONLINEAR_HARDENING) + s_sig * rng.standard_normal(12)
        order = np.argsort(strains)
        strains, stresses = strains[order], stresses[order]
        assert np.any(np.abs(strains - ey) < 8.0 * s_eps)

        whole = log_likelihood(x, ModelKind.NONLINEAR_HARDENING, _double_set(strains, stresses, s_sig, s_eps))
        per_point = []
        for em, sm in zip(strains, stresses):
            got = log_likelihood(x, ModelKind.NONLINEAR_HARDENING, _double_set([em], [sm], s_sig, s_eps))
            oracle = _oracle_double_point(x, ModelKind.NONLINEAR_HARDENING, sm, em, s_sig, s_eps, math.inf)
            assert abs(math.expm1(got - oracle)) < 1e-7, (x, sm, em)
            per_point.append(got)
        assert whole == pytest.approx(sum(per_point), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_small_exponent_fails_loudly_or_converges(self, seed):
        """n = 0.05 with H = 50: the plastic branch stays within a hair of
        the elastic line, where an implicit stress solve near yield cannot
        meet its residual tolerance. The value must either raise
        NumericalError or be converged: unchanged to 1e-8 when the panels
        double. A finite value that moves is not accepted."""
        x = ParameterVector(E=210.0, sigma_y0=0.25, H=50.0, n=0.05)
        mset = generate_double_noise(x, ModelKind.NONLINEAR_HARDENING, GRID_12, 0.01, 1e-4, seed)
        try:
            base = log_likelihood(x, ModelKind.NONLINEAR_HARDENING, mset, QuadratureSpec(panels=512))
            fine = log_likelihood(x, ModelKind.NONLINEAR_HARDENING, mset, QuadratureSpec(panels=1024))
        except NumericalError:
            return
        assert math.isfinite(base)
        assert abs(math.expm1(base - fine)) < 1e-8


class TestDoubleNoiseLimits:
    def test_vanishing_strain_noise_recovers_single(self):
        """At S_eps = 1e-9 the marginal collapses onto the stress-only value."""
        strains = np.array([5e-4, 1.2e-3, 2e-3, 4e-3])
        cases = [
            (ModelKind.LINEAR_ELASTIC, ParameterVector(E=210.0)),
            (ModelKind.PERFECT_PLASTICITY, ParameterVector(E=210.0, sigma_y0=0.25)),
            (ModelKind.LINEAR_HARDENING, ParameterVector(E=210.0, sigma_y0=0.25, H=50.0)),
        ]
        for kind, x in cases:
            stresses = stress(strains, x, kind) + np.array([0.004, -0.006, 0.011, -0.002])
            single = log_likelihood(x, kind, _single_set(strains, stresses))
            double = log_likelihood(x, kind, _double_set(strains, stresses, s_eps=1e-9))
            assert abs(double - single) < 1e-6, kind

    def test_vanishing_strain_noise_nonlinear_limit(self):
        """For the implicit model the S_eps -> 0 limit is the stress-only
        value without its change-of-variables factor: the marginalization
        integrates a plain product of densities, so the collapsed limit is
        the Gaussian at the measured strain and the two regimes differ by
        the log-Jacobian sum exactly."""
        x = ParameterVector(E=210.0, sigma_y0=0.25, H=2.0, n=0.5)
        strains = np.array([5e-4, 1.5e-3, 2e-3, 4e-3])
        stresses = stress(strains, x, ModelKind.NONLINEAR_HARDENING) + np.array(
            [0.004, -0.006, 0.011, -0.002]
        )
        single = log_likelihood(x, ModelKind.NONLINEAR_HARDENING, _single_set(strains, stresses))
        double = log_likelihood(
            x, ModelKind.NONLINEAR_HARDENING, _double_set(strains, stresses, s_eps=1e-9)
        )
        plastic = strains > x.sigma_y0 / x.E
        c = stress(strains[plastic], x, ModelKind.NONLINEAR_HARDENING)
        t = strains[plastic] - c / x.E
        jacobians = 1.0 + (x.H * x.n / x.E) * t ** (x.n - 1.0)
        assert abs(double - (single + np.sum(np.log(jacobians)))) < 1e-6

    def test_perfect_plasticity_elastic_only_limit(self):
        """A yield strain far above the data reduces to the elastic form."""
        x = ParameterVector(E=210.0, sigma_y0=10.0)  # ey = 0.048
        xe = ParameterVector(E=210.0)
        mset = _double_set([1e-3, 2e-3], [0.20, 0.45])
        got = log_likelihood(x, ModelKind.PERFECT_PLASTICITY, mset)
        want = log_likelihood(xe, ModelKind.LINEAR_ELASTIC, mset)
        assert abs(got - want) < 1e-10

    def test_perfect_plasticity_plastic_only_limit(self):
        """A yield strain far below the data leaves a plain Gaussian in stress."""
        s_sig, s_eps = 0.01, 1e-4
        x = ParameterVector(E=210.0, sigma_y0=0.25)
        em = x.sigma_y0 / x.E + 12.0 * s_eps
        sm = 0.253
        got = log_likelihood(x, ModelKind.PERFECT_PLASTICITY, _double_set([em], [sm], s_sig, s_eps))
        want = norm.logpdf(sm, loc=0.25, scale=s_sig)
        assert abs(got - want) < 1e-10

    @REGIMES
    def test_linear_hardening_zero_slope_reduction(self, double):
        """An LE-PP row has the bits of the LE-LH row with H = 0."""
        x_lh = ParameterVector(E=210.0, sigma_y0=0.25, H=0.0)
        x_pp = ParameterVector(E=210.0, sigma_y0=0.25)
        mset = (_double_set if double else _single_set)([5e-4, 1.3e-3, 2e-3], [0.10, 0.25, 0.26])
        lh = log_likelihood(x_lh, ModelKind.LINEAR_HARDENING, mset)
        pp = log_likelihood(x_pp, ModelKind.PERFECT_PLASTICITY, mset)
        assert lh == pp

    def test_linear_hardening_stiff_slope_limit(self):
        """H >> E turns the plastic slope back into the elastic one."""
        x_lh = ParameterVector(E=210.0, sigma_y0=0.25, H=1e10)
        x_le = ParameterVector(E=210.0)
        mset = _double_set([5e-4, 1.3e-3, 2e-3], [0.10, 0.27, 0.42])
        lh = log_likelihood(x_lh, ModelKind.LINEAR_HARDENING, mset)
        le = log_likelihood(x_le, ModelKind.LINEAR_ELASTIC, mset)
        assert abs(lh - le) < 1e-6

    def test_zero_modulus_linear_elastic(self):
        """E = 0 factorizes into a stress Gaussian and a strain window."""
        s_sig, s_eps, a = 0.02, 1e-4, 5e-4
        x = ParameterVector(E=0.0)
        em, sm = 3e-4, 0.015
        got = log_likelihood(x, ModelKind.LINEAR_ELASTIC, _double_set([em], [sm], s_sig, s_eps, a))
        window = norm.cdf((a - em) / s_eps) - norm.cdf((0.0 - em) / s_eps)
        want = norm.logpdf(sm, loc=0.0, scale=s_sig) + math.log(window)
        assert got == pytest.approx(want, rel=1e-10)

    def test_zero_modulus_perfect_plasticity_is_linear_elastic(self):
        """E = 0 never yields, so sigma_y0 = 0.25 changes nothing: the value
        is LE's with E = 0 on the set of ``test_zero_modulus_linear_elastic``."""
        mset = _double_set([3e-4], [0.015], 0.02, 1e-4, 5e-4)
        got = log_likelihood(ParameterVector(E=0.0, sigma_y0=0.25), ModelKind.PERFECT_PLASTICITY, mset)
        assert got == log_likelihood(ParameterVector(E=0.0), ModelKind.LINEAR_ELASTIC, mset)
        assert got == pytest.approx(2.68743928, abs=1e-8)

    @REGIMES
    @pytest.mark.parametrize("kind", AFFINE_KINDS)
    def test_zero_modulus_never_yields(self, kind, double):
        """With E = 0 every affine model is the zero line, whatever sigma_y0
        and H (H = 0 included, where the plastic slope H E / (H + E) is
        0/0): the likelihood has the bits of LE's with E = 0 and is the sum
        of stress Gaussians about zero plus, with strain noise, the log
        mass of each point's strain window [0, a]."""
        s_sig, s_eps, a = 0.02, 1e-4, 5e-4
        strains, stresses = np.array([1e-4, 3e-4, 4.5e-4]), np.array([0.015, -0.01, 0.03])
        if double:
            mset = _double_set(strains, stresses, s_sig, s_eps, a)
        else:
            mset = _single_set(strains, stresses, s_sig)
        x = ParameterVector.from_array(kind, [0.0, 0.25, 0.0][: kind.dimension])
        got = log_likelihood(x, kind, mset)
        assert got == log_likelihood(ParameterVector(E=0.0), ModelKind.LINEAR_ELASTIC, mset)
        want = np.sum(norm.logpdf(stresses, loc=0.0, scale=s_sig))
        if double:
            want += np.sum(np.log(norm.cdf((a - strains) / s_eps) - norm.cdf(-strains / s_eps)))
        assert got == pytest.approx(want, rel=1e-10)

    def test_tester_limit_below_yield_silences_plastic_branch(self):
        """With the limit under the yield strain only the elastic branch
        carries mass, so the value matches the purely elastic form."""
        x_pp = ParameterVector(E=210.0, sigma_y0=0.25)  # ey = 1.19e-3
        x_le = ParameterVector(E=210.0)
        mset = _double_set([4e-4, 8e-4], [0.09, 0.17], a=1e-3)
        got = log_likelihood(x_pp, ModelKind.PERFECT_PLASTICITY, mset)
        want = log_likelihood(x_le, ModelKind.LINEAR_ELASTIC, mset)
        assert got == pytest.approx(want, rel=1e-12)

    def test_far_off_measurement_stays_finite(self):
        """Wildly unlikely data give a huge negative value, not a crash."""
        x = ParameterVector(E=210.0)
        mset = _double_set([0.1], [21.0], a=1e-3)
        value = log_likelihood(x, ModelKind.LINEAR_ELASTIC, mset)
        assert math.isfinite(value)
        assert value < -1e5


class TestNonlinearReductions:
    STRAINS = np.array([5e-4, 1.3e-3, 2e-3, 4e-3])
    STRESSES = np.array([0.10, 0.26, 0.28, 0.31])

    def test_unit_exponent_double(self):
        xn = ParameterVector(E=210.0, sigma_y0=0.25, H=50.0, n=1.0)
        xl = ParameterVector(E=210.0, sigma_y0=0.25, H=50.0)
        mset = _double_set(self.STRAINS, self.STRESSES)
        got = log_likelihood(xn, ModelKind.NONLINEAR_HARDENING, mset)
        want = log_likelihood(xl, ModelKind.LINEAR_HARDENING, mset)
        assert abs(math.expm1(got - want)) < 1e-8

    def test_zero_hardening_double(self):
        xn = ParameterVector(E=210.0, sigma_y0=0.25, H=0.0, n=0.5)
        xp = ParameterVector(E=210.0, sigma_y0=0.25)
        mset = _double_set(self.STRAINS, self.STRESSES)
        got = log_likelihood(xn, ModelKind.NONLINEAR_HARDENING, mset)
        want = log_likelihood(xp, ModelKind.PERFECT_PLASTICITY, mset)
        assert abs(math.expm1(got - want)) < 1e-8

    def test_panel_doubling_self_error(self):
        """Halving the mesh at defaults moves the value by < 1e-8."""
        x = ParameterVector(E=210.0, sigma_y0=0.25, H=2.0, n=0.5)
        ey = x.sigma_y0 / x.E
        # Windows straddling the yield corner are the hard case.
        strains = np.array([ey - 5e-5, ey + 2e-5, ey + 8e-5, 3e-3])
        stresses = stress(strains, x, ModelKind.NONLINEAR_HARDENING) + 0.004
        mset = _double_set(strains, stresses)
        base = log_likelihood(x, ModelKind.NONLINEAR_HARDENING, mset, QuadratureSpec())
        fine = log_likelihood(x, ModelKind.NONLINEAR_HARDENING, mset, QuadratureSpec(panels=1024))
        assert abs(math.expm1(base - fine)) < 1e-8

    def test_gauss_legendre_error_falls_fast_on_smooth_window(self):
        """Error falls at least sixteenfold per panel doubling until it
        reaches roundoff.

        The probe window is clipped at the yield strain with n = 1, so the
        integrand is smooth but the window ends where it is not small. The
        rule (panels // 4 + 1 nodes, a third of them graded towards the
        window start) converges geometrically there: from 16 panels (5
        nodes) on each doubling cuts the error by 380x or more, and 128
        panels reach roundoff. At 8 panels (3 nodes) the rule is not yet in
        that regime; 16 panels are 4x better.
        """
        x = ParameterVector(E=210.0, sigma_y0=0.25, H=50.0, n=1.0)
        em = x.sigma_y0 / x.E + 2e-5
        sm = stress(em, x, ModelKind.NONLINEAR_HARDENING) + 0.004
        mset = _double_set([em], [sm])
        kind = ModelKind.NONLINEAR_HARDENING
        ref = log_likelihood(x, kind, mset, QuadratureSpec(panels=8192))
        errors = [
            abs(math.expm1(log_likelihood(x, kind, mset, QuadratureSpec(panels=p)) - ref))
            for p in (16, 32, 64, 128)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 16.0
        assert errors[-1] < 1e-12


class TestNonlinearQuadratureAccuracy:
    """The LE-NH plastic-branch rule against ``_strain_space_lenh_point``,
    an integration in the true strain that shares nothing with the
    kernel's quadrature but the model's stress."""

    FAMILIES = {
        "A": ((0.0, 10.0), (0.15, 3.0)),
        "B-soft": ((0.05, 1.0), (0.15, 0.5)),
        "C-stiff": ((10.0, 80.0), (0.15, 0.33)),
    }

    @classmethod
    def sets(cls, family):
        """Ten seeded 12-point sets of ``family``, each with its rows: the
        truth and three rows 15% off in every component."""
        H_range, n_range = cls.FAMILIES[family]
        rng = np.random.default_rng(zlib.crc32(family.encode()))
        for _ in range(10):
            E, sy = rng.uniform(150.0, 260.0), rng.uniform(0.15, 0.35)
            truth = np.array([E, sy, rng.uniform(*H_range), rng.uniform(*n_range)])
            mset = generate_double_noise(
                ParameterVector(*truth), ModelKind.NONLINEAR_HARDENING, GRID_12, 0.01, 1e-4,
                seed=int(rng.integers(2**31)),
            )
            yield mset, np.vstack([truth, truth * (1.0 + 0.15 * rng.choice([-1.0, 1.0], (3, 4)))])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sets_match_strain_space_reference(self, family):
        """Ten seeded 12-point sets per family of (H, n), scored at the
        truth and at three rows 15% off in every component. Soft
        hardening (B) is where 512-panel Simpson in the stress excess
        erred by up to 3e-8; rows 15% off are where the stress Gaussian
        is narrow against a window set by the strain noise alone."""
        kind = ModelKind.NONLINEAR_HARDENING
        for mset, rows in self.sets(family):
            got = likelihood_kernel(kind, [mset])(rows)
            for row, value in zip(rows, got):
                want = sum(
                    _strain_space_lenh_point(row, sm, em, 0.01, 1e-4)
                    for em, sm in zip(mset.strains, mset.stresses)
                )
                assert abs(math.expm1(value - want)) < 1e-9, (family, row)

    def test_stress_band_missing_the_window_keeps_the_window(self):
        """A measured stress some 1e9 stress stds above the curve: the band
        s_sig sqrt(G + width^2) then equals the least stress residual to
        the last bit, and rounding puts the band just outside the window.
        The window is then integrated whole, as before the band existed,
        and the value is the one 512-panel Simpson gave."""
        x = ParameterVector(E=210.0, sigma_y0=0.25, H=2.0, n=0.57)
        got = log_likelihood(x, ModelKind.NONLINEAR_HARDENING, _double_set([2e-3], [1e7]))
        assert got == pytest.approx(-4.9999997030310976e17, rel=1e-8)


class TestContinuityInParameters:
    """The likelihood is C0 along parameter paths that sweep the yield
    strain through a measurement point."""

    def _sweep(self, evaluate, center, width=1e-7, steps=41):
        grid = np.linspace(center - width, center + width, steps)
        values = np.array([evaluate(v) for v in grid])
        assert np.all(np.isfinite(values))
        # No step may jump more than the neighbor-to-neighbor trend.
        diffs = np.abs(np.diff(values))
        scale = max(np.median(diffs), 1e-12)
        assert diffs.max() < 50.0 * scale + 1e-9

    def test_single_noise_perfect_plasticity(self):
        mset = _single_set([1e-3, 2e-3], [0.20, 0.24])
        self._sweep(
            lambda sy: log_likelihood(
                ParameterVector(E=210.0, sigma_y0=sy),
                ModelKind.PERFECT_PLASTICITY,
                mset,
            ),
            center=210.0 * 2e-3,
        )

    def test_single_noise_nonlinear(self):
        """C0 for n >= 1, where the change-of-variables factor is bounded."""
        mset = _single_set([1e-3, 2e-3], [0.20, 0.26])
        self._sweep(
            lambda sy: log_likelihood(
                ParameterVector(E=210.0, sigma_y0=sy, H=2.0, n=1.4),
                ModelKind.NONLINEAR_HARDENING,
                mset,
            ),
            center=210.0 * 2e-3,
        )

    def test_single_noise_nonlinear_boundary_divergence(self):
        """With n < 1 the stress-only density genuinely drops to zero as
        the yield strain reaches a measurement from the plastic side: the
        change-of-variables divisor blows up there. The approach must be
        monotone, not a numerical artifact."""
        mset = _single_set([1e-3, 2e-3], [0.20, 0.26])

        def value(sy: float) -> float:
            return log_likelihood(
                ParameterVector(E=210.0, sigma_y0=sy, H=2.0, n=0.5),
                ModelKind.NONLINEAR_HARDENING,
                mset,
            )

        boundary = 210.0 * 2e-3
        approach = [value(boundary - gap) for gap in (1e-4, 1e-6, 1e-8, 1e-10)]
        assert all(b < a for a, b in zip(approach, approach[1:]))
        assert approach[-1] < value(boundary) - 5.0

    def test_double_noise_linear_hardening(self):
        mset = _double_set([1e-3, 2e-3], [0.20, 0.26])
        self._sweep(
            lambda sy: log_likelihood(
                ParameterVector(E=210.0, sigma_y0=sy, H=50.0), ModelKind.LINEAR_HARDENING, mset
            ),
            center=210.0 * 2e-3,
        )


class TestDoubleNoiseAdditivity:
    def test_concatenation_sums(self):
        x = ParameterVector(E=210.0, sigma_y0=0.25, H=50.0)
        whole = _double_set([5e-4, 1e-3, 2e-3, 3e-3], [0.10, 0.20, 0.26, 0.30])
        part_a = _double_set([5e-4, 1e-3], [0.10, 0.20])
        part_b = _double_set([2e-3, 3e-3], [0.26, 0.30])
        kind = ModelKind.LINEAR_HARDENING
        assert log_likelihood(x, kind, whole) == pytest.approx(
            log_likelihood(x, kind, part_a) + log_likelihood(x, kind, part_b),
            rel=1e-14,
        )


class TestGuards:
    def test_nonfinite_quadrature_is_reported(self, monkeypatch):
        """A NaN plastic-window sum is a NumericalError naming the
        measurement and the row, never a NaN log-likelihood."""
        kind = ModelKind.NONLINEAR_HARDENING
        x = ParameterVector(E=210.0, sigma_y0=0.25, H=2.0, n=0.57)
        mset = generate_double_noise(x, kind, GRID_12, 0.01, 1e-4, seed=4)
        monkeypatch.setattr(likelihood, "_log_window_sums", lambda h, weights: np.full(h.shape[:-1], np.nan))
        with pytest.raises(NumericalError, match=r"non-finite log-likelihood for measurement \(strain="):
            log_likelihood(x, kind, mset)

    @pytest.mark.parametrize(
        "double, patched",
        [(False, "_response"), (True, "_log_affine_branch")],
        ids=["stress-only", "stress-and-strain"],
    )
    def test_nonfinite_point_is_reported_in_every_regime(self, monkeypatch, double, patched):
        """A NaN point of the stress-only or the affine stress-and-strain
        kernel is a NumericalError naming that measurement and the row, as
        for the quadrature above."""
        kind = ModelKind.PERFECT_PLASTICITY
        x = ParameterVector(E=210.0, sigma_y0=0.25)
        if double:
            mset = generate_double_noise(x, kind, GRID_12, 0.01, 1e-4, seed=4)
        else:
            mset = generate_single_noise(x, kind, GRID_12, 0.01, seed=4)
        original = getattr(likelihood, patched)

        def with_nan(*args):
            out = original(*args)
            (out[0] if isinstance(out, tuple) else out)[..., 3] = np.nan  # _response's stress
            return out

        monkeypatch.setattr(likelihood, patched, with_nan)
        point = f"(strain={mset.strains[3]}, stress={mset.stresses[3]})"
        want = f"non-finite log-likelihood for measurement {point} at x={x.to_array()!r}"
        with pytest.raises(NumericalError, match=f"^{re.escape(want)}$"):
            log_likelihood(x, kind, mset)

    def test_quadrature_spec_validation(self):
        with pytest.raises(ConfigurationError):
            QuadratureSpec(panels=7)
        with pytest.raises(ConfigurationError):
            QuadratureSpec(panels=0)
        with pytest.raises(ConfigurationError):
            QuadratureSpec(panels=2)

    @pytest.mark.parametrize("bad", [384.0, 512.7, "384", True, None])
    def test_quadrature_spec_refuses_what_a_config_refuses(self, bad):
        """The panel count goes through the reader of the config files:
        384.0 constructed, and a string or null raised a TypeError."""
        with pytest.raises(ConfigurationError, match=f"^quadrature panels must be an integer, got {bad!r}$"):
            QuadratureSpec(panels=bad)

    def test_quadrature_spec_numpy_integer_constructs(self):
        spec = QuadratureSpec(panels=np.int64(256))
        assert spec.panels == 256 and type(spec.panels) is int

    def test_quadrature_only_for_implicit_double(self):
        mset = _double_set([1e-3], [0.21])
        with pytest.raises(ConfigurationError):
            log_likelihood(
                ParameterVector(E=210.0), ModelKind.LINEAR_ELASTIC, mset, QuadratureSpec()
            )

    def test_facade_dispatch(self):
        """The facade agrees with the per-point values of the kernel of the
        data's noise regime summed, less the stress-only normalization."""
        x = ParameterVector(E=210.0, sigma_y0=0.25)
        single = _single_set([1e-3, 2e-3], [0.20, 0.24])
        double = _double_set([1e-3, 2e-3], [0.20, 0.24])
        kind = ModelKind.PERFECT_PLASTICITY
        row = x.to_array()[None, :]
        offset = 2 * (0.5 * LOG_2PI + math.log(0.01))
        regimes = ((single, likelihood._single_kernel, offset), (double, likelihood._affine_kernel, 0.0))
        for mset, regime_kernel, constant in regimes:
            want = regime_kernel(kind, mset.strains, mset.stresses, mset.noise)(row).sum(axis=1)[0] - constant
            assert log_likelihood(x, kind, mset) == want


# Components of every magnitude a double holds, zero and subnormal included.
EXTREME_COMPONENTS = (0.0, 5e-324, 1e-300, 1e-12, 1.0, 210.0, 1e12, 1e300, 1.7e308)

# Upper ends of the uniformly drawn components (E, sigma_y0, H, n).
CONTRACT_RANGES = (400.0, 1.0, 100.0, 3.0)

CONTRACT_NOISE = {
    "stress-only": NoiseSpec(0.01),
    "stress-and-strain": NoiseSpec(0.01, 1e-4),
    "bounded": NoiseSpec(0.01, 1e-4, 3e-3),
}


@functools.cache
def _contract_kernel(kind: ModelKind, spec: str):
    """The one-set kernel of ``kind`` on 12 points generated at the LE-NH
    truth's components under noise ``spec``."""
    x = ParameterVector(**dict(zip(kind.parameter_names, (210.0, 0.25, 2.0, 0.57))))
    noise = CONTRACT_NOISE[spec]
    if noise.double:
        mset = generate_double_noise(x, kind, GRID_12, 0.01, 1e-4, seed=3, strain_limit=noise.strain_limit)
    else:
        mset = generate_single_noise(x, kind, GRID_12, 0.01, seed=3)
    return likelihood_kernel(kind, [mset])


class TestFailureContract:
    """Every likelihood value is finite or -inf, or the call raises: the
    floating-point rule of ``likelihood_kernel``. A RuntimeWarning that
    escapes fails the test (the suite turns it into an error)."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(list(ModelKind)), st.sampled_from(list(CONTRACT_NOISE)), st.data())
    def test_values_are_finite_or_minus_inf_or_raise(self, kind, spec, data):
        """Rows of extreme and of uniform components, one at a time and as
        a batch: a one-row value is finite or -inf unless the call raises a
        NumericalError or DomainError; a batch raises if one of its rows
        does, and otherwise gives each row the bits of its one-row call."""
        kernel = _contract_kernel(kind, spec)
        component = [st.one_of(st.sampled_from(EXTREME_COMPONENTS), st.floats(0.0, hi)) for hi in CONTRACT_RANGES]
        n_rows = data.draw(st.integers(1, 4))
        rows = np.array([[data.draw(c) for c in component[: kind.dimension]] for _ in range(n_rows)])
        ones, raised = [], False
        for row in rows:
            try:
                value = kernel(row[None])
            except (NumericalError, DomainError):
                raised = True
                continue
            assert value.shape == (1,)
            assert math.isfinite(value[0]) or value[0] == -math.inf, (row, value)
            ones.append(value[0])
        if raised:
            with pytest.raises((NumericalError, DomainError)):
                kernel(rows)
            return
        assert np.array_equal(kernel(rows).view(np.uint64), np.array(ones).view(np.uint64))


class TestOneFloatingPointState:
    """An evaluation enters ``np.errstate`` once: ``likelihood_kernel`` per
    ``log_density`` call and ``stress_rows`` per call, and nothing they
    call enters it again."""

    @pytest.mark.parametrize("spec", ["stress-only", "stress-and-strain"])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_one_errstate_entry_per_call(self, monkeypatch, kind, spec):
        """Two rows past yield on the grid, for LE-NH one in each plastic
        coordinate. With blocks of their own in ``_plastic_coordinate`` and
        ``_log_gauss_mass``, these ``log_density`` calls entered two to four
        blocks, and an LE-NH ``stress_rows`` three."""
        entered = []

        class Counting(np.errstate):
            __slots__ = ()

            def __enter__(self):
                entered.append(self)
                return super().__enter__()

        rows = np.array([[210.0, 0.25, 2.0, 0.57], [200.0, 0.3, 5.0, 1.5]])[:, : kind.dimension]
        x = ParameterVector(*rows[0])
        if CONTRACT_NOISE[spec].double:
            mset = generate_double_noise(x, kind, GRID_12, 0.01, 1e-4, seed=3)
        else:
            mset = generate_single_noise(x, kind, GRID_12, 0.01, seed=3)
        prior = TruncatedNormalPrior(rows[0], np.diag(0.1 * rows[0]) ** 2)
        target = LogPosterior(kind, prior, mset)
        monkeypatch.setattr(np, "errstate", Counting)
        assert np.all(np.isfinite(target.log_density(rows)))
        assert len(entered) == 1
        past_yield = stress_rows(kind, GRID_12, rows) < rows[:, :1] * GRID_12
        assert len(entered) == 2
        assert kind is ModelKind.LINEAR_ELASTIC or past_yield.any(axis=1).all()


def _two_form_log_gauss_mass(lo_z, hi_z):
    """The two-form expression ``_log_gauss_mass`` replaced, kept as its
    reference: the lower-tail form for an interval on one side of zero (an
    upper one mirrored onto it), log1p(-(Phi(lo) + Phi(-hi))) for one
    straddling zero."""
    upper = lo_z >= 0.0
    a = np.where(upper, -hi_z, lo_z)
    b = np.where(upper, -lo_z, hi_z)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_b = log_ndtr(b)
        tail = log_b + np.log1p(-np.exp(np.fmin(log_ndtr(a) - log_b, 0.0)))
        middle = np.log1p(-(ndtr(lo_z) + ndtr(-hi_z)))
    out = np.where(upper | (hi_z <= 0.0), tail, middle)
    return np.where(hi_z > lo_z, out, -np.inf)


class TestGaussMass:
    """The one-form interval mass against the two-form one it replaced."""

    ENDS = [-np.inf, -1e160, -40.0, -38.5, -8.0, -2.0, -1.0, -0.3, -1e-9, 0.0,
            1e-9, 0.3, 1.0, 2.0, 8.0, 38.5, 40.0, 1e160, np.inf]

    def _assert_close(self, lo, hi):
        np.testing.assert_allclose(_log_gauss_mass(lo, hi), _two_form_log_gauss_mass(lo, hi), rtol=2e-15, atol=0.0)

    def test_grid_of_intervals(self):
        """Every ordered pair of ends: both infinities, both far tails,
        intervals straddling zero, and 1e-9-wide ones ending at it; an
        interval across or ending at zero is at least 0.3 wide here (see
        below): the two-form reference cancels on a narrower one."""
        pairs = [(lo, hi) for lo in self.ENDS for hi in self.ENDS]
        kept = [(lo, hi) for lo, hi in pairs if lo < hi and not (lo <= 0.0 <= hi and hi - lo < 0.3)]
        with np.errstate(all="ignore"):  # as under ``likelihood_kernel``
            self._assert_close(*np.array(kept).T)
            empty = [(lo, hi) for lo, hi in pairs if lo >= hi]
            assert np.all(_log_gauss_mass(*np.array(empty).T) == -np.inf)

    def test_intervals_1e_9_wide_across_the_line(self):
        centers = np.concatenate([-np.logspace(-8, 1.5, 40), np.logspace(-8, 1.5, 40)])
        self._assert_close(centers - 5e-10, centers + 5e-10)

    def test_random_intervals(self):
        rng = np.random.default_rng(0)
        lo = rng.uniform(-40.0, 40.0, 20_000)
        hi = lo + 10.0 ** rng.uniform(-6.0, 2.0, lo.size)
        keep = ~((lo < 0.0) & (hi > 0.0) & (hi - lo < 0.3))
        self._assert_close(lo[keep], hi[keep])

    def test_narrow_interval_straddling_zero(self):
        """The two-form reference does not resolve an interval much narrower
        than 1 around zero: it subtracts two numbers near 1/2, so its mass
        keeps about eps / width of relative precision. Both forms stay
        within that of the midpoint expansion w phi(m) (1 + w^2 (m^2 - 1) /
        24), which is good to O(w^4)."""
        lo = np.array([-5e-10, -1e-10, -1e-3])
        hi = np.array([5e-10, 9e-10, 1e-3])
        w, m = hi - lo, 0.5 * (lo + hi)
        density = np.exp(-0.5 * m * m) / math.sqrt(2.0 * math.pi)
        reference = np.log(w * density * (1.0 + w * w * (m * m - 1.0) / 24.0))
        for form in (_log_gauss_mass, _two_form_log_gauss_mass):
            assert np.all(np.abs(np.expm1(form(lo, hi) - reference)) <= 4e-16 / w + w**4)

    def test_narrow_interval_straddling_zero_at_full_precision(self):
        """Across zero and narrower than 0.3, the mass is a sum of two erf
        terms with no cancellation: at widths 1e-9 to 0.1 the log-mass is
        within 2 ulps of the midpoint expansion carried to w^16, where the
        subtraction of two numbers near 1/2 was 1.7e-7 off at width 1e-9.
        The expansion is w phi(m) sum_k (w / 2)^(2k) He_2k(m) / (2k + 1)!,
        with He the probabilists' Hermite polynomials, summed in linear
        space; its first two terms are the ones above."""
        fractions = np.linspace(0.001, 0.999, 41)
        for w in np.logspace(-9.0, -1.0, 17):
            lo, hi = -fractions * w, (1.0 - fractions) * w
            width, m = hi - lo, 0.5 * (lo + hi)
            series = sum(
                (0.5 * width) ** (2 * k) * hermeval(m, [0.0] * (2 * k) + [1.0]) / math.factorial(2 * k + 1)
                for k in range(8, -1, -1)
            )
            reference = np.log(width * np.exp(-0.5 * m * m) / math.sqrt(2.0 * math.pi) * series)
            got = _log_gauss_mass(lo, hi)
            assert np.all(np.abs(got - reference) <= 2.0 * np.spacing(np.abs(reference))), w

    def test_narrow_interval_ending_at_zero_at_full_precision(self):
        """[0, w] and [-w, 0] have the mass erf(w / sqrt 2) / 2. The one
        form subtracted Phi(0) from Phi(w) and was 9.8e-5 off (relative) at
        w = 1e-12, 1.1e-7 at 1e-9 and 7.9e-11 at 1e-6."""
        w = np.logspace(-12.0, math.log10(0.29), 60)
        reference = np.log(erf(w / math.sqrt(2.0)) / 2.0)
        zero = np.zeros_like(w)
        for lo, hi in ((zero, w), (-w, zero), (-zero, w), (-w, -zero)):
            got = _log_gauss_mass(lo, hi)
            assert np.all(np.abs(got - reference) <= 2.0 * np.spacing(np.abs(reference)))

    def test_wide_or_one_sided_intervals_keep_the_one_form(self):
        """Only intervals across or ending at zero narrower than 0.3 take
        the erf sum; every other element has the bits of the one form
        alone."""
        lo = np.array([-0.2, -1e-9, 0.0, 1e-9, -0.3, -2.0, -0.15])
        hi = np.array([0.1, 1e-9, 1e-9, 2e-9, 0.0, 1.0, 0.15000000000000002])
        a, b = np.minimum(lo, -hi), np.minimum(hi, -lo)
        log_b = log_ndtr(b)
        one_form = log_b + np.log1p(-np.exp(np.fmin(log_ndtr(a) - log_b, 0.0)))
        got = _log_gauss_mass(lo, hi)
        narrow = np.array([True, True, True, False, False, False, False])
        assert np.array_equal(got[~narrow], one_form[~narrow])
        assert not np.array_equal(got[narrow], one_form[narrow])


class TestExtremeParameters:
    """Admissible parameters at the edge of double precision give a number
    or -inf, never NaN."""

    def test_intervals_far_in_one_tail_have_zero_mass(self):
        lo = np.array([-2e200, 1e200, 1e160])
        hi = np.array([-1e200, 2e200, np.inf])
        with np.errstate(all="ignore"):  # as under ``likelihood_kernel``
            assert np.all(_log_gauss_mass(lo, hi) == -np.inf)

    @pytest.mark.parametrize("kind", [ModelKind.PERFECT_PLASTICITY, ModelKind.LINEAR_HARDENING])
    @pytest.mark.parametrize("E", [1e-201, 1e-250, 1e-300])
    def test_vanishing_modulus_with_unit_yield_stress(self, kind, E):
        """sigma_y0 / E lies some 1e200 noise stds above every measurement."""
        truth = ParameterVector(E=210.0, sigma_y0=0.25, H=50.0)
        mset = generate_double_noise(
            ParameterVector.from_array(kind, truth.to_array()[: kind.dimension]),
            kind, GRID_12, 0.01, 1e-4, seed=2,
        )
        x = ParameterVector.from_array(kind, [E, 1.0, 5.0][: kind.dimension])
        assert math.isfinite(log_likelihood(x, kind, mset))

    @pytest.mark.parametrize("double", [False, True])
    def test_nonlinear_subnormal_modulus_never_yields(self, double):
        """sigma_y0 / E overflows to an infinite yield strain: every point is
        elastic, with a finite value and no overflow warning."""
        kind = ModelKind.NONLINEAR_HARDENING
        truth = ParameterVector(E=210.0, sigma_y0=0.25, H=2.0, n=0.57)
        if double:
            mset = generate_double_noise(truth, kind, GRID_12, 0.01, 1e-4, seed=2)
        else:
            mset = generate_single_noise(truth, kind, GRID_12, 0.01, seed=2)
        x = ParameterVector(E=5e-324, sigma_y0=1.0, H=0.0, n=1.0)
        assert math.isfinite(log_likelihood(x, kind, mset))

    @needs_long_double
    def test_stress_only_nonlinear_plastic_strain_rounded_below_zero(self):
        """Recomputed as strain - stress/E, the plastic strain of one point
        rounds to -2.7e-20, where the change-of-variables factor diverges.
        Taken from the plastic coordinate it is positive, and the value
        matches the long-double oracle."""
        kind = ModelKind.NONLINEAR_HARDENING
        mset = generate_single_noise(
            ParameterVector(E=210.0, sigma_y0=0.25, H=2.0, n=0.57), kind, GRID_12, 0.01, seed=1
        )
        x = ParameterVector(E=0.25436000000000003, sigma_y0=0.0, H=5.0, n=0.25)
        got = log_likelihood(x, kind, mset)
        assert got == pytest.approx(_long_double_single_lenh(x, mset), rel=1e-12)

    @needs_long_double
    def test_stress_only_nonlinear_small_exponent_is_finite(self):
        """E = 210, sigma_y0 = 0.25, H = 50, n = 0.05: at these strains the
        plastic strain (1.8e-67, 4.3e-50, 4.1e-43) is below the rounding of
        strain - stress/E, which gave exactly 0 and a log-likelihood of
        -inf. The log-factors are 141.57, 103.56 and 88.28."""
        kind = ModelKind.NONLINEAR_HARDENING
        x = ParameterVector(E=210.0, sigma_y0=0.25, H=50.0, n=0.05)
        strains = np.array([1.3e-3, 2e-3, 3e-3])
        mset = _single_set(strains, stress(strains, x, kind) + np.array([0.004, -0.006, 0.011]))
        got = log_likelihood(x, kind, mset)
        assert abs(got - _long_double_single_lenh(x, mset)) < 1e-12

    @pytest.mark.parametrize(
        "row", [[1.0, 0.0, 1e-200, 1e-200], [210.0, 0.25, 1e-160, 1e-160]], ids=["1e-200", "1e-160"]
    )
    def test_stress_and_strain_nonlinear_underflowing_hardening(self, row):
        """n H underflows, so the slope in the stress excess divides by 0 or
        overflows. The row either gives a number, which must be the LE-PP
        value of its E and sigma_y0 (its hardening is nil), or raises
        NumericalError naming the row; never NaN, nor a RuntimeWarning."""
        mset = generate_double_noise(
            ParameterVector(E=210.0, sigma_y0=0.25, H=2.0, n=0.57), ModelKind.NONLINEAR_HARDENING,
            GRID_12, 0.01, 1e-4, seed=3,
        )
        try:
            got = log_likelihood(ParameterVector(*row), ModelKind.NONLINEAR_HARDENING, mset)
        except NumericalError as err:
            assert repr(np.array(row)) in str(err)
            return
        want = log_likelihood(ParameterVector(*row[:2]), ModelKind.PERFECT_PLASTICITY, mset)
        assert abs(math.expm1(got - want)) < 1e-8

    @REGIMES
    def test_nonlinear_row_without_a_double_root_raises(self, double):
        """At H = n = 1e-160 no double plastic coordinate reaches the
        strains past yield: Newton met an infinite tolerance at t = H and
        stopped there, and the stress-only value (-6.2422) came from that
        false root. Both regimes must raise NumericalError naming the row."""
        truth = ParameterVector(E=210.0, sigma_y0=0.25, H=2.0, n=0.57)
        kind = ModelKind.NONLINEAR_HARDENING
        if double:
            mset = generate_double_noise(truth, kind, GRID_12, 0.01, 1e-4, seed=3)
        else:
            mset = generate_single_noise(truth, kind, GRID_12, 0.01, seed=1)
        row = [210.0, 0.25, 1e-160, 1e-160]
        with pytest.raises(NumericalError, match=r"tolerance inf") as err:
            log_likelihood(ParameterVector(*row), kind, mset)
        assert repr(np.array(row)) in str(err.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stress_only_nonlinear_subnormal_exponent(self):
        """n = 5e-324 makes 1/n inf and n H / E underflow to 0. Past yield
        the plastic strain (v/H)**(1/n) is then 0 and the change-of-variables
        factor inf, not NaN, so the value is -inf."""
        kind = ModelKind.NONLINEAR_HARDENING
        mset = generate_single_noise(
            ParameterVector(E=210.0, sigma_y0=0.25, H=2.0, n=0.57), kind, GRID_12, 0.01, seed=1
        )
        x = ParameterVector(E=200.0, sigma_y0=0.25, H=1.0, n=5e-324)
        assert log_likelihood(x, kind, mset) == -np.inf


@needs_long_double
@pytest.mark.parametrize("n_range", [(0.15, 3.0), (0.02, 0.3)])
def test_stress_only_nonlinear_log_factor_matches_long_double(n_range):
    """300 LE-NH rows with H in [1, 100] and the yield strain inside the
    12-point grid: the stress-only log d(strain)/d(plastic strain) is 0 up
    to yield, finite past it, and within 1e-12 of the long-double oracle
    at every point 1% or more past yield. Closer to yield the double sum
    (sigma_y0 + v)/E leaves a relative error of about eps * strain /
    (strain - sigma_y0/E) on the stress excess v, which the factor's
    log(v/H) multiplies by 1/n - 1."""
    rng = np.random.default_rng(23)
    m = 300
    E = rng.uniform(50.0, 300.0, m)
    sy = E * rng.uniform(GRID_12[0], GRID_12[-1], m)
    H = rng.uniform(1.0, 100.0, m)
    n = rng.uniform(*n_range, m)
    _, log_jac = _response(ModelKind.NONLINEAR_HARDENING, GRID_12, np.column_stack([E, sy, H, n]))
    plastic = GRID_12 > (sy / E)[:, None]
    assert np.all(log_jac[~plastic] == 0.0)
    assert np.all(np.isfinite(log_jac))
    _, want = _long_double_lenh(GRID_12, E[:, None], sy[:, None], H[:, None], n[:, None])
    checked = GRID_12 >= 1.01 * (sy / E)[:, None]
    assert checked.sum() > 1500
    assert np.max(np.abs(log_jac - want)[checked]) < 1e-12


def test_log_window_sums_match_scipy():
    """The LE-NH node stage's per-window reduction, log(sum(w exp(-h))),
    against scipy's weighted logsumexp: rows that are all or partly inf in
    h included. A row holding a NaN gives NaN."""
    rng = np.random.default_rng(3)
    h = rng.uniform(0.0, 3000.0, (12, 129)) ** 2 / 6000.0
    w = rng.uniform(1e-9, 2.0, h.shape)
    h[3] = np.inf
    h[5, ::2] = np.inf
    h[7, 100:] = np.inf
    h[9, 40] = np.nan
    with np.errstate(divide="ignore"):
        got = _log_window_sums(h, w)
    want = logsumexp(-h, b=w, axis=1)
    assert got[3] == -np.inf
    assert np.isnan(got[9]) and np.isnan(want[9])
    finite = np.isfinite(want)
    assert np.array_equal(finite, np.isfinite(got))
    # The error of a log is the relative error of its sum.
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("n", [1.5, 2.0, 3.0])
def test_plastic_path_of_one_window_has_the_bits_of_a_batch(n):
    """The exponents n and n - 1 are then 0.5 or 2, which numpy takes by a
    square root or square when one value fills the exponent array, as it
    does for a batch holding a single quadrature window.

    The forward response goes through the same path: in a ``stress_rows``
    batch mixing both plastic coordinates, H = 0 and n = 1, each row has
    the bits of its one-row call. The last two rows have one plastic
    strain, so their one-row calls see one-element exponent arrays of n,
    n - 1 and, in the stress excess, 1/n - 1 = n - 1."""
    t = np.random.default_rng(1).uniform(1e-6, 1e-3, (1, 513))
    x = [np.array([[value]]) for value in (10.0, 0.03, 1e6, n)]
    alone = _plastic_path(t, x, False)
    paired = _plastic_path(np.vstack([t, t]), [np.vstack([c, c]) for c in x], False)
    for a, b in zip(alone, paired):
        assert np.array_equal(a[0], b[0])

    kind = ModelKind.NONLINEAR_HARDENING
    strain = np.linspace(0.0, 6e-3, 25)
    rows = np.array([
        [210.0, 0.25, 2.0, 0.5],
        [150.0, 0.3, 40.0, 1.5],
        [210.0, 0.25, 0.0, 0.5],
        [200.0, 0.2, 50.0, 1.0],
        [100.0, 0.59, 3.0, n],
        [100.0, 0.59, 3.0, 1.0 / n],
    ])
    assert np.sum(strain > rows[-1, 1] / rows[-1, 0]) == 1
    batch = stress_rows(kind, strain, rows)
    for row, want in zip(rows, batch):
        assert np.array_equal(stress_rows(kind, strain, row[None])[0].view(np.int64), want.view(np.int64))


class TestLegendreRule:
    """The Gauss-Legendre rules of the LE-NH table's graded and plain parts,
    built on numpy's eigensolver, have the bits of
    ``scipy.special.roots_legendre`` (whose eigensolve imports
    ``scipy.linalg``) at every panel count the code and these tests use, so
    no likelihood value depends on which library built them."""

    @pytest.mark.parametrize("panels", [4, 256, 384, 512, 1024, 2048, 8192])
    def test_equals_roots_legendre_bit_for_bit(self, panels):
        n = panels // 4 + 1
        graded = max(1, n // 3)
        for size in (graded, n - graded):
            nodes, weights = likelihood._legendre_rule(size)
            ref_nodes, ref_weights = roots_legendre(size)
            assert nodes.tobytes() == ref_nodes.tobytes()
            assert weights.tobytes() == ref_weights.tobytes()


def test_default_rule_integrates_powers_of_the_distance_to_yield():
    """The default table holds 97 increasing nodes in (0, 1), 32 of them
    graded into [0, 0.05]. It integrates u**p over [0, 1] to roundoff for
    the fractional powers a window starting at yield meets, where a plain
    Gauss-Legendre rule of as many nodes misses sqrt(u) by over 1e-7."""
    nodes, weights = likelihood._gauss_table(QuadratureSpec.panels)
    assert nodes.size == weights.size == 97 and np.sum(nodes < 0.05) == 32
    assert 0.0 < nodes[0] and np.all(np.diff(nodes) > 0.0) and nodes[-1] < 1.0
    for p in (0.0, 0.25, 0.5, 0.75, 1.5, 3.0, 7.0):
        assert abs(weights @ nodes**p * (p + 1.0) - 1.0) < 1e-14, p
    u, w = likelihood._legendre_rule(nodes.size)
    assert abs(0.5 * w @ np.sqrt(0.5 * (u + 1.0)) * 1.5 - 1.0) > 1e-7


class TestBlockedQuadrature:
    """The LE-NH node stage runs in blocks of at most ``_BLOCK_NODES``
    nodes; the block size changes neither a bit of any row nor, beyond one
    block, the memory of a call."""

    S_EPS = 1e-4
    TRUTH = ParameterVector(E=210.0, sigma_y0=0.25, H=2.0, n=0.57)

    def _kernel(self, panels=QuadratureSpec.panels):
        kind = ModelKind.NONLINEAR_HARDENING
        mset = generate_double_noise(self.TRUTH, kind, GRID_12, 0.01, self.S_EPS, seed=4)
        return likelihood_kernel(kind, [mset], QuadratureSpec(panels=panels)), mset.strains

    def _rows(self, rng, count, strains):
        """Rows mixing both plastic coordinates (n < 1 with H > 0, n >= 1,
        H = 0) and, in about half of them, a yield strain inside some
        point's integration window, so that window starts at yield."""
        E = rng.uniform(150.0, 260.0, count)
        ey = rng.uniform(0.8e-3, 1.6e-3, count)
        at_yield = rng.random(count) < 0.5
        near = strains[rng.integers(0, strains.size, count)] + rng.uniform(-6.0, 6.0, count) * self.S_EPS
        ey = np.where(at_yield, near, ey)
        H = np.where(rng.random(count) < 0.15, 0.0, rng.uniform(0.5, 5.0, count))
        n = rng.choice([rng.uniform(0.2, 0.95), 1.0, rng.uniform(1.0, 2.5)], count)
        return np.column_stack([E, E * ey, H, n])

    @pytest.mark.parametrize("panels", [512, 8192])
    def test_rows_keep_their_bits_at_any_block_size(self, monkeypatch, panels):
        kernel, strains = self._kernel(panels)
        rng = np.random.default_rng(panels)
        window = 8.0 * self.S_EPS
        batches = [self._rows(rng, int(rng.integers(1, 13)), strains) for _ in range(12)]
        rows = np.vstack(batches)
        ey = rows[:, 1] / rows[:, 0]
        assert np.any(np.abs(strains[None, :] - ey[:, None]) < window)
        assert np.any((rows[:, 2] > 0.0) & (rows[:, 3] < 1.0)) and np.any(rows[:, 3] >= 1.0)
        default = [kernel(batch) for batch in batches]
        for budget in (1, 2**62):
            monkeypatch.setattr(likelihood, "_BLOCK_NODES", budget)
            for batch, want in zip(batches, default):
                got = kernel(batch)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), budget
        for batch, want in zip(batches, default):
            alone = np.concatenate([kernel(row[None, :]) for row in batch])
            assert np.array_equal(alone.view(np.int64), want.view(np.int64))

    def test_peak_memory_of_a_call_does_not_grow_with_the_rows(self, monkeypatch):
        kernel, _ = self._kernel()
        rng = np.random.default_rng(8)
        center = self.TRUTH.to_array()
        rows = center * (1.0 + 0.02 * rng.standard_normal((400, 4)))
        live = []
        groups = likelihood._plastic_groups

        def counting(values, plastic):
            live.append(plastic.sum(axis=1))
            return groups(values, plastic)

        # The smaller batch: the fewest rows whose live (unscreened) windows
        # fill one block. This call also caches the Gauss-Legendre table.
        with monkeypatch.context() as patch:
            patch.setattr(likelihood, "_plastic_groups", counting)
            kernel(rows)
        nodes = likelihood._gauss_table(QuadratureSpec.panels)[0].size
        small = int(np.searchsorted(np.cumsum(live[0]), likelihood._BLOCK_NODES // nodes)) + 1
        assert 4 * small <= len(rows)
        rows = rows[: 4 * small]

        def peak(batch):
            tracemalloc.start()
            try:
                kernel(batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(rows) <= 1.25 * peak(rows[:small])


def _lenh_double_states(seed):
    """A 200-step chain of the benchmark's LE-NH stress-and-strain
    identification: its measurement set and its states."""
    truth = ParameterVector(E=210.0, sigma_y0=0.25, H=2.0, n=0.57)
    std = np.array([50.0, 0.0166667, 0.333333, 0.05])
    prior = TruncatedNormalPrior([200.0, 0.29, 2.5, 0.57], np.diag(std * std))
    kind = ModelKind.NONLINEAR_HARDENING
    target = LogPosterior(kind, prior, generate_double_noise(truth, kind, GRID_12, 0.01, 1e-4, seed))
    chain = run_adaptive_mh(target, SamplerConfig(n_samples=200, step_scale=0.02, seed=seed))
    return target.data[0], chain.samples


class TestScreen:
    """Plastic windows whose bound lies ``_SCREEN_MARGIN`` below the elastic
    term are never integrated, and that changes no bit of any row."""

    @staticmethod
    def _batches():
        for family in TestNonlinearQuadratureAccuracy.FAMILIES:
            yield from TestNonlinearQuadratureAccuracy.sets(family)
        for seed in (3, 17):
            yield _lenh_double_states(seed)

    def test_dropped_windows_change_no_bit(self, monkeypatch):
        live = []
        groups = likelihood._plastic_groups

        def counting(values, plastic):
            live.append(int(plastic.sum()))
            return groups(values, plastic)

        monkeypatch.setattr(likelihood, "_plastic_groups", counting)
        dropped = 0
        for mset, rows in self._batches():
            kernel = likelihood_kernel(ModelKind.NONLINEAR_HARDENING, [mset])
            screened = kernel(rows)
            with monkeypatch.context() as patch:
                patch.setattr(likelihood, "_SCREEN_MARGIN", math.inf)
                whole = kernel(rows)
            assert np.array_equal(screened.view(np.int64), whole.view(np.int64))
            dropped += live[-1] - live[-2]
        assert dropped > 0


class TestYieldWindow:
    """A window that starts at the yield strain has the plastic coordinate
    0 there, exactly, where the rule's graded part resolves the integrand."""

    # Rows whose point's window starts at yield, one per coordinate: the
    # plastic strain (n > 1) and the stress excess (n < 1). A plain
    # 97-node rule misses their point's value by 4.0e-8 and 1.4e-5.
    AT_YIELD = [
        ([196.45894639966838, 0.2298746798064551, 4.253811536254689, 1.2407599998607057],
         0.0011138178939702514, 0.2822656938944069),
        ([168.48175523712283, 0.18757476788336314, 4.172514101876825, 0.9024067027947774],
         0.0011332243892787184, 0.1831957734853699),
    ]

    def test_plastic_coordinate_is_zero_at_the_yield_strain_in_a_mixed_batch(self):
        rng = np.random.default_rng(6)
        for excess, n_range in ((True, (0.15, 0.95)), (False, (1.0, 3.0))):
            m = 40
            x = [rng.uniform(150.0, 260.0, m), rng.uniform(0.15, 0.35, m), rng.uniform(0.5, 10.0, m),
                 rng.uniform(*n_range, m)]
            ey = x[1] / x[0]
            at_yield = rng.random(m) < 0.5
            past = ey + rng.uniform(1e-6, 2e-3, m)
            strain = np.array([np.where(at_yield, ey, past), past + 8e-4])
            with np.errstate(all="ignore"):  # as under ``likelihood_kernel``
                t = _plastic_coordinate(strain, x, excess)
            assert np.all(t[0][at_yield] == 0.0)
            assert np.all(t[0][~at_yield] > 0.0) and np.all(t[1] > 0.0)

    def test_window_at_yield_keeps_the_clustered_mesh(self, monkeypatch):
        """In a batch with rows of both coordinates, H = 0 and n = 1, each
        row whose window starts at yield matches the strain-space
        reference to 1e-12; with the default rule replaced by a plain
        Gauss-Legendre rule of as many nodes it would miss by more than
        1e-9."""
        kind = ModelKind.NONLINEAR_HARDENING
        strains = np.array([em for _, em, _ in self.AT_YIELD] + [3e-3])
        stresses = np.array([sm for _, _, sm in self.AT_YIELD] + [0.33])
        mset = _double_set(strains, stresses)
        rows = np.array([row for row, _, _ in self.AT_YIELD]
                        + [[210.0, 0.25, 0.0, 0.5], [200.0, 0.2, 50.0, 1.0], [210.0, 0.25, 2.0, 0.57]])
        want = [sum(_strain_space_lenh_point(row, sm, em, 0.01, 1e-4) for em, sm in zip(strains, stresses))
                for row in rows[: len(self.AT_YIELD)]]
        got = likelihood_kernel(kind, [mset])(rows)
        for value, ref in zip(got, want):
            assert abs(math.expm1(value - ref)) < 1e-12
        size = likelihood._gauss_table(QuadratureSpec.panels)[0].size
        u, w = likelihood._legendre_rule(size)
        plain = (0.5 * (u + 1.0), 0.5 * w)
        assert plain[0].size == plain[1].size == size == 97
        monkeypatch.setattr(likelihood, "_gauss_table", lambda panels: plain)
        unclustered = likelihood_kernel(kind, [mset])(rows)
        for value, ref in zip(unclustered, want):
            assert abs(math.expm1(value - ref)) > 1e-9
