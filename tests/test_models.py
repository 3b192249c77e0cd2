"""Tests for the constitutive stress responses.

Covers the closed-form models against hand-evaluated arithmetic; the
nonlinear-hardening response, computed through the explicit plastic
coordinate, against an independent bisection of its implicit equation
(in long double for small exponents, where the residual itself is
ill-conditioned) and its loud failure when the Newton inversion stalls;
the reduction identities between models, continuity across the yield
point, and monotonicity of every response in the strain.
"""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plastinfer import (
    ConfigurationError,
    DomainError,
    ModelKind,
    NumericalError,
    ParameterVector,
    stress,
    stress_lenh,
)
from plastinfer import models
from plastinfer.models import stress_rows

E_REF = 210.0
SIGMA_Y0_REF = 0.25
EY_REF = SIGMA_Y0_REF / E_REF

PLASTIC_KINDS = [
    ModelKind.PERFECT_PLASTICITY,
    ModelKind.LINEAR_HARDENING,
    ModelKind.NONLINEAR_HARDENING,
]


def _params(kind: ModelKind, E=E_REF, sigma_y0=SIGMA_Y0_REF, H=2.0, n=0.5) -> ParameterVector:
    """Admissible parameters for ``kind`` built from the reference values."""
    names = kind.parameter_names
    pool = {"E": E, "sigma_y0": sigma_y0, "H": H, "n": n}
    return ParameterVector(**{name: pool[name] for name in names})


def _bisect_oracle(eps: float, E: float, sy: float, H: float, n: float, iters: int = 80) -> float:
    """Plain scalar bisection for the implicit stress, no shortcuts."""
    lo, hi = sy, E * eps
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        g = mid - sy - H * max(eps - mid / E, 0.0) ** n
        if g < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestParameterVector:
    def test_negative_component_rejected(self):
        """Any negative component is outside the support."""
        with pytest.raises(DomainError):
            ParameterVector(E=-1.0)
        with pytest.raises(DomainError):
            ParameterVector(E=210.0, sigma_y0=-0.1)

    def test_non_finite_component_rejected(self):
        with pytest.raises(DomainError):
            ParameterVector(E=np.nan)
        with pytest.raises(DomainError):
            ParameterVector(E=np.inf)

    def test_from_array_round_trip(self):
        """from_array and to_array are inverse for every model."""
        values = {"LE": [210.0], "LE-PP": [210.0, 0.25], "LE-LH": [210.0, 0.25, 50.0],
                  "LE-NH": [210.0, 0.25, 2.0, 0.5]}
        for token, vec in values.items():
            kind = ModelKind.parse(token)
            x = ParameterVector.from_array(kind, vec)
            np.testing.assert_array_equal(x.to_array(), vec)

    def test_from_array_wrong_length(self):
        with pytest.raises(DomainError):
            ParameterVector.from_array(ModelKind.LINEAR_HARDENING, [210.0, 0.25])

    @pytest.mark.parametrize(
        "fields, name, bad",
        [
            ({"E": True}, "E", True), ({"E": "210"}, "E", "210"), ({"E": None}, "E", None),
            ({"E": 210.0, "sigma_y0": [0.25]}, "sigma_y0", [0.25]),
            ({"E": 210.0, "sigma_y0": 0.25, "H": False}, "H", False),
            ({"E": 210.0, "sigma_y0": 0.25, "H": 2.0, "n": "0.5"}, "n", "0.5"),
        ],
    )
    def test_library_refuses_what_a_config_refuses(self, fields, name, bad):
        """Each component goes through the reader of the config files, and a
        refused one stays a domain error: ``E=True`` was a modulus of 1.0,
        ``E="210"`` one of 210.0 and ``E=None`` an absent modulus, and a list
        raised a TypeError."""
        with pytest.raises(DomainError, match=f"^parameter {name} must be a finite number, got {re.escape(repr(bad))}$"):
            ParameterVector(**fields)

    @pytest.mark.parametrize(
        "values, name, bad",
        [
            ([210.0, True], "sigma_y0", True), ([210.0, "0.25"], "sigma_y0", "0.25"),
            ([210.0, None], "sigma_y0", None), ([[210.0], [0.25]], "E", [210.0]),
        ],
    )
    def test_from_array_refuses_what_a_config_refuses(self, values, name, bad):
        """``from_array`` read its entries as one float array, so a bool or a
        numeric string became a number, null a NaN and a nested list was
        flattened; each entry is now read as the parameter it stands for."""
        with pytest.raises(DomainError, match=f"^parameter {name} must be a finite number, got {re.escape(repr(bad))}$"):
            ParameterVector.from_array(ModelKind.PERFECT_PLASTICITY, values)

    def test_array_likes_and_numpy_scalars_construct(self):
        x = ParameterVector(E=np.float32(210.0), sigma_y0=np.int64(0), H=2, n=np.float64(0.5))
        assert (x.E, x.sigma_y0, x.H, x.n) == (210.0, 0.0, 2.0, 0.5)
        assert all(type(v) is float for v in (x.E, x.sigma_y0, x.H, x.n))
        for values in (np.array([210.0, 0.25]), (210.0, np.float32(0.25)), [np.int64(210), 0.25]):
            np.testing.assert_array_equal(
                ParameterVector.from_array(ModelKind.PERFECT_PLASTICITY, values).to_array(), [210.0, 0.25]
            )

    def test_parse_is_case_insensitive(self):
        assert ModelKind.parse("le-pp") is ModelKind.PERFECT_PLASTICITY
        assert ModelKind.parse(" LE-NH ") is ModelKind.NONLINEAR_HARDENING

    def test_parse_unknown_token(self):
        with pytest.raises(ConfigurationError):
            ModelKind.parse("LE-XX")


class TestLinearElastic:
    def test_zero_strain(self):
        assert stress(0.0, ParameterVector(E=210.0), ModelKind.LINEAR_ELASTIC) == 0.0

    def test_proportionality(self):
        got = stress(7.25e-4, ParameterVector(E=210.0), ModelKind.LINEAR_ELASTIC)
        assert got == pytest.approx(0.15225, abs=1e-15)

    def test_zero_modulus(self):
        assert stress(1e-3, ParameterVector(E=0.0), ModelKind.LINEAR_ELASTIC) == 0.0

    def test_vectorized(self):
        eps = np.array([0.0, 1e-3, 2e-3])
        got = stress(eps, ParameterVector(E=210.0), ModelKind.LINEAR_ELASTIC)
        np.testing.assert_allclose(got, 210.0 * eps)

    def test_negative_strain_rejected(self):
        with pytest.raises(DomainError):
            stress(-1e-3, ParameterVector(E=210.0), ModelKind.LINEAR_ELASTIC)

    @pytest.mark.parametrize(
        "kind, message",
        [
            (ModelKind.PERFECT_PLASTICITY, "LE-PP requires E, sigma_y0"),
            (ModelKind.NONLINEAR_HARDENING, "LE-NH requires E, sigma_y0, H, n"),
        ],
        ids=["LE-PP", "LE-NH"],
    )
    def test_missing_component_rejected(self, kind, message):
        with pytest.raises(DomainError, match=message):
            stress(1e-3, ParameterVector(E=210.0), kind)


class TestStrainInputs:
    """Strains are read as a config is: a list or tuple entry by entry, an
    array by its dtype. ``stress([True, "1e-3"], ...)`` returned
    ``[210.0, 0.21]``."""

    X = ParameterVector(E=210.0)

    @pytest.mark.parametrize(
        "strain, message",
        [
            ([True, "1e-3"], "strain must be a finite number, got True"),
            (["1e-3"], "strain must be a finite number, got '1e-3'"),
            ((1e-3, None), "strain must be a finite number, got None"),
            (False, "strain must be a finite number, got False"),
            ([[1e-3], [2e-3, 3e-3]], "strain must be a rectangular list, got [[0.001], [0.002, 0.003]]"),
            ([np.nan], "strain must be a finite number, got nan"),
            (np.array([1e-3, np.inf]), "strain must be a finite number, got inf"),
            (np.array([True, False]), "strain must hold numbers, got an array of dtype bool"),
            (np.array(["1e-3"]), "strain must hold numbers, got an array of dtype <U4"),
            (np.array([1e-3], dtype=object), "strain must hold numbers, got an array of dtype object"),
            (-1e-3, "strains must be >= 0 (monotonic tension)"),
        ],
        ids=["bool-and-string", "string", "null", "bool", "ragged", "nan", "inf-array", "bool-array",
             "string-array", "object-array", "negative"],
    )
    def test_refused_strain_is_a_domain_error(self, strain, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            stress(strain, self.X, ModelKind.LINEAR_ELASTIC)

    @pytest.mark.parametrize(
        "strain, shape",
        [
            (1e-3, None), (np.float32(1e-3), None), (np.int64(0), None), (np.array(1e-3), None),
            ([1e-3, 2e-3], (2,)), ((1e-3,), (1,)), ([[1e-3], [2e-3]], (2, 1)), ([], (0,)),
            (np.zeros((2, 3)), (2, 3)), (np.array([0, 1], dtype=np.int32), (2,)),
            (np.array([1e-3], dtype=np.float32), (1,)),
        ],
    )
    def test_numbers_keep_their_shape(self, strain, shape):
        """A number, numpy scalar or 0-D array returns a float; any other
        input keeps its shape, with the values of a float64 cast."""
        got = stress(strain, self.X, ModelKind.LINEAR_ELASTIC)
        want = 210.0 * np.asarray(strain, dtype=float)
        if shape is None:
            assert type(got) is float and got == float(want)
        else:
            assert got.shape == shape and np.array_equal(got, want)


class TestPerfectPlasticity:
    def test_boundary_belongs_to_elastic_branch(self):
        """The two branches agree exactly at the yield strain."""
        x = _params(ModelKind.PERFECT_PLASTICITY)
        assert stress(EY_REF, x, ModelKind.PERFECT_PLASTICITY) == pytest.approx(SIGMA_Y0_REF, abs=1e-15)

    def test_elastic_branch(self):
        x = _params(ModelKind.PERFECT_PLASTICITY)
        assert stress(1e-3, x, ModelKind.PERFECT_PLASTICITY) == pytest.approx(0.21, abs=1e-15)

    def test_plastic_branch(self):
        x = _params(ModelKind.PERFECT_PLASTICITY)
        assert stress(2e-3, x, ModelKind.PERFECT_PLASTICITY) == SIGMA_Y0_REF

    def test_zero_modulus_with_yield_stress_is_the_zero_line(self):
        """E = 0 never yields, whatever sigma_y0: zero stress at every strain,
        as for LE with E = 0."""
        eps = np.array([0.0, 1e-3, 2e-3, 1.0])
        got = stress(eps, ParameterVector(E=0.0, sigma_y0=0.25), ModelKind.PERFECT_PLASTICITY)
        np.testing.assert_array_equal(got, stress(eps, ParameterVector(E=0.0), ModelKind.LINEAR_ELASTIC))
        np.testing.assert_array_equal(got, 0.0)

    def test_zero_modulus_zero_yield(self):
        assert stress(1e-3, ParameterVector(E=0.0, sigma_y0=0.0), ModelKind.PERFECT_PLASTICITY) == 0.0


class TestLinearHardening:
    def test_continuity_at_yield(self):
        x = _params(ModelKind.LINEAR_HARDENING, H=50.0)
        assert stress(EY_REF, x, ModelKind.LINEAR_HARDENING) == pytest.approx(SIGMA_Y0_REF, abs=1e-15)

    def test_zero_hardening_is_perfectly_plastic(self):
        x = _params(ModelKind.LINEAR_HARDENING, H=0.0)
        assert stress(2e-3, x, ModelKind.LINEAR_HARDENING) == SIGMA_Y0_REF

    def test_reduced_slope_arithmetic(self):
        x = _params(ModelKind.LINEAR_HARDENING, H=50.0)
        expected = 0.25 + (50.0 * 210.0 / 260.0) * (2e-3 - 0.25 / 210.0)
        assert stress(2e-3, x, ModelKind.LINEAR_HARDENING) == pytest.approx(expected, rel=1e-14)

    def test_zero_moduli_give_the_zero_line(self):
        """E = H = 0, where the plastic slope H E / (H + E) is 0/0: E = 0
        never yields, so the response is the zero line of LE with E = 0."""
        eps = np.array([0.0, 1e-3, 2e-3, 1.0])
        for sy in (0.0, 0.25):
            got = stress(eps, ParameterVector(E=0.0, sigma_y0=sy, H=0.0), ModelKind.LINEAR_HARDENING)
            np.testing.assert_array_equal(got, stress(eps, ParameterVector(E=0.0), ModelKind.LINEAR_ELASTIC))
            np.testing.assert_array_equal(got, 0.0)

    def test_extreme_components_give_finite_stresses(self):
        """Every row of components 0, 5e-324, 1e-300, 1e-12, 1, 210, 1e12,
        1e300 and 1.7e308 has finite stresses on a 12-point grid. The slope
        H E / (H + E) overflowed to inf or NaN on 90 of these rows with
        E > 0, and 8 rows' stresses were NaN and 61 inf; at E = 210 and
        H = 1.7e308 the slope is E, and the rows are the elastic line."""
        components = (0.0, 5e-324, 1e-300, 1e-12, 1.0, 210.0, 1e12, 1e300, 1.7e308)
        rows = np.array(list(itertools.product(components, repeat=3)))
        strain = np.linspace(2.4e-4, 12 * 2.4e-4, 12)
        got = stress_rows(ModelKind.LINEAR_HARDENING, strain, rows)
        assert np.all(np.isfinite(got))
        stiff = (rows[:, 0] == 210.0) & (rows[:, 2] == 1.7e308)
        assert stiff.sum() == 9
        np.testing.assert_allclose(got[stiff], np.tile(210.0 * strain, (9, 1)), rtol=1e-15, atol=0.0)


class TestNonlinearHardening:
    def test_zero_hardening_is_perfectly_plastic(self):
        x = _params(ModelKind.NONLINEAR_HARDENING, H=0.0, n=0.5)
        assert stress_lenh(2e-3, x) == pytest.approx(SIGMA_Y0_REF, abs=1e-12)

    def test_unit_exponent_matches_linear_hardening(self):
        xh = _params(ModelKind.NONLINEAR_HARDENING, H=50.0, n=1.0)
        xl = _params(ModelKind.LINEAR_HARDENING, H=50.0)
        for eps in (1.5e-3, 2e-3, 5e-3, 1e-2):
            want = stress(eps, xl, ModelKind.LINEAR_HARDENING)
            assert stress_lenh(eps, xh) == pytest.approx(want, rel=1e-12)

    def test_matches_bisection_oracle(self):
        """Reference instance agrees with an independent bisection to 1e-14."""
        x = _params(ModelKind.NONLINEAR_HARDENING, H=2.0, n=0.5)
        expected = _bisect_oracle(2e-3, 210.0, 0.25, 2.0, 0.5)
        assert abs(stress_lenh(2e-3, x) - expected) < 1e-14

    def test_matches_bisection_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            E = rng.uniform(50.0, 300.0)
            sy = rng.uniform(0.05, 0.6)
            H = rng.uniform(0.1, 80.0)
            n = rng.uniform(0.2, 1.8)
            eps = sy / E + rng.uniform(1e-5, 8e-3)
            x = ParameterVector(E=E, sigma_y0=sy, H=H, n=n)
            got = stress_lenh(eps, x)
            assert abs(got - _bisect_oracle(eps, E, sy, H, n)) < 1e-13 * max(1.0, got)

    def test_back_substitution(self):
        """The returned stress satisfies its defining equation to 1e-10.

        Instances are drawn by the plastic offset t = strain - sigma/E
        rather than by the strain: with n < 1 the hardening slope diverges
        as t -> 0 and the residual evaluated at the exact root already
        exceeds the bound, so uniform-in-strain draws would probe
        floating-point conditioning instead of the solver.
        """
        rng = np.random.default_rng(11)
        for _ in range(300):
            E = rng.uniform(50.0, 300.0)
            sy = rng.uniform(0.05, 0.6)
            H = rng.uniform(0.0, 40.0)
            n = rng.uniform(0.25, 1.8)
            t = rng.uniform(3e-4, 8e-3)
            eps = sy / E + t + (H / E) * t**n
            sigma = stress_lenh(eps, ParameterVector(E=E, sigma_y0=sy, H=H, n=n))
            rebuilt = sy + H * (eps - sigma / E) ** n
            assert abs(rebuilt - sigma) < 1e-10

    def test_root_stays_in_bracket(self):
        x = _params(ModelKind.NONLINEAR_HARDENING, H=2.0, n=0.5)
        eps = np.linspace(EY_REF * 1.0001, 1e-2, 50)
        sigma = stress_lenh(eps, x)
        assert np.all(sigma > SIGMA_Y0_REF)
        assert np.all(sigma <= 210.0 * eps)

    def test_zero_modulus_rejected(self):
        with pytest.raises(DomainError):
            stress_lenh(1e-3, ParameterVector(E=0.0, sigma_y0=0.25, H=2.0, n=0.5))

    def test_zero_exponent_rejected(self):
        with pytest.raises(DomainError):
            stress_lenh(1e-3, ParameterVector(E=210.0, sigma_y0=0.25, H=2.0, n=0.0))


    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="long double is plain double on this platform",
    )
    @pytest.mark.parametrize("H_range, past_yield", [((1.0, 100.0), 0.2), ((0.05, 1.0), 10.0)])
    def test_small_exponent_matches_long_double_bisection(self, H_range, past_yield):
        """2,000 admissible states with n in [0.02, 0.3]: the plastic branch
        stays within a hair of the elastic line, where the residual of the
        implicit equation is too ill-conditioned to judge a double-precision
        root. The stress is finite and within 1e-14 relative of a bisection
        run in long double instead. Up to 20% past yield a bisection in
        double failed on some states; with soft hardening up to ten times
        past yield the strain is so steep in the stress excess that a
        Newton tolerance on the strain alone was out of reach."""
        rng = np.random.default_rng(17)
        m = 2000
        E = rng.uniform(50.0, 300.0, m)
        sy = rng.uniform(0.05, 0.6, m)
        H = rng.uniform(*H_range, m)
        n = rng.uniform(0.02, 0.3, m)
        eps = sy / E * (1.0 + rng.uniform(0.0, past_yield, m))
        values = np.column_stack([E, sy, H, n])
        kind = ModelKind.NONLINEAR_HARDENING
        got = np.array([stress_rows(kind, eps[i : i + 1], values[i : i + 1])[0, 0] for i in range(m)])
        assert np.all(np.isfinite(got))

        eps, E, sy, H, n = (np.asarray(c, dtype=np.longdouble) for c in (eps, E, sy, H, n))
        lo, hi = sy.copy(), E * eps
        for _ in range(128):
            mid = (lo + hi) / 2
            below = mid - sy - H * np.maximum(eps - mid / E, 0) ** n < 0
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        want = (lo + hi) / 2
        assert np.max(np.abs(got - want) / want) < 1e-14

    def test_infinite_slope_is_no_root(self):
        """At H = n = 1e-160 the slope in the stress excess is inf once
        t = H, and so was the convergence tolerance eps (4 strain + t
        slope): Newton stopped there with a reached strain of 1.0012
        against targets of 2.2e-3 to 3.8e-3, and the stress read 0.25.
        The row has no double root; it must raise NumericalError naming
        it, whether alone or in a batch with a regular row."""
        row = [210.0, 0.25, 1e-160, 1e-160]
        strains = np.array([2.2e-3, 3e-3, 3.8e-3])
        with pytest.raises(NumericalError, match=r"tolerance inf") as err:
            stress_lenh(strains, ParameterVector(*row))
        assert repr(np.array(row)) in str(err.value)
        regular = [210.0, 0.25, 2.0, 0.57]
        with pytest.raises(NumericalError) as err:
            stress_rows(ModelKind.NONLINEAR_HARDENING, strains, np.array([regular, row]))
        assert repr(np.array(row)) in str(err.value)
        alone = stress_rows(ModelKind.NONLINEAR_HARDENING, strains, np.array([regular]))
        assert np.all(np.isfinite(alone)) and np.all(alone > 0.25)

    def test_newton_stall_fails_loudly(self, monkeypatch):
        """An inversion to the plastic coordinate that has not converged
        raises NumericalError instead of returning a stress. Here Newton
        sees a slope 1000 times too steep and creeps onto the root."""
        path = models._plastic_path

        def steep(t, x, excess):
            sigma, strain, slope = path(t, x, excess)
            return sigma, strain, 1e3 * slope

        monkeypatch.setattr(models, "_plastic_path", steep)
        for n in (0.5, 1.5):
            with pytest.raises(NumericalError):
                stress_lenh(2e-3, _params(ModelKind.NONLINEAR_HARDENING, H=2.0, n=n))


class TestReductions:
    """Cross-model identities, pointwise to 1e-12."""

    STRAINS = np.array([0.0, 5e-4, EY_REF, 1.5e-3, 2e-3, 5e-3])

    def test_all_models_elastic_below_yield(self):
        le = stress(self.STRAINS, ParameterVector(E=E_REF), ModelKind.LINEAR_ELASTIC)
        below = self.STRAINS <= EY_REF
        for kind in PLASTIC_KINDS:
            full = stress(self.STRAINS, _params(kind, H=30.0, n=0.7), kind)
            np.testing.assert_allclose(full[below], le[below], rtol=1e-12, atol=0.0)

    def test_linear_hardening_reduces_to_perfect_plasticity(self):
        lh = stress(self.STRAINS, _params(ModelKind.LINEAR_HARDENING, H=0.0), ModelKind.LINEAR_HARDENING)
        pp = stress(self.STRAINS, _params(ModelKind.PERFECT_PLASTICITY), ModelKind.PERFECT_PLASTICITY)
        np.testing.assert_allclose(lh, pp, rtol=1e-12, atol=0.0)

    def test_nonlinear_reduces_to_linear_hardening(self):
        nh = stress(self.STRAINS, _params(ModelKind.NONLINEAR_HARDENING, H=50.0, n=1.0), ModelKind.NONLINEAR_HARDENING)
        lh = stress(self.STRAINS, _params(ModelKind.LINEAR_HARDENING, H=50.0), ModelKind.LINEAR_HARDENING)
        np.testing.assert_allclose(nh, lh, rtol=1e-12, atol=0.0)

    def test_nonlinear_reduces_to_perfect_plasticity(self):
        nh = stress(self.STRAINS, _params(ModelKind.NONLINEAR_HARDENING, H=0.0, n=0.5), ModelKind.NONLINEAR_HARDENING)
        pp = stress(self.STRAINS, _params(ModelKind.PERFECT_PLASTICITY), ModelKind.PERFECT_PLASTICITY)
        np.testing.assert_allclose(nh, pp, rtol=1e-12, atol=1e-12)


class TestContinuityAtYield:
    """The stress response is C0 across the yield strain.

    The stated probe (delta = 1e-10, tolerance 1e-8 * sigma_y0) is only
    meaningful when the elastic slope allows it: the elastic side alone
    moves E * delta, so stiff parameters need the sharp slope bound
    instead. Both are exercised, plus the limit itself.
    """

    def test_stated_tolerance_where_slope_permits(self):
        delta = 1e-10
        for kind in PLASTIC_KINDS:
            x = _params(kind, E=1.0, sigma_y0=0.25, H=0.4, n=0.5)
            ey = x.sigma_y0 / x.E
            gap = abs(stress(ey + delta, x, kind) - stress(ey - delta, x, kind))
            assert gap <= 1e-8 * x.sigma_y0

    def test_slope_bound_for_stiff_parameters(self):
        """The jump across the corner never exceeds the elastic slope."""
        delta = 1e-10
        for kind in PLASTIC_KINDS:
            x = _params(kind, H=2.0, n=0.5)
            ey = x.sigma_y0 / x.E
            gap = abs(stress(ey + delta, x, kind) - stress(ey - delta, x, kind))
            assert gap <= 2.0 * x.E * delta * (1.0 + 1e-9)

    def test_gap_vanishes_with_delta(self):
        for kind in PLASTIC_KINDS:
            x = _params(kind, H=2.0, n=0.5)
            ey = x.sigma_y0 / x.E
            gaps = [
                abs(stress(ey + d, x, kind) - stress(ey - d, x, kind))
                for d in (1e-6, 1e-8, 1e-10)
            ]
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] < 1e-7


@st.composite
def admissible(draw):
    E = draw(st.floats(1.0, 400.0))
    sy = draw(st.floats(0.01, 1.0))
    H = draw(st.floats(0.0, 100.0))
    n = draw(st.floats(0.2, 2.0))
    return E, sy, H, n


class TestMonotonicity:
    """Stress is non-decreasing in the strain for every admissible x."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(admissible())
    def test_nonlinear_hardening(self, params):
        E, sy, H, n = params
        x = ParameterVector(E=E, sigma_y0=sy, H=H, n=n)
        eps = np.linspace(0.0, sy / E + 1e-2, 200)
        sigma = stress(eps, x, ModelKind.NONLINEAR_HARDENING)
        assert np.all(np.diff(sigma) >= -1e-12 * max(1.0, sigma.max()))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(admissible())
    def test_closed_form_models(self, params):
        E, sy, H, _ = params
        grids = np.linspace(0.0, sy / max(E, 1e-12) + 1e-2, 200)
        for kind in (ModelKind.PERFECT_PLASTICITY, ModelKind.LINEAR_HARDENING):
            x = _params(kind, E=E, sigma_y0=sy, H=H)
            sigma = stress(grids, x, kind)
            assert np.all(np.diff(sigma) >= -1e-14)
