"""Tests for the truncated normal prior."""

from __future__ import annotations

import re

import numpy as np
import pytest

from plastinfer import ConfigurationError, TruncatedNormalPrior


def _prior_2d() -> TruncatedNormalPrior:
    return TruncatedNormalPrior(mean=[200.0, 0.29], covariance=np.diag([2500.0, 2.7778e-4]))


class TestLogDensity:
    def test_vanishes_at_the_mean(self):
        assert _prior_2d().log_density([200.0, 0.29]) == 0.0

    def test_negative_component_is_off_support(self):
        prior = _prior_2d()
        assert prior.log_density([-1.0, 0.29]) == -np.inf
        assert prior.log_density([200.0, -1e-12]) == -np.inf

    def test_boundary_is_on_support(self):
        assert np.isfinite(_prior_2d().log_density([0.0, 0.0]))

    def test_scalar_arithmetic(self):
        """One-dimensional quadratic form, evaluated by hand."""
        prior = TruncatedNormalPrior(mean=[150.0], covariance=[[50.0**2]])
        expected = -0.5 * ((212.6486 - 150.0) / 50.0) ** 2
        assert prior.log_density([212.6486]) == pytest.approx(expected, rel=1e-12)

    def test_correlated_quadratic_form(self):
        """Full-matrix form agrees with an explicit inverse."""
        cov = np.array([[4.0, 1.2], [1.2, 2.0]])
        prior = TruncatedNormalPrior(mean=[5.0, 3.0], covariance=cov)
        d = np.array([1.3, -0.4])
        expected = -0.5 * d @ np.linalg.inv(cov) @ d
        assert prior.log_density([5.0, 3.0] + d) == pytest.approx(expected, rel=1e-12)

    def test_symmetry_about_the_mean(self):
        prior = _prior_2d()
        d = np.array([30.0, 0.01])
        assert prior.log_density(prior.mean + d) == pytest.approx(
            prior.log_density(prior.mean - d), rel=1e-14
        )

    def test_monotone_decay_along_rays(self):
        prior = _prior_2d()
        rng = np.random.default_rng(0)
        for _ in range(50):
            direction = rng.standard_normal(2)
            steps = np.linspace(0.0, 1.0, 8)
            values = []
            for s in steps:
                point = prior.mean + s * direction * [40.0, 0.015]
                if np.all(point >= 0.0):
                    values.append(prior.log_density(point))
            assert np.all(np.diff(values) <= 1e-12)

    def test_non_finite_input_off_support(self):
        prior = _prior_2d()
        assert prior.log_density([np.nan, 0.29]) == -np.inf
        assert prior.log_density([np.inf, 0.29]) == -np.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            _prior_2d().log_density([200.0])


class TestConstruction:
    def test_singular_covariance_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            TruncatedNormalPrior(mean=[1.0, 2.0], covariance=[[1.0, 1.0], [1.0, 1.0]])

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ConfigurationError):
            TruncatedNormalPrior(mean=[1.0, 2.0], covariance=[[1.0, 0.5], [0.0, 1.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            TruncatedNormalPrior(mean=[1.0, 2.0], covariance=[[1.0]])

    def test_matrix_mean_rejected(self):
        with pytest.raises(ConfigurationError, match=r"prior mean must be at most 1-D, got \[\[1.0\]\]"):
            TruncatedNormalPrior(mean=[[1.0]], covariance=[[1.0]])

    @pytest.mark.parametrize(
        "mean, covariance, message",
        [
            ([True], [[1.0]], "prior mean must be a finite number, got True"),
            (["200"], [[1.0]], "prior mean must be a finite number, got '200'"),
            ([None], [[1.0]], "prior mean must be a finite number, got None"),
            ([200.0], [[True]], "prior covariance must be a finite number, got True"),
            ([200.0], [["2500"]], "prior covariance must be a finite number, got '2500'"),
            ([200.0], [[None]], "prior covariance must be a finite number, got None"),
            ([200.0], [[[2500.0]]], "prior covariance must be at most 2-D, got [[[2500.0]]]"),
        ],
    )
    def test_library_refuses_what_a_config_refuses(self, mean, covariance, message):
        """The moments go through the reader of the config files: a bool was
        a number, a numeric string was parsed, null was a NaN and a
        covariance nested too deep failed on its shape alone."""
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            TruncatedNormalPrior(mean=mean, covariance=covariance)

    def test_array_likes_and_numpy_scalars_construct(self):
        for mean, covariance in (
            (np.array([200.0, 0.29]), np.diag([2500.0, 1e-4])),
            ((200.0, np.float32(0.29)), ((2500.0, 0.0), (0.0, np.float64(1e-4)))),
            ([np.int64(200), 0.29], [[np.float32(2500.0), 0], [0, 1e-4]]),
        ):
            prior = TruncatedNormalPrior(mean, covariance)
            assert prior.mean.dtype == float and prior.covariance.shape == (2, 2)
        one = TruncatedNormalPrior(np.float64(200.0), 2500)
        assert one.mean.tolist() == [200.0] and one.covariance.tolist() == [[2500.0]]

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError):
            TruncatedNormalPrior(mean=[np.inf], covariance=[[1.0]])

    def test_dimension_property(self):
        assert _prior_2d().dimension == 2
