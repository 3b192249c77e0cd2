"""Tests for posterior assembly and the conjugate linear-elastic oracle.

The closed-form posterior is checked against scalar arithmetic, its
limits (flat prior, no data), its update properties (shift, strict
narrowing, batch equals sequential), and a grid-search oracle on the
assembled log-posterior. The assembled log-posterior, which calls the
likelihood kernels on raw arrays, is checked against the sum of the
prior and the ``ParameterVector``-taking likelihood functions, and its
batched form against one-row calls.
"""

from __future__ import annotations

import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    TruncatedNormalPrior,
    analytic_le_posterior,
    generate_double_noise,
    generate_single_noise,
    log_likelihood,
    stress,
)

PRIOR_MEAN = 150.0
PRIOR_STD = 50.0
NOISE_STD = 0.01
STRAIN_1 = 7.25e-4
STRESS_1 = 0.1576


def _reference_posterior():
    return analytic_le_posterior(PRIOR_MEAN, PRIOR_STD, [STRAIN_1], [STRESS_1], NOISE_STD)


class TestAnalyticPosterior:
    def test_scalar_arithmetic(self):
        """The closed form equals the formula written out by hand."""
        post = _reference_posterior()
        s2, p2 = NOISE_STD**2, PRIOR_STD**2
        denom = s2 + p2 * STRAIN_1**2
        assert post.mean == pytest.approx((s2 * PRIOR_MEAN + p2 * STRAIN_1 * STRESS_1) / denom,
                                          rel=1e-14)
        assert post.std == pytest.approx(math.sqrt(s2 * p2 / denom), rel=1e-14)

    def test_reference_scale(self):
        """The posterior scale for the reference measurement; it does not
        depend on the measured stress, so it reproduces sharply."""
        assert _reference_posterior().std == pytest.approx(13.2964, abs=1e-3)

    def test_reference_location(self):
        """The location for the reference measurement.

        The measured stress enters with gain d(mean)/d(stress) = 1281.8,
        and the stress itself is only known to four decimals, so the
        location is only pinned to gain times the half-quantum 5e-5.
        """
        assert _reference_posterior().mean == pytest.approx(212.6486, abs=1281.8 * 5e-5)

    def test_flat_prior_limit_is_least_squares(self):
        strains = np.array([2e-4, 5e-4, 9e-4, 1.3e-3])
        stresses = 207.0 * strains + np.array([0.004, -0.002, 0.009, -0.006])
        post = analytic_le_posterior(150.0, 1e9, strains, stresses, NOISE_STD)
        slope = float(strains @ stresses / (strains @ strains))
        assert post.mean == pytest.approx(slope, rel=1e-9)

    def test_no_data_returns_prior(self):
        post = analytic_le_posterior(400.0, 10.0, [], [], NOISE_STD)
        assert post.mean == 400.0
        assert post.std == 10.0

    def test_zero_strain_point_is_no_information(self):
        strains = np.array([STRAIN_1])
        stresses = np.array([STRESS_1])
        base = analytic_le_posterior(PRIOR_MEAN, PRIOR_STD, strains, stresses, NOISE_STD)
        padded = analytic_le_posterior(
            PRIOR_MEAN, PRIOR_STD, np.append(strains, 0.0), np.append(stresses, 0.123), NOISE_STD
        )
        assert padded.mean == base.mean
        assert padded.std == base.std

    def test_scale_strictly_decreases(self):
        rng = np.random.default_rng(5)
        strains = rng.uniform(1e-4, 2e-3, size=6)
        stresses = 210.0 * strains + 0.01 * rng.standard_normal(6)
        scales = []
        for k in range(1, 7):
            post = analytic_le_posterior(PRIOR_MEAN, PRIOR_STD, strains[:k], stresses[:k],
                                         NOISE_STD)
            scales.append(post.std)
        assert all(b < a for a, b in zip(scales, scales[1:]))

    def test_batch_equals_sequential(self):
        """Chaining posterior-into-prior gives the batch answer."""
        rng = np.random.default_rng(8)
        strains = rng.uniform(1e-4, 2e-3, size=5)
        stresses = 210.0 * strains + 0.01 * rng.standard_normal(5)
        batch = analytic_le_posterior(PRIOR_MEAN, PRIOR_STD, strains, stresses, NOISE_STD)
        mean, std = PRIOR_MEAN, PRIOR_STD
        for eps, sig in zip(strains, stresses):
            step = analytic_le_posterior(mean, std, [eps], [sig], NOISE_STD)
            mean, std = step.mean, step.std
        assert mean == pytest.approx(batch.mean, rel=1e-12)
        assert std == pytest.approx(batch.std, rel=1e-12)

    def test_truncation_warning_for_weak_posteriors(self):
        with pytest.warns(UserWarning, match="truncation"):
            analytic_le_posterior(10.0, 50.0, [], [], NOISE_STD)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((PRIOR_MEAN, 0.0, [STRAIN_1], [STRESS_1], NOISE_STD), "prior std must be > 0"),
            ((PRIOR_MEAN, PRIOR_STD, [STRAIN_1], [STRESS_1], 0.0), "stress std must be > 0"),
            ((math.nan, PRIOR_STD, [STRAIN_1], [STRESS_1], NOISE_STD), "prior mean must be a finite number, got nan"),
            ((PRIOR_MEAN, PRIOR_STD, [STRAIN_1], [math.inf], NOISE_STD), "stresses must be a finite number, got inf"),
        ],
        ids=["prior-std", "stress-std", "prior-mean", "measurement"],
    )
    def test_validation(self, args, message):
        with pytest.raises(ConfigurationError, match=message):
            analytic_le_posterior(*args)
        with pytest.raises(ConfigurationError):
            analytic_le_posterior(PRIOR_MEAN, PRIOR_STD, [1e-3, 2e-3], [0.2], NOISE_STD)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("200", PRIOR_STD, NOISE_STD), "prior mean must be a finite number, got '200'"),
            ((PRIOR_MEAN, True, NOISE_STD), "prior std must be a finite number, got True"),
            ((PRIOR_MEAN, PRIOR_STD, None), "stress std must be a finite number, got None"),
        ],
        ids=["string-mean", "bool-std", "null-noise"],
    )
    def test_library_refuses_what_a_config_refuses(self, args, message):
        """The scalars go through the reader of the config files: a string or
        null raised a bare TypeError and a bool was a std of 1.0."""
        prior_mean, prior_std, stress_std = args
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            analytic_le_posterior(prior_mean, prior_std, [STRAIN_1], [STRESS_1], stress_std)

    @pytest.mark.parametrize(
        "strains, stresses, message",
        [
            (["7.25e-4"], [True], "strains must be a finite number, got '7.25e-4'"),
            ([STRAIN_1], [True], "stresses must be a finite number, got True"),
            ([STRAIN_1], [None], "stresses must be a finite number, got None"),
            (np.array([True]), [STRESS_1], "strains must hold numbers, got an array of dtype bool"),
            ([STRAIN_1], np.array([STRESS_1], dtype=object), "stresses must hold numbers, got an array of dtype object"),
            ([[STRAIN_1]], [[STRESS_1]], f"strains must be at most 1-D, got [[{STRAIN_1!r}]]"),
        ],
        ids=["string-strain", "bool-stress", "null-stress", "bool-array", "object-array", "nested"],
    )
    def test_library_refuses_what_a_config_refuses_in_the_measurements(self, strains, stresses, message):
        """The measurements are read as ``MeasurementSet`` reads them: a list
        entry by entry, an array by its dtype, at most 1-D.
        ``(["7.25e-4"], [True])`` returned a posterior."""
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            analytic_le_posterior(PRIOR_MEAN, PRIOR_STD, strains, stresses, NOISE_STD)

    def test_numpy_scalars_construct(self):
        post = analytic_le_posterior(
            np.float32(PRIOR_MEAN), np.int64(PRIOR_STD), [STRAIN_1], [STRESS_1], np.float64(NOISE_STD)
        )
        expected = analytic_le_posterior(PRIOR_MEAN, PRIOR_STD, [STRAIN_1], [STRESS_1], NOISE_STD)
        assert (post.mean, post.std) == (expected.mean, expected.std)


def _prior_le() -> TruncatedNormalPrior:
    return TruncatedNormalPrior(mean=[PRIOR_MEAN], covariance=[[PRIOR_STD**2]])


def _single_point_set() -> MeasurementSet:
    return MeasurementSet(
        strains=[STRAIN_1], stresses=[STRESS_1], noise=NoiseSpec(stress_std=NOISE_STD)
    )


class TestLogPosterior:
    def test_off_support_is_log_zero(self):
        target = LogPosterior(ModelKind.LINEAR_ELASTIC, _prior_le(), _single_point_set())
        assert target(np.array([-1.0])) == -np.inf
        assert target(np.array([np.nan])) == -np.inf

    def test_grid_argmax_matches_analytic_mean(self):
        """Brute-force maximization lands on the conjugate location."""
        target = LogPosterior(ModelKind.LINEAR_ELASTIC, _prior_le(), _single_point_set())
        grid = np.arange(100.0, 300.0, 0.01)
        values = np.array([target(np.array([g])) for g in grid])
        top = grid[int(np.argmax(values))]
        assert abs(top - _reference_posterior().mean) <= 0.01

    def test_no_data_equals_prior(self):
        prior = _prior_le()
        target = LogPosterior(ModelKind.LINEAR_ELASTIC, prior)
        for value in (0.0, 150.0, 212.6486):
            assert target(np.array([value])) == prior.log_density([value])

    def test_value_is_prior_plus_likelihood(self):
        prior = _prior_le()
        mset = _single_point_set()
        target = LogPosterior(ModelKind.LINEAR_ELASTIC, prior, mset)
        x = np.array([205.0])
        want = prior.log_density(x) + log_likelihood(
            ParameterVector(E=205.0), ModelKind.LINEAR_ELASTIC, mset
        )
        assert target(x) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("regimes", ["stress-only", "stress-and-strain", "mixed"])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_pooled_sets_sum(self, kind, regimes):
        """Several specimens pool by adding their log-likelihoods: the
        pooled target, which scores the sets that share a noise spec as one
        array of points, equals the prior plus the one-set likelihoods.
        The mixed pool holds two noise specs of each regime."""
        x = ParameterVector.from_array(kind, TRUTHS[kind])
        grid = np.linspace(2.4e-4, 2.88e-3, 8)
        stds = (NOISE_STD, NOISE_STD, 0.02)
        single = [generate_single_noise(x, kind, grid, std, seed=s) for s, std in enumerate(stds)]
        double = [generate_double_noise(x, kind, grid, std, 1e-4, seed=3 + s) for s, std in enumerate(stds)]
        sets = {"stress-only": single[:2], "stress-and-strain": double[:2], "mixed": single + double}[regimes]
        prior = _case_target(kind, "prior-only").prior
        scales = np.array([[1.0, 1.0, 1.0, 1.0], [0.98, 1.04, 0.9, 1.05], [1.02, 0.97, 1.1, 0.95]])
        rows = np.array(TRUTHS[kind]) * scales[:, : kind.dimension]
        got = LogPosterior(kind, prior, sets).log_density(rows)
        for row, value in zip(rows, got):
            parts = sum(log_likelihood(ParameterVector.from_array(kind, row), kind, s) for s in sets)
            assert value == pytest.approx(prior.log_density(row) + parts, rel=1e-14, abs=0.0)

    def test_pooled_mixed_regimes(self):
        """Stress-only and both-noise specimens can share one posterior."""
        x_true = ParameterVector(E=210.0)
        grid = np.linspace(2e-4, 2e-3, 6)
        single = generate_single_noise(x_true, ModelKind.LINEAR_ELASTIC, grid, NOISE_STD, seed=0)
        double = generate_double_noise(
            x_true, ModelKind.LINEAR_ELASTIC, grid, NOISE_STD, 1e-4, seed=1
        )
        target = LogPosterior(ModelKind.LINEAR_ELASTIC, _prior_le(), [single, double])
        assert np.isfinite(target(np.array([210.0])))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ConfigurationError, match="prior-only"):
            LogPosterior(ModelKind.LINEAR_ELASTIC, _prior_le(), [])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            LogPosterior(ModelKind.PERFECT_PLASTICITY, _prior_le(), _single_point_set())

    @pytest.mark.parametrize("case", ["le-stress-only", "lenh-prior-only", "lenh-stress-only-pool"])
    def test_quadrature_misuse_rejected(self, case):
        """A quadrature is rejected by every target without an LE-NH
        stress-and-strain set."""
        lenh = ModelKind.NONLINEAR_HARDENING
        x = ParameterVector.from_array(lenh, TRUTHS[lenh])
        grid = np.linspace(5e-4, 4e-3, 6)
        kind, data = {
            "le-stress-only": (ModelKind.LINEAR_ELASTIC, _single_point_set()),
            "lenh-prior-only": (lenh, None),
            "lenh-stress-only-pool": (
                lenh, [generate_single_noise(x, lenh, grid, NOISE_STD, seed=s) for s in (0, 1)]
            ),
        }[case]
        prior = _case_target(kind, "prior-only").prior
        with pytest.raises(ConfigurationError, match="quadrature settings only apply"):
            LogPosterior(kind, prior, data, QuadratureSpec())

    def test_implicit_double_gets_default_quadrature(self):
        x_true = ParameterVector(E=210.0, sigma_y0=0.25, H=2.0, n=0.5)
        grid = np.linspace(5e-4, 4e-3, 6)
        mset = generate_double_noise(
            x_true, ModelKind.NONLINEAR_HARDENING, grid, NOISE_STD, 1e-4, seed=3
        )
        prior = TruncatedNormalPrior(
            mean=[200.0, 0.29, 2.5, 0.57],
            covariance=np.diag([2500.0, 2.7778e-4, 0.1111, 0.0025]),
        )
        bare = LogPosterior(ModelKind.NONLINEAR_HARDENING, prior, mset)
        explicit = LogPosterior(ModelKind.NONLINEAR_HARDENING, prior, mset, QuadratureSpec())
        coarse = LogPosterior(ModelKind.NONLINEAR_HARDENING, prior, mset, QuadratureSpec(panels=8))
        rows = x_true.to_array() * np.array([[1.0, 1.0, 1.0, 1.0], [0.98, 1.04, 0.9, 1.05], [1.02, 0.97, 1.1, 0.95]])
        assert np.array_equal(bare.log_density(rows), explicit.log_density(rows))
        assert not np.array_equal(bare.log_density(rows), coarse.log_density(rows))
        # In a pool, the quadrature reaches the stress-and-strain group.
        pool = [generate_single_noise(x_true, ModelKind.NONLINEAR_HARDENING, grid, NOISE_STD, seed=4), mset]
        mixed = LogPosterior(ModelKind.NONLINEAR_HARDENING, prior, pool)
        mixed_coarse = LogPosterior(ModelKind.NONLINEAR_HARDENING, prior, pool, QuadratureSpec(panels=8))
        assert not np.array_equal(mixed.log_density(rows), mixed_coarse.log_density(rows))

    def test_grid_argmax_perfect_plasticity(self):
        """2-D grid maximization recovers exact-data truth for LE-PP."""
        x_true = ParameterVector(E=210.0, sigma_y0=0.25)
        grid = np.linspace(2.4e-4, 2.88e-3, 12)
        exact = stress(grid, x_true, ModelKind.PERFECT_PLASTICITY)
        mset = MeasurementSet(strains=grid, stresses=exact, noise=NoiseSpec(stress_std=NOISE_STD))
        prior = TruncatedNormalPrior(
            mean=[200.0, 0.29], covariance=np.diag([2500.0, 2.7778e-4])
        )
        target = LogPosterior(ModelKind.PERFECT_PLASTICITY, prior, mset)
        from scipy.optimize import minimize

        mode = minimize(
            lambda v: -target(v), [210.0, 0.25], method="Nelder-Mead",
            options={"xatol": 1e-8, "fatol": 1e-12},
        ).x
        es = np.linspace(200.0, 220.0, 41)
        sys_ = np.linspace(0.24, 0.26, 41)
        best, best_val = None, -np.inf
        for e in es:
            for sy in sys_:
                v = target(np.array([e, sy]))
                if v > best_val:
                    best, best_val = (e, sy), v
        # Grid search lands within one cell of the continuous optimum.
        assert abs(best[0] - mode[0]) <= 0.5
        assert abs(best[1] - mode[1]) <= 5e-4
        # The prior pulls the mode off the truth, but only slightly.
        assert abs(mode[0] - 210.0) <= 2.0
        assert abs(mode[1] - 0.25) <= 3e-3


TRUTHS = {
    ModelKind.LINEAR_ELASTIC: [210.0],
    ModelKind.PERFECT_PLASTICITY: [210.0, 0.25],
    ModelKind.LINEAR_HARDENING: [210.0, 0.25, 50.0],
    ModelKind.NONLINEAR_HARDENING: [210.0, 0.25, 2.0, 0.57],
}
DATA_CASES = ("prior-only", "single", "double", "pooled")


@functools.lru_cache(maxsize=None)
def _case_target(kind: ModelKind, case: str) -> LogPosterior:
    """A correlated prior plus no data, one set of either regime, or three
    pooled sets (one stress-only, two stress-and-strain)."""
    dim = kind.dimension
    std = np.array([50.0, 0.0166667, 10.0, 0.05])[:dim]
    cov = np.diag(std**2) + 0.3 * np.outer(std, std) * (1.0 - np.eye(dim))
    prior = TruncatedNormalPrior([200.0, 0.29, 60.0, 0.57][:dim], cov)
    x = ParameterVector.from_array(kind, TRUTHS[kind])
    grid = np.linspace(2.4e-4, 2.88e-3, 12)
    single = generate_single_noise(x, kind, grid, NOISE_STD, seed=1)
    double = [generate_double_noise(x, kind, grid, NOISE_STD, 1e-4, seed=s) for s in (2, 3)]
    data = {"prior-only": None, "single": single, "double": double[0], "pooled": [single, *double]}
    return LogPosterior(kind, prior, data[case])


def _outcome(fn, values):
    try:
        return fn(values)
    except (DomainError, NumericalError) as err:
        return type(err)


def _assert_kernels_agree(kind: ModelKind, case: str, values) -> None:
    """LogPosterior equals prior.log_density plus the ParameterVector-taking
    likelihoods, to 1e-12 relative, or gives the same -inf, NaN or
    exception."""
    target = _case_target(kind, case)
    values = np.asarray(values, dtype=float)

    def assembled(v):
        lp = target.prior.log_density(v)
        if lp == -math.inf:
            return lp
        x = ParameterVector.from_array(kind, v)
        for mset in target.data:
            lp += log_likelihood(x, kind, mset)
        return lp

    got, want = _outcome(target, values), _outcome(assembled, values)
    if isinstance(want, float) and math.isfinite(want):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    elif isinstance(want, float) and math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want


# Upper ends of the drawn components (E, sigma_y0, H, n).
COMPONENT_RANGES = (400.0, 1.0, 100.0, 3.0)


class TestKernelsAgreeWithWrappers:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(list(ModelKind)), st.sampled_from(DATA_CASES), st.data())
    def test_random_points(self, kind, case, data):
        values = [data.draw(st.floats(0.0, hi)) for hi in COMPONENT_RANGES[: kind.dimension]]
        _assert_kernels_agree(kind, case, values)

    @pytest.mark.parametrize("case", DATA_CASES)
    @pytest.mark.parametrize(
        "kind, component", [(kind, i) for kind in ModelKind for i in range(kind.dimension)]
    )
    @pytest.mark.parametrize("edge", [-1e-300, -1.0, math.nan, math.inf, 0.0])
    def test_support_edges(self, kind, case, component, edge):
        """A negative or non-finite component (-inf), and any component at
        zero, E = 0 included (the zero line for the affine models,
        DomainError for LE-NH)."""
        values = list(TRUTHS[kind])
        values[component] = edge
        _assert_kernels_agree(kind, case, values)


# Components that put a row off the support, or at its edge.
EDGE_COMPONENTS = (-1.0, -1e-300, -math.inf, math.inf, math.nan, 0.0)


@st.composite
def parameter_rows(draw, kind: ModelKind):
    """A stack of 1 to 6 parameter rows; each component is admissible or,
    now and then, an off-support or edge value."""
    component = [
        st.one_of(st.floats(0.0, hi), st.sampled_from(EDGE_COMPONENTS))
        if draw(st.booleans())
        else st.floats(0.0, hi)
        for hi in COMPONENT_RANGES[: kind.dimension]
    ]
    n_rows = draw(st.integers(1, 6))
    return np.array([[draw(c) for c in component] for _ in range(n_rows)])


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


class TestBatchedLogDensity:
    """``log_density`` on a stack of rows against one call per row."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(list(ModelKind)), st.sampled_from(DATA_CASES), st.data())
    def test_rows_equal_one_row_calls(self, kind, case, data):
        """Each row of a batch has the bits of its own one-row call and of
        the scalar call; a batch with a row that raises raises one of the
        rows' exceptions."""
        target = _case_target(kind, case)
        points = data.draw(parameter_rows(kind))
        outcomes = [_outcome(target, row) for row in points]
        errors = tuple({o for o in outcomes if isinstance(o, type)})
        if errors:
            with pytest.raises(errors):
                target.log_density(points)
            return
        batch = target.log_density(points)
        assert batch.shape == (len(points),)
        ones = [target.log_density(row[None])[0] for row in points]
        assert np.array_equal(_bits(batch), _bits(ones))
        assert np.array_equal(_bits(batch), _bits(outcomes))

    @pytest.mark.parametrize("case", DATA_CASES)
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_batch_around_the_truth(self, kind, case):
        """Eight admissible rows near the generating values, where every
        likelihood term is finite and the LE-NH quadrature has active
        windows; the prior alone is checked against its vector form."""
        target = _case_target(kind, case)
        rng = np.random.default_rng(7)
        points = np.abs(np.array(TRUTHS[kind]) * (1.0 + 0.02 * rng.standard_normal((8, kind.dimension))))
        batch = target.log_density(points)
        assert np.all(np.isfinite(batch))
        for i, row in enumerate(points):
            assert _bits(batch[i]) == _bits(target.log_density(points[i : i + 1])[0])
            assert batch[i] == target(row)
        prior = target.prior.log_density(points)
        assert np.array_equal(prior, [target.prior.log_density(row) for row in points])

    def test_rejects_a_single_vector(self):
        target = _case_target(ModelKind.PERFECT_PLASTICITY, "single")
        with pytest.raises(ConfigurationError):
            target.log_density(np.array(TRUTHS[ModelKind.PERFECT_PLASTICITY]))
        with pytest.raises(ConfigurationError):
            target.log_density(np.ones((2, 3)))
