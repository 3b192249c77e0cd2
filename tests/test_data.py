"""Tests for noise specifications, synthetic data generation and file I/O.

The generators are checked against distributional oracles (Gaussian tail
bounds, CLT means, sample covariance and kurtosis), seeded determinism is
checked bit for bit, and the CSV round-trip is checked losslessly.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from scipy.stats import kurtosis

from plastinfer import (
    ConfigurationError,
    MeasurementSet,
    ModelKind,
    NoiseSpec,
    NumericalError,
    ParameterVector,
    SpecimenPopulation,
    draw_specimens,
    generate_double_noise,
    generate_single_noise,
    read_measurements,
    write_measurements,
)
from plastinfer.data import _read_table, _write_object, _write_table

X_LE = ParameterVector(E=210.0)
X_LEPP = ParameterVector(E=210.0, sigma_y0=0.25)
GRID_12 = np.linspace(2.4e-4, 12 * 2.4e-4, 12)


class TestNoiseSpec:
    def test_zero_stds_tolerated(self):
        """Exact data generation is allowed; likelihoods reject it later."""
        spec = NoiseSpec(stress_std=0.0, strain_std=0.0)
        assert spec.double

    def test_single_regime_flag(self):
        assert not NoiseSpec(stress_std=0.01).double
        assert NoiseSpec(stress_std=0.01, strain_std=1e-4).double

    def test_negative_std_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(stress_std=-0.01)
        with pytest.raises(ConfigurationError):
            NoiseSpec(stress_std=0.01, strain_std=-1e-4)

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(stress_std=0.01, strain_std=1e-4, strain_limit=0.0)

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("stress_std", True), ("stress_std", "0.01"), ("stress_std", None), ("strain_std", "1e-4"),
            ("strain_std", True), ("strain_limit", "0.01"), ("strain_limit", True), ("strain_limit", None),
        ],
    )
    def test_library_refuses_what_a_config_refuses(self, key, bad):
        """Each std and the limit go through the reader of the config files:
        ``stress_std=True`` was a std of 1.0 and ``strain_limit=True`` a
        limit of 1, and a string or null raised a TypeError."""
        settings = {"stress_std": 0.01, "strain_std": 1e-4, key: bad}
        with pytest.raises(ConfigurationError, match=f"^{key} must be"):
            NoiseSpec(**settings)

    def test_numpy_scalars_and_an_unbounded_limit_construct(self):
        spec = NoiseSpec(np.float32(0.5), np.int64(0), np.float32(0.25))
        assert (spec.stress_std, spec.strain_std, spec.strain_limit) == (0.5, 0.0, 0.25)
        assert type(spec.stress_std) is float and type(spec.strain_limit) is float
        for limit in (math.inf, np.inf, np.float64("inf")):
            assert NoiseSpec(0.01, 1e-4, limit).strain_limit == math.inf
        with pytest.raises(ConfigurationError, match="strain_limit must be a finite number, got -inf"):
            NoiseSpec(0.01, 1e-4, -math.inf)


class TestMeasurementSet:
    def test_strictly_increasing_required(self):
        with pytest.raises(ConfigurationError):
            MeasurementSet(
                strains=np.array([1e-3, 1e-3]),
                stresses=np.array([0.2, 0.2]),
                noise=NoiseSpec(stress_std=0.01),
            )

    def test_at_least_one_point(self):
        with pytest.raises(ConfigurationError, match="k >= 1"):
            MeasurementSet(
                strains=np.array([]), stresses=np.array([]), noise=NoiseSpec(stress_std=0.01)
            )

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            MeasurementSet(
                strains=np.array([1e-3]),
                stresses=np.array([0.2, 0.3]),
                noise=NoiseSpec(stress_std=0.01),
            )

    @pytest.mark.parametrize(
        "strains, stresses, message",
        [
            ([1e-3], [math.nan], "stresses must be a finite number, got nan"),
            ([math.inf], [0.2], "strains must be a finite number, got inf"),
            ([1e-3, 2e-3], [0.2, -math.inf], "stresses must be a finite number, got -inf"),
        ],
        ids=["nan-stress", "inf-strain", "inf-stress"],
    )
    def test_non_finite_measurement_rejected(self, strains, stresses, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            MeasurementSet(strains=strains, stresses=stresses, noise=NoiseSpec(stress_std=0.01))

    @pytest.mark.parametrize(
        "strains, stresses, message",
        [
            ([True, 2e-3], [0.2, 0.4], "strains must be a finite number, got True"),
            (["1e-3"], [0.2], "strains must be a finite number, got '1e-3'"),
            ([1e-3], [None], "stresses must be a finite number, got None"),
            ([[1e-3], [2e-3]], [0.2, 0.4], "strains must be at most 1-D, got [[0.001], [0.002]]"),
            ([1e-3, 2e-3], [[0.2, 0.4]], "stresses must be at most 1-D, got [[0.2, 0.4]]"),
        ],
        ids=["bool", "string", "null", "nested-strains", "nested-stresses"],
    )
    def test_library_refuses_what_a_config_refuses(self, strains, stresses, message):
        """Both channels go through the reader of the config files: a bool
        was a strain of 1.0, a numeric string was parsed, null was a NaN
        ("measurements must be finite") and a nested list was flattened."""
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            MeasurementSet(strains=strains, stresses=stresses, noise=NoiseSpec(stress_std=0.01))

    def test_array_likes_and_numpy_scalars_construct(self):
        noise = NoiseSpec(stress_std=0.01)
        for strains, stresses in (
            (np.array([1e-3, 2e-3]), np.array([0.2, 0.4])),
            ((1e-3, 2e-3), (0.2, np.float32(0.4))),
            ([np.float64(1e-3), np.float64(2e-3)], [np.float64(0.2), 0.4]),
        ):
            mset = MeasurementSet(strains, stresses, noise)
            assert mset.strains.dtype == float and mset.stresses.dtype == float
            np.testing.assert_array_equal(mset.strains, [1e-3, 2e-3])
        assert len(MeasurementSet(np.float64(1e-3), 0.2, noise)) == 1

    def test_with_noise_reinterprets(self):
        mset = generate_single_noise(X_LE, ModelKind.LINEAR_ELASTIC, GRID_12, 0.01, seed=3)
        double = mset.with_noise(NoiseSpec(stress_std=0.01, strain_std=1e-4))
        assert double.noise.double
        np.testing.assert_array_equal(double.strains, mset.strains)


class TestSingleNoiseGenerator:
    def test_zero_noise_is_exact(self):
        mset = generate_single_noise(X_LE, ModelKind.LINEAR_ELASTIC, GRID_12, 0.0, seed=0)
        np.testing.assert_array_equal(mset.stresses, 210.0 * GRID_12)

    def test_strains_echoed_exactly(self):
        mset = generate_single_noise(X_LEPP, ModelKind.PERFECT_PLASTICITY, GRID_12, 0.01, seed=5)
        assert len(mset) == 12
        np.testing.assert_array_equal(mset.strains, GRID_12)

    def test_gaussian_tail_bound(self):
        """Almost every seed lands within four noise scales of the truth."""
        n_seeds = 4000
        hits = 0
        for seed in range(n_seeds):
            mset = generate_single_noise(X_LE, ModelKind.LINEAR_ELASTIC, [7.25e-4], 0.01, seed)
            hits += abs(mset.stresses[0] - 0.15225) <= 4 * 0.01
        # Expected miss rate 6.3e-5; five misses out of 4000 would be a
        # five-sigma surprise.
        assert hits >= n_seeds - 4

    def test_seeded_determinism(self):
        a = generate_single_noise(X_LE, ModelKind.LINEAR_ELASTIC, GRID_12, 0.01, seed=42)
        b = generate_single_noise(X_LE, ModelKind.LINEAR_ELASTIC, GRID_12, 0.01, seed=42)
        np.testing.assert_array_equal(a.stresses, b.stresses)
        c = generate_single_noise(X_LE, ModelKind.LINEAR_ELASTIC, GRID_12, 0.01, seed=43)
        assert np.any(c.stresses != a.stresses)

    def test_noise_is_normal(self):
        """Sample kurtosis of a million stress-noise draws is near 3."""
        grid = np.arange(1, 1_000_001, dtype=float) * 1e-9
        mset = generate_single_noise(X_LE, ModelKind.LINEAR_ELASTIC, grid, 0.01, seed=9)
        noise = mset.stresses - 210.0 * grid
        assert kurtosis(noise, fisher=False) == pytest.approx(3.0, abs=0.1)
        assert np.std(noise) == pytest.approx(0.01, rel=0.01)


class TestDoubleNoiseGenerator:
    def test_zero_strain_noise_matches_single(self):
        """With the strain channel silent the stress stream is shared."""
        single = generate_single_noise(X_LE, ModelKind.LINEAR_ELASTIC, GRID_12, 0.01, seed=17)
        double = generate_double_noise(X_LE, ModelKind.LINEAR_ELASTIC, GRID_12, 0.01, 0.0, seed=17)
        np.testing.assert_array_equal(double.strains, GRID_12)
        np.testing.assert_array_equal(double.stresses, single.stresses)

    def test_strain_mean_clt(self):
        """Strain noise has zero mean by the CLT at 1e5 draws."""
        s_eps = 1e-4
        grid = np.linspace(1e-3, 0.2, 200)
        offsets = []
        for seed in range(500):
            mset = generate_double_noise(
                X_LE, ModelKind.LINEAR_ELASTIC, grid, 0.01, s_eps, seed=seed
            )
            offsets.append(np.sum(mset.strains) - np.sum(grid))
        total_mean = np.sum(offsets) / (500 * 200)
        assert abs(total_mean) <= 5 * s_eps / math.sqrt(500 * 200)

    def test_noise_channels_uncorrelated(self):
        """The (stress, strain) noise covariance is diagonal."""
        grid = np.linspace(1e-3, 0.2, 200)  # spacing 1e-3 >> strain noise
        s_sig, s_eps = 0.01, 1e-5
        om_sig, om_eps = [], []
        for seed in range(500):
            mset = generate_double_noise(
                X_LE, ModelKind.LINEAR_ELASTIC, grid, s_sig, s_eps, seed=seed
            )
            om_eps.append(mset.strains - grid)
            om_sig.append(mset.stresses - 210.0 * grid)
        om_sig = np.concatenate(om_sig)
        om_eps = np.concatenate(om_eps)
        r = np.corrcoef(om_sig, om_eps)[0, 1]
        assert abs(r) < 0.02
        assert np.std(om_sig) == pytest.approx(s_sig, rel=0.02)
        assert np.std(om_eps) == pytest.approx(s_eps, rel=0.02)

    def test_sorted_by_measured_strain(self):
        mset = generate_double_noise(
            X_LE, ModelKind.LINEAR_ELASTIC, GRID_12, 0.01, 5e-4, seed=2
        )
        assert np.all(np.diff(mset.strains) > 0.0)

    def test_grid_beyond_tester_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_double_noise(
                X_LE, ModelKind.LINEAR_ELASTIC, GRID_12, 0.01, 1e-4, seed=0, strain_limit=1e-3
            )

    def test_seeded_determinism(self):
        a = generate_double_noise(X_LE, ModelKind.LINEAR_ELASTIC, GRID_12, 0.01, 1e-4, seed=8)
        b = generate_double_noise(X_LE, ModelKind.LINEAR_ELASTIC, GRID_12, 0.01, 1e-4, seed=8)
        np.testing.assert_array_equal(a.strains, b.strains)
        np.testing.assert_array_equal(a.stresses, b.stresses)


class TestStrainGrid:
    """Both generators check the true strain grid before drawing."""

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([], "empty strain grid"),
            ([-1e-3, 1e-3], "strain grid must be >= 0, got -0.001"),
            ([1e-3, np.inf], "strain grid must be a finite number, got inf"),
            ([2e-3, 1e-3], "strain grid must be strictly increasing"),
        ],
    )
    @pytest.mark.parametrize("double", [False, True], ids=["stress-only", "stress-and-strain"])
    def test_bad_grid_rejected(self, grid, message, double):
        with pytest.raises(ConfigurationError, match=message):
            if double:
                generate_double_noise(X_LE, ModelKind.LINEAR_ELASTIC, grid, 0.01, 1e-4, seed=0)
            else:
                generate_single_noise(X_LE, ModelKind.LINEAR_ELASTIC, grid, 0.01, seed=0)

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([True, 2e-3], "strain grid must be a finite number, got True"),
            ([1e-3, "2e-3"], "strain grid must be a finite number, got '2e-3'"),
            ([1e-3, None], "strain grid must be a finite number, got None"),
            ([[1e-3], [2e-3]], "strain grid must be at most 1-D, got [[0.001], [0.002]]"),
        ],
        ids=["bool", "string", "null", "nested"],
    )
    @pytest.mark.parametrize("double", [False, True], ids=["stress-only", "stress-and-strain"])
    def test_library_refuses_what_a_config_refuses(self, grid, message, double):
        """The grid goes through the reader of the config files: ``[True,
        2.0]`` was the grid [1, 2], a numeric string was parsed, null was a
        NaN and a nested list was flattened."""
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            if double:
                generate_double_noise(X_LE, ModelKind.LINEAR_ELASTIC, grid, 0.01, 1e-4, seed=0)
            else:
                generate_single_noise(X_LE, ModelKind.LINEAR_ELASTIC, grid, 0.01, seed=0)

    def test_array_likes_and_numpy_scalars_construct(self):
        for grid in (np.array([1e-3, 2e-3]), (1e-3, 2e-3), [np.float32(1e-3), np.float64(2e-3)], np.float64(1e-3)):
            mset = generate_single_noise(X_LE, ModelKind.LINEAR_ELASTIC, grid, 0.0, seed=0)
            np.testing.assert_array_equal(mset.strains, np.atleast_1d(np.asarray(grid, dtype=float)))


class TestDrawSpecimens:
    def test_zero_covariance_collapses(self):
        pop = SpecimenPopulation(
            kind=ModelKind.LINEAR_ELASTIC, mean=[210.0], covariance=[[0.0]], count=25
        )
        specimens = draw_specimens(pop, seed=1)
        assert len(specimens) == 25
        assert all(s.E == 210.0 for s in specimens)

    def test_sample_std_matches_population(self):
        pop = SpecimenPopulation(
            kind=ModelKind.LINEAR_ELASTIC, mean=[210.0], covariance=[[100.0]], count=100_000
        )
        values = np.array([s.E for s in draw_specimens(pop, seed=4)])
        assert np.std(values) == pytest.approx(10.0, abs=0.15)
        assert np.mean(values) == pytest.approx(210.0, abs=0.15)

    def test_correlated_population(self):
        """Sample correlation reproduces the population's off-diagonal."""
        cov = np.array([[100.0, 1e-4], [1e-4, 1.1111e-4]])
        pop = SpecimenPopulation(
            kind=ModelKind.PERFECT_PLASTICITY, mean=[210.0, 0.25], covariance=cov, count=100_000
        )
        rows = np.array([[s.E, s.sigma_y0] for s in draw_specimens(pop, seed=12)])
        expected = 1e-4 / math.sqrt(100.0 * 1.1111e-4)
        r = np.corrcoef(rows[:, 0], rows[:, 1])[0, 1]
        assert r == pytest.approx(expected, abs=0.013)

    def test_all_components_nonnegative(self):
        pop = SpecimenPopulation(
            kind=ModelKind.PERFECT_PLASTICITY,
            mean=[0.5, 0.02],
            covariance=np.diag([1.0, 1e-3]),
            count=2000,
        )
        rows = np.array([[s.E, s.sigma_y0] for s in draw_specimens(pop, seed=3)])
        assert np.all(rows >= 0.0)

    def test_hopeless_rejection_aborts(self):
        pop = SpecimenPopulation(
            kind=ModelKind.LINEAR_ELASTIC, mean=[-50.0], covariance=[[1.0]], count=10
        )
        with pytest.raises(ConfigurationError):
            draw_specimens(pop, seed=0)

    def test_rate_is_checked_only_while_specimens_are_missing(self):
        """Seed 172 accepts one of its first 1,008 draws, in the last batch
        of 16: a rate below 0.1%, but nothing is missing, so the draw stands."""
        pop = SpecimenPopulation(
            kind=ModelKind.LINEAR_ELASTIC, mean=[-3.1], covariance=[[1.0]], count=1
        )
        (specimen,) = draw_specimens(pop, seed=172)
        rows = np.random.default_rng(172).multivariate_normal(pop.mean, pop.covariance, size=1008)
        assert np.flatnonzero(rows[:, 0] >= 0.0).tolist() == [995]
        assert specimen.E == rows[995, 0]

    def test_determinism(self):
        pop = SpecimenPopulation(
            kind=ModelKind.LINEAR_ELASTIC, mean=[210.0], covariance=[[100.0]], count=50
        )
        a = [s.E for s in draw_specimens(pop, seed=6)]
        b = [s.E for s in draw_specimens(pop, seed=6)]
        assert a == b

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ConfigurationError):
            SpecimenPopulation(
                kind=ModelKind.PERFECT_PLASTICITY,
                mean=[210.0, 0.25],
                covariance=[[100.0, 1.0], [0.0, 1.0]],
                count=5,
            )

    @pytest.mark.parametrize(
        "mean, covariance, message",
        [
            ([math.nan], [[100.0]], "population mean must be a finite number, got nan"),
            ([210.0], [[math.inf]], "population covariance must be a finite number, got inf"),
        ],
        ids=["nan-mean", "inf-covariance"],
    )
    def test_non_finite_population_rejected(self, mean, covariance, message):
        """A nan mean was accepted, and ``draw_specimens`` then blamed the
        support ("rejection rate above 99.9%"); an infinite covariance was
        accepted with RuntimeWarnings from the symmetry test."""
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            SpecimenPopulation(kind=ModelKind.LINEAR_ELASTIC, mean=mean, covariance=covariance, count=3)

    @pytest.mark.parametrize(
        "mean, covariance, message",
        [
            ([True], [[100.0]], "population mean must be a finite number, got True"),
            (["210"], [[100.0]], "population mean must be a finite number, got '210'"),
            ([None], [[100.0]], "population mean must be a finite number, got None"),
            ([[210.0]], [[100.0]], "population mean must be at most 1-D, got [[210.0]]"),
            ([210.0], [[False]], "population covariance must be a finite number, got False"),
            ([210.0], [["100"]], "population covariance must be a finite number, got '100'"),
            ([210.0], [[None]], "population covariance must be a finite number, got None"),
            ([210.0], [[[100.0]]], "population covariance must be at most 2-D, got [[[100.0]]]"),
        ],
    )
    def test_library_refuses_what_a_config_refuses(self, mean, covariance, message):
        """The moments go through the reader of the config files: a bool was
        a number, a numeric string was parsed, null was a NaN and a nested
        mean was measured by its size alone."""
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            SpecimenPopulation(kind=ModelKind.LINEAR_ELASTIC, mean=mean, covariance=covariance, count=3)

    @pytest.mark.parametrize("count", [2.5, 3.0, True, "3", None])
    def test_library_count_refused_as_in_a_config(self, count):
        """A count went unchecked but for ``count < 1``: 2.5 and True
        constructed and failed or misread later in ``draw_specimens``."""
        with pytest.raises(ConfigurationError, match=f"^population count must be an integer, got {count!r}$"):
            SpecimenPopulation(kind=ModelKind.LINEAR_ELASTIC, mean=[210.0], covariance=[[100.0]], count=count)

    def test_array_likes_and_numpy_count_construct(self):
        pop = SpecimenPopulation(
            kind=ModelKind.PERFECT_PLASTICITY, mean=(210.0, 0.25), covariance=np.diag([100.0, 1e-4]), count=np.int64(3)
        )
        assert pop.count == 3 and type(pop.count) is int
        assert len(draw_specimens(pop, seed=1)) == 3

    @pytest.mark.parametrize(
        "mean, covariance, count, message",
        [
            ([210.0], [[100.0]], 5, "population mean has 1 entries, LE-PP needs 2"),
            ([210.0, 0.25], [[100.0]], 5, "covariance must be 2x2"),
            ([210.0, 0.25], [[1.0, 2.0], [2.0, 1.0]], 5, "positive semi-definite"),
            ([210.0, 0.25], [[100.0, 0.0], [0.0, 1e-4]], 0, "count must be >= 1"),
        ],
    )
    def test_bad_population_rejected(self, mean, covariance, count, message):
        with pytest.raises(ConfigurationError, match=message):
            SpecimenPopulation(
                kind=ModelKind.PERFECT_PLASTICITY, mean=mean, covariance=covariance, count=count
            )


class TestMeasurementFiles:
    def test_round_trip_single(self, tmp_path):
        mset = generate_single_noise(X_LEPP, ModelKind.PERFECT_PLASTICITY, GRID_12, 0.01, seed=1)
        path = tmp_path / "run.csv"
        write_measurements(mset, path)
        back = read_measurements(path)
        np.testing.assert_array_equal(back.strains, mset.strains)
        np.testing.assert_array_equal(back.stresses, mset.stresses)
        assert back.noise == mset.noise
        assert back.provenance == mset.provenance

    def test_round_trip_double_with_limit(self, tmp_path):
        mset = generate_double_noise(
            X_LE, ModelKind.LINEAR_ELASTIC, GRID_12, 0.01, 1e-4, seed=2, strain_limit=0.3
        )
        path = tmp_path / "run.csv"
        write_measurements(mset, path)
        back = read_measurements(path)
        assert back.noise.double
        assert back.noise.strain_limit == 0.3
        np.testing.assert_array_equal(back.stresses, mset.stresses)

    def test_unbounded_limit_round_trips(self, tmp_path):
        mset = generate_double_noise(X_LE, ModelKind.LINEAR_ELASTIC, GRID_12, 0.01, 1e-4, seed=2)
        write_measurements(mset, tmp_path / "run.csv")
        back = read_measurements(tmp_path / "run.csv")
        assert math.isinf(back.noise.strain_limit)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="empty"):
            read_measurements(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("strain,stress\n")
        with pytest.raises(ConfigurationError, match="k >= 1"):
            read_measurements(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("strain,stress\n1e-3,0.21\noops\n")
        with pytest.raises(ConfigurationError, match=":3"):
            read_measurements(path)

    @pytest.mark.parametrize(
        "header", ["stress,strain", "strain", "strain,stress,extra"], ids=["swapped", "short", "long"]
    )
    def test_bad_header_names_line(self, tmp_path, header):
        """A wrong header is reported at line 1, before any row is read,
        also when its column count differs from the rows'."""
        path = tmp_path / "header.csv"
        path.write_text(f"{header}\n1e-3,0.21\n")
        with pytest.raises(ConfigurationError, match=f":1: expected header 'strain,stress', got '{header}'"):
            read_measurements(path)

    def test_non_numeric_value_names_line(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("strain,stress\n1e-3,0.21\n2e-3,abc\n")
        with pytest.raises(ConfigurationError, match=":3: non-numeric value"):
            read_measurements(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line(self, tmp_path, cell):
        """A non-finite stress was refused only by ``MeasurementSet``, as
        "measurements must be finite", naming no line."""
        mset = generate_single_noise(X_LE, ModelKind.LINEAR_ELASTIC, GRID_12[:3], 0.01, seed=1)
        path = tmp_path / "nan.csv"
        write_measurements(mset, path)
        lines = path.read_text().splitlines()
        lines[2] = f"{float(mset.strains[1])!r},{cell}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match=f"nan.csv:3: non-finite value in '.*,{cell}'"):
            read_measurements(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        mset = generate_single_noise(X_LE, ModelKind.LINEAR_ELASTIC, GRID_12[:2], 0.01, seed=1)
        path = tmp_path / "blank.csv"
        write_measurements(mset, path)
        header, first, second = path.read_text().splitlines()
        path.write_text(f"{header}\n\n{first}\n  \n{second}\n\n")
        back = read_measurements(path)
        np.testing.assert_array_equal(back.strains, mset.strains)
        np.testing.assert_array_equal(back.stresses, mset.stresses)

    def test_table_reader_numbers_its_rows(self, tmp_path):
        """The one CSV reader yields the header line, then each data row with
        its line number, blank lines skipped; a row of the wrong width names
        its line."""
        path = tmp_path / "table.csv"
        path.write_text("a,b,log_density\n1,2,-1.5e308\n\n 3.5 ,-0,5e-324\n")
        header, *rows = _read_table(path, "table")
        assert header == "a,b,log_density"
        assert rows == [(2, [1.0, 2.0, -1.5e308]), (4, [3.5, -0.0, 5e-324])]
        assert math.copysign(1.0, rows[1][1][1]) == -1.0
        path.write_text("a,b\n1,2\n3,4,5\n")
        with pytest.raises(ConfigurationError, match=r"table\.csv:3: expected 2 comma-separated values"):
            list(_read_table(path, "table"))

    def test_non_increasing_strains_name_line(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("strain,stress\n2e-3,0.25\n1e-3,0.21\n")
        with pytest.raises(ConfigurationError, match=":3"):
            read_measurements(path)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "lonely.csv"
        path.write_text("strain,stress\n1e-3,0.21\n")
        with pytest.raises(ConfigurationError, match="sidecar"):
            read_measurements(path)

    @pytest.mark.parametrize(
        "noise, message",
        [
            ({"regime": "stress-only", "stress_std": "0.01"}, "stress_std must be a finite number, got '0.01'"),
            ({"regime": "stress-only", "stress_std": 0.01, "strain_std": 1e-4}, "regime 'stress-only' disagrees"),
        ],
    )
    def test_sidecar_noise_is_read_by_the_config_reader(self, tmp_path, noise, message):
        """The sidecar's noise block goes through the config's typed reader:
        a string std was parsed, and a strain std under a stress-only regime
        was dropped without notice."""
        path = tmp_path / "data.csv"
        path.write_text("strain,stress\n1e-3,0.21\n")
        path.with_suffix(".json").write_text(json.dumps({"noise": noise, "provenance": ""}))
        with pytest.raises(ConfigurationError, match=f"invalid sidecar .*{message}"):
            read_measurements(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_measurements(tmp_path / "nowhere.csv")

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda path: path.mkdir(), "cannot read measurement file"),
            (lambda path: path.write_bytes(b"strain,stress\n1e-3,\xff\xfe\n"), "malformed measurement file"),
        ],
        ids=["directory", "not-utf8"],
    )
    def test_unreadable_file_names_path(self, tmp_path, make, message):
        """A directory escaped as IsADirectoryError and undecodable bytes as
        UnicodeDecodeError."""
        path = tmp_path / "data.csv"
        make(path)
        with pytest.raises(ConfigurationError, match=message) as err:
            read_measurements(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_number_is_refused_before_the_file_is_opened(self, tmp_path, bad):
        """JSON has no infinity or NaN; a summary held them as Infinity and
        NaN, which no strict JSON reader takes."""
        path = tmp_path / "summary.json"
        with pytest.raises(NumericalError, match=f"cannot write {path}: covariance is not finite"):
            _write_object(path, {"model": "LE", "covariance": [[1.0, bad], [bad, 1.0]], "seed": 1})
        assert not path.exists()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_table_value_is_refused_before_the_file_is_opened(self, tmp_path, bad):
        """The table writer took any float and wrote inf or nan, which the
        table reader then refused."""
        path = tmp_path / "het.csv"
        with pytest.raises(NumericalError, match=re.escape(f"cannot write {path}: corr is not finite")):
            _write_table(path, ["replicate", "mean", "corr"], [(0, 210.0, 0.5), (1, 209.0, bad)])
        assert not path.exists()

    @pytest.mark.parametrize(
        "write",
        [lambda path: _write_object(path, {"mean": 1.0}), lambda path: _write_table(path, ["mean"], [(1.0,)])],
        ids=["object", "table"],
    )
    def test_unwritable_path_is_a_configuration_error(self, tmp_path, write):
        """A path in a missing directory escaped as FileNotFoundError."""
        path = tmp_path / "missing" / "out"
        with pytest.raises(ConfigurationError, match=re.escape(f"cannot write {path}: No such file or directory")):
            write(path)

    def test_finite_object_keeps_its_bytes(self, tmp_path):
        path = tmp_path / "summary.json"
        obj = {"mean": [210.0, 1e-300], "available": True, "limit": None, "names": ["E"]}
        _write_object(path, obj)
        assert path.read_text() == json.dumps(obj, indent=2) + "\n"
