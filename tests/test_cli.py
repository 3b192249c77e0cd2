"""End-to-end command-line tests.

Every test drives ``plastinfer.cli.main`` in process with a JSON config
in a temporary directory, then inspects exit codes and the emitted
files. Sampler-backed commands run short chains; only coarse recovery is
asserted there, while file contracts (columns, round-trips, determinism)
are checked exactly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from plastinfer import (
    ModelKind,
    NumericalError,
    analytic_le_posterior,
    load_chain,
    read_measurements,
)
from plastinfer import cli
from plastinfer.models import ParameterVector, stress

GRID_12 = {"start": 2.4e-4, "step": 2.4e-4, "count": 12}


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def _generate_config(**overrides):
    payload = {
        "model": "LE-PP",
        "parameters": {"E": 210.0, "sigma_y0": 0.25},
        "strains": GRID_12,
        "noise": {"stress_std": 0.01},
        "seed": 5,
    }
    payload.update(overrides)
    return payload


def _make_dataset(tmp_path, name="data.csv", **overrides):
    config = _write_config(tmp_path, _generate_config(**overrides), name + ".config.json")
    out = tmp_path / name
    assert cli.main(["generate", "--config", config, "--output", str(out)]) == 0
    return out


class TestGenerate:
    """Dataset synthesis."""

    def test_writes_twelve_rows(self, tmp_path):
        out = _make_dataset(tmp_path)
        data = read_measurements(out)
        assert len(data) == 12
        assert data.noise.stress_std == 0.01
        assert not data.noise.double

    def test_zero_noise_reproduces_the_theoretical_curve(self, tmp_path):
        out = _make_dataset(tmp_path, noise={"stress_std": 0.0})
        data = read_measurements(out)
        x = ParameterVector(E=210.0, sigma_y0=0.25)
        expected = stress(data.strains, x, ModelKind.PERFECT_PLASTICITY)
        np.testing.assert_array_equal(data.stresses, expected)

    def test_rerun_writes_identical_files(self, tmp_path):
        a = _make_dataset(tmp_path, name="a.csv")
        b = _make_dataset(tmp_path, name="b.csv")
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        config = _write_config(tmp_path, _generate_config())
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["generate", "--config", config, "--output", str(out_a)]) == 0
        assert cli.main(["generate", "--config", config, "--seed", "9", "--output", str(out_b)]) == 0
        a, b = read_measurements(out_a), read_measurements(out_b)
        assert not np.array_equal(a.stresses, b.stresses)

    def test_seedless_run_records_a_replayable_seed(self, tmp_path):
        payload = _generate_config(noise={"stress_std": 0.01, "strain_std": 1e-4})
        del payload["seed"]
        config = _write_config(tmp_path, payload)
        first, replay = tmp_path / "first.csv", tmp_path / "replay.csv"
        assert cli.main(["generate", "--config", config, "--output", str(first)]) == 0
        provenance = read_measurements(first).provenance
        seed = int(provenance.rsplit("seed=", 1)[1])
        argv = ["generate", "--config", config, "--seed", str(seed), "--output", str(replay)]
        assert cli.main(argv) == 0
        assert replay.read_bytes() == first.read_bytes()
        assert replay.with_suffix(".json").read_bytes() == first.with_suffix(".json").read_bytes()

    def test_explicit_strain_list(self, tmp_path):
        out = _make_dataset(tmp_path, strains=[1e-4, 5e-4, 1.1e-3])
        data = read_measurements(out)
        np.testing.assert_array_equal(data.strains, [1e-4, 5e-4, 1.1e-3])

    def test_double_noise_dataset(self, tmp_path):
        out = _make_dataset(tmp_path, noise={"stress_std": 0.01, "strain_std": 1e-4})
        data = read_measurements(out)
        assert data.noise.double
        assert data.noise.strain_std == 1e-4
        grid = 2.4e-4 * np.arange(1, 13)
        assert not np.array_equal(data.strains, grid)

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json {")
        code = cli.main(["generate", "--config", str(path), "--output", str(tmp_path / "x.csv")])
        assert code == 2

    def test_unknown_model(self, tmp_path):
        config = _write_config(tmp_path, _generate_config(model="LE-XX"))
        assert cli.main(["generate", "--config", config, "--output", str(tmp_path / "x.csv")]) == 2

    def test_missing_noise_block(self, tmp_path):
        payload = _generate_config()
        del payload["noise"]
        config = _write_config(tmp_path, payload)
        assert cli.main(["generate", "--config", config, "--output", str(tmp_path / "x.csv")]) == 2

    def test_parameter_not_used_by_model(self, tmp_path):
        payload = _generate_config(parameters={"E": 210.0, "sigma_y0": 0.25, "H": 50.0})
        config = _write_config(tmp_path, payload)
        assert cli.main(["generate", "--config", config, "--output", str(tmp_path / "x.csv")]) == 2

    def test_unknown_verb_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2


def _identify_config(tmp_path, **overrides):
    payload = {
        "model": "LE",
        "prior": {"mean": [200.0], "std": [50.0]},
        "sampler": {"n_samples": 20_000, "burn_in": 2_000, "seed": 10},
    }
    payload.update(overrides)
    return _write_config(tmp_path, payload, "identify.json")


class TestIdentify:
    """Posterior sampling runs and their artifacts."""

    def test_linear_elastic_matches_closed_form(self, tmp_path):
        data_path = _make_dataset(tmp_path, model="LE", parameters={"E": 210.0}, seed=42)
        config = _identify_config(tmp_path)
        out_dir = tmp_path / "run"
        code = cli.main(
            ["identify", "--config", config, "--data", str(data_path), "--output-dir", str(out_dir)]
        )
        assert code == 0

        data = read_measurements(data_path)
        exact = analytic_le_posterior(200.0, 50.0, data.strains, data.stresses, 0.01)
        report = json.loads((out_dir / "summary.json").read_text())
        assert report["model"] == "LE"
        assert report["parameter_names"] == ["E"]
        assert abs(report["mean"][0] - exact.mean) < 1.0
        assert abs(report["std"][0] - exact.std) < 0.1 * exact.std
        assert 0.0 < report["acceptance_rate"] < 1.0
        assert report["effective_sample_size"][0] > 100.0

        chain, names = load_chain(out_dir / "chain.csv")
        assert names == ["E"]
        assert len(chain) == 20_000

        band = np.loadtxt(out_dir / "band.csv", delimiter=",", skiprows=1)
        header = (out_dir / "band.csv").read_text().splitlines()[0]
        assert header == "strain,lower,upper"
        assert band.shape[1] == 3
        assert np.all(band[:, 1] <= band[:, 2])
        assert band[0, 0] == 0.0

    def test_nonlinear_hardening_run_completes(self, tmp_path):
        data_path = _make_dataset(
            tmp_path,
            model="LE-NH",
            parameters={"E": 210.0, "sigma_y0": 0.25, "H": 2.0, "n": 0.57},
            seed=8,
        )
        config = _identify_config(
            tmp_path,
            model="LE-NH",
            prior={
                "mean": [200.0, 0.29, 2.5, 0.57],
                "std": [50.0, 0.0166667, 0.333333, 0.05],
            },
            sampler={"n_samples": 1_500, "burn_in": 300, "step_scale": 0.02, "seed": 2},
        )
        out_dir = tmp_path / "run"
        code = cli.main(
            ["identify", "--config", config, "--data", str(data_path), "--output-dir", str(out_dir)]
        )
        assert code == 0
        report = json.loads((out_dir / "summary.json").read_text())
        assert all(m > 0.0 for m in report["mean"])
        assert len(report["mean"]) == 4

    def test_regime_mismatch_is_a_config_error(self, tmp_path, capsys):
        data_path = _make_dataset(
            tmp_path, model="LE", parameters={"E": 210.0},
            noise={"stress_std": 0.01, "strain_std": 1e-4},
        )
        config = _identify_config(tmp_path, noise={"stress_std": 0.01})
        code = cli.main(
            ["identify", "--config", config, "--data", str(data_path), "--output-dir", str(tmp_path / "r")]
        )
        assert code == 2
        assert "allow_regime_change" in capsys.readouterr().err

    def test_regime_change_flag_reinterprets_the_data(self, tmp_path):
        data_path = _make_dataset(
            tmp_path, model="LE", parameters={"E": 210.0},
            noise={"stress_std": 0.01, "strain_std": 1e-4},
        )
        config = _identify_config(
            tmp_path,
            noise={"stress_std": 0.01},
            allow_regime_change=True,
            sampler={"n_samples": 800, "burn_in": 100, "seed": 3},
        )
        out_dir = tmp_path / "r"
        code = cli.main(
            ["identify", "--config", config, "--data", str(data_path), "--output-dir", str(out_dir)]
        )
        assert code == 0
        report = json.loads((out_dir / "summary.json").read_text())
        assert abs(report["mean"][0] - 210.0) < 20.0

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        data_path = _make_dataset(tmp_path, model="LE", parameters={"E": 210.0})
        config = _identify_config(tmp_path)

        def _explode(target, config):
            raise NumericalError("chain diverged")

        monkeypatch.setattr(cli, "run_adaptive_mh", _explode)
        code = cli.main(
            ["identify", "--config", config, "--data", str(data_path), "--output-dir", str(tmp_path / "r")]
        )
        assert code == 3
        assert "chain diverged" in capsys.readouterr().err

    def test_drifting_chain_warns_but_succeeds(self, tmp_path, capsys):
        # A short chain started far from the posterior is still migrating
        # when it ends; the running mean has not flattened.
        data_path = _make_dataset(tmp_path, model="LE", parameters={"E": 210.0})
        config = _identify_config(
            tmp_path,
            sampler={"n_samples": 300, "step_scale": 0.5, "initial": [150.0], "seed": 1},
        )
        code = cli.main(
            ["identify", "--config", config, "--data", str(data_path), "--output-dir", str(tmp_path / "r")]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "drifting" in captured.err

    def test_seedless_run_records_a_replayable_seed(self, tmp_path):
        data_path = _make_dataset(tmp_path, model="LE", parameters={"E": 210.0})
        config = _identify_config(tmp_path, sampler={"n_samples": 500, "burn_in": 100})
        first, replay = tmp_path / "first", tmp_path / "replay"
        argv = ["identify", "--config", config, "--data", str(data_path), "--output-dir"]
        assert cli.main([*argv, str(first)]) == 0
        seed = json.loads((first / "summary.json").read_text())["seed"]
        assert isinstance(seed, int)
        assert json.loads((first / "chain.json").read_text())["seed"] == seed
        assert cli.main([*argv, str(replay), "--seed", str(seed)]) == 0
        assert (replay / "chain.csv").read_bytes() == (first / "chain.csv").read_bytes()


class TestAnalytic:
    """Closed-form route."""

    def test_matches_the_library_call(self, tmp_path, capsys):
        data_path = _make_dataset(tmp_path, model="LE", parameters={"E": 210.0}, seed=42)
        config = _write_config(tmp_path, {"prior": {"mean": [200.0], "std": [50.0]}})
        out = tmp_path / "posterior.json"
        code = cli.main(
            ["analytic", "--config", config, "--data", str(data_path), "--output", str(out)]
        )
        assert code == 0
        data = read_measurements(data_path)
        exact = analytic_le_posterior(200.0, 50.0, data.strains, data.stresses, 0.01)
        report = json.loads(out.read_text())
        assert report["mean"] == pytest.approx(exact.mean, rel=1e-12)
        assert report["std"] == pytest.approx(exact.std, rel=1e-12)
        assert "mean" in capsys.readouterr().out

    def test_double_noise_data_is_rejected(self, tmp_path):
        data_path = _make_dataset(
            tmp_path, model="LE", parameters={"E": 210.0},
            noise={"stress_std": 0.01, "strain_std": 1e-4},
        )
        config = _write_config(tmp_path, {"prior": {"mean": [200.0], "std": [50.0]}})
        assert cli.main(["analytic", "--config", config, "--data", str(data_path)]) == 2


class TestPriorSweep:
    """Prior-influence surface."""

    def _sweep(self, tmp_path, payload, name="sweep.csv"):
        data_path = _make_dataset(tmp_path, model="LE", parameters={"E": 210.0}, seed=42)
        config = _write_config(tmp_path, payload, "sweep.json")
        out = tmp_path / name
        code = cli.main(
            ["prior-sweep", "--config", config, "--data", str(data_path), "--output", str(out)]
        )
        return code, out

    def test_spread_shrinks_with_more_data(self, tmp_path):
        code, out = self._sweep(
            tmp_path,
            {
                "prior_grid": {
                    "mean": {"start": 150.0, "stop": 250.0, "count": 5},
                    "std": {"start": 10.0, "stop": 90.0, "count": 5},
                },
                "counts": [1, 5, 10, 12],
            },
        )
        assert code == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 0], [1, 5, 10, 12])
        spreads = table[:, 3]
        assert np.all(np.diff(spreads) < 0.0)

    def test_no_data_leaves_the_prior_mean(self, tmp_path):
        code, out = self._sweep(
            tmp_path,
            {"prior_grid": {"mean": [150.0, 250.0], "std": [30.0]}, "counts": [0]},
        )
        assert code == 0
        table = np.atleast_2d(np.loadtxt(out, delimiter=",", skiprows=1))
        assert table[0, 1] == 150.0
        assert table[0, 2] == 250.0
        assert table[0, 3] == 100.0

    def test_dogmatic_prior_pins_the_map(self, tmp_path):
        code, out = self._sweep(
            tmp_path,
            {"prior_grid": {"mean": [150.0, 250.0], "std": [1e-6]}, "counts": [12]},
        )
        assert code == 0
        table = np.atleast_2d(np.loadtxt(out, delimiter=",", skiprows=1))
        assert table[0, 3] == pytest.approx(100.0, abs=1e-3)

    def test_single_node_matches_the_analytic_posterior(self, tmp_path):
        code, out = self._sweep(
            tmp_path,
            {"prior_grid": {"mean": [200.0], "std": [50.0]}, "counts": [12]},
        )
        assert code == 0
        data = read_measurements(tmp_path / "data.csv")
        exact = analytic_le_posterior(200.0, 50.0, data.strains, data.stresses, 0.01)
        table = np.atleast_2d(np.loadtxt(out, delimiter=",", skiprows=1))
        assert table[0, 1] == pytest.approx(exact.mean, rel=1e-12)
        assert table[0, 2] == pytest.approx(exact.mean, rel=1e-12)

    def test_count_beyond_dataset_is_rejected(self, tmp_path):
        code, _ = self._sweep(
            tmp_path,
            {"prior_grid": {"mean": [200.0], "std": [50.0]}, "counts": [13]},
        )
        assert code == 2

    def test_nonpositive_std_is_rejected(self, tmp_path):
        code, _ = self._sweep(
            tmp_path,
            {"prior_grid": {"mean": [200.0], "std": [0.0]}, "counts": [12]},
        )
        assert code == 2


class TestHeterogeneity:
    """Pooled identification over specimen populations."""

    def _run(self, tmp_path, payload, name="het.csv"):
        config = _write_config(tmp_path, payload, "het.json")
        out = tmp_path / name
        code = cli.main(["heterogeneity", "--config", config, "--output", str(out)])
        return code, out

    def test_population_spread_is_not_recovered(self, tmp_path):
        # Pooling many specimens under one parameter vector averages the
        # heterogeneity away: the posterior std lands far below 10 GPa.
        code, out = self._run(
            tmp_path,
            {
                "population": {"model": "LE", "mean": [210.0], "covariance": [[100.0]], "count": 25},
                "per_specimen": {
                    "strains": {"start": 2.4e-4, "step": 2.4e-4, "count": 10},
                    "noise": {"stress_std": 0.01},
                },
                "prior": {"mean": 200.0, "std": 50.0},
                "replicates": 3,
                "seed": 1,
            },
        )
        assert code == 0
        table = np.atleast_2d(np.loadtxt(out, delimiter=",", skiprows=1))
        header = out.read_text().splitlines()[0]
        assert header == "replicate,posterior_mean,posterior_std"
        assert table.shape == (3, 3)
        assert np.all(table[:, 2] < 2.0)
        assert np.all(np.abs(table[:, 1] - 210.0) < 8.0)

    def test_zero_variance_population_identifies_the_common_value(self, tmp_path):
        code, out = self._run(
            tmp_path,
            {
                "population": {"model": "LE", "mean": [210.0], "covariance": [[0.0]], "count": 5},
                "per_specimen": {
                    "strains": {"start": 2.4e-4, "step": 2.4e-4, "count": 10},
                    "noise": {"stress_std": 0.01},
                },
                "prior": {"mean": 200.0, "std": 50.0},
                "seed": 2,
            },
        )
        assert code == 0
        table = np.atleast_2d(np.loadtxt(out, delimiter=",", skiprows=1))
        assert abs(table[0, 1] - 210.0) < 4.0
        assert table[0, 2] < 1.5

    def test_sampled_route_reports_per_parameter_columns(self, tmp_path):
        code, out = self._run(
            tmp_path,
            {
                "population": {
                    "model": "LE-PP",
                    "mean": [210.0, 0.25],
                    "covariance": [[100.0, 1e-4], [1e-4, 1.1111e-4]],
                    "count": 6,
                },
                "per_specimen": {"strains": GRID_12, "noise": {"stress_std": 0.01}},
                "fit": {
                    "model": "LE-PP",
                    "prior": {
                        "mean": [200.0, 0.29],
                        "covariance": [[2500.0, 0.0], [0.0, 2.7778e-4]],
                    },
                    "sampler": {"n_samples": 4_000, "burn_in": 800, "seed": 7},
                },
                "seed": 3,
            },
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "replicate,mean_E,mean_sigma_y0,std_E,std_sigma_y0,corr_E_sigma_y0"
        table = np.atleast_2d(np.loadtxt(out, delimiter=",", skiprows=1))
        assert abs(table[0, 1] - 210.0) < 15.0
        assert abs(table[0, 2] - 0.25) < 0.02
        assert abs(table[0, 5]) <= 1.0

    def test_prior_and_fit_blocks_are_mutually_exclusive(self, tmp_path):
        base = {
            "population": {"model": "LE", "mean": [210.0], "covariance": [[100.0]], "count": 3},
            "per_specimen": {
                "strains": [1e-3],
                "noise": {"stress_std": 0.01},
            },
        }
        both = dict(base)
        both["prior"] = {"mean": 200.0, "std": 50.0}
        both["fit"] = {
            "model": "LE",
            "prior": {"mean": [200.0], "std": [50.0]},
            "sampler": {"n_samples": 100},
        }
        code, _ = self._run(tmp_path, both)
        assert code == 2
        code, _ = self._run(tmp_path, base)
        assert code == 2

    def test_closed_form_route_requires_linear_elasticity(self, tmp_path):
        code, _ = self._run(
            tmp_path,
            {
                "population": {
                    "model": "LE-PP",
                    "mean": [210.0, 0.25],
                    "covariance": [[100.0, 0.0], [0.0, 1e-4]],
                    "count": 3,
                },
                "per_specimen": {"strains": [1e-3], "noise": {"stress_std": 0.01}},
                "prior": {"mean": 200.0, "std": 50.0},
            },
        )
        assert code == 2

    def test_double_noise_measurements_are_rejected(self, tmp_path):
        code, _ = self._run(
            tmp_path,
            {
                "population": {"model": "LE", "mean": [210.0], "covariance": [[100.0]], "count": 3},
                "per_specimen": {
                    "strains": [1e-3],
                    "noise": {"stress_std": 0.01, "strain_std": 1e-4},
                },
                "prior": {"mean": 200.0, "std": 50.0},
            },
        )
        assert code == 2


class TestMismatch:
    """Fitting a model other than the generating one."""

    def _payload(self, **overrides):
        payload = {
            "allow_mismatch": True,
            "truth": {
                "model": "LE-NH",
                "parameters": {"E": 210.0, "sigma_y0": 0.25, "H": 2.0, "n": 0.57},
                "strains": {"start": 2.4e-4, "step": 2.4e-4, "count": 15},
                "noise": {"stress_std": 0.01},
            },
            "fit": {
                "model": "LE-PP",
                "prior": {
                    "mean": [200.0, 0.29],
                    "covariance": [[2500.0, 0.0], [0.0, 2.7778e-4]],
                },
                "sampler": {"n_samples": 2_500, "burn_in": 500, "seed": 4},
            },
            "seed": 6,
        }
        payload.update(overrides)
        return payload

    def test_refuses_without_the_flag(self, tmp_path, capsys):
        config = _write_config(tmp_path, self._payload(allow_mismatch=False))
        code = cli.main(["mismatch", "--config", config, "--output-dir", str(tmp_path / "m")])
        assert code == 2
        assert "allow_mismatch" in capsys.readouterr().err

    def test_hardening_data_fit_with_perfect_plasticity(self, tmp_path):
        config = _write_config(tmp_path, self._payload())
        out_dir = tmp_path / "m"
        code = cli.main(["mismatch", "--config", config, "--output-dir", str(out_dir)])
        assert code == 0
        data = read_measurements(out_dir / "data.csv")
        assert len(data) == 15
        report = json.loads((out_dir / "summary.json").read_text())
        assert report["model"] == "LE-PP"
        assert all(m > 0.0 for m in report["mean"])

    def test_identical_models_match_a_generate_identify_pipeline(self, tmp_path):
        payload = self._payload(
            truth={
                "model": "LE",
                "parameters": {"E": 210.0},
                "strains": GRID_12,
                "noise": {"stress_std": 0.01},
            },
            fit={
                "model": "LE",
                "prior": {"mean": [200.0], "std": [50.0]},
                "sampler": {"n_samples": 1_000, "burn_in": 200},
            },
        )
        config = _write_config(tmp_path, payload, "mismatch.json")
        out_dir = tmp_path / "m"
        assert cli.main(["mismatch", "--config", config, "--output-dir", str(out_dir)]) == 0

        data_path = _make_dataset(tmp_path, model="LE", parameters={"E": 210.0}, seed=6)
        identify = _write_config(
            tmp_path,
            {
                "model": "LE",
                "prior": {"mean": [200.0], "std": [50.0]},
                "sampler": {"n_samples": 1_000, "burn_in": 200},
            },
            "identify.json",
        )
        pipeline_dir = tmp_path / "p"
        code = cli.main(
            [
                "identify", "--config", identify, "--data", str(data_path),
                "--output-dir", str(pipeline_dir), "--seed", "6",
            ]
        )
        assert code == 0

        joint = json.loads((out_dir / "summary.json").read_text())
        split = json.loads((pipeline_dir / "summary.json").read_text())
        assert joint["mean"] == split["mean"]
        assert joint["std"] == split["std"]
        assert joint["map"] == split["map"]

    def test_double_noise_truth_runs_through(self, tmp_path):
        payload = self._payload(
            truth={
                "model": "LE",
                "parameters": {"E": 210.0},
                "strains": {"start": 2.4e-4, "step": 2.4e-4, "count": 8},
                "noise": {"stress_std": 0.01, "strain_std": 1e-4},
            },
            fit={
                "model": "LE",
                "prior": {"mean": [200.0], "std": [50.0]},
                "sampler": {"n_samples": 600, "burn_in": 100, "seed": 1},
            },
        )
        config = _write_config(tmp_path, payload)
        out_dir = tmp_path / "m"
        code = cli.main(["mismatch", "--config", config, "--output-dir", str(out_dir)])
        assert code == 0
        assert read_measurements(out_dir / "data.csv").noise.double


class TestQuadratureBlock:
    """identify's 'quadrature' block for LE-NH stress-and-strain data:
    panels must be an integer and width a finite number; anything else
    exits 2 naming the value, where a float panel count was truncated and
    a string raised ValueError (exit 1)."""

    def _argv(self, tmp_path, block):
        data = _make_dataset(
            tmp_path, model="LE-NH", parameters={"E": 210.0, "sigma_y0": 0.25, "H": 2.0, "n": 0.57},
            noise={"stress_std": 0.01, "strain_std": 1e-4}, seed=8,
        )
        config = _identify_config(
            tmp_path,
            model="LE-NH",
            prior={"mean": [200.0, 0.29, 2.5, 0.57], "std": [50.0, 0.0166667, 0.333333, 0.05]},
            sampler={"n_samples": 20, "step_scale": 0.02, "seed": 2},
            quadrature=block,
        )
        return ["identify", "--config", config, "--data", str(data), "--output-dir", str(tmp_path / "run")]

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("panels", 512.7), ("panels", 512.0), ("panels", "abc"), ("panels", "512"), ("panels", True),
            ("width", "x"), ("width", "8"), ("width", False), ("width", float("inf")), ("width", float("nan")),
        ],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, key, bad):
        assert cli.main(self._argv(tmp_path, {key: bad})) == 2
        err = capsys.readouterr().err
        assert f"{key} must be" in err and f"got {bad!r}" in err

    def test_valid_block_runs(self, tmp_path):
        assert cli.main(self._argv(tmp_path, {"panels": 256, "width": 6})) == 0


class TestBadSeed:
    """A seed that is not null or a nonnegative integer is a configuration
    error, exit 2, wherever a verb reads it."""

    BAD = [1.5, -3, "x", True]

    def _argv(self, tmp_path, where, seed):
        if where == "generate":
            config = _write_config(tmp_path, _generate_config(seed=seed))
            return ["generate", "--config", config, "--output", str(tmp_path / "data.csv")]
        if where == "identify":
            data = _make_dataset(tmp_path)
            config = _identify_config(tmp_path, sampler={"n_samples": 50, "seed": seed})
            return ["identify", "--config", config, "--data", str(data), "--output-dir", str(tmp_path / "run")]
        top, fit_seed = (1, seed) if "-fit" in where else (seed, 1)
        if where.startswith("heterogeneity"):
            payload = {
                "population": {"model": "LE", "mean": [210.0], "covariance": [[100.0]], "count": 3},
                "per_specimen": {"strains": GRID_12, "noise": {"stress_std": 0.01}},
                "fit": {
                    "model": "LE",
                    "prior": {"mean": [200.0], "std": [50.0]},
                    "sampler": {"n_samples": 50, "seed": fit_seed},
                },
                "seed": top,
            }
            config = _write_config(tmp_path, payload, "het.json")
            return ["heterogeneity", "--config", config, "--output", str(tmp_path / "het.csv")]
        # "mismatch-fit-overridden": a top-level seed overrides the fit's
        # sampler seed, which is still checked.
        payload = TestMismatch()._payload(seed=None if where == "mismatch-fit" else top)
        payload["fit"]["sampler"]["seed"] = fit_seed
        config = _write_config(tmp_path, payload, "mismatch.json")
        return ["mismatch", "--config", config, "--output-dir", str(tmp_path / "m")]

    WHERE = [
        "generate", "identify", "heterogeneity", "heterogeneity-fit",
        "mismatch", "mismatch-fit", "mismatch-fit-overridden",
    ]

    @pytest.mark.parametrize("where", WHERE)
    @pytest.mark.parametrize("bad", BAD)
    def test_config_seed_exits_2(self, tmp_path, capsys, where, bad):
        assert cli.main(self._argv(tmp_path, where, bad)) == 2
        assert f"got {bad!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["generate", "identify", "heterogeneity", "mismatch"])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, where):
        argv = self._argv(tmp_path, where, 1)
        assert cli.main(argv + ["--seed", "-3"]) == 2
        assert "got -3" in capsys.readouterr().err
