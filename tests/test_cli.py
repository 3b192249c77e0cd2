"""End-to-end command-line tests.

Every test but the start-up one drives ``plastinfer.cli.main`` in
process with a JSON config in a temporary directory, then inspects exit
codes and the emitted files; the start-up test imports the package in a
fresh interpreter. Sampler-backed commands run short chains; only coarse
recovery is asserted there, while file contracts (columns, round-trips,
determinism) are checked exactly.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import plastinfer
from plastinfer import (
    ModelKind,
    NumericalError,
    analytic_le_posterior,
    load_chain,
    read_measurements,
    run_adaptive_mh,
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

    @pytest.mark.parametrize("step_scale, warned", [(2.0, False), (500.0, True)])
    def test_acceptance_below_the_floor_warns(self, tmp_path, capsys, step_scale, warned):
        """A chain that accepts under 5% of its proposals exits 0 and names
        its rate on stderr; a chain that mixes prints no such warning."""
        data_path = _make_dataset(tmp_path, model="LE", parameters={"E": 210.0}, seed=42)
        sampler = {"n_samples": 2_000, "burn_in": 200, "step_scale": step_scale, "seed": 10}
        config = _identify_config(tmp_path, sampler=sampler)
        out_dir = tmp_path / "run"
        argv = ["identify", "--config", config, "--data", str(data_path), "--output-dir", str(out_dir)]
        assert cli.main(argv) == 0
        rate = json.loads((out_dir / "summary.json").read_text())["acceptance_rate"]
        assert (rate < 0.05) is warned
        err = capsys.readouterr().err
        assert (f"warning: acceptance rate {rate:.3f} is below 0.05" in err) is warned
        assert ("acceptance rate" in err) is warned

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


@pytest.mark.parametrize("verb", ["analytic", "identify"])
@pytest.mark.parametrize("binary", [False, True], ids=["directory", "not-utf8"])
def test_unreadable_data_exits_2(tmp_path, capsys, verb, binary):
    """A --data path that is a directory or not UTF-8 text exited 1 with
    a traceback."""
    data_path = tmp_path / "data.csv"
    if binary:
        data_path.write_bytes(b"\x89PNG\r\n\x1a\n\xff")
    else:
        data_path.mkdir()
    config = _identify_config(tmp_path, sampler={"n_samples": 20, "seed": 1})
    argv = [verb, "--config", config, "--data", str(data_path)]
    argv += ["--output-dir", str(tmp_path / "run")] if verb == "identify" else []
    assert cli.main(argv) == 2
    assert f"measurement file {data_path}" in capsys.readouterr().err


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

    @pytest.mark.parametrize("std, bad", [([0.0], 0.0), ([30.0, -5.0], -5.0)])
    def test_nonpositive_std_is_rejected(self, tmp_path, capsys, std, bad):
        code, _ = self._sweep(
            tmp_path,
            {"prior_grid": {"mean": [200.0], "std": std}, "counts": [12]},
        )
        assert code == 2
        assert f"error: prior_grid std must be > 0, got {bad!r}" in capsys.readouterr().err


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
        assert header == "replicate,mean_E,mean_sigma_y0,std_E,std_sigma_y0,corr_E_sigma_y0,acceptance_rate"
        table = np.atleast_2d(np.loadtxt(out, delimiter=",", skiprows=1))
        assert abs(table[0, 1] - 210.0) < 15.0
        assert abs(table[0, 2] - 0.25) < 0.02
        assert abs(table[0, 5]) <= 1.0

    def test_stuck_replicates_warn_but_succeed(self, tmp_path, capsys):
        """The LE-PP fit of four LE-PP specimens at the default step scale
        accepts 6 of 1,000 proposals in each replicate: the run exits 0,
        records the rate and warns once per replicate."""
        code, out = self._run(
            tmp_path,
            {
                "population": {
                    "model": "LE-PP", "mean": [210.0, 0.25], "covariance": [[100.0, 0.0], [0.0, 1e-4]], "count": 4
                },
                "per_specimen": {"strains": GRID_12, "noise": {"stress_std": 0.01}},
                "fit": {
                    "model": "LE-PP",
                    "prior": {"mean": [200.0, 0.29], "std": [50.0, 0.0167]},
                    "sampler": {"n_samples": 1_000, "burn_in": 200},
                },
                "replicates": 2,
                "seed": 4,
            },
        )
        assert code == 0
        table = np.atleast_2d(np.loadtxt(out, delimiter=",", skiprows=1))
        assert table[:, -1].tolist() == [0.006, 0.006]
        err = capsys.readouterr().err
        for rep in (0, 1):
            assert f"warning: acceptance rate 0.006 in replicate {rep} is below 0.05" in err
        assert err.count("warning:") == 2

    def _sampled(self, sampler):
        return {
            "population": {"model": "LE", "mean": [210.0], "covariance": [[100.0]], "count": 3},
            "per_specimen": {"strains": GRID_12, "noise": {"stress_std": 0.01}},
            "fit": {"model": "LE", "prior": {"mean": [200.0], "std": [50.0]}, "sampler": sampler},
            "replicates": 3,
            "seed": 4,
        }

    def test_seeded_sampled_route_replays_byte_for_byte(self, tmp_path):
        """With a top-level seed and no fit.sampler.seed, each replicate's
        chain is seeded from the root seed, so a second run writes the same
        bytes."""
        payload = self._sampled({"n_samples": 300, "burn_in": 50})
        first, second = (self._run(tmp_path, payload, name)[1] for name in ("a.csv", "b.csv"))
        assert first.read_bytes() == second.read_bytes()

    def test_seedless_sampled_route_replays_from_its_printed_seed(self, tmp_path, capsys):
        """A seedless run seeded from OS entropy that it did not record, so
        it could not be replayed; now it prints the seed it drew."""
        payload = self._sampled({"n_samples": 300, "burn_in": 50})
        del payload["seed"]
        argv = ["heterogeneity", "--config", _write_config(tmp_path, payload, "het.json"), "--output"]
        assert cli.main([*argv, str(tmp_path / "a.csv")]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("seed ")
        seed = line.removeprefix("seed ")
        assert cli.main([*argv, str(tmp_path / "b.csv"), "--seed", seed]) == 0
        assert capsys.readouterr().out.splitlines()[0] == line
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_replicate_chain_seeds(self, tmp_path, monkeypatch):
        """Unpinned, the replicates' chains get distinct seeds that repeat
        run to run; a pinned fit.sampler.seed is used as it stands."""
        seeds = []

        def recording(target, config):
            seeds.append(config.seed)
            return run_adaptive_mh(target, config)

        monkeypatch.setattr(cli, "run_adaptive_mh", recording)
        for _ in range(2):
            assert self._run(tmp_path, self._sampled({"n_samples": 50}))[0] == 0
        assert seeds[:3] == seeds[3:] and len(set(seeds)) == 3
        assert all(isinstance(seed, int) for seed in seeds)
        seeds.clear()
        assert self._run(tmp_path, self._sampled({"n_samples": 50, "seed": 9}))[0] == 0
        assert seeds == [9, 9, 9]

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
        chain_seed = json.loads((out_dir / "chain.json").read_text())["seed"]
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
                "--output-dir", str(pipeline_dir), "--seed", str(chain_seed),
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

    @pytest.mark.parametrize(
        "seed, pinned",
        [pytest.param(None, None, id="None"), pytest.param(0, None, id="0"), pytest.param(None, 4, id="None-pinned")],
    )
    def test_recorded_seed_replays_the_run(self, tmp_path, seed, pinned):
        """The run seed, drawn when none is given (0 is kept, not redrawn),
        is recorded in both data.json and summary.json; --seed <recorded>
        rewrites every file bit for bit, whether the chain seed is drawn or
        pinned. A seedless run with a pinned chain seed recorded that seed,
        which could not replay its data."""
        payload = self._payload(seed=seed)
        payload["fit"]["sampler"]["seed"] = pinned
        config = _write_config(tmp_path, payload)
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert cli.main(["mismatch", "--config", config, "--output-dir", str(first)]) == 0
        recorded = json.loads((first / "summary.json").read_text())["seed"]
        assert read_measurements(first / "data.csv").provenance.endswith(f" seed={recorded}")
        assert seed is None or recorded == seed
        argv = ["mismatch", "--config", config, "--output-dir", str(replay), "--seed", str(recorded)]
        assert cli.main(argv) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in replay.iterdir())
        for name in names:
            assert (replay / name).read_bytes() == (first / name).read_bytes(), name

    def test_stuck_chain_warns_but_succeeds(self, tmp_path, capsys):
        """An LE-PP fit of LE-NH data at the default step scale, 2.38 /
        sqrt(2) in both coordinates against a sigma_y0 prior std of 0.0167,
        accepts 3 of 500 proposals under run seed 3: the run exits 0,
        writes every file and names its rate on stderr."""
        payload = self._payload(seed=3)
        payload["fit"]["sampler"] = {"n_samples": 500, "burn_in": 100}
        config = _write_config(tmp_path, payload)
        out_dir = tmp_path / "m"
        assert cli.main(["mismatch", "--config", config, "--output-dir", str(out_dir)]) == 0
        assert "warning: acceptance rate 0.006 is below 0.05" in capsys.readouterr().err
        assert json.loads((out_dir / "summary.json").read_text())["acceptance_rate"] == 0.006
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "band.csv", "chain.csv", "chain.json", "data.csv", "data.json", "summary.json"
        ]

    def test_seedless_run_keeps_a_pinned_sampler_seed(self, tmp_path):
        """chain.json records the pinned chain seed, summary.json the run
        seed that the data were drawn with."""
        config = _write_config(tmp_path, self._payload(seed=None))
        out_dir = tmp_path / "m"
        assert cli.main(["mismatch", "--config", config, "--output-dir", str(out_dir)]) == 0
        assert json.loads((out_dir / "chain.json").read_text())["seed"] == 4
        data_seed = read_measurements(out_dir / "data.csv").provenance.rsplit("seed=", 1)[1]
        assert json.loads((out_dir / "summary.json").read_text())["seed"] == int(data_seed)


class TestSeedRule:
    """One run seed per seeded verb, recorded in summary.json (mismatch) or
    printed (heterogeneity); a pinned fit.sampler.seed is the chain's seed
    whatever the run seed, and an unpinned one is drawn from a stream that
    no data draw uses."""

    def test_data_noise_and_chain_proposals_share_no_stream(self, tmp_path):
        """The data's stress noise / s_sig is not the unpinned chain's first
        proposal normals; both came from child 0 of the run seed, equal to
        4.4e-15, when the run seed also seeded the chain."""
        payload = TestMismatch()._payload()
        del payload["fit"]["sampler"]["seed"]
        config = _write_config(tmp_path, payload)
        out_dir = tmp_path / "m"
        assert cli.main(["mismatch", "--config", config, "--output-dir", str(out_dir)]) == 0
        data = read_measurements(out_dir / "data.csv")
        truth = ParameterVector(E=210.0, sigma_y0=0.25, H=2.0, n=0.57)
        noise = (data.stresses - stress(data.strains, truth, ModelKind.NONLINEAR_HARDENING)) / 0.01
        stress_stream = np.random.default_rng(6).spawn(2)[0]
        np.testing.assert_allclose(noise, stress_stream.standard_normal(15), rtol=0.0, atol=1e-9)
        chain_seed = json.loads((out_dir / "chain.json").read_text())["seed"]
        z_stream = np.random.default_rng(np.random.SeedSequence(chain_seed).spawn(2)[0])
        assert np.abs(noise[:12] - z_stream.standard_normal(12)).max() > 0.1

    @pytest.mark.parametrize("given", ["config", "flag"])
    @pytest.mark.parametrize("verb", ["mismatch", "heterogeneity"])
    def test_pinned_chain_seed_survives_a_run_seed(self, tmp_path, monkeypatch, verb, given):
        seeds = []

        def recording(target, config):
            seeds.append(config.seed)
            return run_adaptive_mh(target, config)

        monkeypatch.setattr(cli, "run_adaptive_mh", recording)
        if verb == "mismatch":
            payload = TestMismatch()._payload(seed=None)
            payload["fit"]["sampler"] = {"n_samples": 200, "seed": 7}
            out = tmp_path / "m"
            argv = ["mismatch", "--output-dir", str(out)]
        else:
            payload = TestHeterogeneity()._sampled({"n_samples": 50, "seed": 7})
            del payload["seed"]
            argv = ["heterogeneity", "--output", str(tmp_path / "het.csv")]
        if given == "config":
            payload["seed"] = 5
        else:
            argv += ["--seed", "5"]
        assert cli.main([*argv, "--config", _write_config(tmp_path, payload)]) == 0
        assert seeds and set(seeds) == {7}
        if verb == "mismatch":
            assert json.loads((out / "chain.json").read_text())["seed"] == 7
            assert json.loads((out / "summary.json").read_text())["seed"] == 5


class TestQuadratureBlock:
    """identify's 'quadrature' block for LE-NH stress-and-strain data:
    panels must be an integer; anything else exits 2 naming the value,
    where a float panel count was truncated and a string raised ValueError
    (exit 1). The block takes no other key: a 'width' exits 2 naming the
    key, as the window's half-width is fixed at 8 strain stds."""

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
        "key, bad", [("panels", 512.7), ("panels", 512.0), ("panels", "abc"), ("panels", "512"), ("panels", True)]
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, key, bad):
        assert cli.main(self._argv(tmp_path, {key: bad})) == 2
        err = capsys.readouterr().err
        assert f"{key} must be" in err and f"got {bad!r}" in err

    @pytest.mark.parametrize("block", [{"width": 6}, {"panels": 256, "width": 8.0}, {"panel": 256}])
    def test_other_key_exits_2(self, tmp_path, capsys, block):
        assert cli.main(self._argv(tmp_path, block)) == 2
        key = next(k for k in block if k != "panels")
        assert f"quadrature takes only 'panels', got {key!r}" in capsys.readouterr().err

    def test_valid_block_runs(self, tmp_path):
        assert cli.main(self._argv(tmp_path, {"panels": 256})) == 0


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
        # "mismatch-fit-overridden": a top-level seed does not override the
        # fit's sampler seed, which is checked either way.
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

    @pytest.mark.parametrize("verb", ["analytic", "prior-sweep"])
    def test_seed_flag_on_a_deterministic_verb_exits_2(self, tmp_path, capsys, verb):
        """analytic and prior-sweep draw no random numbers and take no
        --seed; a valid run given one exits 2, where the flag was accepted
        and ignored (exit 0, even with --seed -5)."""
        argv = TestTypedConfigReads()._argv(tmp_path, verb, {})
        assert cli.main(argv) == 0
        with pytest.raises(SystemExit) as stop:
            cli.main(argv + ["--seed", "5"])
        assert stop.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


_PP_PRIOR = {"mean": [200.0, 0.29], "covariance": [[2500.0, 0.0], [0.0, 2.7778e-4]]}


_DROP = object()


def _set(payload, path, value):
    """A deep copy of ``payload`` with the dotted ``path`` set to ``value``
    (removed for ``_DROP``), missing blocks on the way created empty."""
    payload = copy.deepcopy(payload)
    *parents, key = path.split(".")
    block = payload
    for part in parents:
        block = block.setdefault(part, {})
    if value is _DROP:
        del block[key]
    else:
        block[key] = value
    return payload


def _cases(*cases):
    """(verb, path, bad[, shown]) rows; ``shown`` is the value the error
    names, ``bad`` itself unless a list entry is the culprit."""
    return [(*case, case[2]) if len(case) == 3 else case for case in cases]


class TestTypedConfigReads:
    """Numbers must be finite JSON numbers, counts JSON integers (at least 1
    where a count sizes a grid or a sample) and the switches JSON booleans:
    anything else exits 2 naming the value. A float count was truncated, a
    string number or count was parsed, and the strings "false" for
    adaptive, allow_regime_change and allow_mismatch read as true; other
    values raised a TypeError or ValueError (exit 1), and a band count of 0
    wrote an empty band.csv."""

    BASE = {
        "generate": _generate_config(),
        "identify": {"model": "LE-PP", "prior": _PP_PRIOR, "sampler": {"n_samples": 300, "seed": 1}},
        "analytic": {"prior": {"mean": [200.0], "std": [50.0]}},
        "prior-sweep": {
            "prior_grid": {"mean": {"start": 150.0, "stop": 250.0, "count": 3}, "std": [30.0]},
            "counts": [0, 12],
        },
        "heterogeneity": {
            "population": {"model": "LE", "mean": [210.0], "covariance": [[100.0]], "count": 3},
            "per_specimen": {"strains": GRID_12, "noise": {"stress_std": 0.01}},
            "prior": {"mean": 200.0, "std": 50.0},
            "replicates": 2,
            "seed": 1,
        },
    }

    def _argv(self, tmp_path, verb, changes):
        payload = TestMismatch()._payload() if verb == "mismatch" else self.BASE[verb]
        for path, value in changes.items():
            payload = _set(payload, path, value)
        config = _write_config(tmp_path, payload, "bad.json")
        out = str(tmp_path / "out")
        if verb in ("generate", "heterogeneity"):
            return [verb, "--config", config, "--output", out]
        if verb == "mismatch":
            return [verb, "--config", config, "--output-dir", out]
        data = _make_dataset(tmp_path) if verb == "identify" else _make_dataset(
            tmp_path, model="LE", parameters={"E": 210.0}
        )
        flag = {"identify": "--output-dir", "analytic": "--output", "prior-sweep": "--output"}[verb]
        return [verb, "--config", config, "--data", str(data), flag, out]

    @pytest.mark.parametrize(
        "verb, path, bad, shown",
        _cases(
            ("generate", "parameters.E", "210"), ("generate", "parameters.E", True),
            ("generate", "parameters.E", "abc"), ("generate", "parameters.E", [1, 2]),
            ("generate", "parameters.sigma_y0", None), ("generate", "parameters", "x"),
            ("generate", "strains.start", "2.4e-4"), ("generate", "strains.step", False),
            ("generate", "strains.count", 12.9), ("generate", "strains.count", "12"),
            ("generate", "strains", [2.4e-4, "4.8e-4"], "4.8e-4"),
            ("generate", "strains", [[2.4e-4], [4.8e-4, 1e-3]]), ("generate", "strains", "x"),
            ("generate", "noise.stress_std", "0.01"), ("generate", "noise.stress_std", None),
            ("generate", "noise.strain_std", "1e-4"), ("generate", "noise.strain_limit", "0.01"),
            ("generate", "noise", "x"),
            ("identify", "prior.mean", [200.0, "0.29"], "0.29"), ("identify", "prior.mean", "abc"),
            ("identify", "prior.covariance", [[2500.0, 0.0], [0.0]]),
            ("identify", "prior.covariance", [[2500.0, 0.0], [0.0, None]], None),
            ("identify", "sampler.step_scale", "0.5"),
            ("identify", "sampler.initial", [205.0, "0.27"], "0.27"),
            ("identify", "band", "x"), ("identify", "band.count", 0), ("identify", "band.count", -1),
            ("identify", "band.count", 2.5), ("identify", "band.samples", 0),
            ("identify", "band.samples", "500"), ("identify", "band.max_strain", "0.003"),
            ("identify", "noise.stress_std", "0.01"),
            ("analytic", "prior.mean", "200"), ("analytic", "prior.mean", None),
            ("analytic", "prior.std", [50.0, 60.0]), ("analytic", "prior", "x"),
            ("prior-sweep", "prior_grid.mean.count", 0), ("prior-sweep", "prior_grid.mean.count", 2.5),
            ("prior-sweep", "prior_grid.mean.start", "150"),
            ("prior-sweep", "prior_grid.std", ["30"], "30"), ("prior-sweep", "prior_grid.std", "x"),
            ("prior-sweep", "prior_grid", "x"), ("prior-sweep", "counts", [2.9], 2.9),
            ("prior-sweep", "counts", "3"),
            ("heterogeneity", "population.count", 2.5), ("heterogeneity", "population.count", 0),
            ("heterogeneity", "population.mean", ["210"], "210"),
            ("heterogeneity", "population.covariance", [["100"]], "100"),
            ("heterogeneity", "population", "x"), ("heterogeneity", "replicates", 2.5),
            ("heterogeneity", "replicates", "2"), ("heterogeneity", "replicates", True),
            ("heterogeneity", "per_specimen.noise.stress_std", "0.01"),
            ("heterogeneity", "prior.mean", "200"),
            ("mismatch", "truth.parameters.E", "210"), ("mismatch", "truth.strains.count", 15.5),
            ("mismatch", "truth.noise.stress_std", "0.01"), ("mismatch", "truth", "x"),
            ("mismatch", "fit.sampler.step_scale", "1.0"),
        ),
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, verb, path, bad, shown):
        assert cli.main(self._argv(tmp_path, verb, {path: bad})) == 2
        err = capsys.readouterr().err
        assert f"{path.rsplit('.', 1)[-1]} must be" in err and f"got {shown!r}" in err

    @pytest.mark.parametrize(
        "verb, changes, message",
        [
            ("identify", {"prior.std": [50.0, 0.0167]}, "either 'covariance' or 'std', not both"),
            ("identify", {"prior.covariance": _DROP}, "prior needs 'covariance' or 'std'"),
            ("identify", {"prior": {"mean": [200.0], "std": [50.0]}}, "prior has dimension 1, the model needs 2"),
            (
                "prior-sweep",
                {"noise": {"stress_std": 0.01, "strain_std": 1e-4}, "allow_regime_change": True},
                "the prior sweep uses the closed-form stress-only posterior",
            ),
            (
                "heterogeneity",
                {"prior": _DROP, "fit": {"model": "LE-PP", "prior": _PP_PRIOR, "sampler": {"n_samples": 50}}},
                "the pooled fit uses the population model; got LE-PP vs LE",
            ),
        ],
    )
    def test_inconsistent_block_exits_2(self, tmp_path, capsys, verb, changes, message):
        assert cli.main(self._argv(tmp_path, verb, changes)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [(None, "cannot read config"), ('{"model": "LE"', "malformed config"), ("[1, 2]", "must contain a JSON object")],
        ids=["missing", "malformed", "not-an-object"],
    )
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content, message):
        config = tmp_path / "config.json"
        if content is not None:
            config.write_text(content)
        assert cli.main(["generate", "--config", str(config), "--output", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert message in err and str(config) in err

    def _identify(self, tmp_path, sampler=None, **top):
        data = _make_dataset(tmp_path)
        block = {"n_samples": 300, "burn_in": 50, "seed": 1, **(sampler or {})}
        config = _identify_config(tmp_path, model="LE-PP", prior=_PP_PRIOR, sampler=block, **top)
        return ["identify", "--config", config, "--data", str(data), "--output-dir", str(tmp_path / "run")]

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("n_samples", 300.9), ("n_samples", 300.0), ("n_samples", "abc"), ("n_samples", "300"),
            ("n_samples", True), ("n_samples", None), ("burn_in", 10.5), ("burn_in", "10"),
            ("burn_in", False), ("adapt_every", 100.0), ("adapt_every", "100"), ("adapt_every", True),
            ("history_cap", 50.5), ("history_cap", "50"), ("history_cap", True),
            ("adaptive", "false"), ("adaptive", "true"), ("adaptive", 0), ("adaptive", 1),
            ("adaptive", None),
        ],
    )
    def test_bad_sampler_value_exits_2(self, tmp_path, capsys, key, bad):
        assert cli.main(self._identify(tmp_path, sampler={key: bad})) == 2
        err = capsys.readouterr().err
        assert f"{key} must be" in err and f"got {bad!r}" in err

    @pytest.mark.parametrize("key", ["burnin", "n_sample", "credible_level"])
    def test_unknown_sampler_key_exits_2(self, tmp_path, capsys, key):
        # "burnin" for "burn_in" was dropped: exit 0 with burn_in 0.
        assert cli.main(self._identify(tmp_path, sampler={key: 200})) == 2
        assert f"got {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["false", "true", 0, 1, None])
    def test_bad_regime_switch_exits_2(self, tmp_path, capsys, bad):
        # Stress-only data under a stress-and-strain noise block: "false"
        # reinterpreted it with exit 0.
        argv = self._identify(
            tmp_path, noise={"stress_std": 0.01, "strain_std": 1e-4}, allow_regime_change=bad
        )
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "allow_regime_change must be" in err and f"got {bad!r}" in err

    @pytest.mark.parametrize("bad", ["false", "true", 0, 1, None])
    def test_bad_mismatch_switch_exits_2(self, tmp_path, capsys, bad):
        config = _write_config(tmp_path, TestMismatch()._payload(allow_mismatch=bad))
        assert cli.main(["mismatch", "--config", config, "--output-dir", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert "allow_mismatch must be" in err and f"got {bad!r}" in err

    def test_valid_values_run(self, tmp_path):
        """Every key at a valid value; adaptive false runs the fixed
        proposal, whose chain differs from the adaptive one."""
        sampler = {"adapt_every": 100, "history_cap": 200, "step_scale": 0.5}
        chains = {}
        for adaptive in (False, True):
            argv = self._identify(
                tmp_path, sampler={**sampler, "adaptive": adaptive}, allow_regime_change=False
            )
            assert cli.main(argv) == 0
            chains[adaptive] = (tmp_path / "run" / "chain.csv").read_bytes()
            assert load_chain(tmp_path / "run" / "chain.csv")[0].samples.shape == (300, 2)
        assert chains[False] != chains[True]



class TestOnePriorReader:
    """Every verb reads its prior block through one reader: ``mean`` plus
    ``covariance`` or ``std``, each std entry > 0. ``analytic`` and the
    closed-form ``heterogeneity`` route had a reader of their own, and
    ``identify`` squared a negative std and sampled, exit 0."""

    @pytest.mark.parametrize("bad", [0.0, -50.0])
    @pytest.mark.parametrize(
        "verb, extra, path, mean",
        [
            pytest.param("identify", {}, "prior", [200.0, 0.29], id="identify"),
            pytest.param("mismatch", {}, "fit.prior", [200.0, 0.29], id="mismatch"),
            pytest.param(
                "heterogeneity", {"prior": _DROP, "fit": {"model": "LE", "sampler": {"n_samples": 50}}},
                "fit.prior", [200.0], id="heterogeneity-fit",
            ),
            pytest.param("analytic", {}, "prior", [200.0], id="analytic"),
            pytest.param("heterogeneity", {}, "prior", [200.0], id="heterogeneity"),
        ],
    )
    def test_nonpositive_std_exits_2(self, tmp_path, capsys, verb, extra, path, mean, bad):
        std = [bad, 0.0167][: len(mean)]
        argv = TestTypedConfigReads()._argv(tmp_path, verb, {**extra, path: {"mean": mean, "std": std}})
        assert cli.main(argv) == 2
        assert f"prior std must be > 0, one entry per mean entry, got {std!r}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "chain.csv").exists()

    def test_one_std_entry_per_mean_entry(self, tmp_path, capsys):
        """A one-entry std under a two-entry mean was reported as a 1x1
        covariance."""
        changes = {"prior": {"mean": [200.0, 0.29], "std": [50.0]}}
        assert cli.main(TestTypedConfigReads()._argv(tmp_path, "identify", changes)) == 2
        assert "prior std must be > 0, one entry per mean entry, got [50.0]" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["analytic", "heterogeneity"])
    def test_covariance_and_std_write_the_same_bytes(self, tmp_path, verb):
        """The closed form takes the std back from the covariance: the root
        of 2500.0 is 50.0 exactly."""
        written = []
        for prior in ({"mean": 200.0, "std": 50.0}, {"mean": 200.0, "covariance": [[2500.0]]}):
            assert cli.main(TestTypedConfigReads()._argv(tmp_path, verb, {"prior": prior})) == 0
            written.append((tmp_path / "out").read_bytes())
        assert written[0] == written[1]


def test_negative_band_max_strain_exits_2_before_sampling(tmp_path, capsys):
    """identify sampled the whole chain and wrote chain.csv, chain.json and
    summary.json before the band failed with a message naming no key."""
    argv = TestTypedConfigReads()._argv(tmp_path, "identify", {"band.max_strain": -0.001})
    assert cli.main(argv) == 2
    assert "band max_strain must be >= 0, got -0.001" in capsys.readouterr().err
    assert not (tmp_path / "out" / "chain.csv").exists()


def test_fresh_import_loads_no_heavy_scipy_subpackage():
    """Importing the package and its command line must not load
    scipy.stats, which alone took 0.8 to 1.0 s of a 1.4 s start-up by
    pulling in optimize, integrate, interpolate, sparse and spatial."""
    heavy = ["scipy.stats", "scipy.optimize", "scipy.integrate", "scipy.interpolate",
             "scipy.sparse", "scipy.spatial"]
    code = (
        "import sys, plastinfer, plastinfer.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    src = str(Path(plastinfer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_fresh_import_loads_no_scipy_linalg_special_or_stats():
    """The prior's whitening factor comes from numpy, which is loaded
    anyway; ``scipy.linalg`` took about 75 ms of a 0.55 s import, and
    ``scipy.special``, now imported on first use, about 0.24 s and 24 MB
    (2-core host)."""
    code = (
        "import sys, plastinfer, plastinfer.cli; "
        "print([m for m in ('scipy.linalg', 'scipy.special', 'scipy.stats') if m in sys.modules])"
    )
    src = str(Path(plastinfer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_fresh_stress_and_strain_target_loads_scipy_special_at_its_first_score(tmp_path):
    """``generate`` and building an LE-LH stress-and-strain target load no
    ``scipy.special``; the target's first score loads it and gives the bits
    that this process, which has it loaded, computes."""
    generate = {"model": "LE-LH", "parameters": {"E": 210.0, "sigma_y0": 0.25, "H": 50.0},
                "strains": GRID_12, "noise": {"stress_std": 0.01, "strain_std": 1e-4}, "seed": 8}
    config = _write_config(tmp_path, generate, "generate.json")
    data_path = tmp_path / "data.csv"
    prior = [[200.0, 0.29, 60.0], [[2500.0, 0.0, 0.0], [0.0, 2.7778e-4, 0.0], [0.0, 0.0, 100.0]]]
    point = [[210.0, 0.25, 50.0], [205.0, 0.26, 55.0]]
    code = textwrap.dedent(
        f"""
        import sys
        import numpy as np
        from plastinfer import LogPosterior, ModelKind, TruncatedNormalPrior, cli, read_measurements
        assert cli.main(["generate", "--config", {config!r}, "--output", {str(data_path)!r}]) == 0
        loaded = ["scipy.special" in sys.modules]
        target = LogPosterior(ModelKind.LINEAR_HARDENING, TruncatedNormalPrior(*{prior!r}),
                              read_measurements({str(data_path)!r}))
        loaded.append("scipy.special" in sys.modules)
        values = target.log_density(np.array({point!r}))
        loaded.append("scipy.special" in sys.modules)
        print(loaded, [v.hex() for v in values])
        """
    )
    src = str(Path(plastinfer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    target = plastinfer.LogPosterior(
        ModelKind.LINEAR_HARDENING, plastinfer.TruncatedNormalPrior(*prior), read_measurements(data_path)
    )
    expected = [v.hex() for v in target.log_density(np.array(point))]
    assert done.stdout.strip().splitlines()[-1] == f"{[False, False, True]} {expected}"


def test_fresh_lenh_double_run_loads_neither_scipy_linalg_nor_stats(tmp_path):
    """An LE-NH stress-and-strain run, through the library and through the
    command line, loads neither ``scipy.linalg`` nor ``scipy.stats``: the
    Gauss-Legendre rule of its likelihood comes from numpy's eigensolver,
    where ``scipy.special.roots_legendre`` imported ``scipy.linalg``."""
    code = textwrap.dedent(
        """
        import json, sys
        from pathlib import Path
        import numpy as np
        from plastinfer import (
            LogPosterior, ModelKind, ParameterVector, SamplerConfig, TruncatedNormalPrior, cli,
            generate_double_noise, load_chain, response_band, run_adaptive_mh, save_chain, summarize,
        )
        work = Path(sys.argv[1])
        kind = ModelKind.NONLINEAR_HARDENING
        strains = np.linspace(2.4e-4, 2.88e-3, 12)
        truth = ParameterVector(E=210.0, sigma_y0=0.25, H=2.0, n=0.57)
        data = generate_double_noise(truth, kind, strains, 0.01, 1e-4, seed=3)
        std = np.array([50.0, 0.0166667, 0.333333, 0.05])
        target = LogPosterior(kind, TruncatedNormalPrior([200.0, 0.29, 2.5, 0.57], np.diag(std * std)), data)
        assert np.all(np.isfinite(target.log_density(np.array([[210.0, 0.25, 2.0, 0.57], [200.0, 0.3, 2.5, 0.6]]))))
        chain = run_adaptive_mh(target, SamplerConfig(n_samples=30, burn_in=5, step_scale=0.02, seed=4))
        summarize(chain)
        response_band(kind, chain.samples, strains)
        save_chain(chain, work / "chain.csv", list(kind.parameter_names))
        load_chain(work / "chain.csv")
        generate = {"model": "LE-NH", "parameters": {"E": 210.0, "sigma_y0": 0.25, "H": 2.0, "n": 0.57},
                    "strains": {"start": 2.4e-4, "step": 2.4e-4, "count": 12},
                    "noise": {"stress_std": 0.01, "strain_std": 1e-4}, "seed": 8}
        identify = {"model": "LE-NH", "prior": {"mean": [200.0, 0.29, 2.5, 0.57], "std": std.tolist()},
                    "sampler": {"n_samples": 30, "burn_in": 5, "step_scale": 0.02, "seed": 2}}
        (work / "generate.json").write_text(json.dumps(generate))
        (work / "identify.json").write_text(json.dumps(identify))
        assert cli.main(["generate", "--config", str(work / "generate.json"), "--output", str(work / "data.csv")]) == 0
        assert cli.main(["identify", "--config", str(work / "identify.json"), "--data", str(work / "data.csv"),
                         "--output-dir", str(work / "run")]) == 0
        print([m for m in ("scipy.linalg", "scipy.stats") if m in sys.modules])
        """
    )
    src = str(Path(plastinfer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
