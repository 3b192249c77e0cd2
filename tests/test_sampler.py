"""Sampler, summary, and diagnostic tests.

Targets are built from priors alone where the exact answer is a textbook
moment, and from tiny synthetic datasets where only coarse recovery is
asserted. Every stochastic check fixes its seed and keeps a wide margin;
the two-sampler agreement test is the only one that leans on a
distributional test statistic.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from plastinfer import (
    Chain,
    ConfigurationError,
    DomainError,
    LogPosterior,
    MeasurementSet,
    ModelKind,
    NoiseSpec,
    NumericalError,
    SamplerConfig,
    TruncatedNormalPrior,
    analytic_le_posterior,
    convergence_trace,
    credible_region,
    effective_sample_size,
    generate_single_noise,
    load_chain,
    response_band,
    run_adaptive_mh,
    run_mh,
    save_chain,
    summarize,
    write_measurements,
)
from plastinfer import sampler as sampler_module
from plastinfer.models import ParameterVector, stress
from plastinfer.sampler import CREDIBLE_LEVEL, _history_factor


def _half_normal_target() -> LogPosterior:
    # Prior N(0, 1) truncated to E >= 0 is the standard half-normal.
    prior = TruncatedNormalPrior(mean=[0.0], covariance=[[1.0]])
    return LogPosterior(ModelKind.LINEAR_ELASTIC, prior)


def _gaussian_target(mean: float, var: float) -> LogPosterior:
    prior = TruncatedNormalPrior(mean=[mean], covariance=[[var]])
    return LogPosterior(ModelKind.LINEAR_ELASTIC, prior)


def _mc_error(values: np.ndarray) -> float:
    return float(np.std(values) / np.sqrt(effective_sample_size(values)))


class TestSamplerConfig:
    """Constructor validation."""

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            SamplerConfig(n_samples=0)
        with pytest.raises(ConfigurationError):
            SamplerConfig(n_samples=5, burn_in=5)
        with pytest.raises(ConfigurationError):
            SamplerConfig(n_samples=5, burn_in=-1)

    def test_rejects_bad_scales(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                SamplerConfig(n_samples=10, step_scale=bad)

    def test_rejects_bad_adaptation_settings(self):
        with pytest.raises(ConfigurationError):
            SamplerConfig(n_samples=10, adapt_every=0)
        with pytest.raises(ConfigurationError):
            SamplerConfig(n_samples=10, history_cap=1)

    def test_rejects_nonfinite_initial(self):
        with pytest.raises(ConfigurationError):
            SamplerConfig(n_samples=10, initial=[float("nan")])

    def test_nested_initial_is_refused(self):
        """``initial=[[1], [2]]`` was flattened to [1, 2], where a config
        holding it exits 2: the library reads it as a config does."""
        with pytest.raises(ConfigurationError, match=r"^initial must be at most 1-D, got \[\[1\], \[2\]\]$"):
            SamplerConfig(n_samples=10, initial=[[1], [2]])

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("n_samples", 10.5), ("n_samples", 10.0), ("n_samples", True), ("n_samples", "300"),
            ("n_samples", None), ("burn_in", 2.5), ("burn_in", "2"), ("burn_in", False),
            ("adapt_every", 2.5), ("adapt_every", "100"), ("adapt_every", True),
            ("history_cap", 50.5), ("history_cap", "50"),
            ("step_scale", "1"), ("step_scale", True), ("initial", "abc"), ("initial", [205.0, "0.27"]),
            ("initial", [True]),
        ],
    )
    def test_library_refuses_what_a_config_refuses(self, key, bad):
        """Each setting goes through the reader of the config files: a float
        count, a bool, a numeric string or null constructed (or raised a
        TypeError or ValueError) and failed later inside the chain."""
        settings = {"n_samples": 20, key: bad}
        with pytest.raises(ConfigurationError, match=f"^{key} must be"):
            SamplerConfig(**settings)

    def test_array_likes_and_numpy_scalars_construct(self):
        config = SamplerConfig(
            n_samples=np.int64(20), burn_in=np.int32(2), step_scale=np.float32(0.5), initial=np.array([1.0, 2.0]),
            adapt_every=np.uint8(5), history_cap=np.int64(3), seed=np.uint32(7),
        )
        assert [type(config.n_samples), type(config.burn_in), type(config.step_scale)] == [int, int, float]
        assert (config.adapt_every, config.history_cap, config.step_scale) == (5, 3, 0.5)
        np.testing.assert_array_equal(config.initial, [1.0, 2.0])
        for initial in ((1.0, np.float64(2.0)), np.float32(1.5), np.array(3.0), [np.float32(1.0), 2]):
            assert SamplerConfig(n_samples=20, initial=initial).initial.dtype == float

    @pytest.mark.parametrize("bad", [1.5, -3, "x", True, np.bool_(True), np.int64(-1)])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, bad):
        with pytest.raises(ConfigurationError, match="seed must be"):
            SamplerConfig(n_samples=10, seed=bad)

    def test_numpy_integer_seed_is_stored_as_an_int(self):
        config = SamplerConfig(n_samples=10, seed=np.uint32(7))
        assert config.seed == 7 and type(config.seed) is int
        assert SamplerConfig(n_samples=10, seed=0).seed == 0


class TestRunMh:
    """Fixed-proposal Metropolis on targets with known moments."""

    def test_half_normal_moments(self):
        # E[X] = sqrt(2/pi), Var[X] = 1 - 2/pi for the standard half-normal.
        chain = run_mh(_half_normal_target(), SamplerConfig(n_samples=100_000, burn_in=2_000, seed=42))
        samples, _ = chain.retained()
        values = samples[:, 0]
        se = _mc_error(values)
        assert abs(values.mean() - np.sqrt(2.0 / np.pi)) < 3.0 * se
        assert abs(values.std() - np.sqrt(1.0 - 2.0 / np.pi)) < 0.05 * np.sqrt(1.0 - 2.0 / np.pi)

    def test_chain_too_large_to_allocate_is_a_configuration_error(self):
        """numpy refuses 2**62 states before it touches any memory; the
        ValueError escaped. No size that could be allocated is tried."""
        with pytest.raises(ConfigurationError, match=f"n_samples={2**62} is too large"):
            run_mh(_half_normal_target(), SamplerConfig(n_samples=2**62, seed=1))

    def test_retained_states_stay_in_support(self):
        chain = run_mh(_half_normal_target(), SamplerConfig(n_samples=5_000, seed=1))
        assert np.all(chain.samples >= 0.0)
        assert np.all(np.isfinite(chain.log_densities))

    def test_acceptance_strictly_between_zero_and_one(self):
        chain = run_mh(_gaussian_target(50.0, 4.0), SamplerConfig(n_samples=5_000, seed=2))
        assert 0.0 < chain.acceptance_rate < 1.0

    def test_oversized_steps_are_almost_always_rejected(self):
        config = SamplerConfig(n_samples=3_000, step_scale=50.0, seed=3)
        chain = run_mh(_half_normal_target(), config)
        assert chain.acceptance_rate < 0.05

    def test_fixed_seed_reproduces_bitwise(self):
        config = SamplerConfig(n_samples=2_000, burn_in=100, seed=7)
        a = run_mh(_half_normal_target(), config)
        b = run_mh(_half_normal_target(), config)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.log_densities, b.log_densities)
        assert a.n_accepted == b.n_accepted

    def test_different_seeds_differ(self):
        a = run_mh(_half_normal_target(), SamplerConfig(n_samples=500, seed=7))
        b = run_mh(_half_normal_target(), SamplerConfig(n_samples=500, seed=8))
        assert not np.array_equal(a.samples, b.samples)

    def test_off_support_start_rejected(self):
        with pytest.raises(ConfigurationError, match="support"):
            run_mh(_gaussian_target(200.0, 100.0), SamplerConfig(n_samples=10, initial=[-1.0]))

    def test_wrong_size_start_rejected(self):
        with pytest.raises(ConfigurationError, match="components"):
            run_mh(_gaussian_target(200.0, 100.0), SamplerConfig(n_samples=10, initial=[1.0, 2.0]))


class TestRunAdaptiveMh:
    """History-shaped proposals on correlated and degenerate targets."""

    def test_learns_target_orientation(self):
        # Equal marginal scales put the target's leading axis on the
        # diagonal; the retained-sample covariance should line up with it.
        prior = TruncatedNormalPrior(
            mean=[60.0, 30.0], covariance=[[4.0, 3.42], [3.42, 4.0]]
        )
        target = LogPosterior(ModelKind.PERFECT_PLASTICITY, prior)
        config = SamplerConfig(n_samples=10_000, burn_in=2_000, adapt_every=1_000, seed=5)
        chain = run_adaptive_mh(target, config)
        samples, _ = chain.retained()
        cov = np.cov(samples.T)
        _, vectors = np.linalg.eigh(cov)
        leading = vectors[:, -1]
        axis = np.array([1.0, 1.0]) / np.sqrt(2.0)
        angle = np.degrees(np.arccos(min(1.0, abs(float(leading @ axis)))))
        assert angle < 10.0
        assert 0.0 < chain.acceptance_rate < 1.0

    def test_fixed_seed_reproduces_bitwise(self):
        prior = TruncatedNormalPrior(mean=[60.0, 30.0], covariance=[[4.0, 1.0], [1.0, 2.0]])
        target = LogPosterior(ModelKind.PERFECT_PLASTICITY, prior)
        config = SamplerConfig(n_samples=3_000, adapt_every=500, seed=11)
        a = run_adaptive_mh(target, config)
        b = run_adaptive_mh(target, config)
        assert np.array_equal(a.samples, b.samples)
        assert a.n_accepted == b.n_accepted

    def test_degenerate_history_falls_back_without_crashing(self):
        # A hopeless step scale rejects every proposal, so each adaptation
        # sees an all-identical history and must keep the fixed proposal.
        target = _gaussian_target(5.0, 1.0)
        config = SamplerConfig(
            n_samples=2_000, step_scale=1e9, adapt_every=500, initial=[5.0], seed=0
        )
        chain = run_adaptive_mh(target, config)
        assert chain.n_accepted == 0
        assert np.all(chain.samples == 5.0)

    def test_history_cap_changes_the_run(self):
        target = _gaussian_target(50.0, 4.0)
        base = SamplerConfig(n_samples=4_000, adapt_every=500, seed=21)
        capped = SamplerConfig(n_samples=4_000, adapt_every=500, seed=21, history_cap=600)
        a = run_adaptive_mh(target, base)
        b = run_adaptive_mh(target, capped)
        assert not np.array_equal(a.samples, b.samples)

    def test_agrees_with_fixed_proposal_sampler(self):
        # Same stationary law either way. Thinned marginals from long runs
        # are compared with a two-sample KS test; the seeds are fixed, and
        # the 0.01 cutoff leaves plenty of room, but the check is
        # statistical by nature.
        target = _gaussian_target(50.0, 4.0)
        fixed = run_mh(target, SamplerConfig(n_samples=100_000, burn_in=5_000, seed=101))
        adaptive = run_adaptive_mh(
            target,
            SamplerConfig(
                n_samples=100_000, burn_in=5_000, adapt_every=1_000,
                history_cap=10_000, seed=202,
            ),
        )
        a = fixed.retained()[0][::25, 0]
        b = adaptive.retained()[0][::25, 0]
        result = stats.ks_2samp(a, b)
        assert result.pvalue > 0.01

    def test_before_first_adaptation_equals_run_mh(self):
        # Both entry points run one loop with the same draw order, so an
        # adaptive run that never adapts is run_mh draw for draw.
        prior = TruncatedNormalPrior(mean=[60.0, 30.0], covariance=[[4.0, 1.0], [1.0, 2.0]])
        target = LogPosterior(ModelKind.PERFECT_PLASTICITY, prior)
        for adapt_every in (1_500, 4_000):
            config = SamplerConfig(n_samples=1_500, adapt_every=adapt_every, seed=13)
            a = run_mh(target, config)
            b = run_adaptive_mh(target, config)
            assert np.array_equal(a.samples, b.samples)
            assert np.array_equal(a.log_densities, b.log_densities)
            assert a.n_accepted == b.n_accepted

    def test_history_factor_reproduces_the_history_covariance(self):
        rng = np.random.default_rng(4)
        history = rng.standard_normal((700, 3)) @ np.array(
            [[3.0, 0.0, 0.0], [1.0, 0.2, 0.0], [-2.0, 0.1, 0.05]]
        ) + [200.0, 0.3, 60.0]
        scale = 0.7
        factor = _history_factor(history, scale)
        centered = history - history.mean(axis=0)
        want = scale**2 / (history.shape[0] - 1) * centered.T @ centered
        np.testing.assert_allclose(factor.T @ factor, want, rtol=1e-12, atol=0.0)
        # Fewer states than dimensions: zero-padded to a square factor.
        short = _history_factor(history[:2], scale)
        assert short.shape == (3, 3)
        d = history[1] - history[0]
        np.testing.assert_allclose(short.T @ short, 0.5 * scale**2 * np.outer(d, d), rtol=1e-12)

    def test_rank_deficient_history_keeps_proposals_on_its_line(self):
        direction = np.array([0.6, 0.8])
        history = np.array([5.0, 7.0]) + np.linspace(-2.0, 3.0, 40)[:, None] * direction
        factor = _history_factor(history, 1.0)
        steps = np.random.default_rng(8).standard_normal((1_000, 2)) @ factor
        across = steps @ np.array([-direction[1], direction[0]])
        assert np.max(np.abs(across)) <= 1e-12 * np.max(np.abs(steps))
        assert _history_factor(np.ones((5, 2)), 1.0) is None

    @pytest.mark.parametrize("sampler", [run_mh, run_adaptive_mh])
    def test_each_used_proposal_is_scored_once(self, sampler, monkeypatch):
        """The proposals a one-per-step run scores (the start and one per
        step) are each scored exactly once with lookahead, in at most
        n_samples + 1 target calls."""
        config = SamplerConfig(n_samples=2_500, adapt_every=500, seed=6)
        used = _one_per_step(sampler, _gaussian_target(50.0, 4.0), config, monkeypatch).rows
        assert len(used) == 2_501
        ahead = _Recording(_gaussian_target(50.0, 4.0))
        sampler(ahead, config)
        scored = Counter(ahead.rows)
        assert all(scored[row] == 1 for row in used)
        assert ahead.calls <= 2_501
        assert len(ahead.rows) > len(used)  # some speculative rows went unused

    def test_recovers_elastoplastic_parameters(self):
        # Two-parameter identification from a small synthetic dataset; the
        # posterior mean should land near the generating values with the
        # prior still visibly in play.
        truth = ParameterVector(E=210.0, sigma_y0=0.25)
        strains = np.linspace(2.4e-4, 12 * 2.4e-4, 12)
        data = generate_single_noise(truth, ModelKind.PERFECT_PLASTICITY, strains, 0.01, seed=3)
        prior = TruncatedNormalPrior(
            mean=[200.0, 0.29], covariance=[[2500.0, 0.0], [0.0, 2.7778e-4]]
        )
        target = LogPosterior(ModelKind.PERFECT_PLASTICITY, prior, data)
        chain = run_adaptive_mh(target, SamplerConfig(n_samples=6_000, burn_in=1_500, seed=12))
        summary = summarize(chain)
        assert abs(summary.mean[0] - 210.0) < 10.0
        assert abs(summary.mean[1] - 0.25) < 0.012
        assert summary.map_log_density >= target(summary.mean) - 1e-9


class _Recording:
    """A target wrapper that records every row it scores and every call,
    and raises or returns NaN for rows picked by ``fail`` or ``nan``."""

    def __init__(self, target: LogPosterior, fail=None, nan=None) -> None:
        self.target, self.fail, self.nan = target, fail, nan
        self.dimension, self.prior = target.dimension, target.prior
        self.rows: list[tuple[float, ...]] = []
        self.calls = 0
        self.injected = 0

    def log_density(self, points: np.ndarray) -> np.ndarray:
        self.calls += 1
        rows = [tuple(row) for row in points]
        self.rows.extend(rows)
        if self.fail is not None and any(self.fail(row) for row in rows):
            self.injected += 1
            raise NumericalError(f"injected at {[row for row in rows if self.fail(row)][0]}")
        values = self.target.log_density(points)
        if self.nan is not None:
            values[[self.nan(row) for row in rows]] = np.nan
        return values

    def __call__(self, values: np.ndarray) -> float:
        return float(self.log_density(np.reshape(values, (1, -1)))[0])


def _one_per_step(sampler, target, config, monkeypatch, **injections) -> _Recording:
    """Run ``sampler`` scoring one proposal per call; the recording holds
    the chain as ``chain`` (or the exception as ``error``)."""
    recording = _Recording(target, **injections)
    with monkeypatch.context() as patch:
        patch.setattr(sampler_module, "_MAX_LOOKAHEAD", 1)
        try:
            recording.chain = sampler(recording, config)
        except NumericalError as err:
            recording.error = err
    return recording


def _elastoplastic_target() -> LogPosterior:
    truth = ParameterVector(E=210.0, sigma_y0=0.25)
    strains = np.linspace(2.4e-4, 12 * 2.4e-4, 12)
    data = generate_single_noise(truth, ModelKind.PERFECT_PLASTICITY, strains, 0.01, seed=3)
    prior = TruncatedNormalPrior(mean=[200.0, 0.29], covariance=[[2500.0, 0.0], [0.0, 2.7778e-4]])
    return LogPosterior(ModelKind.PERFECT_PLASTICITY, prior, data)


def _assert_same_chain(a: Chain, b: Chain) -> None:
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.log_densities, b.log_densities)
    assert a.n_accepted == b.n_accepted


class TestLookahead:
    """Scoring the all-reject path ahead in batches changes no chain."""

    @pytest.mark.parametrize("sampler", [run_mh, run_adaptive_mh])
    @pytest.mark.parametrize(
        "make_target, config",
        [
            (_elastoplastic_target, SamplerConfig(n_samples=3_000, adapt_every=700, seed=12)),
            (_half_normal_target, SamplerConfig(n_samples=3_000, adapt_every=500, seed=7)),
            # Almost every step rejected: batches run at the full lookahead.
            (_half_normal_target, SamplerConfig(n_samples=1_000, step_scale=30.0, seed=3)),
        ],
    )
    def test_equals_one_proposal_per_step(self, sampler, make_target, config, monkeypatch):
        reference = _one_per_step(sampler, make_target(), config, monkeypatch).chain
        _assert_same_chain(sampler(make_target(), config), reference)

    def test_batch_holds_about_two_acceptance_intervals(self):
        """After the starting state's one-row call the first batch is
        ``_MAX_LOOKAHEAD`` rows; the batch at step i is
        ceil(2 (i + 4) / (accepted + 1)) rows, clipped to [1, 8] and to the
        chain's end."""
        target = _elastoplastic_target()
        sizes = []
        score = target.log_density

        def recording(points):
            sizes.append(len(points))
            return score(points)

        target.log_density = recording
        chain = run_mh(target, SamplerConfig(n_samples=3_000, seed=12))
        most = sampler_module._MAX_LOOKAHEAD
        assert sizes[:2] == [1, most]
        i, accepted = 0, 0
        for size in sizes[1:]:
            assert size == min(most, -(-2 * (i + 4) // (accepted + 1)), 3_000 - i)
            state = chain.samples[i - 1] if i else target.prior.mean
            moved = np.any(chain.samples[i : i + size] != state, axis=1)
            i += int(np.argmax(moved)) + 1 if moved.any() else size
            accepted += int(moved.any())
        assert i == 3_000 and accepted == chain.n_accepted

    @pytest.mark.parametrize("sampler", [run_mh, run_adaptive_mh])
    def test_error_on_a_speculative_row_is_not_raised(self, sampler, monkeypatch):
        """Every row that a one-per-step run never scores raises; those rows
        all lie past an acceptance, so the chain is unchanged."""
        config = SamplerConfig(n_samples=2_000, adapt_every=500, seed=12)
        reference = _one_per_step(sampler, _elastoplastic_target(), config, monkeypatch)
        used = set(reference.rows)
        ahead = _Recording(_elastoplastic_target(), fail=lambda row: row not in used)
        _assert_same_chain(sampler(ahead, config), reference.chain)
        assert ahead.injected > 0

    @pytest.mark.parametrize("sampler", [run_mh, run_adaptive_mh])
    def test_error_on_a_used_row_is_raised_as_without_lookahead(self, sampler, monkeypatch):
        config = SamplerConfig(n_samples=2_000, adapt_every=500, seed=12)
        used = _one_per_step(sampler, _elastoplastic_target(), config, monkeypatch).rows
        bad = used[1_200]
        reference = _one_per_step(
            sampler, _elastoplastic_target(), config, monkeypatch, fail=lambda row: row == bad
        )
        with pytest.raises(NumericalError) as raised:
            sampler(_Recording(_elastoplastic_target(), fail=lambda row: row == bad), config)
        assert str(raised.value) == str(reference.error)

    @pytest.mark.parametrize("sampler", [run_mh, run_adaptive_mh])
    def test_nan_on_a_used_row_is_an_error(self, sampler, monkeypatch):
        """A NaN target value at a proposal a step uses is an error naming
        the state, not a silent rejection; NaN on rows past an acceptance
        is never seen."""
        config = SamplerConfig(n_samples=2_000, adapt_every=500, seed=12)
        reference = _one_per_step(sampler, _elastoplastic_target(), config, monkeypatch)
        used = set(reference.rows)
        unused_nan = _Recording(_elastoplastic_target(), nan=lambda row: row not in used)
        _assert_same_chain(sampler(unused_nan, config), reference.chain)
        bad = reference.rows[1_200]
        with pytest.raises(NumericalError, match="NaN at proposal .* from state"):
            sampler(_Recording(_elastoplastic_target(), nan=lambda row: row == bad), config)


def _by_hand(target: LogPosterior, config: SamplerConfig) -> Chain:
    """Fixed-proposal Metropolis written out one proposal per step: z from
    child 0 and u from child 1 of ``SeedSequence(seed).spawn(2)``, one
    scalar target call per step."""
    z_stream, u_stream = map(np.random.default_rng, np.random.SeedSequence(config.seed).spawn(2))
    x = np.array(target.prior.mean, dtype=float)
    lp = target(x)
    scale = config.step_scale or 2.38 / math.sqrt(x.size)
    samples, log_densities, accepted = [], [], 0
    for _ in range(config.n_samples):
        proposal = x + scale * z_stream.standard_normal(x.size)
        lp_proposal = target(proposal)
        if lp_proposal - lp >= np.log(1.0 - u_stream.random()):
            x, lp, accepted = proposal, lp_proposal, accepted + 1
        samples.append(x)
        log_densities.append(lp)
    return Chain(np.array(samples), np.array(log_densities), accepted, config)


class TestStreams:
    """Two seeded streams per chain, each drawn once for the whole chain."""

    @pytest.mark.parametrize("make_target", [_elastoplastic_target, _half_normal_target])
    def test_run_mh_is_the_loop_by_hand(self, make_target):
        """The chain's config records the schedule that never adapts,
        ``adapt_every = n_samples``, so ``run_adaptive_mh`` on it replays the
        chain; it kept the caller's ``adapt_every`` of 1,000, which never
        applied."""
        config = SamplerConfig(n_samples=3_000, seed=12)
        chain = run_mh(make_target(), config)
        _assert_same_chain(chain, _by_hand(make_target(), config))
        assert chain.config.adapt_every == config.n_samples
        _assert_same_chain(run_adaptive_mh(make_target(), chain.config), chain)

    def test_first_adaptation_period_is_the_loop_by_hand(self):
        config = SamplerConfig(n_samples=3_000, adapt_every=1_200, seed=5)
        chain = run_adaptive_mh(_elastoplastic_target(), config)
        reference = _by_hand(_elastoplastic_target(), SamplerConfig(n_samples=1_200, seed=5))
        assert np.array_equal(chain.samples[:1_200], reference.samples)
        assert np.array_equal(chain.log_densities[:1_200], reference.log_densities)

    @pytest.mark.parametrize("sampler", [run_mh, run_adaptive_mh])
    def test_long_chain_is_one_proposal_per_step(self, sampler, monkeypatch):
        """A 5,000-step chain, longer than the 4,096-step blocks in which the
        streams were once drawn, equals its one-proposal-per-step replay bit
        for bit; the fixed-proposal one also equals the loop by hand, which
        draws each step's normals and uniform on their own."""
        config = SamplerConfig(n_samples=5_000, adapt_every=1_000, seed=3)
        chain = sampler(_half_normal_target(), config)
        _assert_same_chain(chain, _one_per_step(sampler, _half_normal_target(), config, monkeypatch).chain)
        if sampler is run_mh:
            _assert_same_chain(chain, _by_hand(_half_normal_target(), config))


class TestSummarize:
    """Moment arithmetic on hand-built chains."""

    def _chain(self, samples, log_densities, n_accepted=1, burn_in=0):
        samples = np.asarray(samples, dtype=float)
        return Chain(
            samples=samples,
            log_densities=np.asarray(log_densities, dtype=float),
            n_accepted=n_accepted,
            config=SamplerConfig(n_samples=samples.shape[0], burn_in=burn_in),
        )

    def test_two_state_chain_by_hand(self):
        # Mean 2, population covariance ((1-2)^2 + (3-2)^2)/2 = 1, and the
        # first state carries the larger log-density.
        summary = summarize(self._chain([[1.0], [3.0]], [-1.0, -2.0]))
        assert summary.mean[0] == pytest.approx(2.0)
        assert summary.covariance[0, 0] == pytest.approx(1.0)
        assert summary.std[0] == pytest.approx(1.0)
        assert summary.map_estimate[0] == 1.0
        assert summary.map_log_density == -1.0
        assert summary.n_retained == 2
        assert summary.acceptance_rate == 0.5

    def test_constant_chain(self):
        summary = summarize(self._chain([[7.0, 2.0]] * 5, [-3.0] * 5, n_accepted=0))
        assert np.array_equal(summary.mean, [7.0, 2.0])
        assert np.all(summary.covariance == 0.0)
        assert np.array_equal(summary.map_estimate, [7.0, 2.0])
        assert not summary.credible.ellipsoid_available
        assert np.all(summary.credible.hpd_mask)
        with pytest.raises(NumericalError, match="singular"):
            summary.credible.mahalanobis_sq([[7.0, 2.0]])

    def test_map_density_at_least_mean_density(self):
        chain = run_mh(_gaussian_target(50.0, 4.0), SamplerConfig(n_samples=4_000, seed=6))
        summary = summarize(chain)
        assert summary.map_log_density >= chain.retained()[1].mean()

    def test_burn_in_comes_from_the_config(self):
        chain = self._chain([[1.0], [2.0], [3.0], [4.0]], [-4.0, -3.0, -2.0, -1.0], burn_in=2)
        summary = summarize(chain)
        assert summary.n_retained == 2
        assert summary.mean[0] == pytest.approx(3.5)

    def test_burn_in_past_the_stored_states_rejected(self):
        """A hand-built chain shorter than its configured burn-in has no
        retained state to summarize."""
        chain = Chain(np.ones((3, 1)), np.zeros(3), 0, SamplerConfig(n_samples=10, burn_in=3))
        with pytest.raises(ConfigurationError, match="burn_in 3 leaves none of the chain's 3 samples"):
            summarize(chain)

    def test_matches_analytic_linear_elastic_posterior(self):
        # One-parameter linear fit has a closed-form Gaussian posterior;
        # a moderate chain should reproduce its first two moments.
        truth = ParameterVector(E=210.0)
        strains = np.linspace(2.4e-4, 12 * 2.4e-4, 12)
        data = generate_single_noise(truth, ModelKind.LINEAR_ELASTIC, strains, 0.01, seed=42)
        exact = analytic_le_posterior(200.0, 50.0, data.strains, data.stresses, 0.01)
        prior = TruncatedNormalPrior(mean=[200.0], covariance=[[2500.0]])
        target = LogPosterior(ModelKind.LINEAR_ELASTIC, prior, data)
        chain = run_mh(target, SamplerConfig(n_samples=30_000, burn_in=3_000, step_scale=2.0, seed=9))
        samples, _ = chain.retained()
        se = _mc_error(samples[:, 0])
        summary = summarize(chain)
        assert abs(summary.mean[0] - exact.mean) < 3.0 * se
        assert abs(summary.std[0] - exact.std) < 0.05 * exact.std


class TestCredibleRegion:
    """Ellipsoid and highest-density views on exact Gaussian draws."""

    def test_non_finite_covariance_has_no_ellipsoid(self):
        """Samples near the top of double range overflow the covariance to
        inf and NaN, which Cholesky passes: the ellipsoid was reported
        available."""
        samples = np.array([[1e308, 0.2], [1.5e308, 0.3], [1.7e308, 0.25], [1.2e308, 0.21]])
        with np.errstate(over="ignore", invalid="ignore"):
            region = credible_region(samples, np.arange(4.0))
        assert not np.isfinite(region.covariance).all()
        assert not region.ellipsoid_available
        with pytest.raises(NumericalError, match="not finite"):
            region.contains(samples)

    def test_ellipsoid_coverage_matches_level(self):
        rng = np.random.default_rng(7)
        mean = np.array([10.0, 5.0])
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        draws = rng.multivariate_normal(mean, cov, size=100_000)
        logd = stats.multivariate_normal.logpdf(draws, mean, cov)
        region = credible_region(draws, logd)
        inside = region.contains(draws)
        assert abs(inside.mean() - 0.95) < 0.01
        assert abs(region.hpd_mask.mean() - 0.95) < 0.001
        # With exact Gaussian densities both views bound the same set up
        # to the radius estimate, so they should rarely disagree.
        assert np.mean(inside == region.hpd_mask) > 0.97

    def test_one_dimensional_interval_matches_normal_quantiles(self):
        # The 95% ellipsoid in one dimension is the familiar mean plus or
        # minus 1.96 standard deviations.
        rng = np.random.default_rng(3)
        draws = rng.normal(100.0, 15.0, size=(20_000, 1))
        logd = stats.norm.logpdf(draws[:, 0], 100.0, 15.0)
        region = credible_region(draws, logd)
        assert np.sqrt(region.radius_sq) == pytest.approx(1.959964, abs=1e-5)
        sigma = float(np.sqrt(region.covariance[0, 0]))
        just_inside = region.center + np.array([1.9599 * sigma])
        just_outside = region.center + np.array([1.9601 * sigma])
        assert region.contains(just_inside)[0]
        assert not region.contains(just_outside)[0]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_radius_is_the_chi_squared_quantile_bit_for_bit(self, dim):
        """radius_sq comes from gammaincinv, not scipy.stats; it must equal
        chi2.ppf at the 0.95 credible level exactly."""
        rng = np.random.default_rng(dim)
        draws = rng.normal(size=(50, dim))
        logd = -0.5 * np.sum(draws**2, axis=1)
        assert CREDIBLE_LEVEL == 0.95
        assert credible_region(draws, logd).radius_sq == stats.chi2.ppf(0.95, dim)

    def test_rejects_mismatched_lengths(self):
        draws = np.zeros((5, 2))
        with pytest.raises(ConfigurationError, match="matching"):
            credible_region(draws, np.zeros(4))


class TestConvergenceTrace:
    """The drift score of a chain's running mean."""

    def test_constant_chain_scores_zero(self):
        score = convergence_trace(np.full((200, 2), 3.5))
        assert type(score) is float
        assert score == 0.0

    def test_alternating_chain_settles_at_midpoint(self):
        assert convergence_trace(np.tile([1.0, 3.0], 500)[:, None]) < 0.01

    def test_one_dimensional_chain_is_one_component(self):
        """A 1-D chain of n states was read as one state of n components and
        scored 0.0, whatever its drift."""
        chain = np.linspace(100.0, 200.0, 1000)
        score = convergence_trace(chain)
        assert score == convergence_trace(chain[:, None])
        assert score == pytest.approx(0.1665, abs=1e-4)

    def test_drift_shrinks_with_chain_length(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(100.0, 5.0, size=(40_000, 1))
        assert convergence_trace(samples) < convergence_trace(samples[:400]) / 3.0


class TestEffectiveSampleSize:
    """Autocorrelation-adjusted counts on known processes."""

    def test_independent_draws_keep_most_of_the_count(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=20_000)
        ess = effective_sample_size(values)
        assert 0.6 * values.size <= ess <= values.size

    def test_autoregressive_chain_is_discounted(self):
        # AR(1) with coefficient 0.9 has integrated autocorrelation time
        # (1 + phi) / (1 - phi) = 19.
        rng = np.random.default_rng(6)
        phi = 0.9
        n = 50_000
        values = np.empty(n)
        values[0] = 0.0
        shocks = rng.normal(scale=np.sqrt(1 - phi**2), size=n)
        for i in range(1, n):
            values[i] = phi * values[i - 1] + shocks[i]
        ess = effective_sample_size(values)
        assert n / 40 < ess < n / 9

    @pytest.mark.parametrize("value", [2.0, 0.1, 0.29])
    def test_constant_chain_returns_zero(self, value):
        """A chain that never moves carries no information about the spread;
        it reported its full length. At 0.1 and 0.29 the mean of 1,000 equal
        states rounds off their value, and the size read about 1."""
        assert effective_sample_size(np.full(1_000, value)) == 0.0
        assert effective_sample_size(np.full(4, value)) == 0.0

    def test_tiny_chains_returned_unchanged(self):
        assert effective_sample_size(np.array([1.0, 2.0, 3.0])) == 3.0


class TestResponseBand:
    """Envelope of response curves over parameter draws."""

    GRID = np.linspace(1e-4, 2e-3, 9)

    def test_single_sample_collapses_the_band(self):
        lower, upper = response_band(ModelKind.LINEAR_ELASTIC, [[210.0]], self.GRID)
        np.testing.assert_array_equal(lower, upper)
        np.testing.assert_allclose(lower, 210.0 * self.GRID, rtol=1e-15)

    def test_linear_elastic_band_is_exact(self):
        lower, upper = response_band(ModelKind.LINEAR_ELASTIC, [[200.0], [220.0]], self.GRID)
        np.testing.assert_allclose(lower, 200.0 * self.GRID, rtol=1e-15)
        np.testing.assert_allclose(upper, 220.0 * self.GRID, rtol=1e-15)

    def test_band_narrows_with_more_data(self):
        # Posterior draws from two- and twelve-point fits of the same
        # dataset; more points mean a tighter envelope.
        truth = ParameterVector(E=210.0)
        strains = np.linspace(2.4e-4, 12 * 2.4e-4, 12)
        data = generate_single_noise(truth, ModelKind.LINEAR_ELASTIC, strains, 0.01, seed=42)
        rng = np.random.default_rng(17)
        widths = []
        for k in (2, 12):
            post = analytic_le_posterior(
                200.0, 50.0, data.strains[:k], data.stresses[:k], 0.01
            )
            draws = rng.normal(post.mean, post.std, size=(400, 1))
            lower, upper = response_band(ModelKind.LINEAR_ELASTIC, draws, self.GRID)
            widths.append(upper[-1] - lower[-1])
        assert widths[1] < widths[0]

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_equals_the_per_row_loop(self, kind):
        """One vectorized response over all rows against one ``stress``
        call per row: bitwise for the affine models, to 1e-13 for LE-NH."""
        truth = np.array([210.0, 0.25, 2.0, 0.57][: kind.dimension])
        rng = np.random.default_rng(9)
        rows = np.abs(truth * (1.0 + 0.3 * rng.standard_normal((200, kind.dimension))))
        grid = np.linspace(0.0, 4e-3, 41)
        curves = np.array(
            [stress(grid, ParameterVector.from_array(kind, row), kind) for row in rows]
        )
        lower, upper = response_band(kind, rows, grid)
        if kind is ModelKind.NONLINEAR_HARDENING:
            np.testing.assert_allclose(lower, curves.min(axis=0), rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(upper, curves.max(axis=0), rtol=1e-13, atol=0.0)
        else:
            assert np.array_equal(lower, curves.min(axis=0))
            assert np.array_equal(upper, curves.max(axis=0))

    @pytest.mark.parametrize("rows", [[[-1.0]], [[1.0, 2.0]], [[np.nan]]], ids=["negative", "too-wide", "nan"])
    def test_bad_rows_rejected(self, rows):
        with pytest.raises(DomainError, match="needs finite, nonnegative rows"):
            response_band(ModelKind.LINEAR_ELASTIC, rows, self.GRID)

    def test_with_plastic_model_uses_full_parameter_rows(self):
        lower, upper = response_band(
            ModelKind.PERFECT_PLASTICITY, [[210.0, 0.25], [200.0, 0.20]], self.GRID
        )
        assert np.all(lower <= upper)
        assert upper[-1] == 0.25
        assert lower[-1] == 0.20


class TestChainStorage:
    """CSV round-trips with the JSON sidecar."""

    def _small_chain(self) -> Chain:
        config = SamplerConfig(n_samples=50, burn_in=10, step_scale=1.5, seed=9)
        return run_mh(_gaussian_target(50.0, 4.0), config)

    def test_round_trip_is_bitwise(self, tmp_path):
        chain = self._small_chain()
        path = tmp_path / "chain.csv"
        save_chain(chain, path, parameter_names=["E"])
        loaded, names = load_chain(path)
        assert names == ["E"]
        assert np.array_equal(loaded.samples, chain.samples)
        assert np.array_equal(loaded.log_densities, chain.log_densities)
        assert loaded.n_accepted == chain.n_accepted
        assert loaded.config.n_samples == chain.config.n_samples
        assert loaded.config.burn_in == chain.config.burn_in
        assert loaded.config.step_scale == chain.config.step_scale
        assert loaded.config.seed == chain.config.seed

    @pytest.mark.parametrize(
        "rows, measurements",
        [
            pytest.param(
                [[0.0, -1.0], [1e-300, -2.5e300], [1e300, -0.0], [-1e-320, -np.finfo(float).max], [123.456, -7.0e-5]],
                False,
                id="rows0",
            ),
            pytest.param([[1e300, -3.25]], False, id="rows1"),
            pytest.param([[-0.0, 1e300], [5e-324, -0.0], [1e300, 5e-324]], True, id="measurements"),
        ],
    )
    def test_table_bytes_equal_savetxt(self, tmp_path, rows, measurements):
        """The chain table, and the measurement table written by the same
        writer, hold the bytes of ``np.savetxt``."""
        table = np.array(rows)
        path = tmp_path / "table.csv"
        if measurements:
            write_measurements(MeasurementSet(table[:, 0], table[:, 1], NoiseSpec(stress_std=0.01)), path)
            header = "strain,stress"
        else:
            chain = Chain(
                samples=table[:, :1],
                log_densities=table[:, 1],
                n_accepted=0,
                config=SamplerConfig(n_samples=len(rows)),
            )
            save_chain(chain, path, parameter_names=["E"])
            header = "E,log_density"
        reference = tmp_path / "reference.csv"
        np.savetxt(reference, table, fmt="%.17g", delimiter=",", header=header, comments="")
        assert path.read_bytes() == reference.read_bytes()

    def test_malformed_sidecar_rejected(self, tmp_path):
        path = tmp_path / "chain.csv"
        save_chain(self._small_chain(), path, ["E"])
        path.with_suffix(".json").write_text('{"n_samples": 50,')
        with pytest.raises(ConfigurationError, match=r"malformed chain sidecar .*chain\.json"):
            load_chain(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "chain.csv"
        save_chain(self._small_chain(), path, ["E"])
        lines = path.read_text().splitlines()
        lines[3] = "x," + lines[3].split(",")[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match=r"chain\.csv:4: non-numeric value in 'x,.*could not convert"):
            load_chain(path)

    def test_round_trip_is_bitwise_from_subnormals_to_huge(self, tmp_path):
        """Every value, signed zeros, subnormals and the largest magnitudes
        included, comes back with its bits; a log-density of -inf is not
        written at all (a CSV table holds no infinity)."""
        rng = np.random.default_rng(5)
        samples = np.ldexp(rng.random((2_000, 2)), rng.integers(-1074, 1024, (2_000, 2)))
        log_densities = -np.ldexp(rng.random(2_000), rng.integers(-1074, 1024, 2_000))
        samples[:3] = [[-0.0, 5e-324], [np.finfo(float).max, 0.0], [2.2250738585072014e-308, 1e-320]]
        log_densities[:2] = [-np.inf, -0.0]
        chain = Chain(samples, log_densities, 17, SamplerConfig(n_samples=2_000, burn_in=100, seed=3))
        path = tmp_path / "chain.csv"
        with pytest.raises(NumericalError, match="log_density is not finite"):
            save_chain(chain, path, parameter_names=["a", "b"])
        assert not path.exists()
        log_densities[0] = -np.finfo(float).max
        save_chain(chain, path, parameter_names=["a", "b"])
        loaded, names = load_chain(path)
        assert names == ["a", "b"]
        assert loaded.samples.tobytes() == samples.tobytes()
        assert loaded.log_densities.tobytes() == log_densities.tobytes()

    def test_header_only_table_rejected(self, tmp_path):
        """numpy's "input contained no data" warning escaped, and the empty
        table was then reported as a parameter-name count of -1."""
        path = tmp_path / "chain.csv"
        save_chain(self._small_chain(), path, ["E"])
        path.write_text(path.read_text().splitlines()[0] + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=r"chain table .*chain\.csv has no rows"):
                load_chain(path)

    @pytest.mark.parametrize(
        "key",
        ["n_samples", "burn_in", "step_scale", "initial", "adapt_every", "history_cap", "seed", "n_accepted"],
    )
    def test_missing_setting_rejected(self, tmp_path, key):
        """Every setting is required: the loader never falls back to the
        command line's defaults for a key that ``save_chain`` always writes."""
        path = tmp_path / "chain.csv"
        save_chain(self._small_chain(), path, ["E"])
        sidecar = json.loads(path.with_suffix(".json").read_text())
        del sidecar[key]
        path.with_suffix(".json").write_text(json.dumps(sidecar))
        with pytest.raises(ConfigurationError, match=key):
            load_chain(path)

    def test_missing_parameter_names_rejected(self, tmp_path):
        path = tmp_path / "chain.csv"
        save_chain(self._small_chain(), path, ["E"])
        sidecar = json.loads(path.with_suffix(".json").read_text())
        del sidecar["parameter_names"]
        path.with_suffix(".json").write_text(json.dumps(sidecar))
        with pytest.raises(ConfigurationError, match="parameter_names"):
            load_chain(path)

    def test_wrong_name_count_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="parameter names"):
            save_chain(self._small_chain(), tmp_path / "chain.csv", parameter_names=["a", "b"])

    def test_missing_sidecar_rejected(self, tmp_path):
        chain = self._small_chain()
        path = tmp_path / "chain.csv"
        save_chain(chain, path, ["E"])
        path.with_suffix(".json").unlink()
        with pytest.raises(ConfigurationError, match="sidecar"):
            load_chain(path)

    def test_truncated_table_rejected(self, tmp_path):
        """A table cut short of the sidecar's run length loaded as it stood,
        with burn_in reset to 0 and a UserWarning naming both counts."""
        chain = self._small_chain()
        path = tmp_path / "chain.csv"
        save_chain(chain, path, ["E"])
        path.write_text("\n".join(path.read_text().splitlines()[:11]) + "\n")
        message = rf"chain table .*chain\.csv holds 10 rows but its sidecar records n_samples={chain.config.n_samples}"
        with pytest.raises(ConfigurationError, match=message):
            load_chain(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        """A cell edited to nan, inf or -inf loaded as a number: a 3-state
        chain gave samples [1, nan, 3], though ``save_chain`` writes none."""
        chain = Chain(np.array([[1.0], [2.0], [3.0]]), np.full(3, -1.0), 2, SamplerConfig(n_samples=3))
        path = tmp_path / "chain.csv"
        save_chain(chain, path, ["E"])
        for cell in ("nan", "inf", "-inf"):
            lines = path.read_text().splitlines()
            lines[2] = f"{cell},-1"
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ConfigurationError, match=rf"chain\.csv:3: non-finite value in '{cell},-1'"):
                load_chain(path)

    @pytest.mark.parametrize("header", ["sigma_y0,E,log_density", "a,b,c", "E,sigma_y0,logp"])
    def test_edited_header_rejected(self, tmp_path, header):
        """The table's header was thrown away: a chain whose columns were
        renamed or reordered loaded under the sidecar's names."""
        chain = Chain(np.array([[1.0, 2.0], [3.0, 4.0]]), np.full(2, -1.0), 1, SamplerConfig(n_samples=2))
        path = tmp_path / "chain.csv"
        save_chain(chain, path, ["E", "sigma_y0"])
        lines = path.read_text().splitlines()
        path.write_text("\n".join([header, *lines[1:]]) + "\n")
        message = rf"chain\.csv:1: expected header 'E,sigma_y0,log_density', got '{header}'"
        with pytest.raises(ConfigurationError, match=message):
            load_chain(path)

    def test_more_acceptances_than_steps_rejected(self, tmp_path):
        """A sidecar counting more acceptances than steps loaded and reported
        an acceptance rate above 1: 51 over 50 steps."""
        path = tmp_path / "chain.csv"
        save_chain(self._small_chain(), path, ["E"])
        sidecar = json.loads(path.with_suffix(".json").read_text())
        sidecar["n_accepted"] = 51
        path.with_suffix(".json").write_text(json.dumps(sidecar))
        with pytest.raises(ConfigurationError, match=r"sidecar n_accepted must be <= n_samples=50, got 51"):
            load_chain(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_samples", "20"),
            ("n_samples", None),
            ("burn_in", 5.9),
            ("n_accepted", True),
            ("n_accepted", -1),
            ("adapt_every", "1000"),
            ("step_scale", "1.5"),
            ("initial", ["50.0"]),
            ("history_cap", 2.5),
            ("parameter_names", "Ex"),
            ("parameter_names", ["E", "x"]),
            ("parameter_names", [1.0]),
            ("parameter_names", None),
        ],
    )
    def test_mistyped_sidecar_value_rejected(self, tmp_path, key, value):
        """Sidecar values go through the typed config readers: a string,
        bool, float or null where an integer or number belongs is never
        parsed, truncated or cast, and the error names the key. The
        parameter names are a list of one string per parameter column."""
        path = tmp_path / "chain.csv"
        save_chain(self._small_chain(), path, ["E"])
        sidecar = json.loads(path.with_suffix(".json").read_text())
        sidecar[key] = value
        path.with_suffix(".json").write_text(json.dumps(sidecar))
        with pytest.raises(ConfigurationError, match=key):
            load_chain(path)
