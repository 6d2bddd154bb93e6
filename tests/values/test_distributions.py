"""Unit tests for execution-time distributions (paper Definitions 3-4)."""

import pytest

from repro.errors import ConfigurationError
from repro.values.distributions import (
    DeterministicExecution,
    EmpiricalExecution,
    ExponentialExecution,
    NormalExecution,
    UniformExecution,
)


class TestDeterministic:
    def test_survival_step(self):
        dist = DeterministicExecution(2.0)
        assert dist.survival(1.9) == 1.0
        assert dist.survival(2.0) == 0.0
        assert dist.mean() == 2.0

    def test_conditional_finish(self):
        dist = DeterministicExecution(2.0)
        # Already ran 1s; finishes by total time 2.0 with certainty.
        assert dist.conditional_finish_by(2.0, elapsed=1.0) == 1.0
        assert dist.conditional_finish_by(1.5, elapsed=1.0) == 0.0

    def test_conditional_after_support_exhausted(self):
        dist = DeterministicExecution(2.0)
        # Survived past the deterministic duration: treated as immediate.
        assert dist.conditional_finish_by(3.0, elapsed=2.5) == 1.0

    def test_invalid_duration(self):
        with pytest.raises(ConfigurationError):
            DeterministicExecution(0.0)


class TestUniform:
    def test_survival_shape(self):
        dist = UniformExecution(1.0, 3.0)
        assert dist.survival(0.5) == 1.0
        assert dist.survival(2.0) == pytest.approx(0.5)
        assert dist.survival(3.0) == 0.0
        assert dist.mean() == pytest.approx(2.0)

    def test_conditional_is_renormalized(self):
        dist = UniformExecution(1.0, 3.0)
        # Given survival past 2.0, finishing by 2.5 has probability 0.5.
        assert dist.conditional_finish_by(2.5, elapsed=2.0) == pytest.approx(0.5)

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformExecution(3.0, 1.0)


class TestExponential:
    def test_memoryless(self):
        dist = ExponentialExecution(mean=2.0)
        fresh = dist.conditional_finish_by(1.0, elapsed=0.0)
        conditioned = dist.conditional_finish_by(4.0, elapsed=3.0)
        assert fresh == pytest.approx(conditioned)

    def test_mean(self):
        assert ExponentialExecution(2.0).mean() == 2.0

    def test_survival_decreasing(self):
        dist = ExponentialExecution(1.0)
        values = [dist.survival(x) for x in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values, reverse=True)


class TestNormal:
    def test_truncation_keeps_mass_positive(self):
        dist = NormalExecution(mu=1.0, sigma=2.0)
        assert dist.survival(0.0) == pytest.approx(1.0)
        assert 0.0 < dist.survival(1.0) < 1.0
        assert dist.mean() > 1.0  # truncation at 0 shifts the mean up

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            NormalExecution(mu=0.0, sigma=1.0)

    # Reference values recorded from scipy.stats.truncnorm(a=-mu/sigma,
    # b=inf, loc=mu, scale=sigma) (SciPy 1.17.1): mean, then sf at x.
    @pytest.mark.parametrize(
        "mu, sigma, mean, survival",
        [
            (1.0, 2.0, 2.018320867674067, {
                0.5: 0.8658551392360663, 1.0: 0.723105053423659,
                2.5: 0.32775076749547544, 5.0: 0.03290147075556683,
                12.0: 2.7462897162775264e-08,
            }),
            (10.0, 3.0, 10.004628823033226, {
                0.5: 0.9996579287795351, 5.0: 0.9526183784860679,
                12.0: 0.2526009185812152,
            }),
            (0.5, 1.0, 1.0091604338370335, {
                1.0: 0.44621010684731793, 5.0: 4.913749212748108e-06,
                12.0: 9.538871327824557e-31,
            }),
            (3.0, 0.5, 3.0000000030379415, {
                1.0: 0.9999683297447233, 2.5: 0.8413447468986033,
                12.0: 9.740948928546966e-73,
            }),
        ],
    )
    def test_matches_reference(self, mu, sigma, mean, survival):
        dist = NormalExecution(mu=mu, sigma=sigma)
        assert dist.mean() == pytest.approx(mean, rel=1e-12)
        for x, expected in survival.items():
            assert dist.survival(x) == pytest.approx(expected, rel=1e-12)


class TestEmpirical:
    def test_survival_from_samples(self):
        dist = EmpiricalExecution([1.0, 2.0, 3.0, 4.0])
        assert dist.survival(0.5) == 1.0
        assert dist.survival(2.0) == pytest.approx(0.5)
        assert dist.survival(4.0) == 0.0
        assert dist.mean() == pytest.approx(2.5)

    def test_observe_updates(self):
        dist = EmpiricalExecution([1.0])
        dist.observe(3.0)
        assert dist.mean() == pytest.approx(2.0)
        assert dist.survival(2.0) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            EmpiricalExecution([])

    def test_non_positive_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            EmpiricalExecution([1.0]).observe(0.0)


class TestHorizon:
    def test_horizon_reaches_target_probability(self):
        dist = ExponentialExecution(mean=1.0)
        horizon = dist.horizon(elapsed=0.0, epsilon=0.01)
        assert dist.conditional_finish_by(horizon, 0.0) >= 0.99

    def test_horizon_at_least_elapsed(self):
        dist = DeterministicExecution(2.0)
        assert dist.horizon(elapsed=1.0) >= 1.0

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            ExponentialExecution(1.0).horizon(0.0, epsilon=0.0)
