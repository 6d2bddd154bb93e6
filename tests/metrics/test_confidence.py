"""Unit tests for confidence intervals."""

import statistics

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metrics.confidence import (
    mean_confidence_interval,
    student_t_cdf,
    student_t_ppf,
)


def test_single_sample_degenerate():
    ci = mean_confidence_interval([5.0])
    assert ci.mean == 5.0
    assert ci.half_width == 0.0
    assert ci.n == 1


def test_constant_samples_zero_width():
    ci = mean_confidence_interval([3.0, 3.0, 3.0])
    assert ci.mean == 3.0
    assert ci.half_width == 0.0


def test_interval_contains_mean_and_bounds():
    ci = mean_confidence_interval([1.0, 2.0, 3.0], level=0.90)
    assert ci.mean == pytest.approx(2.0)
    assert ci.low < 2.0 < ci.high
    assert ci.contains(2.0)
    assert not ci.contains(ci.high + 0.001)


def test_known_t_value():
    # n=3, 90% -> t(0.95, df=2) = 2.9200; s = 1.0; sem = 1/sqrt(3).
    ci = mean_confidence_interval([1.0, 2.0, 3.0], level=0.90)
    expected = 2.9200 * (1.0 / np.sqrt(3.0))
    assert ci.half_width == pytest.approx(expected, rel=1e-3)


def test_higher_level_wider_interval():
    samples = [1.0, 2.0, 4.0, 8.0]
    narrow = mean_confidence_interval(samples, level=0.80)
    wide = mean_confidence_interval(samples, level=0.99)
    assert wide.half_width > narrow.half_width


def test_coverage_monte_carlo():
    rng = np.random.default_rng(42)
    covered = 0
    trials = 400
    for _ in range(trials):
        samples = rng.normal(10.0, 2.0, size=8)
        if mean_confidence_interval(list(samples), level=0.90).contains(10.0):
            covered += 1
    assert covered / trials == pytest.approx(0.90, abs=0.05)


def test_str_rendering():
    text = str(mean_confidence_interval([1.0, 2.0], level=0.90))
    assert "±" in text
    assert "n=2" in text


def test_invalid_inputs_rejected():
    with pytest.raises(ConfigurationError):
        mean_confidence_interval([])
    with pytest.raises(ConfigurationError):
        mean_confidence_interval([1.0], level=1.5)


@pytest.mark.parametrize(
    "p, df, expected",
    [(0.95, 2, 2.919986), (0.975, 10, 2.228139), (0.995, 30, 2.749996)],
)
def test_textbook_t_values(p, df, expected):
    assert student_t_ppf(p, df) == pytest.approx(expected, abs=5e-7)


# Reference quantiles recorded from scipy.stats.t.ppf (SciPy 1.17.1).
@pytest.mark.parametrize(
    "p, df, expected",
    [
        (0.95, 2, 2.9199855803537242),
        (0.975, 10, 2.228138851986274),
        (0.995, 30, 2.7499956535672254),
        (0.9, 1, 3.0776835371752544),
        (0.95, 4, 2.1318467863266495),
        (0.8, 7, 0.8960296443137653),
        (0.999, 59, 3.2342073444472925),
        (0.95, 999, 1.646380345427535),
    ],
)
def test_t_quantiles_match_reference(p, df, expected):
    assert student_t_ppf(p, df) == pytest.approx(expected, rel=1e-12)
    assert student_t_ppf(1.0 - p, df) == pytest.approx(-expected, rel=1e-12)


def test_t_quantile_approaches_normal():
    z = statistics.NormalDist().inv_cdf(0.95)
    gaps = [student_t_ppf(0.95, df) - z for df in (9, 99, 999)]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    assert gaps[2] < 2e-3


@pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 30, 999])
@pytest.mark.parametrize("p", [0.5, 0.8, 0.9, 0.95, 0.975, 0.999])
def test_t_cdf_inverts_ppf(p, df):
    assert student_t_cdf(student_t_ppf(p, df), df) == pytest.approx(p, abs=1e-12)


def test_t_ppf_rejects_bad_level():
    with pytest.raises(ConfigurationError):
        student_t_ppf(1.0, 3)
