"""Confidence intervals over replications.

The paper: "Enough runs to guarantee a 90% confidence interval were
performed."  We replicate runs with independent seed families and compute
Student-t intervals for each reported measure.

The t quantile comes from the exact finite series for the Student-t CDF at
integer degrees of freedom (Abramowitz & Stegun 26.7.3/26.7.4), inverted by
bisection; the degrees of freedom here are always ``n - 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    level: float
    n: int

    @property
    def low(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies within the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_width:.3f} ({self.level:.0%}, n={self.n})"


def _abs_t_probability(theta: float, df: int) -> float:
    """``P(|T| <= t)`` for ``t = sqrt(df) * tan(theta)``, signed like ``theta``.

    Abramowitz & Stegun 26.7.3 (odd ``df``) and 26.7.4 (even ``df``).
    """
    sin, cos = math.sin(theta), math.cos(theta)
    cos2 = cos * cos
    term = total = 1.0
    if df % 2 == 0:
        for k in range(1, df // 2):
            term *= cos2 * (2 * k - 1) / (2 * k)
            total += term
        return sin * total
    if df == 1:
        return 2.0 * theta / math.pi
    for k in range(1, (df - 1) // 2):
        term *= cos2 * (2 * k) / (2 * k + 1)
        total += term
    return 2.0 / math.pi * (theta + sin * cos * total)


def student_t_cdf(t: float, df: int) -> float:
    """CDF of Student's t distribution with integer ``df >= 1``."""
    return 0.5 + 0.5 * _abs_t_probability(math.atan(t / math.sqrt(df)), df)


def student_t_ppf(p: float, df: int) -> float:
    """Quantile of Student's t distribution with integer ``df >= 1``.

    Bisects ``theta = atan(t / sqrt(df))`` over ``(-pi/2, pi/2)`` until the
    bracket stops shrinking.
    """
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"quantile level must be in (0, 1), got {p}")
    target = 2.0 * p - 1.0
    lo, hi = -0.5 * math.pi, 0.5 * math.pi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _abs_t_probability(mid, df) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(df) * math.tan(0.5 * (lo + hi))


def mean_confidence_interval(
    samples: Sequence[float], level: float = 0.90
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``samples``.

    A single sample yields a degenerate interval with zero half-width (the
    caller is expected to replicate; this keeps smoke tests cheap).
    """
    if not samples:
        raise ConfigurationError("confidence interval over zero samples")
    if not 0.0 < level < 1.0:
        raise ConfigurationError(f"level must be in (0, 1), got {level}")
    n = len(samples)
    mean = float(np.mean(samples))
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0, level=level, n=1)
    sem = float(np.std(samples, ddof=1)) / math.sqrt(n)
    t_crit = student_t_ppf(0.5 + level / 2.0, n - 1)
    return ConfidenceInterval(mean=mean, half_width=t_crit * sem, level=level, n=n)
