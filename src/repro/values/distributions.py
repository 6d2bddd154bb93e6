"""Execution-time distributions and survival functions (paper Definition 3).

The paper associates with each transaction class :math:`C_u` a *finish
probability density function* :math:`F_u(x)` — despite the name, the paper
defines it as a survival function:

.. math:: F_u(x) = \\Pr[\\text{execution time of a } C_u \\text{ transaction} > x]

SCC-DC conditions on elapsed execution (Definition 4): a shadow that has
already run :math:`\\epsilon` time units finishes by :math:`x` with
probability :math:`(F_u(\\epsilon) - F_u(x)) / F_u(\\epsilon)`.

We provide the distributions RTDBS studies actually use (deterministic,
uniform, exponential, truncated normal) plus an empirical distribution
learned from observed completions, which implements the paper's remark that
class statistics "can be obtained off-line from the previous history of the
system, or at run-time from collected statistical results".
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


class ExecutionDistribution(ABC):
    """Distribution of a transaction class's total execution time."""

    @abstractmethod
    def survival(self, x: float) -> float:
        """:math:`F_u(x)`: probability execution takes *more* than ``x``."""

    @abstractmethod
    def mean(self) -> float:
        """Average execution time :math:`E_{C_u}` of the class."""

    def cdf(self, x: float) -> float:
        """Probability execution finishes within ``x`` time units."""
        return 1.0 - self.survival(x)

    def conditional_finish_by(self, x: float, elapsed: float) -> float:
        """Definition 4: ``Prob[finish by x | still running after elapsed]``.

        Args:
            x: Total execution time bound being asked about.
            elapsed: Execution time already consumed (:math:`\\epsilon`).

        Returns:
            :math:`(F_u(\\epsilon) - F_u(x)) / F_u(\\epsilon)`, clamped to
            [0, 1].  When the survival at ``elapsed`` is (numerically) zero
            the shadow has outlived the distribution's support and we treat
            it as finishing immediately (probability 1 for any ``x >=
            elapsed``), which keeps SCC-DC's sums well defined.
        """
        if x < elapsed:
            return 0.0
        s_elapsed = self.survival(elapsed)
        if s_elapsed <= 1e-12:
            return 1.0
        prob = (s_elapsed - self.survival(x)) / s_elapsed
        return min(1.0, max(0.0, prob))

    def horizon(self, elapsed: float, epsilon: float = 0.01) -> float:
        """Smallest ``x`` with conditional finish probability ``>= 1 - epsilon``.

        This is the paper's :math:`l_i` bound used to truncate SCC-DC's
        infinite sums "introducing arbitrarily small errors".  Computed by
        doubling search then bisection; always at least ``elapsed``.
        """
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        target = 1.0 - epsilon
        lo = max(elapsed, 1e-12)
        hi = max(self.mean(), lo) * 2.0
        for _ in range(128):
            if self.conditional_finish_by(hi, elapsed) >= target:
                break
            hi *= 2.0
        else:  # pragma: no cover - distribution with unbounded heavy tail
            return hi
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if self.conditional_finish_by(mid, elapsed) >= target:
                hi = mid
            else:
                lo = mid
        return hi


class DeterministicExecution(ExecutionDistribution):
    """All transactions of the class take exactly ``duration`` time units."""

    def __init__(self, duration: float) -> None:
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration}")
        self._duration = duration

    def survival(self, x: float) -> float:
        return 1.0 if x < self._duration else 0.0

    def mean(self) -> float:
        return self._duration


class UniformExecution(ExecutionDistribution):
    """Execution time uniform on ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low < high:
            raise ConfigurationError(f"need 0 <= low < high, got [{low}, {high}]")
        self._low = low
        self._high = high

    def survival(self, x: float) -> float:
        if x <= self._low:
            return 1.0
        if x >= self._high:
            return 0.0
        return (self._high - x) / (self._high - self._low)

    def mean(self) -> float:
        return 0.5 * (self._low + self._high)


class ExponentialExecution(ExecutionDistribution):
    """Memoryless execution time with the given mean."""

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise ConfigurationError(f"mean must be positive, got {mean}")
        self._mean = mean

    def survival(self, x: float) -> float:
        if x <= 0:
            return 1.0
        return math.exp(-x / self._mean)

    def mean(self) -> float:
        return self._mean


class NormalExecution(ExecutionDistribution):
    """Execution time normal(mu, sigma) truncated to positive values.

    With :math:`z(x) = (x - \\mu) / (\\sigma\\sqrt{2})`, the survival is
    :math:`\\operatorname{erfc}(z(x)) / \\operatorname{erfc}(z(0))` and the
    mean is :math:`\\mu + \\sigma\\,\\varphi(\\alpha) / \\Phi(-\\alpha)`
    for :math:`\\alpha = -\\mu / \\sigma`.
    """

    def __init__(self, mu: float, sigma: float) -> None:
        if mu <= 0 or sigma <= 0:
            raise ConfigurationError(
                f"mu and sigma must be positive, got mu={mu}, sigma={sigma}"
            )
        self._mu = mu
        self._sigma = sigma
        # Truncation at 0: renormalize by the mass above zero.
        self._mass_above_zero = 0.5 * math.erfc(-mu / (sigma * math.sqrt(2.0)))

    def survival(self, x: float) -> float:
        if x <= 0:
            return 1.0
        tail = 0.5 * math.erfc((x - self._mu) / (self._sigma * math.sqrt(2.0)))
        return tail / self._mass_above_zero

    def mean(self) -> float:
        alpha = -self._mu / self._sigma
        density = math.exp(-0.5 * alpha * alpha) / math.sqrt(2.0 * math.pi)
        return self._mu + self._sigma * density / self._mass_above_zero


class EmpiricalExecution(ExecutionDistribution):
    """Survival function estimated from observed execution times.

    Implements the paper's "collected statistical results" option: feed in
    the execution times of completed transactions of the class and the
    distribution answers survival queries from the empirical CDF.
    """

    def __init__(self, samples: Sequence[float]) -> None:
        cleaned = sorted(float(s) for s in samples if s > 0)
        if not cleaned:
            raise ConfigurationError("empirical distribution needs at least one sample")
        self._samples = cleaned
        self._mean = float(np.mean(cleaned))

    def survival(self, x: float) -> float:
        if x < self._samples[0]:
            return 1.0
        # Fraction of samples strictly greater than x.
        idx = bisect.bisect_right(self._samples, x)
        return (len(self._samples) - idx) / len(self._samples)

    def mean(self) -> float:
        return self._mean

    def observe(self, sample: float) -> None:
        """Fold one more observed execution time into the estimate."""
        if sample <= 0:
            raise ConfigurationError(f"samples must be positive, got {sample}")
        bisect.insort(self._samples, float(sample))
        self._mean = float(np.mean(self._samples))
