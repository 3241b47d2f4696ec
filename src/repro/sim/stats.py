"""Statistics collection for simulation models.

Three collector types cover everything the model reports:

* :class:`Counter` -- monotonically increasing occurrence counts.
* :class:`Tally` -- per-observation statistics (mean, variance, min,
  max, optional percentiles), e.g. response times.
* :class:`TimeWeighted` -- time-integrated statistics for state
  variables such as queue lengths or busy servers; its mean over an
  interval is the time average (utilization when the variable is the
  busy-server count divided by capacity).

All collectors support :meth:`reset` so that a warm-up period can be
discarded before measurement starts, as is standard practice for
steady-state simulation.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

__all__ = ["Counter", "Tally", "TimeWeighted", "StatsRegistry"]


class Counter:
    """A simple occurrence counter."""

    __slots__ = ("name", "count")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0

    def increment(self, amount: int = 1) -> None:
        self.count += amount

    def reset(self) -> None:
        self.count = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, count={self.count})"


class Tally:
    """Per-observation statistics with Welford's online algorithm.

    If ``keep_samples`` is true, all observations are retained so that
    percentiles can be computed; otherwise only the moments are kept.

    Zero-valued observations may be recorded *deferred*: a caller on a
    hot path increments ``count`` and ``_zeros`` instead of running the
    full Welford update (see ``Resource``'s uncontended grants, where
    the waiting time is 0.0 by construction).  The pending zeros are
    folded into the moments with the exact pairwise-merge formula
    before anything reads or records through them, so every property
    returns the same statistics as eager recording would (merging a
    block of equal observations is mathematically exact; only the
    float rounding of the intermediate sums differs).
    """

    __slots__ = ("name", "count", "_mean", "_m2", "_min", "_max", "_zeros", "_samples")

    def __init__(self, name: str = "", keep_samples: bool = False) -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._zeros = 0
        self._samples: Optional[List[float]] = [] if keep_samples else None

    def _fold(self) -> None:
        """Fold deferred zero observations into the moments.

        Chan et al.'s parallel-merge formula for combining the running
        moments with a block of ``k`` zeros (mean 0, M2 0): with
        ``delta = -mean``, the merged mean is ``mean * n_old / n`` and
        ``M2 += delta^2 * n_old * k / n = mean * new_mean * k``.
        ``count`` already includes the zeros (it is kept eager so
        direct readers never see a stale total).
        """
        k = self._zeros
        if not k:
            return
        self._zeros = 0
        n = self.count
        n_old = n - k
        if n_old:
            mean = self._mean
            new_mean = mean * (n_old / n)
            self._m2 += mean * new_mean * k
            self._mean = new_mean
        if self._min > 0.0:
            self._min = 0.0
        if self._max < 0.0:
            self._max = 0.0

    def record(self, value: float) -> None:
        if self._zeros:
            self._fold()
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self._samples is not None:
            self._samples.append(value)

    @property
    def mean(self) -> float:
        if self._zeros:
            self._fold()
        return self._mean if self.count else 0.0

    @property
    def min(self) -> Optional[float]:
        """Smallest observation, or None for an empty tally.

        None (JSON ``null``) rather than ``inf``: ``json.dump`` renders
        ``inf`` as the non-standard ``Infinity`` token, which strict
        JSON parsers reject.
        """
        if self._zeros:
            self._fold()
        return self._min if self.count else None

    @property
    def max(self) -> Optional[float]:
        """Largest observation, or None for an empty tally."""
        if self._zeros:
            self._fold()
        return self._max if self.count else None

    @property
    def variance(self) -> float:
        if self._zeros:
            self._fold()
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def percentile(self, q: float) -> float:
        """Return the ``q``-quantile (0 <= q <= 1) of retained samples."""
        if self._samples is None:
            raise ValueError("Tally was created without keep_samples=True")
        if not self._samples:
            return 0.0
        data = sorted(self._samples)
        if q <= 0:
            return data[0]
        if q >= 1:
            return data[-1]
        pos = q * (len(data) - 1)
        lower = int(pos)
        frac = pos - lower
        if lower + 1 >= len(data):
            return data[-1]
        # data[a] + frac * (data[b] - data[a]) is exact for equal
        # neighbours (the symmetric form can exceed them by one ulp).
        return data[lower] + frac * (data[lower + 1] - data[lower])

    def summary(self) -> Dict[str, Optional[float]]:
        """JSON-safe summary dict (no ``inf`` even when empty)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.min,
            "max": self.max,
        }

    def reset(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._zeros = 0
        if self._samples is not None:
            self._samples = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tally({self.name!r}, n={self.count}, mean={self.mean:.6g})"


class TimeWeighted:
    """Time-weighted statistics for a piecewise-constant state variable.

    Call :meth:`update` whenever the variable changes.  The time-average
    over the observation interval is ``area / elapsed``.
    """

    __slots__ = ("name", "_value", "_last_time", "_start_time", "_area", "max")

    def __init__(self, name: str = "", initial: float = 0.0, now: float = 0.0) -> None:
        self.name = name
        self._value = initial
        self._last_time = now
        self._start_time = now
        self._area = 0.0
        self.max = initial

    @property
    def value(self) -> float:
        return self._value

    def update(self, value: float, now: float) -> None:
        if now < self._last_time:
            raise ValueError("time moved backwards")
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = value
        if value > self.max:
            self.max = value

    def add(self, delta: float, now: float) -> None:
        self.update(self._value + delta, now)

    def time_average(self, now: float) -> float:
        elapsed = now - self._start_time
        if elapsed <= 0:
            return self._value
        return self.integral(now) / elapsed

    def integral(self, now: float) -> float:
        """Area under the curve since the last reset (value x seconds)."""
        return self._area + self._value * (now - self._last_time)

    def reset(self, now: float) -> None:
        """Discard history; the current value is kept as the new initial."""
        self._last_time = now
        self._start_time = now
        self._area = 0.0
        self.max = self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TimeWeighted({self.name!r}, value={self._value})"


class StatsRegistry:
    """A named collection of collectors with bulk reset.

    Model components create their collectors through a registry so a
    run controller can discard the warm-up phase for all of them at
    once and enumerate them for reporting.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.tallies: Dict[str, Tally] = {}
        self.time_weighted: Dict[str, TimeWeighted] = {}

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def tally(self, name: str, keep_samples: bool = False) -> Tally:
        if name not in self.tallies:
            self.tallies[name] = Tally(name, keep_samples=keep_samples)
        return self.tallies[name]

    def timeweighted(self, name: str, initial: float = 0.0, now: float = 0.0) -> TimeWeighted:
        if name not in self.time_weighted:
            self.time_weighted[name] = TimeWeighted(name, initial=initial, now=now)
        return self.time_weighted[name]

    def reset_all(self, now: float) -> None:
        """Reset every collector (used to discard the warm-up phase)."""
        for counter in self.counters.values():
            counter.reset()
        for tally in self.tallies.values():
            tally.reset()
        for stat in self.time_weighted.values():
            stat.reset(now)
