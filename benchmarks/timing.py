"""Wall-clock timing helper for the benchmark suite's overhead checks.

Ambient load on a shared machine is strictly additive noise, so the
best of repeated runs after a warm-up is the estimate least
contaminated by it.  Comparing two builds is perfbench's job: alternate
parent and change runs of ``perfbench/run.py`` and compare medians.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, NamedTuple, Tuple

__all__ = ["TimingResult", "time_best"]


class TimingResult(NamedTuple):
    """Wall-clock samples of one measured callable (seconds)."""

    best: float
    mean: float
    runs: Tuple[float, ...]

    @property
    def median(self) -> float:
        return statistics.median(self.runs)


def time_best(
    fn: Callable[[], object], repeats: int = 3, warmup: int = 1
) -> TimingResult:
    """Time ``fn`` after ``warmup`` unmeasured calls; keep all samples.

    ``repeats`` must be >= 1.  Use ``result.best`` as the headline
    number and ``result.runs`` to judge the spread.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    for _ in range(warmup):
        fn()
    runs: List[float] = []
    for _ in range(repeats):
        # simlint: disable-next=DET002 -- host wall clock is the measured quantity, not model time
        started = time.perf_counter()
        fn()
        # simlint: disable-next=DET002 -- host wall clock is the measured quantity, not model time
        runs.append(time.perf_counter() - started)
    return TimingResult(min(runs), sum(runs) / len(runs), tuple(runs))

