"""Shared configuration for the benchmark suite.

Each benchmark regenerates one table/figure of the paper at a reduced
scale (fewer node counts, shorter measurement windows) so the whole
suite stays runnable in minutes, prints the paper-shaped rows, and
asserts the figure's qualitative shape.  For paper-sized runs use the
experiment drivers directly (``python -m repro experiments fig41
--scale full``).
"""

import os

import pytest

from repro.experiments.common import Scale
from repro.system.parallel import SweepRunner


def bench_jobs() -> int:
    """Worker processes for benchmark sweeps (REPRO_BENCH_JOBS, default 1).

    Results are bit-identical for any job count; raising this only
    changes wall-clock time, so it is safe for comparative runs on
    multi-core machines.
    """
    return max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))


@pytest.fixture
def runner():
    """A cache-less sweep runner honouring REPRO_BENCH_JOBS."""
    with SweepRunner(jobs=bench_jobs()) as sweep_runner:
        yield sweep_runner


def bench_scale() -> Scale:
    """Node counts and windows used by the benchmark suite."""
    return Scale(
        node_counts=(1, 2, 4),
        warmup_time=1.0,
        measure_time=3.0,
        trace_scale=0.06,
        throughput_iterations=3,
    )


@pytest.fixture
def scale() -> Scale:
    return bench_scale()


def run_once(benchmark, fn):
    """Time ``fn`` exactly once (simulations are deterministic and long)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
