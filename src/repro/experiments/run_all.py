"""Run every experiment and write the tables to a results directory.

Started from the command line as::

    python -m repro experiments all [--scale quick|smoke|full]
        [--outdir DIR] [--jobs N] [--seeds K] [--no-cache]

``quick`` (default) regenerates all figures in CI-sized sweeps;
``full`` uses paper-sized runs (substantially longer).  ``--jobs``
fans the simulations of each figure out over worker processes (the
tables are bit-identical for any job count), ``--seeds`` replicates
every point over independent seeds and reports mean ± 95 % CI, and the
result cache (under ``<outdir>/.simcache``) makes re-runs only
simulate changed points -- disable it with ``--no-cache``.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Optional

from repro.experiments import (
    fig41,
    fig42,
    fig43,
    fig44,
    fig45,
    fig46,
    fig47,
    fig_failover,
    fig_regimes,
    table41,
)
from repro.experiments.common import Scale
from repro.system.parallel import ResultCache, SweepRunner

__all__ = ["run_all"]

FIGURES = [
    ("fig41", fig41),
    ("fig42", fig42),
    ("fig43", fig43),
    ("fig44", fig44),
    ("fig45", fig45),
    ("fig46", fig46),
    ("fig47", fig47),
    ("fig_failover", fig_failover),
    ("fig_regimes", fig_regimes),
]


def run_all(
    scale: Scale,
    outdir: str,
    jobs: int = 1,
    seeds: int = 1,
    use_cache: bool = True,
    runner: Optional[SweepRunner] = None,
) -> None:
    os.makedirs(outdir, exist_ok=True)
    if runner is None:
        cache = ResultCache(os.path.join(outdir, ".simcache")) if use_cache else None
        runner = SweepRunner(jobs=jobs, seeds=seeds, cache=cache,
                             progress=sys.stderr.isatty())
    with runner:
        # Table 4.1 first: parameters and the anchor run.
        started = time.time()  # simlint: disable=DET002 -- host wall-clock progress report, not simulated time
        anchor = table41.run(scale, runner=runner)
        path = os.path.join(outdir, "table41.txt")
        with open(path, "w") as fh:
            fh.write(table41.report(anchor) + "\n")
        # simlint: disable-next=DET002 -- host wall-clock progress report, not simulated time
        print(f"table41 -> {path} ({time.time() - started:.0f}s)")
        # All figures.
        for name, module in FIGURES:
            started = time.time()  # simlint: disable=DET002 -- host wall-clock progress report, not simulated time
            result = module.run(scale, runner=runner)
            path = os.path.join(outdir, f"{name}.txt")
            with open(path, "w") as fh:
                fh.write(result.table() + "\n")
            breakdown = result.breakdown_table()
            if breakdown:
                breakdown_path = os.path.join(outdir, f"{name}_breakdown.txt")
                with open(breakdown_path, "w") as fh:
                    fh.write(breakdown + "\n")
            # simlint: disable-next=DET002 -- host wall-clock progress report, not simulated time
            print(f"{name} -> {path} ({time.time() - started:.0f}s)")
        print(
            f"simulations: {runner.simulations_run} run, "
            f"{runner.simulations_cached} from cache"
            + (f"; {runner.cache.stats()}" if runner.cache else "")
        )

