"""Fig. 4.2 -- Influence of buffer size (random routing, GEM locking).

Compares buffer sizes 200 and 1000 pages per node under random routing
for FORCE and NOFORCE.

Expected shape (section 4.3): the larger buffer helps most in the
central case (it holds all BRANCH/TELLER pages); in the distributed
configurations its benefit shrinks with more nodes because replicated
caching causes even more invalidations, and NOFORCE benefits more than
FORCE (misses turn into fast page requests instead of disk reads).
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import ExperimentResult, Scale, sweep_all
from repro.system.config import SystemConfig
from repro.system.parallel import SweepRunner

__all__ = ["run"]


def run(scale: Scale, runner: Optional[SweepRunner] = None) -> ExperimentResult:
    specs = []
    for buffer_pages in (200, 1000):
        for update in ("noforce", "force"):
            config = SystemConfig(
                coupling="gem",
                routing="random",
                update_strategy=update,
                buffer_pages_per_node=buffer_pages,
                warmup_time=scale.warmup_time,
                measure_time=scale.measure_time,
            )
            specs.append((f"{update.upper()}/buf{buffer_pages}", config))
    series = sweep_all(specs, scale.node_counts, runner, label="fig42")
    return ExperimentResult(
        "Fig 4.2",
        "buffer size influence, random routing, GEM locking",
        series,
    )
