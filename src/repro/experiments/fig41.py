"""Fig. 4.1 -- Influence of workload allocation and update strategy.

Closely coupled configurations (GEM locking), buffer size 200, all
files on plain disks, 100 TPS per node.  Four curves: {random,
affinity} routing x {FORCE, NOFORCE}, response time over 1-10 nodes.

Expected shape (section 4.2): affinity curves stay flat despite the
linear throughput growth; random curves rise with the number of nodes
(buffer invalidations shrink the BRANCH/TELLER hit ratio from ~71 %
centrally to ~7 % at ten nodes); FORCE lies above NOFORCE, and the
FORCE/NOFORCE gap widens under random routing.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import ExperimentResult, Scale, sweep_all
from repro.system.config import SystemConfig
from repro.system.parallel import SweepRunner

__all__ = ["run", "base_config"]


def base_config() -> SystemConfig:
    return SystemConfig(
        coupling="gem",
        buffer_pages_per_node=200,
        arrival_rate_per_node=100.0,
        collect_breakdown=True,
    )


def run(
    scale: Scale,
    runner: Optional[SweepRunner] = None,
    protocol: str = "2pl",
) -> ExperimentResult:
    specs = []
    for routing in ("affinity", "random"):
        for update in ("noforce", "force"):
            config = base_config().replace(
                routing=routing,
                update_strategy=update,
                protocol=protocol,
                warmup_time=scale.warmup_time,
                measure_time=scale.measure_time,
            )
            label = f"{routing}/{update.upper()}"
            if protocol != "2pl":
                label += f"/{protocol}"
            specs.append((label, config))
    series = sweep_all(specs, scale.node_counts, runner, label="fig41")
    return ExperimentResult(
        "Fig 4.1",
        "workload allocation and update strategy, GEM locking, buffer 200",
        series,
    )
