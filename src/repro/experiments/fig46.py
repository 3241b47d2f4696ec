"""Fig. 4.6 -- Throughput per node for PCL and GEM locking.

For each configuration the per-node arrival rate is binary-searched
until the *maximum* node CPU utilization reaches 80 % (buffer 1000),
and the achieved transactions/second per node are reported.

Expected shape (section 4.5): affinity routing sustains a nearly flat
(linear-in-N) throughput per node for both couplings; with random
routing PCL's message overhead costs about 15 % of the achievable
throughput compared to GEM locking, and FORCE sustains higher rates
than NOFORCE under random routing (a disk I/O costs less CPU than a
page request/transfer).
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import ExperimentResult, Scale, Series
from repro.system.config import SystemConfig
from repro.system.parallel import SweepRunner
from repro.system.runner import find_throughput_at_utilization

__all__ = ["run"]


def run(scale: Scale, runner: Optional[SweepRunner] = None) -> ExperimentResult:
    series = []
    for coupling in ("gem", "pcl"):
        for routing in ("affinity", "random"):
            for update in ("noforce", "force"):
                current = Series(f"{coupling}/{routing}/{update.upper()}")
                for num_nodes in scale.node_counts:
                    config = SystemConfig(
                        num_nodes=num_nodes,
                        coupling=coupling,
                        routing=routing,
                        update_strategy=update,
                        buffer_pages_per_node=1000,
                        warmup_time=scale.warmup_time,
                        measure_time=scale.measure_time,
                    )
                    # The bisection itself is sequential, but its
                    # opening bracket probes fan out over the runner.
                    result = find_throughput_at_utilization(
                        config,
                        target_utilization=0.80,
                        max_iterations=scale.throughput_iterations,
                        rate_bounds=(60.0, 220.0),
                        runner=runner,
                    )
                    current.points.append((num_nodes, result))
                series.append(current)
    return ExperimentResult(
        "Fig 4.6",
        "throughput per node at 80% CPU utilization (buffer 1000)",
        series,
        metric_label="TPS per node",
        metric=lambda r: r.throughput_per_node,
    )
