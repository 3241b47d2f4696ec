"""Fig. 4.7 -- PCL vs GEM locking for the real-life (trace) workload.

NOFORCE, 50 TPS per node, buffer 1000, nodes 1-8, PCL with the read
optimization (as in the paper).  Response times refer to an artificial
transaction performing the average number of database accesses.

Expected shape (section 4.6): close coupling outperforms loose
coupling for both routings, with the gap widening in the number of
nodes; affinity-routed close coupling can beat the central case
(aggregate buffer grows while the database size stays constant);
random routing deteriorates with N (replicated caching reduces buffer
effectiveness); PCL's locally processed lock share falls with N even
under affinity routing, and its CPU utilization is substantially
higher and more unbalanced.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import ExperimentResult, Scale, sweep_all
from repro.system.config import SystemConfig, TraceWorkloadConfig
from repro.system.parallel import SweepRunner

__all__ = ["run"]


def trace_config(coupling, routing, scale, protocol="2pl") -> SystemConfig:
    return SystemConfig(
        coupling=coupling,
        routing=routing,
        update_strategy="noforce",
        protocol=protocol,
        workload="trace",
        arrival_rate_per_node=50.0,
        buffer_pages_per_node=1000,
        pcl_read_optimization=(coupling == "pcl"),
        trace=TraceWorkloadConfig(scale=scale.trace_scale),
        warmup_time=scale.warmup_time,
        measure_time=scale.measure_time,
        collect_breakdown=True,
    )


def run(
    scale: Scale,
    runner: Optional[SweepRunner] = None,
    protocol: str = "2pl",
) -> ExperimentResult:
    node_counts = [n for n in scale.node_counts if n <= 8]
    if not node_counts:
        node_counts = [1, 2]
    specs = []
    for coupling in ("gem", "pcl"):
        for routing in ("affinity", "random"):
            config = trace_config(coupling, routing, scale, protocol=protocol)
            label = f"{coupling}/{routing}"
            if protocol != "2pl":
                label += f"/{protocol}"
            specs.append((label, config))
    series = sweep_all(specs, node_counts, runner, label="fig47")
    return ExperimentResult(
        "Fig 4.7",
        "PCL vs GEM locking, real-life workload (50 TPS, buffer 1000, NOFORCE)",
        series,
        metric_label="artificial-txn response time [ms]",
        metric=lambda r: r.mean_response_time_artificial * 1000.0,
    )
