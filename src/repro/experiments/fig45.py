"""Fig. 4.5 -- Primary copy locking vs GEM locking (response times).

All files on plain disks; curves for both couplings, both update
strategies, both routings and both buffer sizes (200, 1000).

Expected shape (section 4.5): with affinity routing PCL matches GEM
locking (coordinated GLA allocation keeps lock processing local); with
random routing PCL is always worse and the gap grows with the number
of nodes; the PCL/GEM gap is smaller for NOFORCE than for FORCE and
shrinks further at buffer 1000 (PCL piggybacks page transfers on
regular lock messages, GEM locking pays extra page-request messages).
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import ExperimentResult, Scale, sweep_all
from repro.system.config import SystemConfig
from repro.system.parallel import SweepRunner

__all__ = ["run"]


def run(scale: Scale, buffer_sizes=(200, 1000),
        runner: Optional[SweepRunner] = None,
        protocol: str = "2pl") -> ExperimentResult:
    specs = []
    for buffer_pages in buffer_sizes:
        for coupling in ("gem", "pcl"):
            for routing in ("affinity", "random"):
                for update in ("noforce", "force"):
                    config = SystemConfig(
                        coupling=coupling,
                        routing=routing,
                        update_strategy=update,
                        protocol=protocol,
                        buffer_pages_per_node=buffer_pages,
                        warmup_time=scale.warmup_time,
                        measure_time=scale.measure_time,
                        collect_breakdown=True,
                    )
                    label = (
                        f"{coupling}/{routing}/{update.upper()}/buf{buffer_pages}"
                    )
                    if protocol != "2pl":
                        label += f"/{protocol}"
                    specs.append((label, config))
    series = sweep_all(specs, scale.node_counts, runner, label="fig45")
    return ExperimentResult(
        "Fig 4.5",
        "PCL vs GEM locking response times",
        series,
    )
