"""Fig. 4.3 -- Influence of database allocation (buffer size 1000).

Allocates the hot BRANCH/TELLER partition either to disks or resident
in GEM, for both routings; panel (a) NOFORCE, panel (b) FORCE.

Expected shape (section 4.4): for NOFORCE the GEM allocation changes
almost nothing (misses are already served by fast page requests or do
not occur); for FORCE it improves response times substantially --
especially with random routing, which then performs almost like
affinity-based routing.
"""

from __future__ import annotations

from typing import Optional

from repro.db.schema import StorageKind
from repro.experiments.common import ExperimentResult, Scale, sweep_all
from repro.system.config import DebitCreditConfig, SystemConfig
from repro.system.parallel import SweepRunner

__all__ = ["run"]


def config_for(update, routing, storage, scale) -> SystemConfig:
    return SystemConfig(
        coupling="gem",
        routing=routing,
        update_strategy=update,
        buffer_pages_per_node=1000,
        debit_credit=DebitCreditConfig(branch_teller_storage=storage),
        warmup_time=scale.warmup_time,
        measure_time=scale.measure_time,
    )


def run(scale: Scale, runner: Optional[SweepRunner] = None) -> ExperimentResult:
    specs = []
    for update in ("noforce", "force"):
        for routing in ("affinity", "random"):
            for storage in (StorageKind.DISK, StorageKind.GEM):
                label = f"{update.upper()}/{routing}/{storage.value}"
                specs.append((label, config_for(update, routing, storage, scale)))
    series = sweep_all(specs, scale.node_counts, runner, label="fig43")
    return ExperimentResult(
        "Fig 4.3",
        "BRANCH/TELLER allocation: disk vs GEM (buffer 1000)",
        series,
    )
