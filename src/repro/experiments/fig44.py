"""Fig. 4.4 -- Use of disk caches for the BRANCH/TELLER partition.

FORCE, buffer size 1000.  The hot partition sits on plain disks, disks
with a volatile cache, disks with a non-volatile cache, or in GEM, for
both routings.  The cache is sized to hold the whole partition, as in
the paper ("all BRANCH/TELLER pages could be buffered in the shared
disk cache").

Expected shape (section 4.4): the non-volatile cache achieves almost
the same response times as the GEM allocation (reads hit the shared
cache, force-writes are absorbed); the volatile cache only removes the
read delays, which helps random routing but does nothing for affinity
routing (no misses at buffer 1000).
"""

from __future__ import annotations

from typing import Optional

from repro.db.schema import StorageKind
from repro.experiments.common import ExperimentResult, Scale, sweep_all
from repro.system.config import DebitCreditConfig, SystemConfig
from repro.system.parallel import SweepRunner

__all__ = ["run"]

STORAGE_KINDS = (
    StorageKind.DISK,
    StorageKind.DISK_VOLATILE_CACHE,
    StorageKind.DISK_NONVOLATILE_CACHE,
    StorageKind.GEM,
)


def run(scale: Scale, runner: Optional[SweepRunner] = None) -> ExperimentResult:
    specs = []
    for routing in ("affinity", "random"):
        for storage in STORAGE_KINDS:
            config = SystemConfig(
                coupling="gem",
                routing=routing,
                update_strategy="force",
                buffer_pages_per_node=1000,
                debit_credit=DebitCreditConfig(branch_teller_storage=storage),
                warmup_time=scale.warmup_time,
                measure_time=scale.measure_time,
            )
            specs.append((f"{routing}/{storage.value}", config))
    series = sweep_all(specs, scale.node_counts, runner, label="fig44")
    return ExperimentResult(
        "Fig 4.4",
        "disk caches for BRANCH/TELLER (FORCE, buffer 1000)",
        series,
    )
