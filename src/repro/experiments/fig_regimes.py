"""Three coupling regimes -- GEM vs PCL vs RDMA disaggregation.

Not a figure of the paper: the paper compares the close coupling (GEM)
against the loosely coupled primary-copy system (PCL) only.  This
experiment adds the third regime that post-dates the paper -- RDMA-style
memory disaggregation, where lock words and committed pages live in a
passive memory pool reached by one-sided verbs -- and runs all three
regimes through every concurrency-control protocol on the paper's
debit-credit workload (fig 4.5 flavour: affinity routing, NOFORCE,
buffer 200) plus a trace-workload row (fig 4.7 flavour) under 2PL.

Expected shape: RDMA tracks GEM closely at small N -- a remote CAS
(~3 us) replaces the synchronous GEM entry instructions, and the pool
plays the page-owner role without a liveness-coupled owner node -- but
the per-verb CPU cost and fabric queueing grow with contention, so the
GEM/RDMA gap widens where lock traffic is hottest (DGCC, which batches
its pool accesses per epoch, is the least sensitive).  PCL stays the
outlier under random-routing-like stress while matching both central
regimes under affinity routing, exactly as in fig 4.5.

The grid is also the protocol shootout: the paper evaluates strict
two-phase locking only, and the decomposition makes the cost shift
between the protocols visible phase by phase:

* **2PL** pays lock waits (``lock_local``/``lock_global``) and, under
  GEM, synchronous entry accesses (``gem``);
* **MVCC** trades lock waits for validation work inside ``commit`` and
  restart work after validation failures (aborts never hold locks);
* **DGCC** removes conflicts entirely but pays the epoch admission
  delay and layer barriers, both visible as ``lock_global`` waits.

The response-time decomposition gains an ``rdma`` component (time spent
issuing one-sided verbs on the acquire path); components still sum to
the mean response time exactly.  The trace rows bound the node counts
at N <= 8, as in fig 4.7; ``python -m repro run --nodes 10 ...`` runs
any debit-credit cell beyond that.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.experiments.common import ExperimentResult, Scale, sweep_all
from repro.experiments.fig47 import trace_config
from repro.system.config import SystemConfig
from repro.system.parallel import SweepRunner

__all__ = ["run", "COUPLINGS", "PROTOCOLS"]

COUPLINGS: Tuple[str, ...] = ("gem", "pcl", "rdma")
PROTOCOLS: Tuple[str, ...] = ("2pl", "mvcc", "dgcc")


def run(
    scale: Scale,
    couplings: Sequence[str] = COUPLINGS,
    protocols: Sequence[str] = PROTOCOLS,
    runner: Optional[SweepRunner] = None,
    include_trace: bool = True,
) -> ExperimentResult:
    specs = []
    for coupling in couplings:
        for protocol in protocols:
            config = SystemConfig(
                coupling=coupling,
                protocol=protocol,
                routing="affinity",
                update_strategy="noforce",
                buffer_pages_per_node=200,
                warmup_time=scale.warmup_time,
                measure_time=scale.measure_time,
                collect_breakdown=True,
            )
            specs.append((f"{coupling}/{protocol}", config))
    if include_trace:
        for coupling in couplings:
            config = trace_config(coupling, "affinity", scale)
            specs.append((f"{coupling}/trace", config))
    node_counts = [n for n in scale.node_counts if n <= 8]
    if not node_counts:
        node_counts = [1, 2]
    series = sweep_all(specs, node_counts, runner, label="fig_regimes")
    return ExperimentResult(
        "Regimes",
        "coupling regimes (GEM vs PCL vs RDMA disaggregation)",
        series,
    )
