"""Failover experiment -- availability under a single node crash.

Not a figure of the paper: section 5 argues the availability advantage
of close coupling qualitatively (GEM-resident lock state survives a
node failure, so recovery avoids the loosely coupled system's GLA
reassignment and lock-table reconstruction).  This experiment makes
that argument measurable.  One node of a 4-node system is crashed
mid-measurement and restarted after a fixed outage; for each coupling
regime we report

* the failover time (crash until survivors regained full service),
* the reintegration time (restart until the node fully rejoined),
* the throughput dip: depth (lowest windowed throughput relative to
  the pre-crash level) and width (time until the windowed throughput
  is back within 5 % of the pre-crash level), and
* the transactions killed by the crash.

Expected shape: all regimes dip when the node dies and recover to the
pre-crash throughput (the surviving nodes absorb the redirected
arrivals), but the close coupling reintegrates faster -- its failover
is dominated by REDO alone, and reintegration needs only the restart
CPU, while PCL pays the GLA reassignment, the lock-state exchange and
the failback transfer as explicit message/CPU work.  The disaggregated
regime (RDMA) sits between the two: pool-resident pages and lock words
survive the crash (no lock-table reconstruction, less REDO), but
one-sided locks of the dead node stay un-revocable until its lease
expires, and reintegration pays an RDMA re-registration on top of the
restart CPU.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.experiments.common import Scale
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.monitor import TimeSeriesMonitor
from repro.system.results import RunResult

__all__ = ["run", "base_config", "FailoverPoint", "FailoverResult", "COUPLINGS"]

#: Coupling regimes compared by default.
COUPLINGS: Sequence[str] = ("gem", "pcl", "rdma")

#: Monitor sampling window (simulated seconds).
WINDOW = 0.25
#: "Recovered" means windowed throughput within 5 % of pre-crash.
RECOVERY_BAND = 0.95


def base_config(scale: Scale) -> SystemConfig:
    # The crash/recovery cycle has fixed absolute costs (detection
    # delay, REDO, down time, 0.5 s restart CPU, PCL failback); below
    # ~5 s of measurement it cannot complete, so pin a minimum window
    # rather than report a truncated cycle at small scales.
    measure_time = max(scale.measure_time, 5.0)
    crash_time = scale.warmup_time + measure_time * 0.3
    return SystemConfig(
        num_nodes=4,
        routing="affinity",
        update_strategy="noforce",
        buffer_pages_per_node=200,
        arrival_rate_per_node=100.0,
        warmup_time=scale.warmup_time,
        measure_time=measure_time,
        faults={
            "crashes": [
                {"node": 1, "time": crash_time, "down_time": measure_time * 0.2}
            ]
        },
    )


@dataclasses.dataclass
class FailoverPoint:
    """One regime's crash/recovery behaviour."""

    label: str
    result: RunResult
    pre_crash_throughput: float
    dip_throughput: float
    recovery_width: float

    @property
    def dip_depth(self) -> float:
        """Lowest windowed throughput as a fraction of pre-crash."""
        if self.pre_crash_throughput <= 0:
            return 0.0
        return self.dip_throughput / self.pre_crash_throughput

    @property
    def recovered(self) -> bool:
        return self.recovery_width >= 0


@dataclasses.dataclass
class FailoverResult:
    """Duck-types the figure-result interface used by run_all."""

    title: str
    description: str
    points: List[FailoverPoint]

    def table(self) -> str:
        header = [
            "regime",
            "failover[s]",
            "reintegration[s]",
            "pre-crash[TPS]",
            "dip[TPS]",
            "dip depth",
            "recovery width[s]",
            "killed",
        ]
        rows = []
        for p in self.points:
            rows.append(
                [
                    p.label,
                    f"{p.result.mean_failover_seconds:.3f}",
                    f"{p.result.mean_reintegration_seconds:.3f}",
                    f"{p.pre_crash_throughput:.0f}",
                    f"{p.dip_throughput:.0f}",
                    f"{p.dip_depth:.0%}",
                    f"{p.recovery_width:.2f}" if p.recovered else "never",
                    str(p.result.aborted_by_crash),
                ]
            )
        widths = [
            max(len(header[i]), max(len(r[i]) for r in rows))
            for i in range(len(header))
        ]
        fmt = "  ".join(f"{{:>{w}}}" for w in widths)
        lines = [
            self.title,
            self.description,
            "",
            fmt.format(*header),
            "-" * (sum(widths) + 2 * (len(widths) - 1)),
        ]
        lines += [fmt.format(*row) for row in rows]
        return "\n".join(lines)

    def breakdown_table(self) -> str:
        return ""


def _run_point(label: str, config: SystemConfig) -> FailoverPoint:
    cluster = Cluster(config)
    monitor = TimeSeriesMonitor(cluster, interval=WINDOW)
    cluster.sim.run(until=config.warmup_time)
    cluster.reset_stats()
    monitor.notify_reset()
    cluster.sim.run(until=config.warmup_time + config.measure_time)
    result = cluster.collect_results(config.measure_time)

    crash = config.faults.crashes[0]
    pre = [
        row["throughput"]
        for row in monitor.samples
        if config.warmup_time < row["time"] <= crash.time
    ]
    pre_crash = sum(pre) / len(pre) if pre else 0.0
    post = [row for row in monitor.samples if row["time"] > crash.time]
    dip = min((row["throughput"] for row in post), default=0.0)
    recovery_width = -1.0
    for row in post:
        if pre_crash > 0 and row["throughput"] >= RECOVERY_BAND * pre_crash:
            recovery_width = row["time"] - crash.time
            break
    return FailoverPoint(label, result, pre_crash, dip, recovery_width)


def run(
    scale: Scale,
    runner: Optional[object] = None,
    couplings: Sequence[str] = COUPLINGS,
    protocol: str = "2pl",
) -> FailoverResult:
    """``runner`` is accepted for interface parity but unused: the
    throughput time series requires an in-process monitor."""
    points = [
        _run_point(
            coupling.upper(),
            base_config(scale).replace(coupling=coupling, protocol=protocol),
        )
        for coupling in couplings
    ]
    return FailoverResult(
        "Failover",
        "single node crash at 30 % of the measurement interval, "
        "4 nodes, affinity/NOFORCE, 100 TPS per node",
        points,
    )
