"""Simulation configuration with the paper's Table 4.1 defaults.

All times are in seconds, CPU capacities in MIPS (million instructions
per second), sizes in pages or bytes as noted.  The defaults reproduce
the debit-credit parameter settings of Table 4.1; every experiment in
section 4 is expressed as a small set of overrides on this structure.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Optional

from repro.db.schema import StorageKind
from repro.devices.rdma import (
    DEFAULT_INSTRUCTIONS_PER_RDMA_OP,
    DEFAULT_RDMA_CAS_TIME,
    DEFAULT_RDMA_CHANNELS,
    DEFAULT_RDMA_LOCK_LEASE_SECONDS,
    DEFAULT_RDMA_PAGE_READ_TIME,
    DEFAULT_RDMA_PAGE_WRITE_TIME,
    DEFAULT_RDMA_READ_TIME,
    DEFAULT_RDMA_REREGISTRATION_SECONDS,
)
from repro.faults.config import FaultConfig

__all__ = [
    "Coupling",
    "RoutingStrategy",
    "UpdateStrategy",
    "DebitCreditConfig",
    "TraceWorkloadConfig",
    "SystemConfig",
]


class Coupling(str, enum.Enum):
    """Concurrency/coherency control scheme (section 3.2)."""

    #: Close coupling: global lock table in GEM.
    GEM = "gem"
    #: Loose coupling: primary copy locking over messages.
    PCL = "pcl"
    #: Memory disaggregation: lock state and NOFORCE page copies live
    #: in a passive remote memory pool reached by one-sided RDMA verbs.
    RDMA = "rdma"


class RoutingStrategy(str, enum.Enum):
    """Workload allocation (section 3.1)."""

    RANDOM = "random"
    AFFINITY = "affinity"


class UpdateStrategy(str, enum.Enum):
    """Update propagation between main memory and external storage."""

    FORCE = "force"
    NOFORCE = "noforce"


@dataclasses.dataclass
class DebitCreditConfig:
    """Debit-credit (TPC-A/B style) workload shape.

    The database scales with throughput as the TPC benchmarks require:
    all ``*_per_node`` record counts are multiplied by the number of
    nodes (each node contributes 100 TPS worth of database).
    """

    #: BRANCH records per node's 100-TPS database slice.
    branches_per_node: int = 100
    #: TELLER records per branch (10 x branches = 1000 tellers).
    tellers_per_branch: int = 10
    #: ACCOUNT records per branch (100.000 x 100 branches = 10 million).
    accounts_per_branch: int = 100_000
    #: Records per ACCOUNT page.
    account_blocking_factor: int = 10
    #: Records per HISTORY page.
    history_blocking_factor: int = 20
    #: Cluster TELLER records with their BRANCH record (section 3.1);
    #: reduces page accesses per transaction to three and locks to two.
    cluster_branch_teller: bool = True
    #: Probability that the ACCOUNT access goes to the selected branch.
    account_local_probability: float = 0.85
    #: Disks for the BRANCH/TELLER file, per node of scale.
    branch_teller_disks_per_node: int = 6
    #: Disks for the ACCOUNT file, per node of scale.
    account_disks_per_node: int = 8
    #: Disks for the HISTORY file, per node of scale.
    history_disks_per_node: int = 4
    #: Storage allocation of the hot BRANCH/TELLER file (experiments
    #: 4.4: DISK, GEM, or disk with volatile/non-volatile cache).
    branch_teller_storage: StorageKind = StorageKind.DISK
    #: Disk-cache capacity for BRANCH/TELLER when cached storage kinds
    #: are selected; 0 means "size to hold the whole file".
    branch_teller_cache_pages: int = 0


@dataclasses.dataclass
class TraceWorkloadConfig:
    """Shape of the synthetic "real-life" trace (section 4.6 substitute).

    Defaults match every aggregate the paper reports about its trace;
    ``scale`` shrinks transaction count and page universe together for
    fast test/bench runs while preserving shape.
    """

    #: Number of transactions in the trace.
    num_transactions: int = 17_500
    #: Number of transaction types.
    num_types: int = 12
    #: Target mean page references per transaction (~1M refs total).
    mean_references: float = 57.0
    #: Reference count of the single largest (ad-hoc query) type.
    max_references: int = 11_000
    #: Number of database files.
    num_files: int = 13
    #: Distinct pages referenced across the trace.
    distinct_pages: int = 66_000
    #: Fraction of transactions that perform at least one update.
    update_txn_fraction: float = 0.20
    #: Fraction of page references that are writes.
    write_reference_fraction: float = 0.016
    #: Zipf skew of page popularity inside each file ("highly
    #: non-uniform" access distribution).
    zipf_theta: float = 1.1
    #: Disk budget: disks per file per node, distributed over the files
    #: proportionally to their reference share ("sufficient disks to
    #: avoid I/O bottlenecks", section 4.2).
    disks_per_file_per_node: int = 3
    #: Proportional shrink factor for fast runs (1.0 = full trace).
    scale: float = 1.0

    def scaled(self) -> "TraceWorkloadConfig":
        """Return a copy with counts multiplied by ``scale``."""
        if self.scale == 1.0:
            return self
        return dataclasses.replace(
            self,
            num_transactions=max(200, int(self.num_transactions * self.scale)),
            distinct_pages=max(2000, int(self.distinct_pages * self.scale)),
            max_references=max(100, int(self.max_references * self.scale)),
            scale=1.0,
        )


@dataclasses.dataclass
class SystemConfig:
    """Full parameter set of the simulation system (Table 4.1 defaults)."""

    # -- topology -----------------------------------------------------
    num_nodes: int = 1
    coupling: Coupling = Coupling.GEM
    routing: RoutingStrategy = RoutingStrategy.AFFINITY
    update_strategy: UpdateStrategy = UpdateStrategy.NOFORCE

    # -- workload -----------------------------------------------------
    #: Transactions per second offered per node (open arrivals).
    arrival_rate_per_node: float = 100.0
    #: Workload kind: "debit_credit", "trace" or "synthetic".
    workload: str = "debit_credit"
    debit_credit: DebitCreditConfig = dataclasses.field(default_factory=DebitCreditConfig)
    trace: TraceWorkloadConfig = dataclasses.field(default_factory=TraceWorkloadConfig)
    #: Workload spec for ``workload="synthetic"`` (a
    #: :class:`repro.workload.synthetic.SyntheticWorkloadSpec`).
    synthetic: Optional[object] = None

    # -- processing nodes ----------------------------------------------
    #: Maximum concurrently active transactions per node.
    mpl_per_node: int = 50
    cpus_per_node: int = 4
    mips_per_cpu: float = 10.0
    #: Main-memory database buffer per node, in pages.
    buffer_pages_per_node: int = 200

    # -- CPU path length (exponentially distributed, section 3.2) ------
    #: Instructions at begin-of-transaction.
    instructions_bot: float = 45_000.0
    #: Instructions per record access (4 accesses in debit-credit:
    #: 45k + 4*40k + 45k = 250k total, Table 4.1's path length).
    instructions_per_access: float = 40_000.0
    #: Instructions at end-of-transaction (commit processing).
    instructions_eot: float = 45_000.0
    #: Trace transactions have ~57 accesses on average; the paper keeps
    #: overall CPU characteristics (about 45 % utilization at 50 TPS per
    #: node, i.e. ~350k instructions/transaction), which implies a much
    #: smaller per-access path than debit-credit's record accesses.
    trace_instructions_bot: float = 30_000.0
    trace_instructions_per_access: float = 5_000.0
    trace_instructions_eot: float = 30_000.0

    # -- communication ---------------------------------------------------
    #: Instructions per send or receive of a short (100 B) message.
    instructions_msg_short: float = 5_000.0
    #: Instructions per send or receive of a long (4 KB) message.
    instructions_msg_long: float = 8_000.0
    short_message_bytes: int = 100
    long_message_bytes: int = 4_096
    #: Interconnection network bandwidth (bytes/second).
    network_bandwidth: float = 10e6

    # -- I/O -----------------------------------------------------------
    #: CPU overhead per page I/O to disk-based devices.
    instructions_per_io: float = 3_000.0
    #: CPU overhead to initiate a (synchronous) GEM page access.
    instructions_per_gem_io: float = 300.0
    #: Average disk time for database disks.
    disk_time_db: float = 0.015
    #: Average disk time for (sequential) log disks.
    disk_time_log: float = 0.005
    #: Average disk controller service time.
    controller_time: float = 0.001
    #: Average page transfer time between main memory and controller.
    transfer_time: float = 0.0004
    #: Log disks per node (log writes of co-located nodes never mix).
    log_disks_per_node: int = 1
    #: Keep the log files resident in GEM instead of on log disks --
    #: one of the GEM usage forms of section 2 ("keeping database or
    #: log files resident in semiconductor memory ... all disk accesses
    #: are avoided for the respective files").
    log_in_gem: bool = False

    # -- GEM -------------------------------------------------------------
    gem_servers: int = 1
    gem_page_access_time: float = 50e-6
    gem_entry_access_time: float = 2e-6
    #: Extra CPU instructions per GEM entry operation (lock table
    #: manipulation in main memory around the Compare&Swap).
    instructions_per_gem_entry_op: float = 100.0

    # -- RDMA memory pool (coupling="rdma") ---------------------------------
    #: Parallel one-sided channels into the pool (QP/NIC parallelism).
    rdma_channels: int = DEFAULT_RDMA_CHANNELS
    #: One-sided Compare&Swap round trip (lock word in the pool).
    rdma_cas_time: float = DEFAULT_RDMA_CAS_TIME
    #: One-sided small read (lock word / directory entry re-read).
    rdma_read_time: float = DEFAULT_RDMA_READ_TIME
    #: One-sided page read from the pool.
    rdma_page_read_time: float = DEFAULT_RDMA_PAGE_READ_TIME
    #: One-sided page write (commit install) into the pool.
    rdma_page_write_time: float = DEFAULT_RDMA_PAGE_WRITE_TIME
    #: CPU instructions to post a verb and poll its completion.
    instructions_per_rdma_op: float = DEFAULT_INSTRUCTIONS_PER_RDMA_OP
    #: Lease on pool-resident lock words: a crashed node's locks are
    #: reclaimable only after its lease expired (no central manager to
    #: revoke them synchronously).
    rdma_lock_lease_seconds: float = DEFAULT_RDMA_LOCK_LEASE_SECONDS
    #: Memory-region/queue-pair re-registration time a restarted node
    #: pays before it can issue one-sided verbs again.
    rdma_reregistration_seconds: float = DEFAULT_RDMA_REREGISTRATION_SECONDS

    # -- concurrency control -----------------------------------------------
    #: Concurrency-control protocol: "2pl" (the paper's locking scheme,
    #: GEM GLT or primary-copy depending on ``coupling``), "mvcc"
    #: (Hekaton-style multi-version optimistic CC) or "dgcc"
    #: (dependency-graph batched execution).  MVCC and DGCC run under
    #: both coupling regimes with regime-specific cost models.
    protocol: str = "2pl"
    #: DGCC epoch length in simulated seconds: arrivals batch for one
    #: epoch, then execute as conflict-free dependency-graph layers.
    dgcc_epoch_seconds: float = 0.005

    # -- protocol options --------------------------------------------------
    #: Read optimization for PCL (local read locks without GLA); the
    #: paper enables this for the trace experiments.
    pcl_read_optimization: bool = False
    #: Exchange NOFORCE page transfers through GEM instead of the
    #: network (extension discussed in the paper's conclusions); every
    #: protocol's owner page fetch honours it.  GEM coupling only.
    page_transfer_via_gem: bool = False
    #: GEM locking refinement (section 2): authorize a node's local
    #: lock manager to process lock requests on pages of sole interest
    #: without any GEM access; other nodes' requests revoke the
    #: authorization with a message exchange.  The paper evaluates the
    #: simple scheme (every request against the GLT); this is the
    #: sketched refinement as an ablation.  GEM coupling with 2PL only.
    gem_lock_authorizations: bool = False

    # -- fault injection ---------------------------------------------------
    #: Crash/restart schedule and recovery cost model; None disables
    #: fault handling entirely (zero overhead, bit-identical results).
    faults: Optional[FaultConfig] = None

    # -- run control -------------------------------------------------------
    random_seed: int = 42
    #: Simulated warm-up period discarded from statistics.
    warmup_time: float = 3.0
    #: Simulated measurement period.
    measure_time: float = 12.0
    #: Collect the per-phase response-time breakdown (repro.obs).  The
    #: recorder is observation-only, so simulated metrics are identical
    #: with or without it.
    collect_breakdown: bool = False
    #: Additionally retain every span for Chrome-trace export (implies
    #: breakdown collection; memory grows with run length).
    trace_spans: bool = False
    #: Run under the simsan runtime sanitizer (repro.sanitize): every
    #: clock write is checked for monotonicity, recorder spans
    #: are balance-checked, and lock tables / resources / the RDMA pool
    #: are verified at the horizon.  Observation-only -- simulated
    #: results are bit-identical with it on -- but slower; also
    #: enabled by ``REPRO_SIMSAN=1`` in the environment.
    sanitize: bool = False

    def __post_init__(self) -> None:
        self.coupling = Coupling(self.coupling)
        self.routing = RoutingStrategy(self.routing)
        self.update_strategy = UpdateStrategy(self.update_strategy)
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.arrival_rate_per_node <= 0:
            raise ValueError("arrival_rate_per_node must be positive")
        if self.workload not in ("debit_credit", "trace", "synthetic"):
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.workload == "synthetic" and self.synthetic is None:
            raise ValueError("workload='synthetic' requires a synthetic spec")
        if self.protocol not in ("2pl", "mvcc", "dgcc"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.gem_lock_authorizations and (
            self.coupling is not Coupling.GEM or self.protocol != "2pl"
        ):
            raise ValueError(
                "gem_lock_authorizations requires coupling='gem' and protocol='2pl'"
            )
        if self.page_transfer_via_gem and self.coupling is not Coupling.GEM:
            raise ValueError("page_transfer_via_gem requires coupling='gem'")
        if self.rdma_channels < 1:
            raise ValueError("rdma_channels must be >= 1")
        if self.rdma_lock_lease_seconds < 0:
            raise ValueError("rdma_lock_lease_seconds must be non-negative")
        if self.dgcc_epoch_seconds <= 0:
            raise ValueError("dgcc_epoch_seconds must be positive")
        if self.mpl_per_node < 1:
            raise ValueError("mpl_per_node must be >= 1")
        if self.buffer_pages_per_node < 10:
            raise ValueError("buffer_pages_per_node must be >= 10")
        if isinstance(self.faults, dict):
            self.faults = FaultConfig(**self.faults)
        if self.faults is not None:
            for crash in self.faults.crashes:
                if crash.node >= self.num_nodes:
                    raise ValueError(
                        f"crash node {crash.node} >= num_nodes {self.num_nodes}"
                    )

    @property
    def force(self) -> bool:
        return self.update_strategy is UpdateStrategy.FORCE

    @property
    def noforce(self) -> bool:
        return self.update_strategy is UpdateStrategy.NOFORCE

    @property
    def cpu_speed(self) -> float:
        """Instructions per second of one CPU."""
        return self.mips_per_cpu * 1e6

    @property
    def total_arrival_rate(self) -> float:
        return self.arrival_rate_per_node * self.num_nodes

    def replace(self, **overrides: Any) -> "SystemConfig":
        """Return a copy with the given fields overridden."""
        return dataclasses.replace(self, **overrides)

    def path_length(self, num_accesses: int) -> float:
        """Mean total instruction path for a transaction of given size."""
        return (
            self.instructions_bot
            + num_accesses * self.instructions_per_access
            + self.instructions_eot
        )
