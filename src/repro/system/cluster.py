"""Cluster assembly: wires the full simulation system together.

Construction order matters: shared devices (network, GEM, ledger)
first, then the database and its storage allocation, the processing
nodes, the concurrency/coherency protocol (which registers its message
handlers at the nodes), the transaction managers and finally the
workload SOURCE with its router.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.cc.deadlock import DeadlockDetector
from repro.cc.dgcc import DgccProtocol
from repro.cc.mvcc import MvccProtocol
from repro.cc.pcl import PrimaryCopyProtocol
from repro.cc.store_locking import StoreLockingProtocol
from repro.db.debitcredit import DebitCreditLayout
from repro.db.pages import PageId, VersionLedger
from repro.db.schema import Database, Partition, StorageKind
from repro.devices.disk import DiskArray
from repro.devices.disk_cache import DiskCache
from repro.devices.gem import GemDevice
from repro.devices.network import Network
from repro.devices.rdma import RdmaFabric
from repro.devices.storage import StorageDirectory
from repro.faults.manager import FaultManager
from repro.node.node import Node
from repro.node.transaction_manager import TransactionManager
from repro.obs.recorder import NULL_RECORDER, PhaseRecorder
from repro.sanitize import (
    SanitizedRecorder,
    SanitizedSimulator,
    SimSanitizer,
    sanitize_enabled,
)
from repro.routing.affinity import AffinityRouter
from repro.routing.failover import FailoverRouter
from repro.routing.random_router import RandomRouter
from repro.sim.engine import Simulator
from repro.sim.rng import StreamRegistry
from repro.system.config import Coupling, RoutingStrategy, SystemConfig
from repro.system.results import RunResult
from repro.workload.arrivals import Source
from repro.workload.transaction import Transaction
from repro.workload.debitcredit import DebitCreditGenerator

__all__ = ["Cluster"]


class Cluster:
    """A complete closely or loosely coupled database sharing system."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        #: The simsan runtime sanitizer, when enabled (observation-only;
        #: see repro.sanitize).  Both kinds of simulator run the same
        #: event loop; None keeps ``sim.now`` a plain attribute.
        self.sanitizer: Optional[SimSanitizer] = None
        if sanitize_enabled(config.sanitize):
            self.sanitizer = SimSanitizer()
            self.sim: Simulator = SanitizedSimulator(self.sanitizer.report)
        else:
            self.sim = Simulator()
        self.streams = StreamRegistry(config.random_seed)
        self.ledger = VersionLedger()
        self.detector = DeadlockDetector()
        #: FaultManager when fault injection is enabled, else None.
        #: Every fault hook in the hot path is gated on this being
        #: non-None, so a run without faults is bit-identical to one
        #: built before the fault subsystem existed.
        self.faults: Optional[FaultManager] = None
        if config.trace_spans:
            self.recorder = PhaseRecorder(self.sim, keep_spans=True)
        elif config.collect_breakdown:
            self.recorder = PhaseRecorder(self.sim)
        else:
            self.recorder = NULL_RECORDER
        if self.sanitizer is not None:
            self.recorder = SanitizedRecorder(
                self.recorder, self.sanitizer.report
            )
        self.network = Network(self.sim, config.network_bandwidth)
        self.gem = GemDevice(
            self.sim,
            servers=config.gem_servers,
            page_access_time=config.gem_page_access_time,
            entry_access_time=config.gem_entry_access_time,
        )
        #: RDMA fabric into the disaggregated memory pool, constructed
        #: only under ``coupling="rdma"`` (GEM/PCL runs stay
        #: bit-identical to builds without the third regime).
        self.rdma: Optional[RdmaFabric] = None
        if config.coupling is Coupling.RDMA:
            self.rdma = RdmaFabric(
                self.sim,
                channels=config.rdma_channels,
                cas_time=config.rdma_cas_time,
                read_time=config.rdma_read_time,
                page_read_time=config.rdma_page_read_time,
                page_write_time=config.rdma_page_write_time,
            )
        # -- workload-specific structure --------------------------------
        self.layout: Optional[DebitCreditLayout] = None
        self.trace_world = None  # set for trace workloads
        self.database: Database
        self._gla_map: Callable[[PageId], int]
        self.instruction_profile: tuple
        generator_factory = self._build_workload()
        # -- storage ------------------------------------------------------
        self.storage = StorageDirectory(
            self.sim,
            self.ledger,
            config.instructions_per_io,
            config.instructions_per_gem_io,
            log_gem=self.gem if config.log_in_gem else None,
        )
        self.disk_arrays: Dict[str, DiskArray] = {}
        for partition in self.database:
            self._allocate_partition(partition)
        self.log_disks: List[DiskArray] = [
            DiskArray(
                self.sim,
                f"log{n}",
                num_disks=config.log_disks_per_node,
                ledger=self.ledger,
                stream=self.streams.stream(f"logdisk-{n}"),
                disk_time=config.disk_time_log,
                controller_time=config.controller_time,
                transfer_time=config.transfer_time,
            )
            for n in range(config.num_nodes)
        ]
        self.storage.assign_log_disks(self.log_disks)
        # -- nodes ---------------------------------------------------------
        self.nodes: List[Node] = [
            Node(self.sim, node_id, self) for node_id in range(config.num_nodes)
        ]
        # -- protocol -------------------------------------------------------
        # Each protocol is written once against the coupling substrate
        # (repro.cc.store): 2PL is the paper's GLT in the shared store
        # (GEM, RDMA) or primary copy locking (PCL); MVCC and DGCC take
        # the substrate from the coupling themselves.
        if config.protocol == "mvcc":
            self.protocol = MvccProtocol(self, self._gla_map)
        elif config.protocol == "dgcc":
            self.protocol = DgccProtocol(self, self._gla_map)
        elif config.coupling is Coupling.PCL:
            self.protocol = PrimaryCopyProtocol(self, self._gla_map)
        else:
            self.protocol = StoreLockingProtocol(self, self._gla_map)
        for node in self.nodes:
            node.protocol = self.protocol
            node.tm = TransactionManager(node)
        # -- workload source ---------------------------------------------------
        self.generator = generator_factory()
        self.router = self._build_router()
        self.source = Source(
            self.sim,
            self.generator,
            self.router,
            lambda node_id, txn: self.nodes[node_id].tm.submit(txn),
            config.total_arrival_rate,
            self.streams.stream("arrivals"),
        )
        # -- fault injection ---------------------------------------------------
        if config.faults is not None and config.faults.enabled:
            self.faults = FaultManager(self, config.faults)
            self.storage.faults = self.faults
            self.router = FailoverRouter(self.router, self)
            self.source.router = self.router
            self.faults.start()

    # -- construction helpers ----------------------------------------------

    def _build_workload(self) -> Callable:
        config = self.config
        if config.workload == "debit_credit":
            self.layout = DebitCreditLayout(config.debit_credit, config.num_nodes)
            self.database = self.layout.database
            self._gla_map = self.layout.gla_of_page
            self.instruction_profile = (
                config.instructions_bot,
                config.instructions_per_access,
                config.instructions_eot,
            )
            return lambda: DebitCreditGenerator(
                self.layout, self.streams.stream("debitcredit")
            )
        if config.workload == "trace":
            from repro.workload.traceworld import TraceWorld

            self.trace_world = TraceWorld(config, self.streams)
            self.database = self.trace_world.database
            self._gla_map = self.trace_world.gla_of_page
            self.instruction_profile = (
                config.trace_instructions_bot,
                config.trace_instructions_per_access,
                config.trace_instructions_eot,
            )
            return lambda: self.trace_world.make_generator()
        if config.workload == "synthetic":
            from repro.workload.synthetic import SyntheticGenerator

            spec = config.synthetic
            self.database = spec.build_database()
            num_nodes = config.num_nodes
            # Synthetic workloads default to a hashed GLA assignment;
            # affinity-coordinated assignments can be modelled by
            # giving the classes explicit affinity nodes and matching
            # partition layouts.
            self._gla_map = lambda page: hash(page) % num_nodes
            self.instruction_profile = (
                config.instructions_bot,
                config.instructions_per_access,
                config.instructions_eot,
            )
            return lambda: SyntheticGenerator(
                spec, self.database, self.streams.stream("synthetic")
            )
        raise ValueError(f"unknown workload {config.workload!r}")

    def _build_router(self) -> Union[AffinityRouter, RandomRouter]:
        config = self.config
        if config.routing is RoutingStrategy.RANDOM:
            return RandomRouter(config.num_nodes)
        if config.workload == "debit_credit":
            return AffinityRouter.for_debit_credit(self.layout, config.num_nodes)
        if config.workload == "synthetic":
            spec = config.synthetic
            num_nodes = config.num_nodes

            def home_of(txn: Transaction) -> int:
                affinity = spec.classes[txn.type_id].affinity_node
                if affinity is None:
                    return txn.type_id % num_nodes
                return affinity % num_nodes

            return AffinityRouter(home_of, num_nodes)
        return AffinityRouter.from_routing_table(
            self.trace_world.routing_table, config.num_nodes
        )

    def _allocate_partition(self, partition: Partition) -> None:
        config = self.config
        if partition.storage is StorageKind.GEM:
            self.storage.assign(partition.index, self.gem)
            return
        cache = None
        if partition.storage in (
            StorageKind.DISK_VOLATILE_CACHE,
            StorageKind.DISK_NONVOLATILE_CACHE,
        ):
            capacity = partition.cache_pages or partition.num_pages or 1000
            cache = DiskCache(
                capacity,
                nonvolatile=partition.storage is StorageKind.DISK_NONVOLATILE_CACHE,
            )
        array = DiskArray(
            self.sim,
            partition.name,
            num_disks=partition.disks,
            ledger=self.ledger,
            stream=self.streams.stream(f"disk-{partition.name}"),
            disk_time=config.disk_time_db,
            controller_time=config.controller_time,
            transfer_time=config.transfer_time,
            cache=cache,
            spread_accesses=partition.num_pages is None,
        )
        self.disk_arrays[partition.name] = array
        write_buffer = (
            self.gem
            if partition.storage is StorageKind.DISK_GEM_WRITE_BUFFER
            else None
        )
        self.storage.assign(partition.index, array, gem_write_buffer=write_buffer)

    # -- run control -------------------------------------------------------------

    def reset_stats(self) -> None:
        """Discard warm-up statistics on every component."""
        for node in self.nodes:
            node.reset_stats()
        for array in self.disk_arrays.values():
            array.reset_stats()
        for array in self.log_disks:
            array.reset_stats()
        self.gem.reset_stats()
        if self.rdma is not None:
            self.rdma.reset_stats()
        self.network.reset_stats()
        self.protocol.reset_stats()
        self.detector.deadlocks_detected = 0
        self.detector.victims.clear()
        self.source.generated = 0
        self.recorder.reset()

    # -- introspection ------------------------------------------------------------

    def device_channels(
        self,
    ) -> List[Tuple[str, Callable[[Optional[float]], float], int]]:
        """Monitorable devices as ``(name, busy_time_fn, capacity)``.

        ``busy_time_fn(now)`` returns accumulated busy server-seconds;
        windowed utilization is its delta over an interval divided by
        ``capacity * interval`` (used by the TimeSeriesMonitor).
        """
        channels = [
            (f"cpu{node.node_id}", node.cpu.busy_time, self.config.cpus_per_node)
            for node in self.nodes
        ]
        channels.append(("gem", self.gem.busy_time, self.config.gem_servers))
        if self.rdma is not None:
            channels.append(
                ("rdma", self.rdma.busy_time, self.config.rdma_channels)
            )
        channels.append(("network", self.network.busy_time, 1))
        for name in sorted(self.disk_arrays):
            array = self.disk_arrays[name]
            channels.append((f"disk.{name}", array.busy_time, len(array.disks)))
        for index, array in enumerate(self.log_disks):
            channels.append((f"log{index}", array.busy_time, len(array.disks)))
        return channels

    def blocked_transactions(self) -> int:
        """Transactions currently waiting inside the protocol
        (lock queues, validation waits, epoch barriers), cluster-wide."""
        return self.protocol.num_blocked()

    def sanitize_finish(self) -> None:
        """Run the sanitizer's horizon checks (no-op when disabled).

        Raises :class:`repro.sanitize.SanitizerError` with the full
        structured report when any invariant was violated.
        """
        if self.sanitizer is not None:
            self.sanitizer.finish(self)

    # -- results -----------------------------------------------------------------

    def collect_results(self, measure_time: float) -> RunResult:
        config = self.config
        completed = sum(node.completions.count for node in self.nodes)
        rt_sum = sum(
            node.response_time.mean * node.response_time.count for node in self.nodes
        )
        mean_rt = rt_sum / completed if completed else 0.0
        # Per-access normalized response time (the paper's Fig 4.7 metric).
        per_access_n = sum(
            node.response_time_per_access.count for node in self.nodes
        )
        per_access_sum = sum(
            node.response_time_per_access.mean * node.response_time_per_access.count
            for node in self.nodes
        )
        mean_rt_per_access = per_access_sum / per_access_n if per_access_n else 0.0
        total_accesses = sum(
            sum(s.accesses for s in node.buffer.partition_stats.values())
            for node in self.nodes
        )
        mean_accesses = total_accesses / completed if completed else 0.0
        # -- buffer statistics aggregated per partition -------------------
        hit_ratios: Dict[str, float] = {}
        invalidations: Dict[str, float] = {}
        for partition in self.database:
            accesses = hits = invals = 0
            for node in self.nodes:
                stats = node.buffer.partition_stats.get(partition.index)
                if stats is None:
                    continue
                accesses += stats.accesses
                hits += stats.hits
                invals += stats.invalidations
            hit_ratios[partition.name] = hits / accesses if accesses else 0.0
            invalidations[partition.name] = invals / completed if completed else 0.0
        # -- locks ----------------------------------------------------------
        stats = self.protocol.lock_stats()
        local_share = stats["local_share"]
        remote_locks = int(stats["remote_lock_requests"])
        total_locks = int(stats["lock_requests"])
        lock_wait = stats["mean_lock_wait"]
        page_req = int(stats["page_requests"])
        page_req_delay = stats["mean_page_request_delay"]
        supplied = int(stats["pages_supplied_with_grant"])
        per_txn = (1.0 / completed) if completed else 0.0
        return RunResult(
            num_nodes=config.num_nodes,
            coupling=config.coupling.value,
            routing=config.routing.value,
            update_strategy=config.update_strategy.value,
            workload=config.workload,
            buffer_pages_per_node=config.buffer_pages_per_node,
            arrival_rate_per_node=config.arrival_rate_per_node,
            measure_time=measure_time,
            completed=completed,
            mean_response_time=mean_rt,
            mean_response_time_artificial=mean_rt_per_access * mean_accesses,
            throughput_total=completed / measure_time if measure_time else 0.0,
            mean_accesses_per_txn=mean_accesses,
            cpu_utilization_per_node=[n.cpu_utilization() for n in self.nodes],
            gem_utilization=self.gem.utilization(),
            network_utilization=self.network.utilization(),
            log_disk_utilization_max=max(
                (a.max_disk_utilization() for a in self.log_disks), default=0.0
            ),
            disk_utilization_max=max(
                (a.max_disk_utilization() for a in self.disk_arrays.values()),
                default=0.0,
            ),
            hit_ratios=hit_ratios,
            invalidations_per_txn=invalidations,
            local_lock_share=local_share,
            lock_requests_per_txn=total_locks * per_txn,
            remote_lock_requests_per_txn=remote_locks * per_txn,
            mean_lock_wait_time=lock_wait,
            deadlocks=self.detector.deadlocks_detected,
            aborts=sum(node.aborts.count for node in self.nodes),
            page_requests_per_txn=page_req * per_txn,
            mean_page_request_delay=page_req_delay,
            pages_supplied_with_grant_per_txn=supplied * per_txn,
            messages_short_per_txn=sum(n.comm.sent_short for n in self.nodes) * per_txn,
            messages_long_per_txn=sum(n.comm.sent_long for n in self.nodes) * per_txn,
            events_processed=self.sim.events_processed,
            generated=self.source.generated,
            breakdown=(
                self.recorder.breakdown() if self.recorder.enabled else None
            ),
            # Availability metrics cover the WHOLE run, warm-up
            # included: a crash/recovery cycle may straddle the
            # measurement boundary, so they are deliberately not reset
            # by reset_stats().
            crashes=self.faults.crashes if self.faults else 0,
            aborted_by_crash=self.faults.aborted_by_crash if self.faults else 0,
            arrivals_redirected=(
                self.faults.redirected_arrivals if self.faults else 0
            ),
            mean_failover_seconds=(
                self.faults.mean_failover_time() if self.faults else 0.0
            ),
            mean_reintegration_seconds=(
                self.faults.mean_reintegration_time() if self.faults else 0.0
            ),
            total_down_seconds=(
                self.faults.total_down_time() if self.faults else 0.0
            ),
        )
