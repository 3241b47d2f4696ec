"""Shared test harness: a minimal single-node environment for unit
tests of the buffer manager and related components, without building a
full cluster."""

from __future__ import annotations

import functools
import hashlib
from typing import List, Optional, Tuple

from repro.db.pages import PageId, VersionLedger
from repro.db.schema import Database, Partition, StorageKind
from repro.devices.disk import DiskArray
from repro.devices.storage import StorageDirectory
from repro.node.buffer_manager import BufferManager
from repro.node.cpu import CpuPool
from repro.obs.recorder import NULL_RECORDER
from repro.sim import Simulator, StreamRegistry
from repro.system.cluster import Cluster
from repro.system.config import DebitCreditConfig, SystemConfig, TraceWorkloadConfig
from repro.workload.trace import Trace
from repro.workload.tracegen import generate_trace
from repro.workload.transaction import PageAccess, Transaction


class RecordingProtocol:
    """Protocol stub recording write-back notifications."""

    def __init__(self):
        self.written_back: List[Tuple[int, PageId, int]] = []

    def page_written_back(self, node_id, page, version):
        self.written_back.append((node_id, page, version))
        return
        yield  # pragma: no cover

    def request_page_from_owner(self, txn, page, grant):  # pragma: no cover
        raise AssertionError("unexpected owner request")


class FakeConfig:
    def __init__(self, force: bool = False):
        self.force = force
        self.noforce = not force


class MiniNode:
    """A bare-bones node exposing what BufferManager needs."""

    def __init__(
        self,
        buffer_pages: int = 8,
        force: bool = False,
        num_data_pages: int = 1000,
        disk_time: float = 0.015,
    ):
        self.sim = Simulator()
        self.node_id = 0
        self.config = FakeConfig(force)
        self.streams = StreamRegistry(17)
        self.ledger = VersionLedger()
        self.database = Database(
            [
                Partition("DATA", 0, num_pages=num_data_pages),
                Partition("SEQ", 1, num_pages=None, lockable=False),
            ]
        )
        self.cpu = CpuPool(self.sim, 4, 10.0, self.streams.stream("cpu"))
        self.storage = StorageDirectory(self.sim, self.ledger, 3000.0, 300.0)
        self.data_disks = DiskArray(
            self.sim, "DATA", 4, self.ledger, self.streams.stream("d"),
            disk_time=disk_time,
        )
        self.seq_disks = DiskArray(
            self.sim, "SEQ", 2, self.ledger, self.streams.stream("s"),
            disk_time=disk_time, spread_accesses=True,
        )
        self.log_disk = DiskArray(
            self.sim, "log", 1, self.ledger, self.streams.stream("l"),
            disk_time=0.005,
        )
        self.storage.assign(0, self.data_disks)
        self.storage.assign(1, self.seq_disks)
        self.storage.assign_log_disks([self.log_disk])
        self.protocol = RecordingProtocol()
        self.recorder = NULL_RECORDER
        self.buffer = BufferManager(self, buffer_pages, self.ledger)

    def run(self, process, until: Optional[float] = None):
        """Drive a generator to completion and return its value."""
        result = {}

        def wrapper():
            value = yield from process
            result["value"] = value

        self.sim.process(wrapper())
        self.sim.run(until=until)
        return result.get("value")


def drive_cluster(cluster, generator, horizon: float = 50.0):
    """Run ``generator`` as a process until it completes.

    Steps the event loop directly so the clock stops at the process's
    completion time -- the (possibly quiesced) SOURCE always keeps a
    future arrival scheduled, so time-bounded runs would overshoot and
    unbounded runs would never return.
    """
    result = {}

    def wrapper():
        result["value"] = yield from generator

    process = cluster.sim.process(wrapper())
    deadline = cluster.sim.now + horizon
    while not process.processed and cluster.sim.peek() <= deadline:
        cluster.sim.step()
    if "value" not in result and not process.triggered:
        raise AssertionError("driven process did not complete within horizon")
    return result.get("value")


def system_config(**overrides) -> SystemConfig:
    """Small 2-node GEM/affinity/NOFORCE config for short system runs.

    The shared baseline for integration-style tests; override any
    :class:`SystemConfig` field by keyword.
    """
    defaults = dict(
        num_nodes=2,
        coupling="gem",
        routing="affinity",
        update_strategy="noforce",
        warmup_time=0.5,
        measure_time=2.0,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def quiesced_config(**overrides) -> SystemConfig:
    """A config whose SOURCE is quiesced (near-zero arrival rate).

    Protocol unit tests build a full cluster but drive transactions by
    hand with :func:`drive_cluster`; the workload generator must not
    interfere.
    """
    defaults = dict(
        arrival_rate_per_node=1e-6,
        warmup_time=0.0,
        measure_time=1.0,
    )
    defaults.update(overrides)
    return system_config(**defaults)


def quiesced_cluster(**overrides) -> Cluster:
    """A quiesced :class:`Cluster` -- see :func:`quiesced_config`."""
    return Cluster(quiesced_config(**overrides))


def make_rdma_cluster(**overrides) -> Cluster:
    """A quiesced cluster under the disaggregated-memory coupling.

    The standard fixture for RDMA-regime unit tests: 2 nodes,
    affinity/NOFORCE, coupling ``rdma``, workload generator quiesced so
    transactions are driven by hand with :func:`drive_cluster`.
    Override any :class:`SystemConfig` field by keyword (e.g.
    ``protocol="mvcc"`` or ``update_strategy="force"``).
    """
    defaults = dict(coupling="rdma")
    defaults.update(overrides)
    return Cluster(quiesced_config(**defaults))


def bt_storage_config(
    storage: StorageKind = StorageKind.DISK_GEM_WRITE_BUFFER, **overrides
) -> SystemConfig:
    """FORCE config with the BRANCH_TELLER partition on ``storage``
    (the Fig 4.3 / 4.4 storage-allocation code paths)."""
    defaults = dict(
        routing="random",
        update_strategy="force",
        buffer_pages_per_node=1000,
        debit_credit=DebitCreditConfig(branch_teller_storage=storage),
    )
    defaults.update(overrides)
    return system_config(**defaults)


def make_txn(txn_id: int = 1, node: int = 0) -> Transaction:
    txn = Transaction(txn_id, [])
    txn.node = node
    return txn


def read_access(page: PageId, lockable: bool = True) -> PageAccess:
    return PageAccess(page, write=False, lockable=lockable)


def write_access(page: PageId, lockable: bool = True) -> PageAccess:
    return PageAccess(page, write=True, lockable=lockable)


@functools.lru_cache(maxsize=None)
def generated_trace(seed: int, scale: float) -> Tuple[Trace, float]:
    """The synthetic trace for ``(seed, scale)`` and the generator
    stream's next draw after it (cached: the paper-size trace is about
    a million references)."""
    stream = StreamRegistry(seed).stream("tracegen")
    trace, _profiles, _sizes = generate_trace(
        TraceWorkloadConfig(scale=scale), stream
    )
    return trace, stream.random()


def sha256_of(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
