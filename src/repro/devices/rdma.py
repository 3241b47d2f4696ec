"""RDMA fabric model for the disaggregated-memory coupling regime.

The third coupling regime replaces GEM's shared semiconductor store
with a *remote memory pool* reached over an RDMA fabric by one-sided
verbs (Wang et al., "The Case for Distributed Shared-Memory Databases
with RDMA-Enabled Memory Disaggregation").  The pool is passive: there
is no server CPU on the far side, only NIC/fabric occupancy.  Lock and
directory state is co-located with the data in the pool, so a lock
acquisition is a remote Compare&Swap instead of a GEM entry
instruction, and a page fetch is a one-sided read instead of a
message exchange with the owning node.

Accesses are synchronous like GEM accesses: the issuing node's CPU
stays busy for the complete verb, including queuing at the fabric.
The caller (:class:`repro.cc.store.RdmaStore`) chains the CPU and a
fabric channel for every verb and counts it here; this module only
models fabric occupancy.

The module-level ``DEFAULT_*`` constants are the cost model
(micro-benchmark figures typical of one-sided RDMA on a modern
fabric); :class:`repro.system.config.SystemConfig` uses them as the
defaults of its ``rdma_*`` fields.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import Simulator
from repro.sim.resources import Resource

__all__ = [
    "DEFAULT_RDMA_CHANNELS",
    "DEFAULT_RDMA_CAS_TIME",
    "DEFAULT_RDMA_READ_TIME",
    "DEFAULT_RDMA_PAGE_READ_TIME",
    "DEFAULT_RDMA_PAGE_WRITE_TIME",
    "DEFAULT_INSTRUCTIONS_PER_RDMA_OP",
    "DEFAULT_RDMA_LOCK_LEASE_SECONDS",
    "DEFAULT_RDMA_REREGISTRATION_SECONDS",
    "RdmaFabric",
]

#: Parallel one-sided channels into the pool (QP/NIC parallelism).
DEFAULT_RDMA_CHANNELS: int = 2
#: One-sided Compare&Swap round trip (lock word co-located with data).
DEFAULT_RDMA_CAS_TIME: float = 3e-6
#: One-sided small read (lock/directory entry re-read after a wait).
DEFAULT_RDMA_READ_TIME: float = 2e-6
#: One-sided 4 KB page read from the pool.
DEFAULT_RDMA_PAGE_READ_TIME: float = 8e-6
#: One-sided 4 KB page write (commit install) into the pool.
DEFAULT_RDMA_PAGE_WRITE_TIME: float = 10e-6
#: CPU instructions to post a verb and poll its completion.
DEFAULT_INSTRUCTIONS_PER_RDMA_OP: float = 400.0
#: Lease on pool-resident lock words: locks of a crashed compute node
#: become reclaimable only after its lease expired (there is no
#: central manager that could revoke them synchronously).
DEFAULT_RDMA_LOCK_LEASE_SECONDS: float = 1.0
#: Memory-region/queue-pair re-registration time a restarted compute
#: node pays before it can issue one-sided verbs again.
DEFAULT_RDMA_REREGISTRATION_SECONDS: float = 0.08


class RdmaFabric:
    """The fabric between compute nodes and the memory pool.

    A multi-channel queued resource with deterministic service times
    (the pool side is passive memory; there is no seek/rotation
    variance).  Mirrors :class:`repro.devices.gem.GemDevice`: the verb
    times are the cost model, the counters record the verbs issued.
    """

    def __init__(
        self,
        sim: Simulator,
        channels: int = DEFAULT_RDMA_CHANNELS,
        cas_time: float = DEFAULT_RDMA_CAS_TIME,
        read_time: float = DEFAULT_RDMA_READ_TIME,
        page_read_time: float = DEFAULT_RDMA_PAGE_READ_TIME,
        page_write_time: float = DEFAULT_RDMA_PAGE_WRITE_TIME,
    ) -> None:
        if min(cas_time, read_time, page_read_time, page_write_time) < 0:
            raise ValueError("verb times must be non-negative")
        if channels < 1:
            raise ValueError("channels must be >= 1")
        self.sim = sim
        self.cas_time = cas_time
        self.read_time = read_time
        self.page_read_time = page_read_time
        self.page_write_time = page_write_time
        self.channel = Resource(sim, capacity=channels, name="rdma")
        self.cas_ops = 0
        self.entry_reads = 0
        self.page_reads = 0
        self.page_writes = 0

    def utilization(self) -> float:
        return self.channel.utilization()

    def busy_time(self, now: Optional[float] = None) -> float:
        """Accumulated busy channel-seconds since the last reset."""
        return self.channel.busy_time(now)

    def reset_stats(self) -> None:
        self.channel.reset_stats()
        self.cas_ops = 0
        self.entry_reads = 0
        self.page_reads = 0
        self.page_writes = 0
