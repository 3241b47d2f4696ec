"""Disk array model with optional disk cache.

A disk access consists of three components (section 3.3): transmission
delay between main memory and the disk controller, controller service,
and the disk delay proper.  Controller and disk times are sampled
exponentially around their Table 4.1 means; the page transfer time is
deterministic.  Pages are declustered over the array's disks by a hash
of the page id; each disk is a FCFS server, controllers are a pooled
server sized at one controller per four disks.

With a cache (:class:`~repro.devices.disk_cache.DiskCache`):

* read hit: controller + transfer only (about 1.4 ms);
* non-volatile cache write: controller + transfer, durable immediately,
  destaged to disk asynchronously by a background worker per array.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Tuple

from repro.db.pages import PageId, VersionLedger
from repro.devices.disk_cache import DiskCache
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Resource, Store, compound_cancel, hold_seq
from repro.sim.rng import Stream

#: Extra legs prepended to an I/O's ``hold_seq`` chain (the issuing
#: node's CPU setup slice, see ``StorageDirectory``).  Each leg is
#: ``(resource, time, stream)``; see :func:`repro.sim.resources.hold_seq`.
Legs = Tuple[Tuple[Optional[Resource], float, Any], ...]

__all__ = ["DiskArray"]


class DiskArray:
    """A set of disks holding one database file (or a log)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        num_disks: int,
        ledger: VersionLedger,
        stream: Stream,
        disk_time: float = 0.015,
        controller_time: float = 0.001,
        transfer_time: float = 0.0004,
        cache: Optional[DiskCache] = None,
        spread_accesses: bool = False,
    ):
        if num_disks < 1:
            raise ValueError("num_disks must be >= 1")
        self.sim = sim
        self.name = name
        self.ledger = ledger
        self.stream = stream
        self.disk_time = disk_time
        self.controller_time = controller_time
        self.transfer_time = transfer_time
        #: Sequential files (HISTORY): accesses are spread round-robin
        #: over the drives instead of by page hash -- repeated writes
        #: of the current append page would otherwise saturate one
        #: drive, which neither the paper's multi-server disk model nor
        #: a real striped layout exhibits.
        self.spread_accesses = spread_accesses
        self._rr = 0
        self.disks = [
            Resource(sim, capacity=1, name=f"{name}.disk{i}") for i in range(num_disks)
        ]
        self.controllers = Resource(
            sim, capacity=max(1, num_disks // 4), name=f"{name}.ctrl"
        )
        self.cache = cache
        self.reads = 0
        self.writes = 0
        self.disk_reads = 0
        self.disk_writes = 0
        self._destage_queue: Optional[Store] = None
        if cache is not None and cache.nonvolatile:
            self._destage_queue = Store(sim, name=f"{name}.destage")
            sim.process(self._destage_worker(), name=f"{name}.destage")

    # -- helpers ---------------------------------------------------------

    def _disk_for(self, page: PageId) -> Resource:
        if self.spread_accesses:
            self._rr = (self._rr + 1) % len(self.disks)
            return self.disks[self._rr]
        return self.disks[hash(page) % len(self.disks)]

    def _disk_service(self, page: PageId) -> Generator[Event, Any, None]:
        yield from self._disk_for(page).acquire(self.stream.exponential(self.disk_time))

    def _io(
        self, page: PageId, lead: Legs, disk: bool
    ) -> Generator[Event, Any, None]:
        """One I/O as ONE :func:`hold_seq` chain: the ``lead`` legs,
        controller service, bus transfer and, when ``disk`` (the cache
        did not serve it), the disk service.  The caller suspends once
        per I/O instead of once per leg; the exponential service times
        are drawn lazily at each leg's start, exactly where the
        step-per-leg formulation sampled them."""
        stream = self.stream
        legs: Legs = (
            *lead,
            (self.controllers, self.controller_time, stream),
            (None, self.transfer_time, None),
        )
        if disk:
            legs = (*legs, (self._disk_for(page), self.disk_time, stream))
        done = hold_seq(self.sim, legs)
        try:
            yield done
        except BaseException:
            compound_cancel(done)
            raise

    # -- public I/O operations ---------------------------------------------

    def read(self, page: PageId, lead: Legs = ()) -> Generator[Event, Any, int]:
        """Read ``page``; returns the version found on permanent storage.

        The whole access -- optional ``lead`` legs (the issuing node's
        CPU setup slice), controller service, bus transfer, disk
        service on a miss -- is one :meth:`_io`.
        """
        self.reads += 1
        cache = self.cache
        hit = cache is not None and cache.lookup_for_read(page)
        yield from self._io(page, lead, not hit)
        if not hit:
            self.disk_reads += 1
            if cache is not None:
                cache.insert(page, dirty=False)
        return self.ledger.storage_version(page)

    def write(
        self, page: PageId, version: Optional[int], lead: Legs = ()
    ) -> Generator[Event, Any, None]:
        """Write ``version`` of ``page`` to permanent storage.

        Returns once the write is *durable*: after the disk write, or
        after the cache write for a non-volatile cache (destage then
        happens in the background).  ``version=None`` performs the
        timing without ledger bookkeeping (log writes).  One
        :meth:`_io`, as in :meth:`read`.
        """
        self.writes += 1
        cache = self.cache
        absorbed = cache is not None and cache.note_write(page)
        yield from self._io(page, lead, not absorbed)
        if absorbed:
            if version is not None:
                self.ledger.write_storage(page, version)
            assert self._destage_queue is not None
            self._destage_queue.put(page)
            return
        self.disk_writes += 1
        if version is not None:
            self.ledger.write_storage(page, version)

    def _destage_worker(self):
        """Background process writing cache-absorbed pages to disk."""
        assert self._destage_queue is not None
        while True:
            page = yield self._destage_queue.get()
            yield from self._disk_service(page)
            self.disk_writes += 1
            if self.cache is not None:
                self.cache.mark_clean(page)

    # -- statistics ------------------------------------------------------

    def max_disk_utilization(self) -> float:
        return max(disk.utilization() for disk in self.disks)

    def busy_time(self, now=None) -> float:
        """Accumulated busy disk-seconds over the whole array."""
        return sum(disk.busy_time(now) for disk in self.disks)

    def reset_stats(self) -> None:
        for disk in self.disks:
            disk.reset_stats()
        self.controllers.reset_stats()
        self.reads = 0
        self.writes = 0
        self.disk_reads = 0
        self.disk_writes = 0
        if self.cache is not None:
            self.cache.reset_stats()
