"""Storage directory: partition-to-device mapping and I/O entry points.

The directory owns the translation of a logical page I/O into device
operations plus the CPU overhead they cost at the issuing node:

* disk-based devices: 3000 instructions per page I/O, then the device
  operation proceeds without holding a CPU;
* GEM-resident files: 300 instructions to initiate, then the page
  access is *synchronous* -- the CPU stays busy for the whole access,
  including queuing at the GEM server (section 2).

Log files are written through :meth:`StorageDirectory.write_log` to a
per-node log disk with the reduced sequential-access disk time.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Union

from repro.db.pages import PageId, VersionLedger
from repro.devices.disk import DiskArray
from repro.devices.gem import GemDevice
from repro.node.cpu import CpuPool
from repro.sim.engine import Event, Simulator
from repro.sim.resources import compound_cancel, held_chain

__all__ = ["StorageDirectory"]

Backend = Union[DiskArray, GemDevice]


class StorageDirectory:
    """Maps partition indexes to their storage backends."""

    def __init__(
        self,
        sim: Simulator,
        ledger: VersionLedger,
        instructions_per_io: float,
        instructions_per_gem_io: float,
        log_gem: Optional[GemDevice] = None,
    ):
        self.sim = sim
        self.ledger = ledger
        self.instructions_per_io = instructions_per_io
        self.instructions_per_gem_io = instructions_per_gem_io
        self._backends: Dict[int, Backend] = {}
        self._log_disks: List[DiskArray] = []
        self._log_seq = 0
        #: When set, log files are GEM-resident (section 2 usage form).
        self._log_gem = log_gem
        #: Partitions whose writes are absorbed by a GEM write buffer
        #: and destaged to their disks asynchronously (section 2's
        #: third usage form) -> the GEM device absorbing them.
        self._write_buffers: Dict[int, GemDevice] = {}
        #: Fault manager hook (set by the cluster when fault injection
        #: is enabled): reads of pages whose only current copy died
        #: with a crashed node must wait for REDO recovery.
        self.faults = None

    # -- configuration ----------------------------------------------------

    def assign(
        self,
        partition_index: int,
        backend: Backend,
        gem_write_buffer: Optional[GemDevice] = None,
    ) -> None:
        self._backends[partition_index] = backend
        if gem_write_buffer is not None:
            if isinstance(backend, GemDevice):
                raise ValueError("a GEM-resident file needs no write buffer")
            self._write_buffers[partition_index] = gem_write_buffer

    def assign_log_disks(self, log_disks: List[DiskArray]) -> None:
        self._log_disks = log_disks

    def backend(self, partition_index: int) -> Backend:
        return self._backends[partition_index]

    def is_gem_resident(self, partition_index: int) -> bool:
        return isinstance(self._backends[partition_index], GemDevice)

    # -- page I/O -----------------------------------------------------------

    def read(self, page: PageId, cpu: CpuPool) -> Generator[Event, Any, int]:
        """Read ``page`` from its permanent storage; returns the version."""
        if self.faults is not None:
            # The permanent copy may be behind a crashed node's lost
            # buffer update: block until REDO recovery restores it.
            yield from self.faults.wait_redo(page)
        backend = self._backends[page[0]]
        if isinstance(backend, GemDevice):
            # One chained entry (held_chain) covers the CPU grant, the
            # setup instructions and the synchronous GEM page access:
            # the generator suspends once per I/O instead of per leg.
            gem = backend
            gem.page_accesses += 1
            gio = self.instructions_per_gem_io
            cpu.instructions_executed += gio
            done = held_chain(
                cpu.resource, gem.server, gio / cpu.speed, gem.page_access_time
            )
            try:
                yield done
            except BaseException:
                compound_cancel(done)
                raise
            return self.ledger.storage_version(page)
        # Disk-resident file: the CPU setup slice rides as the lead leg
        # of the disk I/O's hold_seq chain -- one suspension covers
        # CPU, controller, transfer and disk service.
        instr = self.instructions_per_io
        lead: Any = ()
        if instr:
            cpu.instructions_executed += instr
            lead = ((cpu.resource, instr / cpu.speed, None),)
        version = yield from backend.read(page, lead=lead)
        return version

    def write(
        self, page: PageId, version: Optional[int], cpu: CpuPool
    ) -> Generator[Event, Any, None]:
        """Write ``version`` of ``page``; returns when durable.

        ``version=None`` performs the timing without ledger bookkeeping
        (pages of latch-protected partitions carry no version).
        """
        backend = self._backends[page[0]]
        if isinstance(backend, GemDevice):
            # One chained entry (held_chain) covers the CPU grant, the
            # setup instructions and the synchronous GEM page access:
            # the generator suspends once per I/O instead of per leg.
            gem = backend
            gem.page_accesses += 1
            gio = self.instructions_per_gem_io
            cpu.instructions_executed += gio
            done = held_chain(
                cpu.resource, gem.server, gio / cpu.speed, gem.page_access_time
            )
            try:
                yield done
            except BaseException:
                compound_cancel(done)
                raise
            if version is not None:
                self.ledger.write_storage(page, version)
            return
        write_buffer = self._write_buffers.get(page[0])
        if write_buffer is not None:
            # GEM write buffer: the write is durable after a synchronous
            # GEM page access; the disk copy is updated asynchronously.
            # One chained entry (held_chain) covers the CPU grant, the
            # setup instructions and the synchronous GEM page access:
            # the generator suspends once per I/O instead of per leg.
            gem = write_buffer
            gem.page_accesses += 1
            gio = self.instructions_per_gem_io
            cpu.instructions_executed += gio
            done = held_chain(
                cpu.resource, gem.server, gio / cpu.speed, gem.page_access_time
            )
            try:
                yield done
            except BaseException:
                compound_cancel(done)
                raise
            if version is not None:
                self.ledger.write_storage(page, version)
            self.sim.process(self._destage(backend, page), name="gem-wbuf-destage")
            return
        instr = self.instructions_per_io
        lead: Any = ()
        if instr:
            cpu.instructions_executed += instr
            lead = ((cpu.resource, instr / cpu.speed, None),)
        yield from backend.write(page, version, lead=lead)

    def _destage(self, backend: DiskArray, page: PageId):
        """Background disk update behind the GEM write buffer."""
        yield from backend.write(page, None)

    def read_log(self, node_id: int, cpu: CpuPool) -> Generator[Event, Any, None]:
        """Read one log page of ``node_id`` during crash recovery.

        Log devices survive node crashes (dedicated log disk, or the
        non-volatile GEM), so REDO always reads from the *crashed*
        node's log -- charged to the recovering node's CPU.
        """
        if self._log_gem is not None:
            # One chained entry (held_chain) covers the CPU grant, the
            # setup instructions and the synchronous GEM page access:
            # the generator suspends once per I/O instead of per leg.
            gem = self._log_gem
            gem.page_accesses += 1
            gio = self.instructions_per_gem_io
            cpu.instructions_executed += gio
            done = held_chain(
                cpu.resource, gem.server, gio / cpu.speed, gem.page_access_time
            )
            try:
                yield done
            except BaseException:
                compound_cancel(done)
                raise
            return
        log_disk = self._log_disks[node_id]
        instr = self.instructions_per_io
        lead: Any = ()
        if instr:
            cpu.instructions_executed += instr
            lead = ((cpu.resource, instr / cpu.speed, None),)
        yield from log_disk.read((-1 - node_id, 0), lead=lead)

    def write_log(self, node_id: int, cpu: CpuPool) -> Generator[Event, Any, None]:
        """Write one log page at commit (phase 1).

        Goes to the node's log disk, or -- with a GEM-resident log --
        as a synchronous GEM page write (non-volatile, so immediately
        durable and more than two orders of magnitude faster).
        """
        if self._log_gem is not None:
            # One chained entry (held_chain) covers the CPU grant, the
            # setup instructions and the synchronous GEM page access:
            # the generator suspends once per I/O instead of per leg.
            gem = self._log_gem
            gem.page_accesses += 1
            gio = self.instructions_per_gem_io
            cpu.instructions_executed += gio
            done = held_chain(
                cpu.resource, gem.server, gio / cpu.speed, gem.page_access_time
            )
            try:
                yield done
            except BaseException:
                compound_cancel(done)
                raise
            return
        log_disk = self._log_disks[node_id]
        instr = self.instructions_per_io
        lead: Any = ()
        if instr:
            cpu.instructions_executed += instr
            lead = ((cpu.resource, instr / cpu.speed, None),)
        self._log_seq += 1
        yield from log_disk.write((-1 - node_id, self._log_seq), None, lead=lead)
