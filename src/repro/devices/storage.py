"""Storage directory: partition-to-device mapping and I/O entry points.

The directory owns the translation of a logical page I/O into device
operations plus the CPU overhead they cost at the issuing node:

* disk-based devices: 3000 instructions per page I/O, as the lead leg
  of the device operation's chain; the disk service itself proceeds
  without holding a CPU;
* GEM-resident files: 300 instructions to initiate, then the page
  access is *synchronous* -- the CPU stays busy for the whole access,
  including queuing at the GEM server (section 2).  That is one
  :meth:`GemDevice.page_access`, a
  :meth:`~repro.node.cpu.CpuPool.synchronous` access.

A log file is one more backend: a per-node log disk with the reduced
sequential-access disk time, or GEM (``log_in_gem``).  A GEM write
buffer takes a partition's writes as synchronous GEM page writes and
destages them to its disks in the background.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Union

from repro.db.pages import PageId, VersionLedger
from repro.devices.disk import DiskArray, Legs
from repro.devices.gem import GemDevice
from repro.node.cpu import CpuPool
from repro.sim.engine import Event, Simulator

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
        return (yield from self._read(self._backends[page[0]], page, cpu))

    def write(
        self, page: PageId, version: Optional[int], cpu: CpuPool
    ) -> Generator[Event, Any, None]:
        """Write ``version`` of ``page``; returns when durable.

        ``version=None`` performs the timing without ledger bookkeeping
        (pages of latch-protected partitions carry no version).
        """
        backend = self._backends[page[0]]
        write_buffer = self._write_buffers.get(page[0])
        if write_buffer is None:
            yield from self._write(backend, page, version, cpu)
            return
        # GEM write buffer: the write is durable after a synchronous
        # GEM page access; the disk copy is updated asynchronously.
        yield from self._write(write_buffer, page, version, cpu)
        self.sim.process(self._destage(backend, page), name="gem-wbuf-destage")

    def _destage(self, backend: DiskArray, page: PageId):
        """Background disk update behind the GEM write buffer."""
        yield from backend.write(page, None)

    def read_log(self, node_id: int, cpu: CpuPool) -> Generator[Event, Any, None]:
        """Read one log page of ``node_id`` during crash recovery.

        Log devices survive node crashes (dedicated log disk, or the
        non-volatile GEM), so REDO always reads from the *crashed*
        node's log -- charged to the recovering node's CPU.
        """
        yield from self._read(self._log(node_id), (-1 - node_id, 0), cpu)

    def write_log(self, node_id: int, cpu: CpuPool) -> Generator[Event, Any, None]:
        """Write one log page at commit (phase 1).

        Goes to the node's log disk, or -- with a GEM-resident log --
        as a synchronous GEM page write (non-volatile, so immediately
        durable and more than two orders of magnitude faster).
        """
        self._log_seq += 1
        page = (-1 - node_id, self._log_seq)
        yield from self._write(self._log(node_id), page, None, cpu)

    # -- one page I/O on one backend ------------------------------------------

    def _log(self, node_id: int) -> Backend:
        """The device holding ``node_id``'s log file."""
        if self._log_gem is not None:
            return self._log_gem
        return self._log_disks[node_id]

    def _read(
        self, backend: Backend, page: PageId, cpu: CpuPool
    ) -> Generator[Event, Any, int]:
        if isinstance(backend, GemDevice):
            yield from backend.page_access(cpu, self.instructions_per_gem_io)
            return self.ledger.storage_version(page)
        return (yield from backend.read(page, self._lead(cpu)))

    def _write(
        self, backend: Backend, page: PageId, version: Optional[int], cpu: CpuPool
    ) -> Generator[Event, Any, None]:
        if isinstance(backend, GemDevice):
            yield from backend.page_access(cpu, self.instructions_per_gem_io)
            if version is not None:
                self.ledger.write_storage(page, version)
            return
        yield from backend.write(page, version, self._lead(cpu))

    def _lead(self, cpu: CpuPool) -> Legs:
        """The CPU setup slice of a disk I/O, as the lead leg of the
        I/O's ``hold_seq`` chain: one suspension covers CPU,
        controller, transfer and disk service."""
        instr = self.instructions_per_io
        if not instr:
            return ()
        cpu.instructions_executed += instr
        return ((cpu.resource, instr / cpu.speed, None),)
