"""The coupling substrate of loose coupling: GLA partitions.

Under primary copy locking the database is logically partitioned and
each node holds the **global lock authority (GLA)** of one partition
(section 3.2, [Ra86]).  Whatever a protocol coordinates -- PCL's lock
tables, MVCC's version directory -- is partitioned the same way, and
cluster-wide state (MVCC's timestamp counter, DGCC's scheduler) lives
at the lowest-numbered surviving node.  :class:`Partitions` is the
substrate beside :class:`~repro.cc.store.SharedStore`; the protocols
keep their message kinds, payloads and handlers, and this module owns
every step they share:

* **partition calls** -- a request against a partition is processed
  locally when this node hosts it (free: no message, and its CPU is
  in the transaction path length) and is otherwise a watched
  request/reply round trip to the host, retried when the host crashed
  before answering; host resolution waits while a partition is fenced
  for reassignment;
* **page carry (NOFORCE)** -- the GLA node doubles as the page owner
  of its partition: a modified page travels to it with the release
  (the sender marks its copy clean), and the GLA supplies the current
  version with its reply when the requester's copy is stale or missing
  and the permanent database is behind;
* **failover and failback** -- the crash fence with its scan for
  orphaned stale pages, the reassignment of the dead node's partition
  to the lowest surviving node (announce, state exchange, REDO,
  reopen), and its return to the restarted node (flush, transfer,
  reopen).  Close coupling avoids every one of these messages.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Generator,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.cc.messages import GlaTransferPayload
from repro.cc.store import Broadcast, PageOwners
from repro.db.pages import PageId
from repro.node.lock_table import LockTable
from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.manager import CrashRecord
    from repro.node.node import Node
    from repro.system.cluster import Cluster

__all__ = ["Partitions"]

#: Lock registrations a partition transfer rebuilds: ``home -> count``.
Registrations = Callable[[int], int]


class Partitions(PageOwners):
    """GLA partitions reached by messages (loose coupling)."""

    def __init__(self, cluster: "Cluster", gla_map: Callable[[PageId], int]) -> None:
        super().__init__(cluster)
        self.gla_map = gla_map
        self.partitions = cluster.config.num_nodes

    # -- partition calls -----------------------------------------------------

    def home(self, page: PageId) -> int:
        return self.gla_map(page)

    def resolve(self, node_id: int, home: int) -> Generator[Event, Any, int]:
        """The partition's host; during failover another node, and while
        it is fenced for reassignment the call waits."""
        faults = self.cluster.faults
        if faults is None:
            return home
        host = yield from faults.resolve_gla(home)
        return host

    def central(self, node_id: int) -> int:
        return self.coordinator()

    def access(
        self, node_id: int, count: int, txn_id: Optional[int] = None
    ) -> Iterator[Event]:
        """Entries live in the host's memory: an access costs nothing
        beyond the processing already charged for the request."""
        return iter(())

    def owner(self, node_id: int) -> Optional[int]:
        """The GLA node is the owner of its partition's pages, so an
        entry records none (grants at the host read storage)."""
        return None

    def publish(
        self, node_id: int, count: int, send: Broadcast
    ) -> Generator[Event, Any, None]:
        """A delivery-confirmed message to every other live node, one
        after the other."""
        node = self.cluster.nodes[node_id]
        for dst in self.cluster.nodes:
            if dst.node_id == node_id or self.is_down(dst.node_id):
                continue
            notice = self.sim.event()
            yield from send(node, dst.node_id, notice)
            yield notice

    def recovery_access(self, node_id: int) -> Iterator[Event]:
        """The coordinator holds the state: recovery CPU per entry."""
        faults = self.cluster.faults
        assert faults is not None
        return self.cluster.nodes[node_id].cpu.consume(
            faults.config.recovery_instructions_per_lock
        )

    # -- NOFORCE page carry ----------------------------------------------------

    def supplies(
        self, node: "Node", page: PageId, seqno: int, cached_version: Optional[int]
    ) -> bool:
        """The reply carries the page exactly when the permanent database
        cannot serve it: the host holds a dirty current copy and the
        requester's copy is stale or missing.  Clean copies imply the
        permanent database is current, so the requester reads storage."""
        return (
            self._noforce
            and cached_version != seqno
            and node.buffer.has_current_dirty(page, seqno)
        )

    def carry(
        self, node: "Node", pages: Sequence[Tuple[PageId, Optional[int]]]
    ) -> bool:
        """The modified pages (version not None) ride along to the host,
        which becomes their owner: they are no longer this node's write
        responsibility."""
        modified = [(page, version) for page, version in pages if version is not None]
        if not (self._noforce and modified):
            return False
        for page, version in modified:
            node.buffer.mark_clean(page, version)
        return True

    def receive(
        self, node: "Node", home: int, page: PageId, version: int
    ) -> Generator[Event, Any, None]:
        """Buffer the carried page dirty: the host takes over ownership.
        If the carry raced a failback, this node no longer hosts the
        partition and nobody would write a dirty copy back, so it goes
        straight to the permanent database instead."""
        faults = self.cluster.faults
        if (
            faults is not None
            and home != node.node_id
            and faults.gla_host(home) != node.node_id
        ):
            yield from self.cluster.storage.write(page, version, node.cpu)
        else:
            yield from node.buffer.insert_received_page(page, version, dirty=True)

    # -- crash, failover and failback ----------------------------------------

    def fence(self, record: "CrashRecord") -> Tuple[int, ...]:
        """Fence the dead node's partition until failover reassigns it.

        Its state was volatile.  A page-carrying message in flight to
        the dead host is gone, and the sender already marked its copy
        clean: a stale page of the partition with no surviving dirty
        current copy has no write-back path left and must be REDOne.
        (A surviving dirty copy belongs to a transaction that has not
        released yet; its carry will reach the replacement host.)
        """
        faults = self.cluster.faults
        assert faults is not None
        home = record.node
        faults.close_partition(home)
        self.orphans(record, lambda page: self.gla_map(page) == home)
        return (home,)

    def failover(
        self,
        record: "CrashRecord",
        reclaim: Iterator[Event],
        tables: Sequence[LockTable] = (),
        registrations: Optional[Registrations] = None,
        install: Optional[Callable[[int], None]] = None,
    ) -> Generator[Event, Any, None]:
        """Reassign the dead node's partition to the replacement (the
        lowest surviving node).

        The replacement announces the failover; ``reclaim`` releases
        what the dead transactions held elsewhere; every other survivor
        ships its state for the partition in a long message; the
        replacement pays reconstruction CPU for the ``registrations``
        counted before the exchange, REDOes the lost pages, ``install``
        puts the rebuilt partition in place -- synchronously, so no
        process observes a half-built one -- and the partition reopens
        at the replacement.  ``tables`` are not consulted: partition
        entries record no page owner.
        """
        faults = self.cluster.faults
        assert faults is not None
        home = record.node
        repl = faults.coordinator()
        transfer: GlaTransferPayload = {"home": home}
        # Announcement: delivery-confirmed short messages.
        yield from self.publish(
            repl,
            0,
            lambda node, dst, notice: node.comm.send(
                dst, "gla_failover", transfer, reply_event=notice
            ),
        )
        yield from reclaim
        # State exchange: one long message per other survivor.  The
        # partition is fenced, so the registration set is stable.
        count = registrations(home) if registrations is not None else 0
        for survivor in self.cluster.nodes:
            if survivor.node_id == repl or self.is_down(survivor.node_id):
                continue
            done = self.sim.event()
            yield from survivor.comm.send(
                repl, "gla_state", transfer, long=True, reply_event=done
            )
            yield done
        if count:
            yield from self.cluster.nodes[repl].cpu.consume(
                count * faults.config.recovery_instructions_per_lock
            )
        yield from faults.redo_pages(record, repl)
        if install is not None:
            install(home)
        faults.open_partition(home, repl)

    def reintegrate(
        self, record: "CrashRecord", registrations: Optional[Registrations] = None
    ) -> Generator[Event, Any, None]:
        """Fail the partition back to the restarted node.

        The partition is fenced again; the interim host flushes its
        committed dirty pages of the partition (it stops being their
        owner) and ships the state back in a long message, and the home
        node pays CPU for the ``registrations`` before the partition
        reopens -- the reintegration cost a shared store does not have.
        """
        faults = self.cluster.faults
        assert faults is not None
        home = record.node
        host = faults.gla_host(home)
        if host == home or faults.is_down(host):
            return
        faults.close_partition(home)
        host_node = self.cluster.nodes[host]
        ledger = self.cluster.ledger
        # Uncommitted dirty frames stay: their transactions' releases
        # carry them home.  No new committed dirty page can appear while
        # the partition is fenced; loop only because a page-carrying
        # release may still arrive mid-flush.
        while True:
            dirty = [
                (page, version)
                for page, version in host_node.buffer.dirty_frames(
                    lambda page: self.gla_map(page) == home
                )
                if ledger.committed_version(page) == version
            ]
            if not dirty:
                break
            # In parallel: random I/O to independent pages, limited by
            # the storage server, not by a serial scan.
            dones = []
            for page, version in dirty:
                done = self.sim.event()
                self.sim.process(
                    self._flush(page, version, host_node, done),
                    name="failback-flush",
                )
                dones.append(done)
            yield self.sim.all_of(dones)
        done = self.sim.event()
        failback: GlaTransferPayload = {"home": home}
        yield from host_node.comm.send(
            home, "gla_failback", failback, long=True, reply_event=done
        )
        yield done
        count = registrations(home) if registrations is not None else 0
        if count:
            yield from self.cluster.nodes[home].cpu.consume(
                count * faults.config.recovery_instructions_per_lock
            )
        faults.open_partition(home, None)

    def _flush(
        self, page: PageId, version: int, node: "Node", done: Event
    ) -> Generator[Event, Any, None]:
        yield from self.cluster.storage.write(page, version, node.cpu)
        node.buffer.mark_clean(page, version)
        done.succeed()
