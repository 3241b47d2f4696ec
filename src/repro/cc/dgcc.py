"""Dependency-graph concurrency control (DGCC).

Batched, planned execution in the style of deterministic/dependency-
graph systems (Calvin/DGCC lineage): arriving transactions **declare
their page access sets** and collect into an epoch batch.  Every epoch
the scheduler builds a conflict graph over the batch (two members
conflict when they share a page at least one of them writes) and
topologically levels it into **layers**; members of one layer are
mutually conflict-free and execute concurrently *without any
per-access locking*, layers run in declaration order behind a
completion barrier.  There are no lock conflicts, no deadlocks and no
validation aborts -- the price is the epoch admission delay and the
layer barriers.

Coupling regimes differ only in where the scheduler state lives, and
the coupling substrate (:mod:`repro.cc.store`) decides what reaching
it costs:

* **Shared store (GEM, RDMA)**: batch membership and the published
  schedule live in the store -- joining and publishing the schedule
  are synchronous word accesses, completion reports are word writes.
  The batch state survives node crashes.
* **PCL** (:mod:`repro.cc.partitions`): the lowest-numbered surviving
  node runs the scheduler; joins ship the access set in a long
  message, the schedule is broadcast in short messages, completions
  are short messages.

Coherency control reuses the paper's NOFORCE ownership scheme: the
committer keeps the dirty page and the schedule names it as the owner,
so no directory lookup is needed.  Later readers fetch the page from
the owner's buffer (GEM, PCL) or from the pool copy installed at
commit (RDMA).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.cc.base import CCProtocol, LockGrant
from repro.cc.messages import DgccDonePayload, DgccJoinPayload, DgccSchedPayload
from repro.cc.store import PageOwners, shared_store
from repro.db.pages import PageId
from repro.obs import phases
from repro.node.lock_table import LockTable
from repro.sim.engine import Event
from repro.sim.stats import Tally
from repro.workload.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.manager import CrashRecord, FaultManager
    from repro.node.node import Node
    from repro.system.cluster import Cluster

__all__ = ["DgccProtocol"]


class _Member:
    """One batch member: a transaction parked until its layer opens."""

    __slots__ = ("txn_id", "node", "accesses", "run_event", "layer")

    def __init__(
        self,
        txn_id: int,
        node: int,
        accesses: List[Tuple[PageId, bool]],
        run_event: Event,
    ) -> None:
        self.txn_id = txn_id
        self.node = node
        self.accesses = accesses
        self.run_event = run_event
        self.layer = 0


class DgccProtocol(CCProtocol):
    """Epoch-batched dependency-graph execution over either regime."""

    name = "dgcc"

    def __init__(self, cluster: "Cluster", gla_map: Callable[[PageId], int]) -> None:
        super().__init__(cluster)
        #: The substrate holding the batch area (GEM, RDMA) or reaching
        #: the coordinator node that runs the scheduler (PCL); NOFORCE
        #: pages come from the store, or the owners' buffers by message.
        self.store: PageOwners = shared_store(cluster, gla_map)
        self._epoch = self.config.dgcc_epoch_seconds
        #: Conflict-graph construction cost per declared access.
        self._sched_instr = self.config.instructions_per_gem_entry_op
        self._noforce = self.config.noforce
        #: Committed page sequence numbers (the schedule's version
        #: knowledge; DGCC needs no per-page directory lookups).
        self._seqnos: Dict[PageId, int] = {}
        #: NOFORCE page owners: committer keeps the dirty copy.
        self._owners: Dict[PageId, int] = {}
        #: Members awaiting the next epoch, keyed by txn_id.
        self._collecting: Dict[int, _Member] = {}
        #: All live members (collecting, parked or running).
        self._members: Dict[int, _Member] = {}
        self._current_layer: Set[int] = set()
        self._batch_event: Optional[Event] = None
        self.lock_wait_time = Tally("dgcc.batch_wait")
        self.batches = 0
        # Requests reach these only at a coordinator node (PCL).
        for node in cluster.nodes:
            node.register_handler("dgcc_join", self._handle_report)
            node.register_handler("dgcc_done", self._handle_report)
        self.sim.process(self._driver(), name="dgcc-driver")

    # -- the epoch driver --------------------------------------------------

    def _driver(self) -> Generator[Event, Any, None]:
        """Cluster-level scheduler process (never dies; its CPU costs
        are charged to the current coordinator node)."""
        while True:
            yield self.sim.timeout(self._epoch)
            if self._collecting:
                yield from self._run_batch()

    def _run_batch(self) -> Generator[Event, Any, None]:
        members = [self._collecting[t] for t in sorted(self._collecting)]
        self._collecting = {}
        self.batches += 1
        coord = self.store.coordinator()
        total_accesses = sum(len(m.accesses) for m in members)
        # Publish the schedule: word writes to the store, or a
        # broadcast of short (delivery-confirmed) messages under PCL.
        sched: DgccSchedPayload = {"batch": self.batches}
        yield from self.store.publish(
            coord,
            2 * len(members),
            lambda node, dst, notice: node.comm.send(
                dst, "dgcc_sched", sched, reply_event=notice
            ),
        )
        # Conflict-graph construction at the coordinator.
        yield from self.cluster.nodes[coord].cpu.consume(
            self._sched_instr * total_accesses
        )
        layers = self._build_layers(members)
        for layer in layers:
            # Members may have died (node crash) since the snapshot.
            alive = [m for m in layer if m.txn_id in self._members]
            self._current_layer = {m.txn_id for m in alive}
            if not self._current_layer:
                continue
            event = self.sim.event()
            self._batch_event = event
            for member in alive:
                self.detector.clear(member.txn_id)
                if not member.run_event.triggered:
                    member.run_event.succeed()
            yield event
            self._batch_event = None
        self._current_layer = set()

    @staticmethod
    def _build_layers(members: List[_Member]) -> List[List[_Member]]:
        """Topological levelling of the batch conflict graph.

        Members are processed in txn_id order (arrival-independent and
        deterministic); a member lands one layer below the deepest
        earlier member it conflicts with.  Reads only conflict with
        writes, so read-read sharing stays within one layer.
        """
        last_write: Dict[PageId, int] = {}
        last_any: Dict[PageId, int] = {}
        layers: List[List[_Member]] = []
        for member in members:
            level = 0
            for page, write in member.accesses:
                prev = last_any.get(page) if write else last_write.get(page)
                if prev is not None and prev + 1 > level:
                    level = prev + 1
            for page, write in member.accesses:
                if write and last_write.get(page, -1) < level:
                    last_write[page] = level
                if last_any.get(page, -1) < level:
                    last_any[page] = level
            while len(layers) <= level:
                layers.append([])
            layers[level].append(member)
            member.layer = level
        return layers

    def _member_done(self, txn_id: int) -> None:
        """A member finished (commit, abort or crash).  Idempotent;
        advances the layer barrier when it was the last one out."""
        member = self._members.pop(txn_id, None)
        if member is None:
            return
        self._collecting.pop(txn_id, None)
        if txn_id in self._current_layer:
            self._current_layer.discard(txn_id)
            if (
                not self._current_layer
                and self._batch_event is not None
                and not self._batch_event.triggered
            ):
                self._batch_event.succeed()

    # -- acquisition -------------------------------------------------------

    def acquire(
        self,
        txn: Transaction,
        page: PageId,
        write: bool,
        cached_version: Optional[int],
    ) -> Generator[Event, Any, LockGrant]:
        txn_id = txn.txn_id
        member = self._members.get(txn_id)
        if member is None:
            # First access: declare the access set, join the batch and
            # park until the member's layer opens.
            yield from self._join(txn)
        else:
            # Scheduled plan: per-access grants are local bookkeeping.
            self.local_lock_requests += 1
            txn.local_lock_requests += 1
        txn.held_locks[page] = write or txn.held_locks.get(page, False)
        return self.store.grant(
            txn.node, page, self._seqnos.get(page, 0), self._owners.get(page)
        )

    def _join(self, txn: Transaction) -> Generator[Event, Any, None]:
        node_id = txn.node
        txn_id = txn.txn_id
        node = self.cluster.nodes[node_id]
        member = _Member(txn_id, node_id, txn.lockable_pages(), self.sim.event())
        self._members[txn_id] = member
        self._collecting[txn_id] = member
        host = self.store.central(node_id)
        if host == node_id:
            self.local_lock_requests += 1
            txn.local_lock_requests += 1
            yield from self.store.access(node_id, 2, txn_id)
        else:
            self.remote_lock_requests += 1
            txn.remote_lock_requests += 1
            join: DgccJoinPayload = {
                "txn_id": txn_id,
                "accesses": member.accesses,
                "requester": node_id,
            }
            with self.recorder.span(txn_id, phases.COMM):
                yield from node.comm.send(host, "dgcc_join", join, long=True)
        if member.run_event.triggered:
            return

        def detach() -> None:
            # Crash path: the parked member is being killed.
            self._member_done(txn_id)
            if not member.run_event.triggered:
                member.run_event.succeed()

        self.detector.register_block(txn_id, None, detach, kind="barrier")
        blocked_at = self.sim.now
        with self.recorder.span(txn_id, phases.LOCK_GLOBAL):
            yield member.run_event
        self.lock_wait_time.record(self.sim.now - blocked_at)
        self.detector.clear(txn_id)

    def _handle_report(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        # Membership and completion are registered centrally at send
        # time, and the scheduler-side processing is in the path
        # length: nothing to do.  Kept registered so every delivery
        # still runs a handler process.
        return
        yield  # pragma: no cover - makes this a generator

    # -- release -----------------------------------------------------------

    def commit_release(self, txn: Transaction) -> Generator[Event, Any, None]:
        node_id = txn.node
        txn_id = txn.txn_id
        modified = sorted(txn.modified.items())
        # Publish versions and the completion: word writes to the store,
        # or one short completion message to the scheduler (PCL).
        host = self.store.central(node_id)
        if host == node_id:
            yield from self.store.access(node_id, 1 + len(modified))
        else:
            done: DgccDonePayload = {"txn_id": txn_id, "committed": True}
            yield from self.cluster.nodes[node_id].comm.send(host, "dgcc_done", done)
        if self._noforce and modified:
            # Publish the committed pages (RDMA: into the pool).
            yield from self.store.install(node_id, modified)
        for page, version in modified:
            if version > self._seqnos.get(page, 0):
                self._seqnos[page] = version
            if self._noforce:
                self._owners[page] = node_id
            else:
                self._owners.pop(page, None)
        txn.held_locks.clear()
        self._member_done(txn_id)

    def abort_release(self, txn: Transaction) -> Generator[Event, Any, None]:
        # Nothing was locked and nothing published: leave the batch (or
        # mark the running member done so its layer can advance).
        # Idempotent -- _member_done tolerates repeated calls.
        self._member_done(txn.txn_id)
        txn.held_locks.clear()
        return
        yield  # pragma: no cover - makes this a generator

    # -- write-back hook ---------------------------------------------------

    def page_written_back(
        self, node_id: int, page: PageId, version: int
    ) -> Generator[Event, Any, None]:
        """Clear page ownership once the committed version reached disk."""
        if self.config.force:
            return
        if self._owners.get(page) != node_id or self._seqnos.get(page, 0) != version:
            return
        yield from self.store.access(node_id, 1)
        if self._owners.get(page) == node_id:
            del self._owners[page]
        self.store.written_back(page, version)

    # -- fault injection ---------------------------------------------------

    def lock_tables(self) -> Tuple[LockTable, ...]:
        return ()

    def crash_node(self, faults: "FaultManager", record: "CrashRecord") -> None:
        """Purge the dead node's batch members synchronously (a layer
        must never wait on a transaction that no longer exists) and
        extend the lost-page set with dead-owner pages."""
        for txn in record.killed:
            self._member_done(txn.txn_id)
        # The dead node owned pages whose only write-back copy was its
        # buffer: a surviving *clean* current copy cannot reach storage,
        # so such pages must be REDOne even though readers cache them.
        self.store.orphans(record, lambda page: self._owners.get(page) == record.node)
        # Pages the store still holds did not die with the node's buffer.
        self.store.trim_lost(record)

    def recover(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        """Failover: reconcile the schedule's version/owner knowledge
        with the committed ledger, then REDO the lost pages.  The batch
        state itself needs no reconstruction -- dead members were
        purged at the crash instant and the (GEM-resident respectively
        coordinator-resident) schedule survives by construction."""
        coord = faults.coordinator()
        ledger = self.cluster.ledger
        # Versions a dead committer installed in the ledger but never
        # published to the scheduler: storage holds them after REDO and
        # no surviving buffer does, so they have no owner.
        for txn in sorted(record.killed, key=lambda t: t.txn_id):
            for page in sorted(txn.modified):
                committed = ledger.committed_version(page)
                if committed > self._seqnos.get(page, 0):
                    self._seqnos[page] = committed
                    self._owners.pop(page, None)
        # Ownership entries pointing at the dead buffer are void; lost
        # pages keep readers fenced until REDO restores them.
        for page in sorted(p for p, o in self._owners.items() if o == record.node):
            if page in record.lost:
                continue
            yield from self.store.recovery_access(coord)
            self._owners.pop(page, None)
        yield from faults.redo_pages(record, coord)
        for page in sorted(p for p, o in self._owners.items() if o == record.node):
            self._owners.pop(page, None)

    def reintegrate(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        """The restarted node simply resumes joining batches; there is
        no partitioned protocol state to fail back.  Only the store may
        have to re-admit it first (RDMA: fabric re-registration)."""
        yield from self.store.reintegrate(record)

    # -- introspection / statistics ----------------------------------------

    def num_blocked(self) -> int:
        return sum(
            1 for member in self._members.values() if not member.run_event.triggered
        )

    def reset_stats(self) -> None:
        super().reset_stats()
        self.batches = 0
