"""Multi-version timestamp-ordered optimistic CC (MVCC).

A Hekaton-style protocol ([LBD+11]-lineage, adapted to the paper's
coupling regimes): transactions read committed version snapshots
without any locking, writers take lightweight **first-writer-wins
reservations**, and a commit-time validation checks that every page
read is still current.  The serialization order is the order of
**commit timestamps** drawn from one monotonic counter.

The protocol is written once against the coupling substrate
(:mod:`repro.cc.store`), which holds the version directory -- one
entry per page with the committed sequence number and (NOFORCE) the
page owner -- and the timestamp counter:

* Under **close coupling (GEM)** and **memory disaggregation (RDMA)**
  the directory is one store-resident partition that survives node
  crashes, and every directory operation is a synchronous word access
  (CPU held throughout).  The store decides what a word access costs,
  where a missing page comes from (the owner's buffer under GEM, the
  pool under RDMA) and what a crash leaves to recover.
* Under **loose coupling (PCL)** the directory is partitioned across
  the nodes like the GLAs of primary copy locking
  (:mod:`repro.cc.partitions`): reads, write reservations, validation
  and version installs against a remote partition travel as messages
  (the protocol's ``mv_*`` kinds), with the page carried to and from
  the partition host; a cached copy is read message-free as an
  optimistic snapshot (validation catches staleness).  The timestamp
  counter is served by the lowest-numbered surviving node.  A crash
  loses the dead node's directory partition; it is rebuilt from the
  committed ledger at once and reassigned during failover.

Validation waits use commit-timestamp order: a validator only ever
waits for reservation holders with a *smaller assigned* commit
timestamp, so waits-for edges point strictly backward in timestamp
order and can never form a deadlock cycle (holders without an assigned
timestamp will draw a larger one from the monotonic counter and are
safely ignored -- they will wait for *us*).
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
    Tuple,
    TYPE_CHECKING,
    cast,
)

from repro.cc.base import CCProtocol, LockGrant, PageSource
from repro.cc.messages import (
    MvccAbortPayload,
    MvccInstallPayload,
    MvccReadPayload,
    MvccReadResponsePayload,
    MvccReservePayload,
    MvccValidatePayload,
    TimestampRequestPayload,
    TimestampResponsePayload,
    LockResponsePayload,
)
from repro.cc.store import PageOwners, shared_store
from repro.db.pages import PageId
from repro.errors import TransactionAborted
from repro.obs import phases
from repro.node.lock_table import LockTable
from repro.sim.engine import Event
from repro.sim.stats import Tally
from repro.workload.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.manager import CrashRecord, FaultManager
    from repro.node.node import Node
    from repro.system.cluster import Cluster

__all__ = ["MvccProtocol"]


class MvccProtocol(CCProtocol):
    """Multi-version optimistic CC over any coupling substrate."""

    name = "mvcc"
    multiversion = True

    def __init__(self, cluster: "Cluster", gla_map: Callable[[PageId], int]) -> None:
        super().__init__(cluster)
        #: The substrate holding the directory: one non-volatile
        #: store-resident partition (GEM, RDMA), or one volatile
        #: partition per GLA node (PCL).
        self.store: PageOwners = shared_store(cluster, gla_map)
        self.tables: List[LockTable] = [
            LockTable(f"mvccdir{n}") for n in range(self.store.partitions)
        ]
        # Hot-path config values, resolved once.
        self._noforce = self.config.noforce
        #: Monotonic begin/commit timestamp counter (GEM cell or served
        #: by the timestamp authority node under PCL; it is modelled as
        #: surviving crashes either way -- a real system would keep it
        #: in GEM respectively re-seed it above the largest logged one).
        self._next_ts = 1
        #: page -> txn holding the (first-writer-wins) write reservation.
        self._reservations: Dict[PageId, int] = {}
        #: txn -> assigned commit timestamp (published at allocation).
        self._txn_tc: Dict[int, int] = {}
        #: blocker txn -> [(waiter txn, wake event)] validation waits.
        self._waiters: Dict[int, List[Tuple[int, Event]]] = {}
        self.lock_wait_time = Tally("mvcc.validation_wait")
        self.commits_validated = 0
        # Requests reach these only from a remote partition (PCL).
        for node in cluster.nodes:
            node.register_handler("mv_ts", self._handle_ts)
            node.register_handler("mv_read", self._handle_read)
            node.register_handler("mv_reserve", self._handle_reserve)
            node.register_handler("mv_validate", self._handle_validate)
            node.register_handler("mv_install", self._handle_install)
            node.register_handler("mv_abort", self._handle_abort)

    # -- directory helpers -------------------------------------------------

    def _table_for(self, page: PageId) -> LockTable:
        return self.tables[self.store.home(page)]

    # -- timestamps --------------------------------------------------------

    def _alloc_ts(self, txn_id: int, commit: bool) -> int:
        ts = self._next_ts
        self._next_ts += 1
        if commit:
            # Published at allocation (not on reply arrival): a
            # concurrent validator must be able to order itself against
            # this transaction the instant the timestamp exists.
            self._txn_tc[txn_id] = ts
        return ts

    def _draw_ts(
        self, node_id: int, txn_id: int, commit: bool
    ) -> Generator[Event, Any, int]:
        """Draw a timestamp: one store word access, or a message round
        to the timestamp authority (local processing when the authority
        is this node)."""
        node = self.cluster.nodes[node_id]
        while True:
            authority = self.store.central(node_id)
            if authority == node_id:
                yield from self.store.access(node_id, 1, txn_id)
                return self._alloc_ts(txn_id, commit)
            reply = self.sim.event()
            request: TimestampRequestPayload = {
                "txn_id": txn_id,
                "commit": commit,
                "requester": node_id,
                "reply": reply,
            }
            payload = yield from self.store.call(
                authority, reply, txn_id, node.comm.send(authority, "mv_ts", request)
            )
            if payload is not None:
                ts: int = payload["ts"]
                return ts
            # The authority died before answering; a re-draw at its
            # successor supersedes any published timestamp.

    def _handle_ts(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        response: TimestampResponsePayload = {
            "ts": self._alloc_ts(payload["txn_id"], payload["commit"])
        }
        yield from node.comm.send(
            payload["requester"], "mv_ts_rsp", response, reply_event=payload["reply"]
        )

    # -- acquisition -------------------------------------------------------

    def acquire(
        self,
        txn: Transaction,
        page: PageId,
        write: bool,
        cached_version: Optional[int],
    ) -> Generator[Event, Any, LockGrant]:
        node_id = txn.node
        txn_id = txn.txn_id
        if txn.begin_ts is None:
            txn.begin_ts = yield from self._draw_ts(node_id, txn_id, commit=False)
        store = self.store
        home = store.home(page)
        while True:
            host = yield from store.resolve(node_id, home)
            if host == node_id:
                # The entry is reachable without messages: read it (a
                # write also writes the reservation back).
                self.local_lock_requests += 1
                txn.local_lock_requests += 1
                yield from store.access(node_id, 2 if write else 1, txn_id)
                entry = self.tables[home].entry(page)
                if write and (
                    self._doomed(txn, page, entry.seqno)
                    or not self._reserve(txn_id, page)
                ):
                    raise TransactionAborted(txn_id)
                seqno = self._record(txn, page, write, entry.seqno)
                return store.grant(node_id, page, seqno, entry.owner)
            if not write and cached_version is not None:
                # Only a remote directory partition (PCL) gets here: an
                # optimistic message-free snapshot read of the cached
                # copy; commit validation catches staleness (and then
                # invalidates the copy, so a restart refetches).
                self.local_lock_requests += 1
                txn.local_lock_requests += 1
                seqno = self._record(txn, page, False, cached_version)
                return LockGrant(seqno, source=PageSource.STORAGE, local=True)
            grant = yield from self._acquire_remote(
                txn, page, write, home, host, cached_version
            )
            if grant is not None:
                return grant
            # The host crashed before answering: re-resolve and retry.

    def _doomed(self, txn: Transaction, page: PageId, current: int) -> bool:
        """Early doom check: a recorded read snapshot was superseded."""
        recorded = txn.read_versions.get(page)
        if recorded is None or recorded == current:
            return False
        self.cluster.nodes[txn.node].buffer.invalidate_stale(page, current)
        return True

    def _reserve(self, txn_id: int, page: PageId) -> bool:
        """Take the first-writer-wins reservation; False on conflict."""
        holder = self._reservations.get(page)
        if holder is not None and holder != txn_id:
            return False
        self._reservations[page] = txn_id
        return True

    @staticmethod
    def _record(txn: Transaction, page: PageId, write: bool, current: int) -> int:
        """Register the access; returns the snapshot version it reads."""
        if write:
            txn.held_locks[page] = True
            txn.read_versions.setdefault(page, current)
            return current
        seqno = txn.read_versions.setdefault(page, current)
        txn.held_locks[page] = txn.held_locks.get(page, False)
        return seqno

    def _acquire_remote(
        self,
        txn: Transaction,
        page: PageId,
        write: bool,
        home: int,
        host: int,
        cached_version: Optional[int],
    ) -> Generator[Event, Any, Optional[LockGrant]]:
        node_id = txn.node
        txn_id = txn.txn_id
        node = self.cluster.nodes[node_id]
        self.remote_lock_requests += 1
        txn.remote_lock_requests += 1
        reply = self.sim.event()
        if write:
            reserve: MvccReservePayload = {
                "txn_id": txn_id,
                "page": page,
                "home": home,
                "cached_version": cached_version,
                "requester": node_id,
                "reply": reply,
            }
            request = node.comm.send(host, "mv_reserve", reserve)
        else:
            read: MvccReadPayload = {
                "page": page,
                "home": home,
                "requester": node_id,
                "reply": reply,
            }
            request = node.comm.send(host, "mv_read", read)
        payload = yield from self.store.call(host, reply, txn_id, request)
        if payload is None:
            return None
        if payload.get("aborted"):
            raise TransactionAborted(txn_id)
        seqno = self._record(txn, page, write, payload["seqno"])
        return self._reply_grant(seqno, payload)

    def _handle_read(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        page = payload["page"]
        seqno = self.tables[payload["home"]].entry(page).seqno
        # Reads are sent only for uncached pages.
        supplied = self.store.supplies(node, page, seqno, None)
        response: MvccReadResponsePayload = {"seqno": seqno, "supplied": supplied}
        yield from node.comm.send(
            payload["requester"],
            "mv_read_rsp",
            response,
            long=supplied,
            reply_event=payload["reply"],
        )

    def _handle_reserve(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        txn_id = payload["txn_id"]
        page = payload["page"]
        if not self._reserve(txn_id, page):
            refusal: LockResponsePayload = {"aborted": True}
            yield from node.comm.send(
                payload["requester"], "mv_rsp", refusal, reply_event=payload["reply"]
            )
            return
        if self.store.is_down(payload["requester"]):
            # The requester died while the request was in flight; crash
            # recovery cannot see a reservation taken after its scan,
            # so give it straight back.
            if self._reservations.get(page) == txn_id:
                del self._reservations[page]
            return
        seqno = self.tables[payload["home"]].entry(page).seqno
        supplied = self.store.supplies(node, page, seqno, payload["cached_version"])
        grant: LockResponsePayload = {
            "aborted": False,
            "seqno": seqno,
            "supplied": supplied,
        }
        yield from node.comm.send(
            payload["requester"],
            "mv_rsp",
            grant,
            long=supplied,
            reply_event=payload["reply"],
        )

    # -- validation --------------------------------------------------------

    def prepare_commit(
        self, txn: Transaction
    ) -> Generator[Event, Any, None]:
        """Timestamp-ordered backward validation of the read snapshot.

        Aborts when any page read is no longer current; otherwise waits
        for every reservation holder with a smaller assigned commit
        timestamp to complete, then re-checks (installs they performed
        show up as seqno changes).  Holders without an assigned commit
        timestamp will draw a larger one and are ignored -- the
        monotonic counter makes every waits-for edge point backward in
        timestamp order, so validation waits cannot deadlock.
        """
        if not txn.read_versions:
            return
        node_id = txn.node
        txn_id = txn.txn_id
        read_set = sorted(txn.read_versions.items())
        yield from self._validate(txn, read_set)
        tc = yield from self._draw_ts(node_id, txn_id, commit=True)
        while True:
            stale = [
                (page, self._table_for(page).entry(page).seqno)
                for page, version in read_set
                if self._table_for(page).entry(page).seqno != version
            ]
            if stale:
                buffer = self.cluster.nodes[node_id].buffer
                for page, current in stale:
                    # Drop the superseded local copy so the restarted
                    # transaction refetches instead of re-reading the
                    # same stale snapshot forever.
                    buffer.invalidate_stale(page, current)
                raise TransactionAborted(txn_id)
            blockers: Dict[int, int] = {}
            for page, _version in read_set:
                holder = self._reservations.get(page)
                if holder is None or holder == txn_id:
                    continue
                holder_tc = self._txn_tc.get(holder)
                if holder_tc is not None and holder_tc < tc:
                    blockers[holder] = holder_tc
            if not blockers:
                break
            blocker = min(blockers, key=lambda t: (blockers[t], t))
            yield from self._wait_for(txn_id, blocker)
            # Re-check costs one more directory access.
            yield from self.store.access(node_id, 1, txn_id)
        self.commits_validated += 1

    def _validate(
        self, txn: Transaction, read_set: List[Tuple[PageId, int]]
    ) -> Generator[Event, Any, None]:
        """Re-read one directory entry per page read, as one operation
        per partition: local processing, or a validation round to a
        remote host (the check itself is central; a crash sentinel is
        fine because the rebuilt directory starts at the committed
        ledger versions)."""
        node_id = txn.node
        node = self.cluster.nodes[node_id]
        homes: Dict[int, List[Tuple[PageId, int]]] = {}
        for page, version in read_set:
            homes.setdefault(self.store.home(page), []).append((page, version))
        for home, pages in sorted(homes.items()):
            host = yield from self.store.resolve(node_id, home)
            if host == node_id:
                yield from self.store.access(node_id, len(pages), txn.txn_id)
                continue
            reply = self.sim.event()
            request: MvccValidatePayload = {
                "txn_id": txn.txn_id,
                "pages": pages,
                "home": home,
                "requester": node_id,
                "reply": reply,
            }
            yield from self.store.call(
                host, reply, txn.txn_id, node.comm.send(host, "mv_validate", request)
            )

    def _handle_validate(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        yield from node.comm.send(
            payload["requester"], "mv_validate_rsp", {}, reply_event=payload["reply"]
        )

    def _wait_for(
        self, txn_id: int, blocker: int
    ) -> Generator[Event, Any, None]:
        event = self.sim.event()
        pair = (txn_id, event)
        self._waiters.setdefault(blocker, []).append(pair)

        def detach() -> None:
            # Crash path: the waiter is being killed; unhook it (its
            # lifecycle process is interrupted separately).
            entries = self._waiters.get(blocker)
            if entries is not None and pair in entries:
                entries.remove(pair)
            if not event.triggered:
                event.succeed()

        self.detector.register_block(txn_id, None, detach, kind="validation")
        blocked_at = self.sim.now
        with self.recorder.span(txn_id, phases.LOCK_GLOBAL):
            yield event
        self.lock_wait_time.record(self.sim.now - blocked_at)
        self.detector.clear(txn_id)

    def _complete(self, txn_id: int) -> None:
        """End of commit/abort/recovery processing: wake validators
        ordered behind this transaction.  Idempotent."""
        self._txn_tc.pop(txn_id, None)
        for waiter_id, event in self._waiters.pop(txn_id, []):
            self.detector.clear(waiter_id)
            if not event.triggered:
                event.succeed()

    # -- release -----------------------------------------------------------

    def commit_release(self, txn: Transaction) -> Generator[Event, Any, None]:
        # Read snapshots hold no protocol state; only write
        # reservations must be resolved into version installs.
        yield from self._release(txn, commit=True)

    def abort_release(self, txn: Transaction) -> Generator[Event, Any, None]:
        # Reads never registered anything; reservations are dropped.
        yield from self._release(txn, commit=False)

    def _release(self, txn: Transaction, commit: bool) -> Generator[Event, Any, None]:
        # Idempotent and interruption-safe like PCL's release: pages
        # leave held_locks as their install or release is applied
        # locally or acknowledged remotely, never in one upfront sweep.
        node_id = txn.node
        txn_id = txn.txn_id
        node = self.cluster.nodes[node_id]
        store = self.store
        held = txn.held_locks
        reserved = [
            page
            for page, write in held.items()
            if write and self._reservations.get(page) == txn_id
        ]
        # Resolve every partition's host first (this may wait at
        # failover gates), then apply the local part without yielding
        # for anything but store accesses.
        hosts: Dict[int, int] = {}
        for page in reserved:
            home = store.home(page)
            if home not in hosts:
                hosts[home] = yield from store.resolve(node_id, home)
        groups: Dict[Tuple[int, int], List[Tuple[PageId, Optional[int]]]] = {}
        for page in list(held):
            if not held[page] or self._reservations.get(page) != txn_id:
                held.pop(page, None)
                continue
            new_version = txn.modified.get(page) if commit else None
            home = store.home(page)
            host = hosts[home]
            if host == node_id or (commit and new_version is None):
                yield from self._release_here(txn, page, new_version, home)
            else:
                groups.setdefault((host, home), []).append((page, new_version))
        for (host, home), pages in groups.items():
            if store.is_down(host):
                # The host crashed since resolution: wait for the new
                # one rather than carry to a dead node (see PCL's
                # release for why the pages would be lost).
                host = yield from store.resolve(node_id, home)
                if host == node_id:
                    for page, new_version in pages:
                        yield from self._release_here(txn, page, new_version, home)
                    continue
            if commit:
                carried = store.carry(node, pages)
                ack = self.sim.event()
                install: MvccInstallPayload = {
                    "txn_id": txn_id,
                    # Only written pages go out: versions are set.
                    "pages": cast(List[Tuple[PageId, int]], pages),
                    "carry_pages": carried,
                    "home": home,
                    "requester": node_id,
                    "ack": ack,
                }
                # Commit completion is ordered after directory
                # publication: wait for the install acknowledgement (a
                # crash sentinel also releases us if the host dies now).
                yield from store.call(
                    host,
                    ack,
                    None,
                    node.comm.send(host, "mv_install", install, long=carried),
                )
            else:
                release: MvccAbortPayload = {
                    "txn_id": txn_id,
                    "pages": [page for page, _version in pages],
                    "home": home,
                }
                yield from node.comm.send(host, "mv_abort", release)
            for page, _version in pages:
                if self._reservations.get(page) == txn_id:
                    del self._reservations[page]
                held.pop(page, None)
        self._complete(txn_id)

    def _release_here(
        self, txn: Transaction, page: PageId, new_version: Optional[int], home: int
    ) -> Generator[Event, Any, None]:
        """Release one reservation at this node: the entry is in the
        store, or this node hosts the partition and keeps the dirty copy
        as its owner, or the reservation was never written.  Read the
        entry, write seqno/owner back."""
        store = self.store
        yield from store.access(txn.node, 2)
        if new_version is not None:
            entry = self.tables[home].entry(page)
            entry.seqno = max(entry.seqno, new_version)
            entry.owner = store.owner(txn.node)
            if self._noforce:
                # Publish the committed page (RDMA: into the pool).
                yield from store.install(txn.node, ((page, new_version),))
        if self._reservations.get(page) == txn.txn_id:
            del self._reservations[page]
        txn.held_locks.pop(page, None)

    def _handle_install(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        home = payload["home"]
        for page, version in payload["pages"]:
            if payload["carry_pages"]:
                yield from self.store.receive(node, home, page, version)
            entry = self.tables[home].entry(page)
            entry.seqno = max(entry.seqno, version)
        yield from node.comm.send(
            payload["requester"], "mv_install_ack", {}, reply_event=payload["ack"]
        )

    def _handle_abort(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        # Reservation state is kept centrally (dropped by the sender),
        # and the GLA-side processing is in the path length: nothing
        # to do.  Kept registered so every delivery still runs a
        # handler process.
        return
        yield  # pragma: no cover - makes this a generator

    # -- write-back hook ---------------------------------------------------

    def page_written_back(
        self, node_id: int, page: PageId, version: int
    ) -> Generator[Event, Any, None]:
        """Clear page ownership once the committed version reached disk."""
        if self.config.force:
            return
        entry = self._table_for(page).peek(page)
        if entry is None:
            return
        yield from self.store.access(node_id, 2)
        self.store.written_back(page, version)
        if entry.owner == node_id and entry.seqno == version:
            entry.owner = None

    # -- fault injection ---------------------------------------------------

    def lock_tables(self) -> Tuple[LockTable, ...]:
        return tuple(self.tables)

    def crash_node(self, faults: "FaultManager", record: "CrashRecord") -> None:
        """A store-resident directory, with the reservations and the
        timestamp counter, survives; recovery only has to clean up on
        behalf of the dead transactions.  A directory partition was
        volatile: it is rebuilt from the committed ledger
        *synchronously*, so no validator or reader can observe
        pre-crash sequence numbers (readers fall back to storage,
        which REDO fences for lost pages); failover charges the
        modelled cost."""
        for home in self.store.fence(record):
            self.tables[home] = LockTable(
                f"mvccdir{home}", seqno_init=self.cluster.ledger.committed_version
            )

    def recover(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        """Failover: the substrate's (store clean-up, or partition
        reassignment with its state exchange and REDO) around dropping
        the dead transactions' reservations and reconciling their
        entries with the committed ledger.  Validators waiting on a dead
        transaction are released only after that, so their re-check
        sees final state."""
        dead_ids = sorted({txn.txn_id for txn in record.killed})
        yield from self.store.failover(
            record, self._reclaim(faults, dead_ids), self.tables
        )
        for txn_id in dead_ids:
            self._complete(txn_id)

    def _reclaim(
        self, faults: "FaultManager", dead_ids: List[int]
    ) -> Generator[Event, Any, None]:
        coord = faults.coordinator()
        coord_node = self.cluster.nodes[coord]
        ledger = self.cluster.ledger
        for txn_id in dead_ids:
            pages = sorted(p for p, h in self._reservations.items() if h == txn_id)
            for page in pages:
                yield from self.store.access(coord, 2)
                yield from coord_node.cpu.consume(
                    faults.config.recovery_instructions_per_lock
                )
                self._table_for(page).entry(page).catch_up(
                    ledger.committed_version(page)
                )
                self._reservations.pop(page, None)

    def reintegrate(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        """A store-resident directory never moved; only the store
        re-admits the node (RDMA: fabric re-registration).  A partition
        fails back: the interim host flushes its committed dirty pages
        and ships the directory back."""
        yield from self.store.reintegrate(record)

    # -- introspection / statistics ----------------------------------------

    def num_blocked(self) -> int:
        return sum(len(waiters) for waiters in self._waiters.values())

    def reset_stats(self) -> None:
        super().reset_stats()
        self.commits_validated = 0
