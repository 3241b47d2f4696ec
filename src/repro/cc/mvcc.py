"""Multi-version timestamp-ordered optimistic CC (MVCC).

A Hekaton-style protocol ([LBD+11]-lineage, adapted to the paper's
coupling regimes): transactions read committed version snapshots
without any locking, writers take lightweight **first-writer-wins
reservations**, and a commit-time validation checks that every page
read is still current.  The serialization order is the order of
**commit timestamps** drawn from one monotonic counter:

* Under **close coupling (GEM)** and **memory disaggregation (RDMA)**
  the version directory -- one entry per page with the committed
  sequence number and (NOFORCE) the page owner -- and the timestamp
  counter live in the shared store (:mod:`repro.cc.store`).  Every
  directory operation is a synchronous word access (CPU held
  throughout), and the directory survives node crashes.  The store
  decides what a word access costs, where a missing page comes from
  (the owner's buffer under GEM, the pool under RDMA) and what a crash
  leaves to recover.
* Under **loose coupling (PCL)** the directory is partitioned across
  the nodes like the GLAs of primary copy locking: reads, write
  reservations, validation and version installs against a remote home
  travel as messages; a cached copy is read message-free as an
  optimistic snapshot (validation catches staleness).  The timestamp
  counter is served by the lowest-numbered surviving node.  A crash
  loses the dead node's directory partition; it is rebuilt from the
  committed ledger during failover.

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
)

from repro.cc.base import CCProtocol, LockGrant, PageSource
from repro.cc.messages import (
    GlaTransferPayload,
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
from repro.cc.store import SharedStore, shared_store
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
    """Multi-version optimistic CC over either coupling regime."""

    name = "mvcc"
    multiversion = True

    def __init__(self, cluster: "Cluster", gla_map: Callable[[PageId], int]) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = cluster.config
        self.detector = cluster.detector
        self.recorder = cluster.recorder
        self.gla_map = gla_map
        #: The shared store holding the central directory (GEM, RDMA),
        #: or None when the directory is partitioned (PCL).
        self.store: Optional[SharedStore] = shared_store(cluster)
        if self.store is not None:
            #: One store-resident version directory (non-volatile).
            self.tables: List[LockTable] = [LockTable("mvccdir")]
        else:
            #: Per-home directory partitions, volatile like the GLAs.
            self.tables = [
                LockTable(f"mvccdir{n}") for n in range(cluster.config.num_nodes)
            ]
        # Hot-path config values, resolved once.
        self._lock_op_instr = self.config.instructions_per_lock_op
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
        self.remote_grant_delay = Tally("mvcc.remote_grant_delay")
        self.local_lock_requests = 0
        self.remote_lock_requests = 0
        self.pages_supplied_with_grant = 0
        self.pages_shipped_with_release = 0
        self.timestamps_drawn = 0
        self.reservation_conflicts = 0
        self.validation_failures = 0
        self.commits_validated = 0
        if self.store is None:
            for node in cluster.nodes:
                node.register_handler("mv_ts", self._handle_ts)
                node.register_handler("mv_read", self._handle_read)
                node.register_handler("mv_reserve", self._handle_reserve)
                node.register_handler("mv_validate", self._handle_validate)
                node.register_handler("mv_install", self._handle_install)
                node.register_handler("mv_abort", self._handle_abort)

    # -- directory helpers -------------------------------------------------

    def _table_for(self, page: PageId) -> LockTable:
        if self.store is not None:
            return self.tables[0]
        return self.tables[self.gla_map(page)]

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
        to the timestamp authority (free when the authority is local)."""
        self.timestamps_drawn += 1
        if self.store is not None:
            yield from self.store.access(node_id, 1, txn_id)
            return self._alloc_ts(txn_id, commit)
        faults = self.cluster.faults
        node = self.cluster.nodes[node_id]
        while True:
            authority = faults.coordinator() if faults is not None else 0
            if authority == node_id:
                yield from node.cpu.consume(self._lock_op_instr)
                return self._alloc_ts(txn_id, commit)
            reply = self.sim.event()
            if faults is not None:
                faults.watch(authority, reply)
            request: TimestampRequestPayload = {
                "txn_id": txn_id,
                "commit": commit,
                "requester": node_id,
                "reply": reply,
            }
            with self.recorder.span(txn_id, phases.COMM):
                yield from node.comm.send(authority, "mv_ts", request)
                payload = yield reply
            if faults is not None:
                faults.unwatch(authority, reply)
                if payload.get("crashed"):
                    # The authority died before answering; a re-draw at
                    # its successor supersedes any published timestamp.
                    continue
            ts: int = payload["ts"]
            return ts

    def _handle_ts(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        yield from node.cpu.consume(self._lock_op_instr)
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
        if txn.begin_ts is None:
            txn.begin_ts = yield from self._draw_ts(
                txn.node, txn.txn_id, commit=False
            )
        if self.store is not None:
            grant = yield from self._acquire_store(self.store, txn, page, write)
            return grant
        grant = yield from self._acquire_pcl(txn, page, write, cached_version)
        return grant

    def _doomed(self, txn: Transaction, page: PageId, current: int) -> bool:
        """Early doom check: a recorded read snapshot was superseded."""
        recorded = txn.read_versions.get(page)
        if recorded is None or recorded == current:
            return False
        self.validation_failures += 1
        self.cluster.nodes[txn.node].buffer.invalidate_stale(page, current)
        return True

    def _reserve(self, txn_id: int, page: PageId) -> bool:
        """Take the first-writer-wins reservation; False on conflict."""
        holder = self._reservations.get(page)
        if holder is not None and holder != txn_id:
            self.reservation_conflicts += 1
            return False
        self._reservations[page] = txn_id
        return True

    def _acquire_store(
        self, store: SharedStore, txn: Transaction, page: PageId, write: bool
    ) -> Generator[Event, Any, LockGrant]:
        node_id = txn.node
        txn_id = txn.txn_id
        self.local_lock_requests += 1
        txn.local_lock_requests += 1
        directory = self.tables[0]
        if write:
            # Read the entry, write back the reservation: two accesses.
            yield from store.access(node_id, 2, txn_id)
            entry = directory.entry(page)
            if self._doomed(txn, page, entry.seqno):
                raise TransactionAborted(txn_id)
            if not self._reserve(txn_id, page):
                raise TransactionAborted(txn_id)
            txn.held_locks[page] = True
            txn.read_versions.setdefault(page, entry.seqno)
            seqno = entry.seqno
        else:
            # Snapshot read: one entry access to learn the current seqno.
            yield from store.access(node_id, 1, txn_id)
            entry = directory.entry(page)
            seqno = txn.read_versions.setdefault(page, entry.seqno)
            txn.held_locks[page] = txn.held_locks.get(page, False)
        return store.grant(node_id, page, seqno, entry.owner)

    def _acquire_pcl(
        self,
        txn: Transaction,
        page: PageId,
        write: bool,
        cached_version: Optional[int],
    ) -> Generator[Event, Any, LockGrant]:
        node_id = txn.node
        txn_id = txn.txn_id
        home = self.gla_map(page)
        faults = self.cluster.faults
        while True:
            if faults is None:
                host = home
            else:
                host = yield from faults.resolve_gla(home)
            node = self.cluster.nodes[node_id]
            if host == node_id:
                # Directory partition hosted here: process locally.
                self.local_lock_requests += 1
                txn.local_lock_requests += 1
                yield from node.cpu.consume(self._lock_op_instr)
                entry = self.tables[home].entry(page)
                if write:
                    if self._doomed(txn, page, entry.seqno):
                        raise TransactionAborted(txn_id)
                    if not self._reserve(txn_id, page):
                        raise TransactionAborted(txn_id)
                    txn.held_locks[page] = True
                    txn.read_versions.setdefault(page, entry.seqno)
                    return LockGrant(
                        entry.seqno, source=PageSource.STORAGE, local=True
                    )
                seqno = txn.read_versions.setdefault(page, entry.seqno)
                txn.held_locks[page] = txn.held_locks.get(page, False)
                return LockGrant(seqno, source=PageSource.STORAGE, local=True)
            if not write and cached_version is not None:
                # Optimistic message-free snapshot read of the cached
                # copy; commit validation catches staleness (and then
                # invalidates the copy, so a restart refetches).
                self.local_lock_requests += 1
                txn.local_lock_requests += 1
                yield from node.cpu.consume(self._lock_op_instr)
                seqno = txn.read_versions.setdefault(page, cached_version)
                txn.held_locks[page] = txn.held_locks.get(page, False)
                return LockGrant(seqno, source=PageSource.STORAGE, local=True)
            grant = yield from self._acquire_pcl_remote(
                txn, page, write, home, host, cached_version
            )
            if grant is not None:
                return grant
            # The host crashed before answering: re-resolve and retry.

    def _acquire_pcl_remote(
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
        started = self.sim.now
        reply = self.sim.event()
        faults = self.cluster.faults
        if faults is not None:
            faults.watch(host, reply)
        with self.recorder.span(txn_id, phases.COMM):
            if write:
                reserve: MvccReservePayload = {
                    "txn_id": txn_id,
                    "page": page,
                    "home": home,
                    "cached_version": cached_version,
                    "requester": node_id,
                    "reply": reply,
                }
                yield from node.comm.send(host, "mv_reserve", reserve)
            else:
                read: MvccReadPayload = {
                    "page": page,
                    "home": home,
                    "requester": node_id,
                    "reply": reply,
                }
                yield from node.comm.send(host, "mv_read", read)
            payload = yield reply
        if faults is not None:
            faults.unwatch(host, reply)
            if payload.get("crashed"):
                return None
        self.remote_grant_delay.record(self.sim.now - started)
        if payload.get("aborted"):
            self.reservation_conflicts += 1
            raise TransactionAborted(txn_id)
        current: int = payload["seqno"]
        if write:
            txn.held_locks[page] = True
            txn.read_versions.setdefault(page, current)
            seqno = current
        else:
            seqno = txn.read_versions.setdefault(page, current)
            txn.held_locks[page] = txn.held_locks.get(page, False)
        if payload.get("supplied"):
            self.pages_supplied_with_grant += 1
            return LockGrant(
                seqno, source=PageSource.SUPPLIED, local=False, page_supplied=True
            )
        return LockGrant(seqno, source=PageSource.STORAGE, local=False)

    def _handle_read(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        page = payload["page"]
        yield from node.cpu.consume(self._lock_op_instr)
        entry = self.tables[payload["home"]].entry(page)
        seqno = entry.seqno
        # The reply carries the page exactly when the permanent
        # database cannot serve it (the host buffers the current dirty
        # copy under NOFORCE) -- same rule as a PCL grant.
        supplied = self._noforce and node.buffer.has_current_dirty(page, seqno)
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
        yield from node.cpu.consume(self._lock_op_instr)
        if not self._reserve(txn_id, page):
            refusal: LockResponsePayload = {"aborted": True}
            yield from node.comm.send(
                payload["requester"], "mv_rsp", refusal, reply_event=payload["reply"]
            )
            return
        faults = self.cluster.faults
        if faults is not None and faults.is_down(payload["requester"]):
            # The requester died while the request was in flight; crash
            # recovery cannot see a reservation taken after its scan,
            # so give it straight back.
            if self._reservations.get(page) == txn_id:
                del self._reservations[page]
            return
        entry = self.tables[payload["home"]].entry(page)
        seqno = entry.seqno
        supplied = (
            self._noforce
            and payload["cached_version"] != seqno
            and node.buffer.has_current_dirty(page, seqno)
        )
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

    # -- NOFORCE page transfers (shared store) ----------------------------

    def request_page_from_owner(
        self, txn: Transaction, page: PageId, grant: LockGrant
    ) -> Generator[Event, Any, Optional[int]]:
        # Only store grants name an owner; PCL supplies with the grant.
        assert self.store is not None
        version = yield from self.store.fetch(txn, page, grant)
        return version

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
        store = self.store
        if store is not None:
            # Re-read one directory entry per page read.
            yield from store.access(node_id, len(read_set), txn_id)
        else:
            yield from self._validate_messages(txn, read_set)
        tc = yield from self._draw_ts(node_id, txn_id, commit=True)
        while True:
            stale = [
                (page, self._table_for(page).entry(page).seqno)
                for page, version in read_set
                if self._table_for(page).entry(page).seqno != version
            ]
            if stale:
                self.validation_failures += 1
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
            if store is not None:
                # Re-check costs one more directory access.
                yield from store.access(node_id, 1, txn_id)
        self.commits_validated += 1

    def _validate_messages(
        self, txn: Transaction, read_set: List[Tuple[PageId, int]]
    ) -> Generator[Event, Any, None]:
        """Charge one validation round per remote home partition (the
        check itself is central; a crash sentinel is fine because the
        rebuilt directory starts at the committed ledger versions)."""
        node_id = txn.node
        node = self.cluster.nodes[node_id]
        faults = self.cluster.faults
        homes: Dict[int, List[Tuple[PageId, int]]] = {}
        for page, version in read_set:
            homes.setdefault(self.gla_map(page), []).append((page, version))
        for home, pages in sorted(homes.items()):
            if faults is None:
                host = home
            else:
                host = yield from faults.resolve_gla(home)
            if host == node_id:
                yield from node.cpu.consume(self._lock_op_instr)
                continue
            reply = self.sim.event()
            if faults is not None:
                faults.watch(host, reply)
            request: MvccValidatePayload = {
                "txn_id": txn.txn_id,
                "pages": pages,
                "home": home,
                "requester": node_id,
                "reply": reply,
            }
            with self.recorder.span(txn.txn_id, phases.COMM):
                yield from node.comm.send(host, "mv_validate", request)
                yield reply
            if faults is not None:
                faults.unwatch(host, reply)

    def _handle_validate(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        yield from node.cpu.consume(
            self._lock_op_instr * max(1, len(payload["pages"]))
        )
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
        if self.store is not None:
            yield from self._commit_release_store(self.store, txn)
        else:
            yield from self._commit_release_pcl(txn)
        self._complete(txn.txn_id)

    def _commit_release_store(
        self, store: SharedStore, txn: Transaction
    ) -> Generator[Event, Any, None]:
        node_id = txn.node
        txn_id = txn.txn_id
        held = txn.held_locks
        directory = self.tables[0]
        while held:
            page = next(iter(held))
            if not held[page] or self._reservations.get(page) != txn_id:
                held.pop(page, None)
                continue
            # Install: read the entry, write seqno/owner back.
            yield from store.access(node_id, 2)
            entry = directory.entry(page)
            new_version = txn.modified.get(page)
            if new_version is not None:
                entry.seqno = max(entry.seqno, new_version)
                entry.owner = node_id if self._noforce else None
                if self._noforce:
                    # Publish the committed page (RDMA: into the pool).
                    yield from store.install(node_id, ((page, new_version),))
            if self._reservations.get(page) == txn_id:
                del self._reservations[page]
            held.pop(page, None)

    def _commit_release_pcl(self, txn: Transaction) -> Generator[Event, Any, None]:
        # Idempotent and interruption-safe like PCL's _release: pages
        # leave held_locks as their install is applied locally or
        # acknowledged remotely, never in one upfront sweep.
        node_id = txn.node
        txn_id = txn.txn_id
        node = self.cluster.nodes[node_id]
        faults = self.cluster.faults
        held = txn.held_locks
        hosts: Dict[int, int] = {}
        if faults is not None:
            for page, mode in held.items():
                if mode:
                    home = self.gla_map(page)
                    if home not in hosts:
                        hosts[home] = yield from faults.resolve_gla(home)
        groups: Dict[Tuple[int, int], List[Tuple[PageId, int]]] = {}
        for page in list(held):
            if not held[page]:
                held.pop(page, None)
                continue
            new_version = txn.modified.get(page)
            home = self.gla_map(page)
            host = hosts.get(home, home)
            if host == node_id or new_version is None:
                # Local home (we are the partition host and keep the
                # dirty copy as its owner), or a reservation that was
                # never written: apply synchronously.
                if new_version is not None:
                    entry = self.tables[home].entry(page)
                    entry.seqno = max(entry.seqno, new_version)
                    entry.owner = node_id if self._noforce else None
                if self._reservations.get(page) == txn_id:
                    del self._reservations[page]
                held.pop(page, None)
            else:
                groups.setdefault((host, home), []).append((page, new_version))
        for (host, home), pages in groups.items():
            carry = self._noforce
            if carry:
                self.pages_shipped_with_release += len(pages)
                # Ownership moves to the directory host with the pages.
                for page, version in pages:
                    node.buffer.mark_clean(page, version)
            ack = self.sim.event()
            if faults is not None:
                if faults.is_down(host):
                    # Crashed since host resolution: the rebuilt
                    # directory starts at the committed ledger versions
                    # (which already include these installs), so only
                    # the reservations need dropping.
                    self._finish_group(txn_id, held, pages)
                    continue
                faults.watch(host, ack)
            install: MvccInstallPayload = {
                "txn_id": txn_id,
                "pages": pages,
                "carry_pages": carry,
                "home": home,
                "requester": node_id,
                "ack": ack,
            }
            yield from node.comm.send(host, "mv_install", install, long=carry)
            # Commit completion is ordered after directory publication:
            # wait for the install acknowledgement (a crash sentinel
            # also releases us -- see above).
            yield ack
            if faults is not None:
                faults.unwatch(host, ack)
            self._finish_group(txn_id, held, pages)

    def _finish_group(
        self,
        txn_id: int,
        held: Dict[PageId, bool],
        pages: List[Tuple[PageId, int]],
    ) -> None:
        for page, _version in pages:
            if self._reservations.get(page) == txn_id:
                del self._reservations[page]
            held.pop(page, None)

    def _handle_install(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        home = payload["home"]
        carry = payload["carry_pages"]
        faults = self.cluster.faults
        yield from node.cpu.consume(
            self._lock_op_instr * max(1, len(payload["pages"]))
        )
        for page, version in payload["pages"]:
            raced = (
                faults is not None
                and home != node.node_id
                and faults.gla_host(home) != node.node_id
            )
            if carry:
                if raced:
                    # The carry raced a failback: this node is no longer
                    # the partition host, so flush straight to storage
                    # instead of buffering a dirty copy nobody owns.
                    yield from self.cluster.storage.write(page, version, node.cpu)
                else:
                    yield from node.buffer.insert_received_page(
                        page, version, dirty=True
                    )
            entry = self.tables[home].entry(page)
            entry.seqno = max(entry.seqno, version)
            entry.owner = node.node_id if carry and not raced else None
        yield from node.comm.send(
            payload["requester"], "mv_install_ack", {}, reply_event=payload["ack"]
        )

    def abort_release(self, txn: Transaction) -> Generator[Event, Any, None]:
        # Idempotent: reservations leave held_locks as they are freed;
        # reads never registered anything.
        if self.store is not None:
            yield from self._abort_release_store(self.store, txn)
        else:
            yield from self._abort_release_pcl(txn)
        self._complete(txn.txn_id)

    def _abort_release_store(
        self, store: SharedStore, txn: Transaction
    ) -> Generator[Event, Any, None]:
        node_id = txn.node
        txn_id = txn.txn_id
        held = txn.held_locks
        while held:
            page = next(iter(held))
            if not held[page] or self._reservations.get(page) != txn_id:
                held.pop(page, None)
                continue
            yield from store.access(node_id, 2)
            if self._reservations.get(page) == txn_id:
                del self._reservations[page]
            held.pop(page, None)

    def _abort_release_pcl(self, txn: Transaction) -> Generator[Event, Any, None]:
        node_id = txn.node
        txn_id = txn.txn_id
        node = self.cluster.nodes[node_id]
        faults = self.cluster.faults
        held = txn.held_locks
        hosts: Dict[int, int] = {}
        if faults is not None:
            for page, mode in held.items():
                if mode and self._reservations.get(page) == txn_id:
                    home = self.gla_map(page)
                    if home not in hosts:
                        hosts[home] = yield from faults.resolve_gla(home)
        groups: Dict[Tuple[int, int], List[PageId]] = {}
        for page in list(held):
            if not held[page] or self._reservations.get(page) != txn_id:
                held.pop(page, None)
                continue
            home = self.gla_map(page)
            host = hosts.get(home, home)
            if host == node_id:
                del self._reservations[page]
                held.pop(page, None)
            else:
                groups.setdefault((host, home), []).append(page)
        for (host, home), pages in groups.items():
            release: MvccAbortPayload = {
                "txn_id": txn_id,
                "pages": pages,
                "home": home,
            }
            yield from node.comm.send(host, "mv_abort", release)
            for page in pages:
                if self._reservations.get(page) == txn_id:
                    del self._reservations[page]
                held.pop(page, None)

    def _handle_abort(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        # Reservation state is kept centrally (dropped by the sender);
        # this charges the GLA-side processing cost.
        yield from node.cpu.consume(
            self._lock_op_instr * max(1, len(payload["pages"]))
        )

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
        if self.store is not None:
            yield from self.store.access(node_id, 2)
            self.store.written_back(page, version)
        if entry.owner == node_id and entry.seqno == version:
            entry.owner = None

    # -- fault injection ---------------------------------------------------

    def lock_tables(self) -> Tuple[LockTable, ...]:
        return tuple(self.tables)

    def crash_node(self, faults: "FaultManager", record: "CrashRecord") -> None:
        if self.store is not None:
            # Directory, reservations and timestamp counter live in the
            # non-volatile store and survive; recovery only has to clean
            # up on behalf of the dead transactions.  Pages the store
            # still holds did not die with the node's buffer.
            self.store.trim_lost(record)
            return
        home = record.node
        faults.close_partition(home)
        ledger = self.cluster.ledger
        # The dead node's directory partition was volatile.  Rebuild it
        # from the committed ledger *synchronously* so no validator or
        # reader can observe pre-crash sequence numbers (ownership info
        # is gone -- readers fall back to storage, which REDO fences
        # for lost pages).  recover() charges the modelled cost.
        self.tables[home] = LockTable(
            f"mvccdir{home}", seqno_init=ledger.committed_version
        )
        # An install carry in flight to the dead host is gone and the
        # committer already marked its copy clean: a stale page of the
        # dead partition with no surviving *dirty* current copy has no
        # write-back path left and must be REDOne.  (A surviving dirty
        # copy belongs to a committer whose install has not been sent
        # yet; its install will reach the replacement host.)
        for page, committed in ledger.stale_pages():
            if self.gla_map(page) != home or page in record.lost:
                continue
            if any(
                node.buffer.has_current_dirty(page, committed)
                for node in self.cluster.nodes
                if node.node_id != home
            ):
                continue
            record.lost[page] = committed

    def recover(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        """Failover: clean up after the dead transactions, then REDO.

        Shared store: the directory survived; once the store lets the
        dead node's words be reclaimed, the coordinator drops the dead
        transactions' reservations and reconciles their entries with
        the committed ledger -- plain word accesses, no messages.
        PCL: the replacement host announces the failover, clears dead
        reservations, receives one long directory-state message per
        other survivor and REDOes the lost pages before reopening the
        partition.  In both regimes, validators waiting on a dead
        transaction are released only after its entries are reconciled.
        """
        coord = faults.coordinator()
        coord_node = self.cluster.nodes[coord]
        ledger = self.cluster.ledger
        cfg = faults.config
        dead_ids = sorted({txn.txn_id for txn in record.killed})
        store = self.store
        if store is not None:
            yield from store.lease_wait(record)
            for txn_id in dead_ids:
                pages = sorted(
                    p for p, h in self._reservations.items() if h == txn_id
                )
                for page in pages:
                    yield from store.access(coord, 2)
                    yield from coord_node.cpu.consume(
                        cfg.recovery_instructions_per_lock
                    )
                    entry = self.tables[0].entry(page)
                    entry.seqno = max(entry.seqno, ledger.committed_version(page))
                    self._reservations.pop(page, None)
            # Ownership entries pointing at the dead buffer are void;
            # lost pages keep readers fenced until REDO restores them.
            directory = self.tables[0]
            for page in sorted(
                p for p, e in directory._entries.items() if e.owner == record.node
            ):
                if page in record.lost:
                    continue
                yield from store.access(coord, 1)
                directory._entries[page].owner = None
            yield from faults.redo_pages(record, coord)
            for entry in directory._entries.values():
                if entry.owner == record.node:
                    entry.owner = None
        else:
            home = record.node
            survivors = [
                n
                for n in self.cluster.nodes
                if n.node_id != home and not faults.is_down(n.node_id)
            ]
            transfer: GlaTransferPayload = {"home": home}
            # Failover announcement (delivery-confirmed short messages).
            for survivor in survivors:
                if survivor.node_id == coord:
                    continue
                notice = self.sim.event()
                yield from coord_node.comm.send(
                    survivor.node_id, "gla_failover", transfer, reply_event=notice
                )
                yield notice
            # Drop the dead transactions' reservations and reconcile
            # the surviving partitions' entries with the ledger.
            for txn_id in dead_ids:
                pages = sorted(
                    p for p, h in self._reservations.items() if h == txn_id
                )
                for page in pages:
                    yield from coord_node.cpu.consume(
                        cfg.recovery_instructions_per_lock
                    )
                    entry = self._table_for(page).entry(page)
                    entry.seqno = max(entry.seqno, ledger.committed_version(page))
                    self._reservations.pop(page, None)
            # Directory-state exchange: one long message per other
            # survivor (far leaner than PCL's per-lock reconstruction
            # -- version state is rebuilt from the ledger, not from
            # shipped lock registrations).
            for survivor in survivors:
                if survivor.node_id == coord:
                    continue
                done = self.sim.event()
                yield from survivor.comm.send(
                    coord, "gla_state", transfer, long=True, reply_event=done
                )
                yield done
            yield from faults.redo_pages(record, coord)
            faults.open_partition(home, coord)
        # Wake validators that were ordered behind dead transactions --
        # after reconciliation, so their re-check sees final state.
        for txn_id in dead_ids:
            self._complete(txn_id)

    def reintegrate(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        """Shared store: the directory state never moved; only the store
        re-admits the node (RDMA: fabric re-registration).  PCL:
        partition failback -- flush the interim host's committed dirty
        pages of the partition and ship the directory back."""
        if self.store is not None:
            yield from self.store.reintegrate(record)
            return
        home = record.node
        host = faults.gla_host(home)
        if host == home or faults.is_down(host):
            return
        faults.close_partition(home)
        cluster = self.cluster
        host_node = cluster.nodes[host]
        ledger = cluster.ledger
        while True:
            dirty = host_node.buffer.dirty_frames(
                lambda page: self.gla_map(page) == home
            )
            dirty = [
                (page, version)
                for page, version in dirty
                if ledger.committed_version(page) == version
            ]
            if not dirty:
                break
            dones = []
            for page, version in dirty:
                done = self.sim.event()
                self.sim.process(
                    self._failback_flush(page, version, host_node, done),
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
        faults.open_partition(home, None)

    def _failback_flush(
        self, page: PageId, version: int, node: "Node", done: Event
    ) -> Generator[Event, Any, None]:
        yield from self.cluster.storage.write(page, version, node.cpu)
        node.buffer.mark_clean(page, version)
        done.succeed()

    # -- introspection / statistics ----------------------------------------

    def num_blocked(self) -> int:
        return sum(len(waiters) for waiters in self._waiters.values())

    def lock_stats(self) -> Dict[str, float]:
        total = self.local_lock_requests + self.remote_lock_requests
        store = self.store
        return {
            "local_share": self.local_lock_requests / total if total else 1.0,
            "remote_lock_requests": float(self.remote_lock_requests),
            "lock_requests": float(total),
            "mean_lock_wait": self.lock_wait_time.mean,
            "page_requests": float(store.page_requests) if store else 0.0,
            "mean_page_request_delay": (
                store.page_request_delay.mean if store else 0.0
            ),
            "pages_supplied_with_grant": float(self.pages_supplied_with_grant),
        }

    def reset_stats(self) -> None:
        self.lock_wait_time.reset()
        self.remote_grant_delay.reset()
        if self.store is not None:
            self.store.reset_stats()
        self.local_lock_requests = 0
        self.remote_lock_requests = 0
        self.pages_supplied_with_grant = 0
        self.pages_shipped_with_release = 0
        self.timestamps_drawn = 0
        self.reservation_conflicts = 0
        self.validation_failures = 0
        self.commits_validated = 0
