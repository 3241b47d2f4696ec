"""Close coupling: 2PL with a global lock table in the shared store.

Every lock request and release is processed against a **global lock
table (GLT)** held in the cluster's shared store (section 3.2; see
:mod:`repro.cc.store` for GEM and the RDMA pool):

* Acquiring or releasing a lock is one entry update -- read the entry,
  write the modified value back with Compare&Swap (two GEM entry
  accesses, or one remote CAS); the accessing CPU is held for the
  complete operation, including queuing at the store.
* Lock conflicts register a wait in the GLT; when the holder releases,
  it writes a grant notification per woken waiter, and the waiter
  re-reads the entry before proceeding.
* Coherency control rides in the same entries: page sequence numbers
  detect buffer invalidations with no extra store traffic, and under
  NOFORCE the entry records the current **page owner**, from whose
  buffer (GEM) or pool copy (RDMA) a missing or stale page is fetched.

GEM lock authorizations (``config.gem_lock_authorizations``, section
2's sketched refinement) are a GEM-only path of this class.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Mapping,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

from repro.cc.base import CCProtocol, LockGrant
from repro.cc.messages import GltRevokePayload
from repro.cc.store import SharedStore, shared_store
from repro.db.pages import PageId
from repro.obs import phases
from repro.node.lock_table import LockMode, LockTable
from repro.sim.engine import Event
from repro.sim.stats import Tally
from repro.workload.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.manager import CrashRecord, FaultManager
    from repro.node.node import Node
    from repro.system.cluster import Cluster

__all__ = ["StoreLockingProtocol"]


class StoreLockingProtocol(CCProtocol):
    """Global lock table in the shared store, synchronous entry updates."""

    def __init__(self, cluster: "Cluster", gla_map: Callable[[PageId], int]) -> None:
        store = shared_store(cluster, gla_map)
        if not isinstance(store, SharedStore):
            raise ValueError("StoreLockingProtocol requires a shared store")
        super().__init__(cluster)
        self.store: SharedStore = store
        #: Named after the coupling, like PCL's "pcl".
        self.name = cluster.config.coupling.value
        self.glt = LockTable("glt")
        self._auth = self.config.gem_lock_authorizations
        self._noforce = self.config.noforce
        self.lock_wait_time = Tally("glt.lock_wait")
        self.authorized_lock_requests = 0
        self.authorization_revocations = 0
        if self._auth:
            for node in cluster.nodes:
                node.register_handler("glt_revoke", self._handle_authorization_revoke)

    # -- lock acquisition ------------------------------------------------------

    def acquire(
        self,
        txn: Transaction,
        page: PageId,
        write: bool,
        cached_version: Optional[int],
    ) -> Generator[Event, Any, LockGrant]:
        node_id = txn.node
        txn_id = txn.txn_id
        node = self.cluster.nodes[node_id]
        authorized = self._auth and page in node.gem_auth
        if authorized:
            # Sole-interest refinement (section 2): the local lock
            # manager processes the request without any GEM access.
            self.authorized_lock_requests += 1
        else:
            # Update the GLT entry: grant registered, or wait registered
            # on conflict.
            yield from self.store.update(node_id, 1, txn_id)
            if self._auth:
                holder = min(self.glt.entry(page).auth_nodes, default=None)
                if holder is not None and holder != node_id:
                    with self.recorder.span(txn_id, phases.COMM):
                        yield from self._revoke_authorization(node, page, holder)
        # The GLT is the global lock authority: waits here are global
        # lock waits in the breakdown.
        mode = LockMode.EXCLUSIVE if write else LockMode.SHARED
        wait = self._lock(txn_id, self.glt, page, mode, phases.LOCK_GLOBAL)
        if wait is not None:
            yield from wait
            if not authorized:
                # Re-read the entry after wake-up to observe the grant.
                yield from self.store.reread(node_id, 1, txn_id)
        txn.held_locks[page] = write or txn.held_locks.get(page, False)
        txn.local_lock_requests += 1
        entry = self.glt.entry(page)
        if (
            self._auth
            and not authorized
            and len(entry.holders) == 1
            and not entry.queue
        ):
            # Sole interest: authorize this node's local lock manager.
            entry.authorize_only(node_id)
            node.gem_auth.add(page)
        return self.store.grant(node_id, page, entry.seqno, entry.owner)

    # -- GEM lock authorizations ------------------------------------------------

    def _revoke_authorization(
        self, node: "Node", page: PageId, holder: int
    ) -> Generator[Event, Any, None]:
        """Another node holds the lock authorization: revoke it.

        The holder flushes its local lock state to the GLT (one entry
        update) and acknowledges; the requester then re-reads the entry
        before proceeding.
        """
        self.authorization_revocations += 1
        ack = self.sim.event()
        revoke: GltRevokePayload = {
            "page": page,
            "ack": ack,
            "requester": node.node_id,
        }
        # A crash of the holder clears its authorization in crash_node;
        # the crash sentinel answers the ack so the requester proceeds.
        yield from self.store.call(
            holder, ack, None, node.comm.send(holder, "glt_revoke", revoke)
        )
        yield from self.store.reread(node.node_id, 1)

    def _handle_authorization_revoke(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        page = payload["page"]
        node.gem_auth.discard(page)
        entry = self.glt.peek(page)
        if entry is not None:
            entry.deauthorize(node.node_id)
        # Flush the locally processed lock state back to the GLT.
        yield from self.store.update(node.node_id)
        yield from node.comm.send(
            payload["requester"], "glt_revoke_ack", {}, reply_event=payload["ack"]
        )

    # -- release ---------------------------------------------------------------

    def commit_release(self, txn: Transaction) -> Generator[Event, Any, None]:
        # Publish the committed pages *before* releasing any lock: a
        # grantee woken by the release must find them (RDMA pool).
        if self._noforce and txn.modified:
            yield from self.store.install(txn.node, sorted(txn.modified.items()))
        yield from self._release(txn, txn.modified)

    def abort_release(self, txn: Transaction) -> Generator[Event, Any, None]:
        yield from self._release(txn, {})

    def _release(
        self, txn: Transaction, modified: Mapping[PageId, int]
    ) -> Generator[Event, Any, None]:
        # Idempotent and interruption-safe: pages are popped from
        # held_locks as they are released (not cleared in one sweep at
        # the end), and a page whose GLT entry is already gone -- a
        # racing crash-induced abort released it, or this generator was
        # interrupted mid-release and re-run -- is skipped instead of
        # double-released (LockTable.release raises on unheld pages).
        node_id = txn.node
        node = self.cluster.nodes[node_id]
        txn_id = txn.txn_id
        held = txn.held_locks
        while held:
            page = next(iter(held))  # insertion order, like the old loop
            if self.glt.holds(txn_id, page) is None:
                held.pop(page, None)
                continue
            # An authorized page is released locally, without any GEM
            # access.
            authorized = self._auth and page in node.gem_auth
            if not authorized:
                yield from self.store.update(node_id)
            new_version = modified.get(page)
            if new_version is not None:
                entry = self.glt.entry(page)
                entry.seqno = new_version
                entry.owner = self.store.owner(node_id)
            # Re-check after yielding: a crash-path abort may have
            # raced this release while the entry update was queued.
            if self.glt.holds(txn_id, page) is not None:
                granted = self.glt.release(txn_id, page)
            else:
                granted = []
            held.pop(page, None)
            if granted and not authorized:
                # One grant notification per woken waiter.
                yield from self.store.reread(node_id, len(granted))

    # -- write-back hook ----------------------------------------------------------

    def page_written_back(
        self, node_id: int, page: PageId, version: int
    ) -> Generator[Event, Any, None]:
        """Clear page ownership after a committed dirty page reached
        disk (storage is current again)."""
        if self.config.force:
            return
        entry = self.glt.peek(page)
        if entry is None:
            return
        yield from self.store.update(node_id)
        if entry.owner == node_id and entry.seqno == version:
            entry.owner = None
        self.store.written_back(page, version)

    # -- fault injection -----------------------------------------------------

    def lock_tables(self) -> Tuple[LockTable, ...]:
        return (self.glt,)

    def crash_node(self, faults: "FaultManager", record: "CrashRecord") -> None:
        """Synchronous teardown: the node's lock authorizations die.

        The GLT itself lives in the non-volatile store and survives --
        the close-coupling availability advantage the paper argues
        (section 5): no lock state is lost with a node.
        """
        if self._auth:
            self.cluster.nodes[record.node].gem_auth.clear()
            for entry in self.glt._entries.values():
                entry.deauthorize(record.node)
        self.store.fence(record)

    def recover(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        """Failover with a surviving GLT: release the dead node's locks.

        The coordinator scans the intact GLT for locks held by the
        crashed node's transactions, makes each entry's sequence number
        consistent with the ledger, and releases -- plain entry
        updates, no lock-state reconstruction and no inter-node
        messages -- once the store lets the dead node's entries be
        reclaimed.  Then the store voids the dead owner's entries and
        REDOes the lost pages from the dead node's log.
        """
        yield from self.store.failover(
            record, self._reclaim(faults, record), (self.glt,)
        )

    def _reclaim(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        store = self.store
        coord = faults.coordinator()
        coord_node = self.cluster.nodes[coord]
        ledger = self.cluster.ledger
        for txn in record.killed:
            # The GLT is authoritative: a lock granted in the table just
            # before the crash may never have reached txn.held_locks
            # (the requester died between the table grant and its local
            # registration), so scan the table rather than trust the
            # dead transaction's bookkeeping.
            pages = set(txn.held_locks)
            pages.update(self.glt.held_pages(txn.txn_id))
            for page in sorted(pages):
                if self.glt.holds(txn.txn_id, page) is None:
                    continue
                yield from store.update(coord)
                yield from coord_node.cpu.consume(
                    faults.config.recovery_instructions_per_lock
                )
                self.glt.entry(page).catch_up(ledger.committed_version(page))
                granted = self.glt.release(txn.txn_id, page)
                if granted:
                    yield from store.reread(coord, len(granted))

    def reintegrate(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        """GEM: nothing to rebuild, the restarted node finds its lock
        state in the store (the reintegration gap versus PCL's GLA
        failback).  RDMA: fabric re-registration first."""
        yield from self.store.reintegrate(record)

    # -- statistics -------------------------------------------------------------

    def lock_stats(self) -> Dict[str, float]:
        store = self.store
        return {
            # Store accesses are message-free: every request is local.
            "local_share": 1.0,
            "remote_lock_requests": 0.0,
            # Requests issued in the window (GLT count), granted or not.
            "lock_requests": float(self.glt.requests),
            "mean_lock_wait": self.lock_wait_time.mean,
            "page_requests": float(store.page_requests),
            "mean_page_request_delay": store.page_request_delay.mean,
            "pages_supplied_with_grant": 0.0,
        }

    def reset_stats(self) -> None:
        super().reset_stats()
        self.authorized_lock_requests = 0
        self.authorization_revocations = 0
