"""Loose coupling: primary copy locking (PCL).

The database is logically partitioned; each node holds the **global
lock authority (GLA)** for one partition (section 3.2, [Ra86]).  Lock
requests against the local GLA partition are processed without
communication; other requests travel as messages to the authorized
node.  Coherency control is integrated:

* page sequence numbers held at the GLA detect buffer invalidations
  with no extra messages;
* under NOFORCE the GLA node doubles as the **page owner** for its
  partition: a page modified elsewhere is returned to the GLA *with*
  the lock release message (no extra message), and the GLA supplies
  the current page version *with* the lock grant message when the
  requester's copy is stale or missing (long instead of short reply,
  but no extra message round);
* consequently the current version of a page is always available at
  the GLA node or in the permanent database.

The optional **read optimization** ([Ra86, Ra91b], enabled by
``config.pcl_read_optimization`` and used for the paper's trace
experiments) grants nodes *read authorizations*: once a node obtained
an S lock with authorization, later S locks (and their releases) on
that page are processed locally without messages until a write lock
anywhere revokes the authorizations with an explicit revoke/ack
message exchange.

Modelling notes (see DESIGN.md):  authorized local S locks are
registered directly in the GLA's lock table at zero message cost so
that global deadlock detection sees them; revoke/ack message costs are
charged when an X lock is granted over outstanding authorizations.

The partition calls, the page carry and the partition failover and
failback are the loose-coupling substrate's
(:class:`~repro.cc.partitions.Partitions`).  This class stays separate
from the shared-store 2PL (:mod:`repro.cc.store_locking`) although
both share the lock-wait helper, because two things the store has no
counterpart for make up most of it: read authorizations (a granted S
lock lets later S locks and releases stay local until an X lock
revokes them by message) and local processing at the GLA node, whose
releases go out grouped per remote host and carry the modified pages.
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
    LockRequestPayload,
    LockResponsePayload,
    ReleasePayload,
    RevokePayload,
)
from repro.cc.partitions import Partitions
from repro.db.pages import PageId
from repro.errors import TransactionAborted
from repro.obs import phases
from repro.node.lock_table import LockEntry, LockMode, LockTable
from repro.sim.engine import Event
from repro.sim.stats import Tally
from repro.workload.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.manager import CrashRecord, FaultManager
    from repro.node.node import Node
    from repro.system.cluster import Cluster

__all__ = ["PrimaryCopyProtocol"]


def _noop() -> None:
    """Grant callback for lock-table reconstruction: the registrations
    are already-granted locks, so nobody waits on the grant."""


class PrimaryCopyProtocol(CCProtocol):
    """Primary copy locking with integrated coherency control."""

    name = "pcl"

    def __init__(self, cluster: "Cluster", gla_map: Callable[[PageId], int]) -> None:
        super().__init__(cluster)
        self.gla_map = gla_map
        #: The loose-coupling substrate: partition calls, page carry,
        #: partition failover and failback.
        self.store: Partitions = Partitions(cluster, gla_map)
        self.tables: List[LockTable] = [
            LockTable(f"gla{n}") for n in range(cluster.config.num_nodes)
        ]
        # Hot-path config values, resolved once.
        self._noforce = self.config.noforce
        self._read_opt = self.config.pcl_read_optimization
        self.lock_wait_time = Tally("pcl.lock_wait")
        #: txn_id -> home node, recorded at grant time.  Failover uses
        #: it to find every lock a dead node's transactions left behind
        #: -- including locks of *completed* transactions whose release
        #: message was dropped by the crash (txn.held_locks of killed
        #: transactions alone cannot see those).
        self._holder_home: Dict[int, int] = {}
        self.auth_read_locks = 0
        self.revocations = 0
        for node in cluster.nodes:
            node.register_handler("lock_req", self._handle_lock_request)
            node.register_handler("release", self._handle_release)
            node.register_handler("revoke", self._handle_revoke)
            #: page -> True while this node holds a read authorization.
            node.auth_cache = {}

    # -- core lock acquisition -------------------------------------------

    def acquire(
        self,
        txn: Transaction,
        page: PageId,
        write: bool,
        cached_version: Optional[int],
    ) -> Generator[Event, Any, LockGrant]:
        node_id = txn.node
        home = self.gla_map(page)
        mode = LockMode.EXCLUSIVE if write else LockMode.SHARED
        while True:
            # The partition's lock authority may be hosted elsewhere
            # during failover.
            host = yield from self.store.resolve(node_id, home)
            if host == node_id:
                grant = yield from self._acquire_local(txn, page, mode, home)
                return grant
            node = self.cluster.nodes[node_id]
            if (
                not write
                and self._read_opt
                and page in node.auth_cache
            ):
                grant = yield from self._acquire_authorized_read(txn, page, home)
                if grant is not None:
                    return grant
            grant = yield from self._acquire_remote(
                txn, page, mode, home, host, cached_version
            )
            if grant is not None:
                return grant
            # The GLA host crashed before answering: re-resolve (waits
            # for the reassignment) and retry against the new host.

    def _acquire_local(
        self, txn: Transaction, page: PageId, mode: LockMode, home: int
    ) -> Generator[Event, Any, LockGrant]:
        """Lock request against a GLA partition hosted on this node.

        Normally ``home == txn.node``; during failover this node may
        also host a crashed node's partition (``home`` names the
        partition, whose table stays indexed by its home node).
        """
        self.local_lock_requests += 1
        txn.local_lock_requests += 1
        node = self.cluster.nodes[txn.node]
        table = self.tables[home]
        wait = self._lock(txn.txn_id, table, page, mode, phases.LOCK_LOCAL)
        if wait is not None:
            yield from wait
        self._note_holder(txn.txn_id, txn.node)
        entry = table.entry(page)
        if mode is LockMode.EXCLUSIVE:
            with self.recorder.span(txn.txn_id, phases.COMM):
                yield from self._revoke_authorizations(node, page, entry, txn.node)
        txn.held_locks[page] = (mode is LockMode.EXCLUSIVE) or txn.held_locks.get(
            page, False
        )
        return LockGrant(entry.seqno, source=PageSource.STORAGE, local=True)

    def _acquire_authorized_read(
        self, txn: Transaction, page: PageId, home: int
    ) -> Generator[Event, Any, Optional[LockGrant]]:
        """Read lock processed locally under a read authorization.

        Returns None when the local copy is not current (the page must
        then be obtained from the GLA anyway, so the normal remote
        request is used instead).
        """
        node = self.cluster.nodes[txn.node]
        table = self.tables[home]
        already_held = table.holds(txn.txn_id, page) is not None
        wait = self._lock(txn.txn_id, table, page, LockMode.SHARED, phases.LOCK_LOCAL)
        if wait is not None:
            yield from wait
        self._note_holder(txn.txn_id, txn.node)
        entry = table.entry(page)
        if not node.buffer.has_current_version(page, entry.seqno):
            # Copy missing or stale: fall back to a remote request
            # (which may ship the page with the grant).  Only drop the
            # registration if it was freshly acquired here -- a lock
            # held from an earlier access must stay (strict 2PL).
            if not already_held:
                table.release(txn.txn_id, page)
            return None
        self.auth_read_locks += 1
        self.local_lock_requests += 1
        txn.local_lock_requests += 1
        txn.held_locks[page] = txn.held_locks.get(page, False)
        txn.auth_read_pages.add(page)
        return LockGrant(entry.seqno, source=PageSource.STORAGE, local=True)

    def _acquire_remote(
        self,
        txn: Transaction,
        page: PageId,
        mode: LockMode,
        home: int,
        host: int,
        cached_version: Optional[int],
    ) -> Generator[Event, Any, Optional[LockGrant]]:
        """Lock request to a remote GLA host via message exchange.

        Returns None when ``host`` crashed before answering (the caller
        re-resolves the partition host and retries).
        """
        self.remote_lock_requests += 1
        txn.remote_lock_requests += 1
        node = self.cluster.nodes[txn.node]
        reply = self.sim.event()
        request: LockRequestPayload = {
            "txn_id": txn.txn_id,
            "page": page,
            "mode": mode,
            "home": home,
            "cached_version": cached_version,
            "requester": txn.node,
            "reply": reply,
        }
        # The whole round trip is message/comm delay from the
        # requester's point of view; the GLA-side lock wait (if any) is
        # re-attributed to LOCK_GLOBAL by the handler's inner span.
        payload = yield from self.store.call(
            host, reply, txn.txn_id, node.comm.send(host, "lock_req", request)
        )
        if payload is None:
            return None
        if payload.get("aborted"):
            raise TransactionAborted(txn.txn_id)
        txn.held_locks[page] = (mode is LockMode.EXCLUSIVE) or txn.held_locks.get(
            page, False
        )
        if mode is LockMode.EXCLUSIVE:
            # An upgrade supersedes any read-authorization coverage:
            # the release must now reach the GLA (it carries the page).
            txn.auth_read_pages.discard(page)
        if payload.get("auth"):
            node.auth_cache[page] = True
        return self._reply_grant(payload["seqno"], payload)

    def _handle_lock_request(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        """GLA-side processing of a remote lock request."""
        txn_id = payload["txn_id"]
        page = payload["page"]
        mode: LockMode = payload["mode"]
        requester: int = payload["requester"]
        reply: Event = payload["reply"]
        home = payload.get("home", node.node_id)
        table = self.tables[home]
        try:
            # Charged to the *requesting* transaction as a global lock
            # wait: its process is suspended inside a COMM span
            # meanwhile, so the retag nests correctly.
            wait = self._lock(txn_id, table, page, mode, phases.LOCK_GLOBAL)
            if wait is not None:
                yield from wait
        except TransactionAborted:
            refusal: LockResponsePayload = {"aborted": True}
            yield from node.comm.send(
                requester, "lock_rsp", refusal, reply_event=reply
            )
            return
        if self.store.is_down(requester):
            # The requester died while the request waited in the table:
            # the grant can never be delivered, and crash recovery may
            # already have run (it cannot see a grant that happens after
            # its table scan), so give the lock straight back.
            table.release(txn_id, page)
            return
        self._note_holder(txn_id, requester)
        entry = table.entry(page)
        if mode is LockMode.EXCLUSIVE:
            yield from self._revoke_authorizations(node, page, entry, requester)
        seqno = entry.seqno
        supplied = self.store.supplies(node, page, seqno, payload["cached_version"])
        auth = self._read_opt and mode is LockMode.SHARED
        if auth:
            entry.authorize(requester)
        grant: LockResponsePayload = {
            "seqno": seqno,
            "supplied": supplied,
            "auth": auth,
        }
        yield from node.comm.send(
            requester, "lock_rsp", grant, long=supplied, reply_event=reply
        )

    def _note_holder(self, txn_id: int, node_id: int) -> None:
        """Record a lock holder's home node for crash recovery.

        The map is compacted (entries whose transaction no longer
        appears in any table are dropped) when it grows large, so its
        size tracks the number of in-flight registrations rather than
        the total transaction count of the run.
        """
        homes = self._holder_home
        if len(homes) >= 65536:
            held = set()
            for table in self.tables:
                for entry in table._entries.values():
                    held.update(entry.holders)
                    for request in entry.queue:
                        held.add(request.txn)
            self._holder_home = homes = {
                t: n for t, n in homes.items() if t in held
            }
        homes[txn_id] = node_id

    # -- read-authorization revocation ---------------------------------------

    def _revoke_authorizations(
        self, gla_node: "Node", page: PageId, entry: LockEntry, requester: int
    ) -> Generator[Event, Any, None]:
        """Charge revoke/ack exchanges for outstanding authorizations.

        The X lock is already granted in the GLA table (authorized
        local S locks are registered there, so the wait for conflicting
        readers happened in the table); what remains is the message
        cost of invalidating the authorizations.
        """
        targets = sorted(n for n in entry.auth_nodes if n != requester)
        if not targets:
            return
        faults = self.cluster.faults
        acks = []
        for target in targets:
            self.revocations += 1
            ack = self.sim.event()
            if faults is not None:
                # A crashing holder loses its authorization anyway; the
                # sentinel stands in for its ack.
                faults.watch(target, ack)
            revoke: RevokePayload = {
                "page": page,
                "ack": ack,
                "gla": gla_node.node_id,
            }
            yield from gla_node.comm.send(target, "revoke", revoke)
            acks.append((target, ack))
        yield self.sim.all_of([ack for _target, ack in acks])
        if faults is not None:
            for target, ack in acks:
                faults.unwatch(target, ack)
        entry.deauthorize(*targets)

    def _handle_revoke(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        """Authorization-holder side: drop the authorization and ack."""
        node.auth_cache.pop(payload["page"], None)
        yield from node.comm.send(
            payload["gla"], "revoke_ack", {}, reply_event=payload["ack"]
        )

    # -- release ------------------------------------------------------------------

    def commit_release(self, txn: Transaction) -> Generator[Event, Any, None]:
        yield from self._release(txn, commit=True)

    def abort_release(self, txn: Transaction) -> Generator[Event, Any, None]:
        yield from self._release(txn, commit=False)

    def _release(self, txn: Transaction, commit: bool) -> Generator[Event, Any, None]:
        # Idempotent and interruption-safe: pages leave held_locks as
        # their release is actually applied (local) or confirmed sent
        # (remote group), never in one upfront sweep.  A crash that
        # interrupts this generator leaves the unreleased remainder in
        # held_locks, so failover snapshots still see those locks and a
        # re-run releases exactly what is left; the GLA side tolerates
        # the duplicate deliveries an interruption after a send can
        # produce (see _apply_release).
        node = self.cluster.nodes[txn.node]
        held = txn.held_locks
        # Resolve every partition's effective host FIRST (this may wait
        # at failover gates), then apply the local release set without
        # yielding: a lock-table reconstruction snapshot therefore never
        # observes a half-released local set.
        hosts: Dict[int, int] = {}
        # simlint: disable-next=DET001 -- held_locks order is the txn's deterministic access order
        for page in held:
            home = self.gla_map(page)
            if home not in hosts:
                hosts[home] = yield from self.store.resolve(txn.node, home)
        remote_groups: Dict[Tuple[int, int], List[Tuple[PageId, Optional[int]]]] = {}
        # simlint: disable-next=DET001 -- held_locks order is the txn's deterministic access order
        for page in list(held):
            new_version = txn.modified.get(page) if commit else None
            home = self.gla_map(page)
            host = hosts[home]
            if host == txn.node:
                self._release_here(txn, page, new_version, home)
            elif page in txn.auth_read_pages:
                # Covered by a read authorization: release locally, no
                # message to the GLA.
                table = self.tables[home]
                if table.holds(txn.txn_id, page) is not None:
                    table.release(txn.txn_id, page)
                held.pop(page, None)
                txn.auth_read_pages.discard(page)
            else:
                remote_groups.setdefault((host, home), []).append((page, new_version))
        for (host, home), pages in remote_groups.items():
            if self.store.is_down(host):
                # The host crashed since resolution.  Carrying to it
                # would mark the pages clean and send them to a dead
                # node after the crash-time orphan scan saw them dirty
                # here, so nothing would write or REDO them: wait for
                # the partition's new host instead.
                host = yield from self.store.resolve(txn.node, home)
                if host == txn.node:
                    for page, new_version in pages:
                        self._release_here(txn, page, new_version, home)
                    continue
            carried = self.store.carry(node, pages)
            release: ReleasePayload = {
                "txn_id": txn.txn_id,
                "pages": pages,
                "carry_pages": carried,
                "home": home,
            }
            yield from node.comm.send(host, "release", release, long=carried)
            # Only now is the group the GLA's responsibility.
            for page, _version in pages:
                held.pop(page, None)
                txn.auth_read_pages.discard(page)

    def _release_here(
        self, txn: Transaction, page: PageId, new_version: Optional[int], home: int
    ) -> None:
        """Release one lock at this node, the partition's host; a
        modified page stays in its buffer, owned by the GLA."""
        self._apply_release(txn.txn_id, page, new_version, home)
        txn.held_locks.pop(page, None)
        txn.auth_read_pages.discard(page)

    def _apply_release(
        self, txn_id: int, page: PageId, new_version: Optional[int], home: int
    ) -> None:
        """Release one lock at its GLA and publish the new seqno.

        Tolerates releases for locks no longer held: crash recovery may
        already have reclaimed the lock, and an interrupted
        ``_release`` re-run (or a resent group) can deliver the same
        release twice.  Double-releasing would throw and -- worse --
        could hand back a lock some *other* transaction now holds.
        """
        table = self.tables[home]
        if table.holds(txn_id, page) is None:
            return
        entry = table.entry(page)
        if new_version is not None:
            # max(): never regress a seqno a rebuilt table already
            # initialized from the committed ledger version.
            entry.seqno = max(entry.seqno, new_version)
        table.release(txn_id, page)

    def _handle_release(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        """GLA-side processing of a (possibly page-carrying) release."""
        txn_id = payload["txn_id"]
        home = payload.get("home", node.node_id)
        for page, new_version in payload["pages"]:
            if new_version is not None and payload["carry_pages"]:
                yield from self.store.receive(node, home, page, new_version)
            self._apply_release(txn_id, page, new_version, home)

    # -- hooks ------------------------------------------------------------------

    def page_written_back(
        self, node_id: int, page: PageId, version: int
    ) -> Generator[Event, Any, None]:
        """No GLA action: the authority keeps coherency responsibility."""
        return
        yield  # pragma: no cover

    # -- fault injection -----------------------------------------------------

    def lock_tables(self) -> Tuple[LockTable, ...]:
        return tuple(self.tables)

    def crash_node(self, faults: "FaultManager", record: "CrashRecord") -> None:
        """Synchronous teardown: the dead node's GLA partition is fenced.

        The dead node's lock table and buffer were volatile, so loose
        coupling loses the partition's entire lock state and every
        dirty page buffered at its GLA -- the availability penalty the
        paper contrasts with GEM-resident lock state (section 5).
        """
        (home,) = self.store.fence(record)
        dead_node = self.cluster.nodes[home]
        dead_node.auth_cache.clear()
        # Requests queued in the dead table were being serviced by
        # handler processes that died with the node; their requesters
        # were answered with crash sentinels and will retry, so drop
        # their stale deadlock-detector registrations.
        for entry in self.tables[home]._entries.values():
            for req in list(entry.queue):
                self.detector.clear(req.txn)
        # The dead node's read authorizations (and any other node's
        # authorizations for the dead partition) are void.
        for node in self.cluster.nodes:
            if node.node_id == home:
                continue
            for page in [
                p for p in node.auth_cache if self.gla_map(p) == home
            ]:
                del node.auth_cache[page]
            for entry in self.tables[node.node_id]._entries.values():
                entry.deauthorize(home)

    def _partition_snapshot(self, home: int) -> List[Tuple[int, PageId, LockMode]]:
        """Lock registrations of surviving transactions for ``home``.

        Deterministic order: by node, transaction, page.  Valid while
        the partition is fenced (no acquire or release can touch it).
        """
        registrations = []
        for node in self.cluster.nodes:
            if node.node_id == home or self.store.is_down(node.node_id):
                continue
            for txn_id in sorted(node.tm.active):
                txn = node.tm.active[txn_id][0]
                for page in sorted(txn.held_locks):
                    if self.gla_map(page) == home:
                        registrations.append(
                            (txn_id, page, txn.held_locks[page])
                        )
        return registrations

    def _registrations(self, home: int) -> int:
        return len(self._partition_snapshot(home))

    def _install_partition(self, home: int) -> None:
        """Install the rebuilt table.  Fresh entries start at the
        committed version (the old table's sequence numbers died with
        the node)."""
        table = LockTable(f"gla{home}", seqno_init=self.cluster.ledger.committed_version)
        for txn_id, page, write in self._partition_snapshot(home):
            mode = LockMode.EXCLUSIVE if write else LockMode.SHARED
            table.request(txn_id, page, mode, _noop)
        self.tables[home] = table

    def _table_locks(self, home: int) -> int:
        return sum(
            len(e.holders) + len(e.queue) for e in self.tables[home]._entries.values()
        )

    def recover(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        """PCL failover: reassign the GLA and rebuild its lock table.

        Around the substrate's partition failover, the dead node's lock
        holdings at *surviving* partitions are released, every
        surviving registration for the dead partition costs
        reconstruction CPU at the replacement, and the rebuilt table is
        installed -- all explicit message/CPU/IO work that close
        coupling avoids.
        """
        yield from self.store.failover(
            record,
            self._reclaim(faults, record),
            registrations=self._registrations,
            install=self._install_partition,
        )

    def _reclaim(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        """Release what the dead node's transactions held at surviving
        partitions (the dead partition's table is rebuilt from scratch).

        The tables are authoritative, not txn.held_locks: a grant
        registered at a surviving GLA just before the crash may never
        have reached the requester, and a transaction that *completed*
        on the dead node may have had its release message dropped by
        the crash.  Both leave table state only recovery can reclaim,
        so release everything held on behalf of a transaction homed at
        the dead node (per the grant-time provenance map).
        """
        home = record.node
        ledger = self.cluster.ledger
        dead_ids = {txn.txn_id for txn in record.killed}
        for gla_id, gla_table in enumerate(self.tables):
            if gla_id == home:
                continue
            for entry in gla_table._entries.values():
                for txn_id in entry.holders:
                    if self._holder_home.get(txn_id) == home:
                        dead_ids.add(txn_id)
        for txn_id in sorted(dead_ids):
            for gla_id, gla_table in enumerate(self.tables):
                if gla_id == home:
                    continue
                for page in sorted(gla_table.held_pages(txn_id)):
                    yield from self.cluster.nodes[gla_id].cpu.consume(
                        faults.config.recovery_instructions_per_lock
                    )
                    entry = gla_table.entry(page)
                    entry.seqno = max(
                        entry.seqno, ledger.committed_version(page)
                    )
                    gla_table.release(txn_id, page)
            self._holder_home.pop(txn_id, None)

    def reintegrate(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        """GLA failback: the lock state moves back to the restarted
        node, which pays CPU per registration."""
        yield from self.store.reintegrate(record, self._table_locks)

    # -- statistics ----------------------------------------------------------------

    def local_share(self) -> float:
        total = self.local_lock_requests + self.remote_lock_requests
        return self.local_lock_requests / total if total else 1.0

    def reset_stats(self) -> None:
        super().reset_stats()
        self.auth_read_locks = 0
        self.revocations = 0
