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
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

from repro.cc.base import CCProtocol, LockGrant, PageSource
from repro.cc.messages import (
    GlaTransferPayload,
    LockRequestPayload,
    LockResponsePayload,
    ReleasePayload,
    RevokePayload,
)
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
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = cluster.config
        self.detector = cluster.detector
        self.recorder = cluster.recorder
        self.gla_map = gla_map
        self.tables: List[LockTable] = [
            LockTable(f"gla{n}") for n in range(cluster.config.num_nodes)
        ]
        # Hot-path config values, resolved once.
        self._lock_op_instr = self.config.instructions_per_lock_op
        self._noforce = self.config.noforce
        self._read_opt = self.config.pcl_read_optimization
        self.lock_wait_time = Tally("pcl.lock_wait")
        self.remote_grant_delay = Tally("pcl.remote_grant_delay")
        #: txn_id -> home node, recorded at grant time.  Failover uses
        #: it to find every lock a dead node's transactions left behind
        #: -- including locks of *completed* transactions whose release
        #: message was dropped by the crash (txn.held_locks of killed
        #: transactions alone cannot see those).
        self._holder_home: Dict[int, int] = {}
        self.local_lock_requests = 0
        self.remote_lock_requests = 0
        self.auth_read_locks = 0
        self.pages_supplied_with_grant = 0
        self.pages_shipped_with_release = 0
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
        faults = self.cluster.faults
        while True:
            # The partition's lock authority may be hosted elsewhere
            # during failover; resolve_gla also waits out the window in
            # which the partition is fenced for reassignment.
            if faults is None:
                host = home
            else:
                host = yield from faults.resolve_gla(home)
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
        yield from node.cpu.consume(self._lock_op_instr)
        yield from self._table_request(txn.txn_id, table, page, mode)
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
        yield from node.cpu.consume(self._lock_op_instr)
        yield from self._table_request(txn.txn_id, table, page, LockMode.SHARED)
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
        started = self.sim.now
        reply = self.sim.event()
        faults = self.cluster.faults
        if faults is not None:
            faults.watch(host, reply)
        # The whole round trip is message/comm delay from the
        # requester's point of view; the GLA-side lock wait (if any) is
        # re-attributed to LOCK_GLOBAL by the handler's inner span.
        request: LockRequestPayload = {
            "txn_id": txn.txn_id,
            "page": page,
            "mode": mode,
            "home": home,
            "cached_version": cached_version,
            "requester": txn.node,
            "reply": reply,
        }
        with self.recorder.span(txn.txn_id, phases.COMM):
            yield from node.comm.send(host, "lock_req", request)
            payload = yield reply
        if faults is not None:
            faults.unwatch(host, reply)
            if payload.get("crashed"):
                return None
        self.remote_grant_delay.record(self.sim.now - started)
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
        seqno = payload["seqno"]
        if payload.get("supplied"):
            self.pages_supplied_with_grant += 1
            return LockGrant(
                seqno, source=PageSource.SUPPLIED, local=False, page_supplied=True
            )
        return LockGrant(seqno, source=PageSource.STORAGE, local=False)

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
        yield from node.cpu.consume(self._lock_op_instr)
        try:
            yield from self._table_request(
                txn_id, table, page, mode, phase=phases.LOCK_GLOBAL
            )
        except TransactionAborted:
            refusal: LockResponsePayload = {"aborted": True}
            yield from node.comm.send(
                requester, "lock_rsp", refusal, reply_event=reply
            )
            return
        faults = self.cluster.faults
        if faults is not None and faults.is_down(requester):
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
        # The grant carries the page exactly when the permanent
        # database cannot serve it: the GLA holds a dirty current copy
        # (NOFORCE) and the requester's copy is stale or missing.
        # Clean copies imply the permanent database is current, so the
        # requester reads storage as usual.
        supplied = (
            self._noforce
            and payload["cached_version"] != seqno
            and node.buffer.has_current_dirty(page, seqno)
        )
        auth = self._read_opt and mode is LockMode.SHARED
        if auth:
            entry.auth_nodes.add(requester)
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

    def _table_request(
        self,
        txn_id: int,
        table: LockTable,
        page: PageId,
        mode: LockMode,
        phase: str = phases.LOCK_LOCAL,
    ) -> Iterator[Event]:
        """Request a lock in ``table``, waiting (with deadlock handling).

        ``phase`` classifies a blocked wait for the response-time
        breakdown; the GLA-side handler of a remote request passes
        LOCK_GLOBAL so the wait is charged to the *requesting*
        transaction as a global lock wait (its process is suspended
        inside a COMM span meanwhile, so the retag nests correctly).

        Immediate grants (the common case) return an empty iterator --
        no wait event is allocated and the caller's ``yield from``
        never suspends; only a genuine conflict returns the waiting
        generator.
        """
        wait_event: Optional[Event] = None

        def on_grant() -> None:
            self.detector.clear(txn_id)
            assert wait_event is not None  # created before any queueing
            wait_event.succeed()

        if table.request(txn_id, page, mode, on_grant):
            return iter(())
        wait_event = self.sim.event()
        return self._table_wait(txn_id, table, page, wait_event, phase)

    def _table_wait(
        self,
        txn_id: int,
        table: LockTable,
        page: PageId,
        wait_event: Event,
        phase: str,
    ) -> Generator[Event, Any, None]:
        blocked_at = self.sim.now

        def abort_victim() -> None:
            table.cancel(txn_id, page)
            wait_event.fail(TransactionAborted(txn_id))

        self.detector.register_block(txn_id, table, abort_victim)
        with self.recorder.span(txn_id, phase):
            yield wait_event  # raises TransactionAborted if chosen as victim
        self.lock_wait_time.record(self.sim.now - blocked_at)

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
        entry.auth_nodes.difference_update(targets)

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
        faults = self.cluster.faults
        held = txn.held_locks
        # Resolve every partition's effective host FIRST (this may wait
        # at failover gates), then apply the local release set without
        # yielding: a lock-table reconstruction snapshot therefore never
        # observes a half-released local set.
        hosts: Dict[int, int] = {}
        if faults is not None:
            # simlint: disable-next=DET001 -- held_locks order is the txn's deterministic access order
            for page in held:
                home = self.gla_map(page)
                if home not in hosts:
                    hosts[home] = yield from faults.resolve_gla(home)
        remote_groups: Dict[Tuple[int, int], List[Tuple[PageId, Optional[int]]]] = {}
        # simlint: disable-next=DET001 -- held_locks order is the txn's deterministic access order
        for page in list(held):
            new_version = txn.modified.get(page) if commit else None
            home = self.gla_map(page)
            host = hosts.get(home, home)
            if host == txn.node:
                self._apply_release(txn.txn_id, page, new_version, home)
                held.pop(page, None)
                txn.auth_read_pages.discard(page)
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
            modified = [(p, v) for p, v in pages if v is not None]
            long = self._noforce and bool(modified)
            if long:
                self.pages_shipped_with_release += len(modified)
                # The shipped pages are no longer this node's write
                # responsibility -- the GLA becomes the owner.
                for page, version in modified:
                    node.buffer.mark_clean(page, version)
            release: ReleasePayload = {
                "txn_id": txn.txn_id,
                "pages": pages,
                "carry_pages": long,
                "home": home,
            }
            yield from node.comm.send(host, "release", release, long=long)
            # Only now is the group the GLA's responsibility.
            for page, _version in pages:
                held.pop(page, None)
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
        faults = self.cluster.faults
        for page, new_version in payload["pages"]:
            if new_version is not None and payload["carry_pages"]:
                if (
                    faults is not None
                    and home != node.node_id
                    and faults.gla_host(home) != node.node_id
                ):
                    # The carry raced a GLA failback: this node is no
                    # longer the partition host, so instead of buffering
                    # the page dirty (nobody would write it back), flush
                    # it straight to the permanent database.
                    yield from self.cluster.storage.write(
                        page, new_version, node.cpu
                    )
                else:
                    # NOFORCE: the modified page travelled with the
                    # release and the GLA takes over ownership (buffers
                    # it dirty).
                    yield from node.buffer.insert_received_page(
                        page, new_version, dirty=True
                    )
            self._apply_release(txn_id, page, new_version, home)

    # -- hooks ------------------------------------------------------------------

    def request_page_from_owner(
        self, txn: Transaction, page: PageId, grant: LockGrant
    ) -> Generator[Event, Any, Optional[int]]:  # pragma: no cover
        raise RuntimeError("PCL never fetches pages from an owner node")
        yield  # unreachable; makes this a generator

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
        home = record.node
        faults.close_partition(home)
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
                entry.auth_nodes.discard(home)
        # A page-carrying release that was in flight to the dead GLA is
        # gone, and the sender already marked its copy clean: a stale
        # page of the dead partition with no surviving *dirty* current
        # copy has no write-back path left and must be REDOne.  (A
        # surviving dirty copy belongs to an unreleased X holder, whose
        # release will ship it to the replacement host.)
        ledger = self.cluster.ledger
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

    def _partition_snapshot(
        self, faults: "FaultManager", home: int
    ) -> List[Tuple[int, PageId, LockMode]]:
        """Lock registrations of surviving transactions for ``home``.

        Deterministic order: by node, transaction, page.  Valid while
        the partition is fenced (no acquire or release can touch it).
        """
        registrations = []
        for node in self.cluster.nodes:
            if node.node_id == home or faults.is_down(node.node_id):
                continue
            for txn_id in sorted(node.tm.active):
                txn = node.tm.active[txn_id][0]
                for page in sorted(txn.held_locks):
                    if self.gla_map(page) == home:
                        registrations.append(
                            (txn_id, page, txn.held_locks[page])
                        )
        return registrations

    def recover(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        """PCL failover: reassign the GLA and rebuild its lock table.

        The replacement (lowest surviving node) announces the failover,
        the dead node's lock holdings at *surviving* partitions are
        released, every survivor ships its lock state for the dead
        partition in a long message, the replacement pays per-lock
        reconstruction CPU and REDOes the lost pages, and finally the
        rebuilt table is installed and the partition reopened -- all
        explicit message/CPU/IO work that close coupling avoids.
        """
        cluster = self.cluster
        home = record.node
        repl = faults.coordinator()
        repl_node = cluster.nodes[repl]
        cfg = faults.config
        ledger = cluster.ledger
        survivors = [
            n
            for n in cluster.nodes
            if n.node_id != home and not faults.is_down(n.node_id)
        ]
        transfer: GlaTransferPayload = {"home": home}
        # 1. Failover announcement (delivery-confirmed short messages).
        for survivor in survivors:
            if survivor.node_id == repl:
                continue
            notice = self.sim.event()
            yield from repl_node.comm.send(
                survivor.node_id, "gla_failover", transfer, reply_event=notice
            )
            yield notice
        # 2. Release what the dead node's transactions held at surviving
        # partitions (the dead partition's table is rebuilt from
        # scratch, so only surviving tables need explicit cleanup).
        # The tables are authoritative, not txn.held_locks: a grant
        # registered at a surviving GLA just before the crash may never
        # have reached the requester, and a transaction that *completed*
        # on the dead node may have had its release message dropped by
        # the crash.  Both leave table state only recovery can reclaim,
        # so release everything held on behalf of a transaction homed at
        # the dead node (per the grant-time provenance map).
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
                    yield from cluster.nodes[gla_id].cpu.consume(
                        cfg.recovery_instructions_per_lock
                    )
                    entry = gla_table.entry(page)
                    entry.seqno = max(
                        entry.seqno, ledger.committed_version(page)
                    )
                    gla_table.release(txn_id, page)
            self._holder_home.pop(txn_id, None)
        # 3. State exchange: one long message per other survivor, plus
        # per-registration reconstruction CPU at the replacement.  The
        # partition is fenced, so the registration set is stable.
        registrations = self._partition_snapshot(faults, home)
        for survivor in survivors:
            if survivor.node_id == repl:
                continue
            done = self.sim.event()
            yield from survivor.comm.send(
                repl, "gla_state", transfer, long=True, reply_event=done
            )
            yield done
        if registrations:
            yield from repl_node.cpu.consume(
                len(registrations) * cfg.recovery_instructions_per_lock
            )
        # 4. REDO the dead partition's lost pages at the replacement.
        yield from faults.redo_pages(record, repl)
        # 5. Install the rebuilt table and reopen the partition at the
        # replacement host -- synchronously, so no process can observe
        # a half-built table.  Fresh entries start at the committed
        # version (the old table's sequence numbers died with the node).
        table = LockTable(f"gla{home}", seqno_init=ledger.committed_version)
        for txn_id, page, write in self._partition_snapshot(faults, home):
            mode = LockMode.EXCLUSIVE if write else LockMode.SHARED
            table.request(txn_id, page, mode, _noop)
        self.tables[home] = table
        faults.open_partition(home, repl)

    def reintegrate(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        """GLA failback: move the partition back to the restarted node.

        The partition is fenced again; the interim host flushes its
        dirty pages of the partition (it stops being the page owner),
        ships the lock state back in a long message, and the home node
        pays per-registration CPU before the partition reopens -- the
        loose-coupling reintegration cost GEM does not have.
        """
        home = record.node
        host = faults.gla_host(home)
        if host == home or faults.is_down(host):
            return
        faults.close_partition(home)
        cluster = self.cluster
        host_node = cluster.nodes[host]
        home_node = cluster.nodes[home]
        # Flush the interim host's COMMITTED dirty pages of the
        # partition so the permanent database is current when ownership
        # returns home.  Uncommitted dirty frames stay: their owning
        # transactions' releases will carry them to the home node.  The
        # partition is fenced, so no new committed dirty page can
        # appear; loop only because a page-carrying release may still
        # arrive mid-flush.
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
            # Write back in parallel: the flush is random I/O to
            # independent pages, limited by the storage server, not by
            # a serial scan.
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
        table = self.tables[home]
        locks = sum(
            len(e.holders) + len(e.queue) for e in table._entries.values()
        )
        if locks:
            yield from home_node.cpu.consume(
                locks * faults.config.recovery_instructions_per_lock
            )
        faults.open_partition(home, None)

    def _failback_flush(
        self, page: PageId, version: int, node: "Node", done: Event
    ) -> Generator[Event, Any, None]:
        yield from self.cluster.storage.write(page, version, node.cpu)
        node.buffer.mark_clean(page, version)
        done.succeed()

    # -- statistics ----------------------------------------------------------------

    def local_share(self) -> float:
        total = self.local_lock_requests + self.remote_lock_requests
        return self.local_lock_requests / total if total else 1.0

    def lock_stats(self) -> Dict[str, float]:
        return {
            "local_share": self.local_share(),
            "remote_lock_requests": float(self.remote_lock_requests),
            "lock_requests": float(
                self.local_lock_requests + self.remote_lock_requests
            ),
            "mean_lock_wait": self.lock_wait_time.mean,
            # Pages travel with grants and releases, never on request.
            "page_requests": 0.0,
            "mean_page_request_delay": 0.0,
            "pages_supplied_with_grant": float(self.pages_supplied_with_grant),
        }

    def reset_stats(self) -> None:
        self.lock_wait_time.reset()
        self.remote_grant_delay.reset()
        self.local_lock_requests = 0
        self.remote_lock_requests = 0
        self.auth_read_locks = 0
        self.pages_supplied_with_grant = 0
        self.pages_shipped_with_release = 0
        self.revocations = 0
        for table in self.tables:
            table.requests = 0
            table.immediate_grants = 0
            table.waits = 0
