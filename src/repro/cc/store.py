"""The coupling substrates every concurrency-control protocol runs on.

Each protocol is written once against :class:`PageOwners`, the
substrate interface; the coupling picks the implementation
(:func:`shared_store`), and where the regimes differ only in cost the
substrate method decides the cost.  Close coupling, in the paper's
terms, is synchronous access to a *passive shared store*: the global
lock table and the coherency state live in GEM, and every access is an
entry read followed by a Compare&Swap write-back, with the accessing
CPU held throughout.  Memory disaggregation over RDMA (Wang et al.) is
the same design with one-sided verbs against a remote memory pool.
Loose coupling (PCL) partitions the same state across the nodes and
reaches it by messages (:mod:`repro.cc.partitions`).

* :class:`PageOwners` -- the substrate interface, plus the paper's
  NOFORCE coherency scheme every substrate shares: a grant names the
  live node whose buffer holds the current page version, and a fetch
  is a ``page_req``/``page_rsp`` message exchange with it.  It also
  holds the watched request/reply round trip and the crash-time scan
  for pages whose only write-back copy died.
* :class:`SharedStore` -- adds the word operations (``access``,
  ``update``, ``reread``).  Every store access goes through
  :meth:`SharedStore._access`: one synchronous access
  (:meth:`~repro.node.cpu.CpuPool.synchronous`: CPU, then the store
  server on top of it).  All state is in one partition that every node
  reaches directly.
* :class:`GemStore` -- GEM: entry accesses against the GEM server; an
  update is two of them.  Page fetches go to the owner by message, or
  through a GEM exchange buffer (``config.page_transfer_via_gem``).
* :class:`RdmaStore` -- the pool: an update is one remote CAS, a
  re-read a small one-sided read.  Committed pages are installed into
  the pool (eagerly invalidating stale cached copies) and fetched with
  a one-sided page read; pool-resident pages survive a compute-node
  crash, a dead node's words are reclaimable only after its lease, and
  a restarted node re-registers with the fabric.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.cc.base import LockGrant, PageSource
from repro.cc.messages import PageRequestPayload, PageResponsePayload
from repro.db.pages import PageId
from repro.node.lock_table import LockTable
from repro.obs import phases
from repro.sim.engine import Event
from repro.sim.resources import Resource
from repro.sim.stats import Tally
from repro.system.config import Coupling
from repro.workload.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.manager import CrashRecord
    from repro.node.node import Node
    from repro.system.cluster import Cluster

__all__ = ["PageOwners", "SharedStore", "GemStore", "RdmaStore", "shared_store"]

#: Builds the message of a :meth:`PageOwners.publish` to one node:
#: ``(sending node, destination, delivery event) -> send``.
Broadcast = Callable[["Node", int, Event], Iterator[Event]]


class PageOwners:
    """The substrate interface, and NOFORCE page supply by ownership.

    The committer keeps the dirty page; a reader whose copy is missing
    or stale is sent to the owner's buffer (section 3.2).

    Protocols see the state they coordinate -- lock table, version
    directory, timestamp counter, batch area -- as :attr:`partitions`
    partitions, each processed at one host at a time:

    * :meth:`resolve` names the host serving a request for partition
      :meth:`home` of a page; a request whose host is the requesting
      node costs :meth:`access` (plain entry accesses), any other is a
      :meth:`call` to the host.  :meth:`central` names the host of the
      cluster-wide state.
    * :meth:`publish` makes a central update visible to every node.
    * :meth:`fence`, :meth:`failover` and :meth:`reintegrate` are the
      substrate's part of a node crash and restart.

    The defaults describe a store: one partition that every node
    reaches directly, whose accesses are word accesses and whose state
    survives a crash.  :class:`~repro.cc.partitions.Partitions`
    overrides them.  The hooks at the end are no-ops here: only a
    pool-backed store installs pages, outlives a node's buffer or needs
    a lease.
    """

    partitions = 1

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = cluster.config
        self.recorder = cluster.recorder
        self._noforce = cluster.config.noforce
        self.page_requests = 0
        self.page_requests_failed = 0
        self.page_request_delay = Tally("page_request_delay")
        for node in cluster.nodes:
            node.register_handler("page_req", self._handle_page_request)

    # -- the substrate interface -------------------------------------------

    def home(self, page: PageId) -> int:
        """The partition ``page`` belongs to."""
        return 0

    def resolve(self, node_id: int, home: int) -> Generator[Event, Any, int]:
        """The node that processes a request of ``node_id`` against
        partition ``home`` (may wait while the partition is fenced)."""
        return node_id
        yield  # pragma: no cover - makes this a generator

    def central(self, node_id: int) -> int:
        """The node that processes a request of ``node_id`` against
        cluster-wide state (timestamp counter, batch scheduler)."""
        return node_id

    def access(
        self, node_id: int, count: int, txn_id: Optional[int] = None
    ) -> Iterator[Event]:
        """``count`` plain entry accesses: a request served at the
        requester's own host, an install, a clean-up or a re-check."""
        raise NotImplementedError

    def owner(self, node_id: int) -> Optional[int]:
        """The page owner a directory entry records for a page that
        ``node_id`` committed: NOFORCE keeps it at the committer."""
        return node_id if self._noforce else None

    def publish(self, node_id: int, count: int, send: Broadcast) -> Iterator[Event]:
        """Make a central update of ``count`` entries visible to all
        nodes (``send`` builds the message to one node): word writes to
        the store, where every node looks."""
        return self.access(node_id, count)

    def recovery_access(self, node_id: int) -> Iterator[Event]:
        """Void one entry of cluster-wide state during failover."""
        return self.access(node_id, 1)

    def fence(self, record: "CrashRecord") -> Tuple[int, ...]:
        """Crash instant: fence what died with the node and extend
        ``record.lost``.  Returns the partitions whose state was lost:
        none for a store, and pages it still holds did not die with the
        node's buffer."""
        self.trim_lost(record)
        return ()

    def failover(
        self,
        record: "CrashRecord",
        reclaim: Iterator[Event],
        tables: Sequence[LockTable],
    ) -> Generator[Event, Any, None]:
        """Failover around the protocol's ``reclaim`` of the dead
        transactions' state, ending with REDO of the lost pages.

        With surviving store state this is plain word accesses, no
        messages and no reconstruction.  Once the store lets the dead
        node's words be reclaimed (RDMA: its lease expired), the
        protocol reclaims the dead transactions' entries.  Entries of
        ``tables`` naming the dead buffer as page owner are void: for
        pages that were not lost the permanent copy is current, so they
        are cleared now; lost pages keep readers fenced until REDO
        restores them.
        """
        faults = self.cluster.faults
        assert faults is not None
        yield from self.lease_wait(record)
        yield from reclaim
        coord = faults.coordinator()
        dead = record.node
        for table in tables:
            entries = table._entries
            for page in sorted(p for p, e in entries.items() if e.owner == dead):
                if page in record.lost:
                    continue
                yield from self.access(coord, 1)
                entries[page].owner = None
        yield from faults.redo_pages(record, coord)
        for table in tables:
            for entry in table._entries.values():
                if entry.owner == dead:
                    entry.owner = None

    def supplies(
        self, node: "Node", page: PageId, seqno: int, cached_version: Optional[int]
    ) -> bool:
        """Whether the reply to a request whose copy is at
        ``cached_version`` carries the page from ``node``'s buffer."""
        raise NotImplementedError

    def carry(
        self, node: "Node", pages: Sequence[Tuple[PageId, Optional[int]]]
    ) -> bool:
        """Hand the modified ``pages`` over to a remote host; True when
        they ride along with the message."""
        raise NotImplementedError

    def receive(
        self, node: "Node", home: int, page: PageId, version: int
    ) -> Generator[Event, Any, None]:
        """Take over a page carried to ``node`` for partition ``home``."""
        raise NotImplementedError

    # -- shared by every substrate -----------------------------------------

    def is_down(self, node_id: int) -> bool:
        faults = self.cluster.faults
        return faults is not None and faults.is_down(node_id)

    def coordinator(self) -> int:
        """Lowest-numbered surviving node (runs cluster-wide work)."""
        faults = self.cluster.faults
        return faults.coordinator() if faults is not None else 0

    def call(
        self,
        host: int,
        reply: Event,
        txn_id: Optional[int],
        request: Iterator[Event],
    ) -> Generator[Event, Any, Optional[Mapping[str, Any]]]:
        """Watched request/reply round trip: send ``request`` (a message
        to ``host`` answered into ``reply``) and wait for the answer,
        attributed to ``txn_id``'s COMM phase (None: the recorder
        attributes nothing, the time stays in the caller's).  None when
        ``host`` crashed before answering (the caller retries or gives
        up)."""
        faults = self.cluster.faults
        if faults is not None:
            faults.watch(host, reply)
        payload: Mapping[str, Any]
        with self.recorder.span(txn_id, phases.COMM):
            yield from request
            payload = yield reply
        if faults is not None:
            faults.unwatch(host, reply)
            if payload.get("crashed"):
                return None
        return payload

    def orphans(self, record: "CrashRecord", belongs: Callable[[PageId], bool]) -> None:
        """Extend ``record.lost`` with each stale page ``belongs`` selects
        that no surviving node buffers dirty at its committed version:
        its only write-back path died with the node (a page-carrying
        message in flight to it, or its owner's buffer), so it must be
        REDOne.  A surviving dirty copy will still reach storage."""
        nodes = self.cluster.nodes
        for page, committed in self.cluster.ledger.stale_pages():
            if page in record.lost or not belongs(page):
                continue
            if any(
                node.buffer.has_current_dirty(page, committed)
                for node in nodes
                if node.node_id != record.node
            ):
                continue
            record.lost[page] = committed

    # -- page supply by ownership ------------------------------------------

    def grant(
        self, node_id: int, page: PageId, seqno: int, owner: Optional[int]
    ) -> LockGrant:
        """The grant for an entry at ``seqno`` whose page ``owner`` is
        known: fetch from the owner if another live node buffers the
        current version, else read permanent storage (gated behind REDO
        if the crashed owner's copy was lost)."""
        if (
            self._noforce
            and owner is not None
            and owner != node_id
            and not self.is_down(owner)
        ):
            return LockGrant(seqno, source=PageSource.OWNER, owner_node=owner)
        return LockGrant(seqno, source=PageSource.STORAGE)

    def fetch(
        self, txn: Transaction, page: PageId, grant: LockGrant
    ) -> Generator[Event, Any, Optional[int]]:
        """Fetch the current version named by an OWNER ``grant``.

        Returns the received version, or None if it could not be served
        and the permanent database must be read instead.
        """
        self.page_requests += 1
        started = self.sim.now
        version = yield from self._fetch(txn, page, grant)
        if version is None:
            self.page_requests_failed += 1
        else:
            self.page_request_delay.record(self.sim.now - started)
        return version

    def _fetch(
        self, txn: Transaction, page: PageId, grant: LockGrant
    ) -> Generator[Event, Any, Optional[int]]:
        owner = grant.owner_node
        assert owner is not None
        with self.recorder.span(txn.txn_id, phases.PAGE_TRANSFER):
            version = yield from self._transfer(txn.node, page, owner)
        return version

    def _transfer(
        self, node_id: int, page: PageId, owner: int
    ) -> Generator[Event, Any, Optional[int]]:
        """Short page request, long response from the owner's buffer."""
        reply = self.sim.event()
        request: PageRequestPayload = {
            "page": page,
            "reply": reply,
            "requester": node_id,
        }
        payload = yield from self.call(
            owner,
            reply,
            None,
            self.cluster.nodes[node_id].comm.send(owner, "page_req", request),
        )
        if payload is None:
            return None
        version: Optional[int] = payload.get("version")
        return version

    def _handle_page_request(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        """Owner side: return the buffered page, if still cached."""
        version = node.buffer.cached_version(payload["page"])
        response: PageResponsePayload = {"version": version}
        yield from node.comm.send(
            payload["requester"],
            "page_rsp",
            response,
            long=version is not None,
            reply_event=payload["reply"],
        )

    # -- coupling hooks ----------------------------------------------------

    def install(
        self, node_id: int, updates: Sequence[Tuple[PageId, int]]
    ) -> Iterator[Event]:
        """Publish committed page versions (commit, before any release)."""
        return iter(())

    def written_back(self, page: PageId, version: int) -> None:
        """``version`` of ``page`` reached permanent storage."""

    def trim_lost(self, record: "CrashRecord") -> None:
        """Drop pages that survive the crash from ``record.lost``."""

    def lease_wait(self, record: "CrashRecord") -> Iterator[Event]:
        """Wait until the dead node's store state may be reclaimed."""
        return iter(())

    def reintegrate(self, record: "CrashRecord") -> Iterator[Event]:
        """Re-admit the restarted node to the substrate."""
        return iter(())

    def reset_stats(self) -> None:
        self.page_requests = 0
        self.page_requests_failed = 0
        self.page_request_delay.reset()


class SharedStore(PageOwners):
    """A passive store every node accesses synchronously.

    Word operations, in the store's cost model:

    * ``access(n)`` -- ``n`` word accesses (GEM entry accesses, remote
      CAS verbs);
    * ``update(n)`` -- ``n`` read-modify-writes of an entry (GEM: read
      plus Compare&Swap write-back; RDMA: one CAS);
    * ``reread(n)`` -- ``n`` re-reads of a word after a wait or grant.

    ``txn_id`` attributes the time to that transaction's :attr:`phase`;
    release and recovery paths pass None and stay inside the covering
    span.
    """

    #: Breakdown phase of the time spent in store accesses.
    phase: str

    def __init__(self, cluster: "Cluster", server: Resource, op_instr: float) -> None:
        super().__init__(cluster)
        self.server = server
        #: CPU instructions around each word operation.
        self._op_instr = op_instr

    def _access(
        self,
        node_id: int,
        instr: float,
        service_time: float,
        txn_id: Optional[int] = None,
    ) -> Generator[Event, Any, None]:
        """One synchronous store access from ``node_id``: ``instr``
        instructions on one of the node's CPUs, then ``service_time``
        at the store server with that CPU still held
        (:meth:`~repro.node.cpu.CpuPool.synchronous`)."""
        cpu = self.cluster.nodes[node_id].cpu
        with self.recorder.span(txn_id, self.phase):
            yield from cpu.synchronous(self.server, instr, service_time)

    def update(
        self, node_id: int, count: int = 1, txn_id: Optional[int] = None
    ) -> Generator[Event, Any, None]:
        raise NotImplementedError

    def reread(
        self, node_id: int, count: int, txn_id: Optional[int] = None
    ) -> Generator[Event, Any, None]:
        raise NotImplementedError


class GemStore(SharedStore):
    """GEM: entry accesses against the GEM server (Table 4.1)."""

    phase = phases.GEM

    def __init__(self, cluster: "Cluster") -> None:
        gem = cluster.gem
        super().__init__(
            cluster, gem.server, cluster.config.instructions_per_gem_entry_op
        )
        self.gem = gem
        self._via_gem = cluster.config.page_transfer_via_gem

    def access(
        self, node_id: int, count: int, txn_id: Optional[int] = None
    ) -> Generator[Event, Any, None]:
        gem = self.gem
        gem.entry_accesses += count
        return self._access(
            node_id, count * self._op_instr, count * gem.entry_access_time, txn_id
        )

    def update(
        self, node_id: int, count: int = 1, txn_id: Optional[int] = None
    ) -> Generator[Event, Any, None]:
        return self.access(node_id, 2 * count, txn_id)

    def reread(
        self, node_id: int, count: int, txn_id: Optional[int] = None
    ) -> Generator[Event, Any, None]:
        return self.access(node_id, count, txn_id)

    def _transfer(
        self, node_id: int, page: PageId, owner: int
    ) -> Generator[Event, Any, Optional[int]]:
        """With ``page_transfer_via_gem`` (an extension the paper's
        conclusions propose), the owner writes the page to a GEM
        exchange buffer and the requester reads it: one synchronous GEM
        page access plus the GEM I/O initiation on each side instead of
        two messages."""
        if not self._via_gem:
            return (yield from super()._transfer(node_id, page, owner))
        version = self.cluster.nodes[owner].buffer.cached_version(page)
        if version is None:
            return None
        instr = self.config.instructions_per_gem_io
        for side in (owner, node_id):
            yield from self.gem.page_access(self.cluster.nodes[side].cpu, instr)
        return version


class RdmaStore(SharedStore):
    """The disaggregated memory pool, reached by one-sided verbs.

    Owns the **pool residency map** (page -> committed version of the
    pool-resident copy).  Under NOFORCE it is the pool's counterpart
    of GEM's page ownership: installed at commit, dropped once that
    version reached disk.
    """

    phase = phases.RDMA

    def __init__(self, cluster: "Cluster") -> None:
        fabric = cluster.rdma
        if fabric is None:
            raise ValueError("RdmaStore requires an RDMA-coupled cluster")
        super().__init__(
            cluster, fabric.channel, cluster.config.instructions_per_rdma_op
        )
        self.fabric = fabric
        #: Pool-resident committed page copies: page -> version.
        self.pool: Dict[PageId, int] = {}

    def access(
        self, node_id: int, count: int, txn_id: Optional[int] = None
    ) -> Generator[Event, Any, None]:
        fabric = self.fabric
        fabric.cas_ops += count
        return self._access(
            node_id, count * self._op_instr, count * fabric.cas_time, txn_id
        )

    def update(
        self, node_id: int, count: int = 1, txn_id: Optional[int] = None
    ) -> Generator[Event, Any, None]:
        return self.access(node_id, count, txn_id)

    def reread(
        self, node_id: int, count: int, txn_id: Optional[int] = None
    ) -> Generator[Event, Any, None]:
        fabric = self.fabric
        fabric.entry_reads += count
        return self._access(
            node_id, count * self._op_instr, count * fabric.read_time, txn_id
        )

    def current(self, page: PageId, seqno: int) -> bool:
        """True if the pool holds ``page`` at (or beyond) ``seqno``."""
        version = self.pool.get(page)
        return version is not None and version >= seqno

    def grant(
        self, node_id: int, page: PageId, seqno: int, owner: Optional[int]
    ) -> LockGrant:
        """Pool-backed grant: a pool-resident current copy is served by
        a one-sided read no matter which node installed it, and whether
        that node is still alive (``owner`` is only the installer hint)."""
        if self._noforce and self.current(page, seqno):
            return LockGrant(seqno, source=PageSource.OWNER, owner_node=owner)
        return LockGrant(seqno, source=PageSource.STORAGE)

    def _fetch(
        self, txn: Transaction, page: PageId, grant: LockGrant
    ) -> Generator[Event, Any, Optional[int]]:
        """One-sided page read; None when residency lapsed (the copy
        reached disk, so storage is current again)."""
        fabric = self.fabric
        fabric.page_reads += 1
        yield from self._access(
            txn.node, self._op_instr, fabric.page_read_time, txn.txn_id
        )
        version = self.pool.get(page)
        if version is None or version < grant.seqno:
            return None
        return version

    def install(
        self, node_id: int, updates: Sequence[Tuple[PageId, int]]
    ) -> Generator[Event, Any, None]:
        """Write committed pages into the pool (one-sided page writes).

        Records residency and **eagerly invalidates** every other
        node's now-stale cached copy -- at the install instant, in node
        order -- so after this returns no surviving buffer holds an
        unpinned frame older than the installed version.
        """
        if not updates:
            return
        fabric = self.fabric
        count = len(updates)
        fabric.page_writes += count
        yield from self._access(
            node_id, count * self._op_instr, count * fabric.page_write_time
        )
        for page, version in updates:
            if version > self.pool.get(page, 0):
                self.pool[page] = version
            for node in self.cluster.nodes:
                if node.node_id != node_id:
                    node.buffer.invalidate_stale(page, version)

    def written_back(self, page: PageId, version: int) -> None:
        """The pool copy and the permanent copy are now identical."""
        if self.pool.get(page) == version:
            del self.pool[page]

    def trim_lost(self, record: "CrashRecord") -> None:
        """A page whose committed version is pool-resident did not die
        with the node's buffer and needs no REDO -- the structural
        recovery advantage of disaggregated memory.  Runs before the
        fault manager fences ``record.lost``."""
        resident = [
            page
            for page, committed in record.lost.items()
            if self.pool.get(page, 0) >= committed
        ]
        for page in resident:
            del record.lost[page]

    def lease_wait(self, record: "CrashRecord") -> Generator[Event, Any, None]:
        """One-sided state has no server that could revoke a dead
        holder's words: they become reclaimable once its lease expired."""
        expiry = record.crash_time + self.config.rdma_lock_lease_seconds
        if self.sim.now < expiry:
            yield self.sim.timeout(expiry - self.sim.now)

    def reintegrate(self, record: "CrashRecord") -> Generator[Event, Any, None]:
        """Memory-region/queue-pair re-registration, then two
        verification reads: no lock state is rebuilt, but unlike GEM
        the fabric endpoint must be re-established."""
        yield self.sim.timeout(self.config.rdma_reregistration_seconds)
        yield from self.reread(record.node, 2)


def shared_store(cluster: "Cluster", gla_map: Callable[[PageId], int]) -> PageOwners:
    """The cluster's coupling substrate: the shared store (GEM, RDMA),
    or the GLA partitions of loose coupling (PCL, ``gla_map``)."""
    coupling = cluster.config.coupling
    if coupling is Coupling.GEM:
        return GemStore(cluster)
    if coupling is Coupling.RDMA:
        return RdmaStore(cluster)
    from repro.cc.partitions import Partitions

    return Partitions(cluster, gla_map)
