"""Protocol interface shared by every concurrency-control protocol.

The buffer manager drives coherency control through the
:class:`LockGrant` a protocol returns from :meth:`CCProtocol.acquire`:
it names the current page sequence number and where the current page
version can be obtained if the local copy is missing or stale
(:class:`PageSource`).
"""

from __future__ import annotations

import enum
from typing import (
    Any,
    Dict,
    Generator,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    TYPE_CHECKING,
)

from repro.db.pages import PageId
from repro.errors import TransactionAborted
from repro.sim.engine import Event
from repro.workload.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.cc.store import PageOwners
    from repro.faults.manager import CrashRecord, FaultManager
    from repro.node.lock_table import LockMode, LockTable
    from repro.sim.stats import Tally
    from repro.system.cluster import Cluster

__all__ = ["PageSource", "LockGrant", "CCProtocol"]


class PageSource(str, enum.Enum):
    """Where the current version of a page can be obtained."""

    #: Read the permanent database (disk / disk cache / GEM file).
    STORAGE = "storage"
    #: Fetch the page from the shared store's page supply: the owning
    #: node's buffer (GEM + NOFORCE) or the pool copy (RDMA).
    OWNER = "owner"
    #: The page arrived together with the lock grant (PCL + NOFORCE).
    SUPPLIED = "supplied"


class LockGrant:
    """Result of a lock acquisition."""

    __slots__ = ("seqno", "source", "owner_node", "local", "page_supplied")

    def __init__(
        self,
        seqno: int,
        source: PageSource = PageSource.STORAGE,
        owner_node: Optional[int] = None,
        local: bool = True,
        page_supplied: bool = False,
    ) -> None:
        #: Current (committed) page sequence number.
        self.seqno = seqno
        #: Where to obtain the page on a buffer miss or invalidation.
        self.source = source
        #: Owning node for :attr:`PageSource.OWNER`.
        self.owner_node = owner_node
        #: True if the lock was processed without inter-node messages.
        self.local = local
        #: True if the current page version travelled with the grant.
        self.page_supplied = page_supplied

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LockGrant(seqno={self.seqno}, source={self.source.value}, "
            f"owner={self.owner_node}, local={self.local})"
        )


class CCProtocol:
    """Abstract concurrency/coherency control protocol."""

    name = "abstract"

    #: Multi-version protocols keep superseded committed versions
    #: readable: the buffer manager serves a read whose grant names an
    #: older version from the (modelled) version chain instead of
    #: raising a coherency error, and skips the strict storage-version
    #: check on misses.
    multiversion = False

    #: The coupling substrate the protocol runs on.
    store: "PageOwners"
    #: Lock (or validation, batch) wait durations.
    lock_wait_time: "Tally"
    #: Requests processed without / with inter-node messages.
    local_lock_requests = 0
    remote_lock_requests = 0
    pages_supplied_with_grant = 0

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = cluster.config
        self.detector = cluster.detector
        self.recorder = cluster.recorder

    def _lock(
        self,
        txn_id: int,
        table: "LockTable",
        page: PageId,
        mode: "LockMode",
        phase: str,
    ) -> Optional[Generator[Event, Any, None]]:
        """Request a 2PL lock in ``table``, waiting with deadlock handling.

        Immediate grants (the common case) return None -- no wait event
        is allocated.  A conflict returns the waiting generator, which
        raises :class:`~repro.errors.TransactionAborted` if the
        transaction is chosen as a deadlock victim.  ``phase``
        classifies the wait in the response-time breakdown.
        """
        wait_event: Optional[Event] = None

        def on_grant() -> None:
            self.detector.clear(txn_id)
            assert wait_event is not None  # created before any queueing
            wait_event.succeed()

        if table.request(txn_id, page, mode, on_grant):
            return None
        wait_event = self.sim.event()
        return self._lock_wait(txn_id, table, page, wait_event, phase)

    def _lock_wait(
        self,
        txn_id: int,
        table: "LockTable",
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

    def acquire(
        self, txn: Transaction, page: PageId, write: bool, cached_version: Optional[int]
    ) -> Generator[Event, Any, LockGrant]:
        """Acquire a page lock for ``txn`` (S for reads, X for writes).

        ``cached_version`` is the version of the local buffer copy, or
        None when the page is not cached; PCL ships the current page
        with the grant when the copy is stale.  May raise
        :class:`~repro.errors.TransactionAborted`.
        """
        raise NotImplementedError

    def request_page_from_owner(
        self, txn: Transaction, page: PageId, grant: LockGrant
    ) -> Generator[Event, Any, Optional[int]]:
        """Fetch the page an OWNER ``grant`` names (owner's buffer or pool).

        Returns the received version, or None if ownership lapsed and
        the permanent database must be read instead.
        """
        return self.store.fetch(txn, page, grant)

    def commit_release(self, txn: Transaction) -> Generator[Event, Any, None]:
        """Commit phase 2: publish new sequence numbers, release locks.

        The caller has already installed the committed versions in the
        ledger and (for FORCE) completed all force-writes.
        """
        raise NotImplementedError

    def prepare_commit(self, txn: Transaction) -> Iterator[Event]:
        """Commit phase 0: validate before any commit work is done.

        Runs inside the COMMIT span before the log write.  Optimistic
        protocols validate their read set here and raise
        :class:`~repro.errors.TransactionAborted` on failure, which
        flows into the normal rollback/restart path.  The default is a
        zero-event no-op so locking protocols are unaffected.
        """
        return iter(())

    def abort_release(self, txn: Transaction) -> Generator[Event, Any, None]:
        """Release everything after an abort (no publications).

        Must be idempotent and interruption-safe: a crash can cut the
        release short mid-generator and the fault path (or a racing
        second abort) may run it again -- already-released entries are
        skipped, never double-released.
        """
        raise NotImplementedError

    def page_written_back(
        self, node_id: int, page: PageId, version: int
    ) -> Generator[Event, Any, None]:
        """A node wrote a committed dirty page to permanent storage.

        Store-based protocols clear the page-owner entry (and pool
        residency) so that future readers go to storage; PCL needs no
        action (the GLA stays responsible).
        """
        raise NotImplementedError

    # -- fault injection hooks -----------------------------------------
    #
    # Called by repro.faults.FaultManager.  The base implementations do
    # nothing, so protocols without special failure handling keep
    # working (the generic teardown in the manager is still applied).

    def lock_tables(self) -> Sequence["LockTable"]:
        """All lock tables the protocol maintains (crash cleanup scans
        them for queued requests of transactions killed by a crash)."""
        return ()

    # -- introspection / result collection -----------------------------

    def num_blocked(self) -> int:
        """Transactions currently waiting inside the protocol (lock
        queues, validation waits, epoch barriers)."""
        return sum(table.num_blocked() for table in self.lock_tables())

    def lock_stats(self) -> Dict[str, float]:
        """CC-path statistics for result collection.

        Required keys: ``local_share``,
        ``remote_lock_requests``, ``lock_requests``, ``mean_lock_wait``,
        ``page_requests``, ``mean_page_request_delay`` and
        ``pages_supplied_with_grant``.
        """
        total = self.local_lock_requests + self.remote_lock_requests
        return {
            "local_share": self.local_lock_requests / total if total else 1.0,
            "remote_lock_requests": float(self.remote_lock_requests),
            "lock_requests": float(total),
            "mean_lock_wait": self.lock_wait_time.mean,
            "page_requests": float(self.store.page_requests),
            "mean_page_request_delay": self.store.page_request_delay.mean,
            "pages_supplied_with_grant": float(self.pages_supplied_with_grant),
        }

    def reset_stats(self) -> None:
        """Start a measurement window: zero the CC-path statistics."""
        self.lock_wait_time.reset()
        self.store.reset_stats()
        self.local_lock_requests = 0
        self.remote_lock_requests = 0
        self.pages_supplied_with_grant = 0
        for table in self.lock_tables():
            table.requests = 0
            table.immediate_grants = 0
            table.waits = 0

    def _reply_grant(self, seqno: int, payload: Mapping[str, Any]) -> LockGrant:
        """The grant a remote host answered with; the current page
        version travelled with the (long) reply when it was supplied."""
        supplied = bool(payload.get("supplied"))
        if supplied:
            self.pages_supplied_with_grant += 1
        return LockGrant(
            seqno,
            source=PageSource.SUPPLIED if supplied else PageSource.STORAGE,
            local=False,
            page_supplied=supplied,
        )

    def crash_node(self, faults: "FaultManager", record: "CrashRecord") -> None:
        """Synchronous protocol bookkeeping at the instant of a crash.

        Runs inside the crash event, before any other process can
        observe the failure.  Use it to fence off state that must not
        be served during recovery and to extend ``record.lost`` with
        pages whose only current copy died with the node.
        """

    def recover(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        """Replay the regime's failover protocol (takes simulated time).

        When this generator finishes, surviving nodes must be able to
        process the full workload again.
        """
        return
        yield  # pragma: no cover - makes this a generator

    def reintegrate(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        """Bring the restarted node back into the protocol.

        Runs after the node has been marked up again and has paid its
        restart CPU cost.
        """
        return
        yield  # pragma: no cover - makes this a generator
