"""Main-memory database buffer with LRU replacement and logging.

Implements section 3.2's buffer manager:

* LRU page replacement over a fixed number of frames;
* detection of **buffer invalidations** by comparing the cached page
  sequence number with the one supplied by concurrency control;
* page fetch from the right source on a miss: permanent storage, the
  owning node's buffer (GEM locking + NOFORCE), or a copy that arrived
  with the lock grant (PCL + NOFORCE);
* update propagation: FORCE writes all modified pages at commit;
  NOFORCE keeps committed dirty pages in the buffer and writes them
  back on eviction (notifying the protocol so ownership information is
  kept consistent);
* logging: one log page per update transaction at commit (phase 1).

Pages modified by *active* transactions are pinned (no-steal policy),
so storage never sees uncommitted versions; see DESIGN.md.

Every fetch verifies the obtained version against the version promised
by concurrency control and against the global ledger -- any protocol
bug surfaces as a :class:`~repro.db.pages.CoherencyError` instead of a
silently wrong result.
"""

from __future__ import annotations

from itertools import islice
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterator,
    List,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

from repro.cc.base import LockGrant, PageSource
from repro.db.pages import CoherencyError, PageId, VersionLedger
from repro.errors import BufferFullError
from repro.obs import phases
from repro.sim.engine import Event
from repro.workload.transaction import PageAccess, Transaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.node.node import Node

__all__ = ["BufferManager", "PartitionBufferStats"]


class _Frame:
    __slots__ = (
        "version", "dirty", "pins", "protects", "evicting", "prev_dirty", "stamp"
    )

    def __init__(self, version: int, stamp: int) -> None:
        self.version = version
        #: Set and cleared only through ``BufferManager._mark_dirty`` /
        #: ``_mark_clean``, which keep the dirty index in step.
        self.dirty = False
        self.pins = 0
        #: Protection against *capacity* eviction while a lock request
        #: naming this copy's version is in flight (a stale copy may
        #: still be dropped on invalidation).
        self.protects = 0
        self.evicting = False
        #: Dirty state before the active transaction's modification;
        #: restored on rollback (the pre-image may be this node's
        #: committed dirty copy that must not be lost).
        self.prev_dirty = False
        #: LRU position: renewed on every insert and move-to-end, so
        #: stamps strictly ascend along the buffer's LRU order.
        self.stamp = stamp


class PartitionBufferStats:
    """Hit/miss/invalidation counters for one partition at one node."""

    __slots__ = ("accesses", "hits", "misses", "invalidations")

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0


class BufferManager:
    """The database buffer of one processing node."""

    #: Maximum concurrent asynchronous write-backs per node.
    _MAX_WRITEBACKS = 8

    def __init__(self, node: "Node", capacity: int, ledger: VersionLedger) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.node = node
        self.sim = node.sim
        self.capacity = capacity
        self.ledger = ledger
        # LRU order is dict insertion order: oldest first, and
        # move-to-end is pop then reinsert (``_touch``).  ``_dirty``
        # holds the dirty frames in the same order, so the write-back
        # daemon finds its candidate without scanning the clean tail.
        self._frames: Dict[PageId, _Frame] = {}
        self._dirty: Dict[PageId, _Frame] = {}
        self._clock = 0
        self.partition_stats: Dict[int, PartitionBufferStats] = {}
        self.evictions = 0
        self.eviction_writes = 0
        self.writeback_writes = 0
        self.force_writes = 0
        self.log_writes = 0
        # Asynchronous write-back daemon: keeps the LRU tail clean so
        # that replacement rarely has to write a dirty victim on the
        # critical path of a transaction (like a DBMS's database
        # writer).  It only acts under replacement pressure -- NOFORCE
        # assumes fuzzy checkpointing with negligible overhead, so hot
        # dirty pages are not rewritten gratuitously.
        self._writer_signal = None
        self._outstanding_writebacks = 0
        self.sim.process(self._writeback_daemon(), name=f"writeback-{node.node_id}")

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._frames)

    def cached_version(self, page: PageId) -> Optional[int]:
        frame = self._frames.get(page)
        return frame.version if frame is not None else None

    def has_current_version(self, page: PageId, seqno: int) -> bool:
        frame = self._frames.get(page)
        return frame is not None and frame.version == seqno

    def has_current_dirty(self, page: PageId, seqno: int) -> bool:
        """True if this buffer holds the current version *and* the
        permanent database is stale (the copy is dirty).  Only then
        must a PCL grant carry the page -- otherwise the requester can
        read the permanent database."""
        frame = self._frames.get(page)
        return frame is not None and frame.version == seqno and frame.dirty

    def protect(self, page: PageId) -> bool:
        """Shield a cached copy from capacity eviction while a lock
        request naming its version is in flight.  Returns True if a
        frame was protected (pair with :meth:`unprotect`)."""
        frame = self._frames.get(page)
        if frame is None:
            return False
        frame.protects += 1
        return True

    def unprotect(self, page: PageId) -> None:
        frame = self._frames.get(page)
        if frame is not None and frame.protects > 0:
            frame.protects -= 1

    def drop_all(self) -> None:
        """Crash teardown: the node's volatile buffer content is lost.

        The fault manager snapshots redo-relevant dirty frames *before*
        calling this.  In-flight write-backs and evictions observe the
        frame vanishing (their ``self._frames.get(page) is frame``
        guards fail) and leave it dropped.
        """
        self._frames.clear()
        self._dirty.clear()

    def dirty_frames(
        self, predicate: Optional[Callable[[PageId], bool]] = None
    ) -> List[Tuple[PageId, int]]:
        """Sorted ``(page, version)`` of dirty frames (fault recovery).

        ``predicate`` filters by page; pass None for all dirty frames.
        """
        return sorted(
            (page, frame.version)
            for page, frame in self._dirty.items()
            if predicate is None or predicate(page)
        )

    def mark_clean(self, page: PageId, version: int) -> None:
        """Responsibility for writing ``page`` moved elsewhere (PCL:
        the modified page was shipped to its GLA node at commit)."""
        frame = self._frames.get(page)
        if frame is not None and frame.version == version:
            self._mark_clean(page, frame)

    def invalidate_stale(self, page: PageId, current: int) -> None:
        """Drop a cached copy older than ``current`` (MVCC validation
        failure: the snapshot the copy served was superseded, and the
        restarted transaction must refetch rather than re-read the same
        stale frame forever).  Pinned or current frames are left alone.
        """
        frame = self._frames.get(page)
        if frame is not None and frame.version < current and not frame.pins:
            self._remove(page)

    @property
    def _multiversion(self) -> bool:
        """Whether the attached protocol maintains version chains.

        Resolved late (the protocol is wired up after construction) and
        tolerant of protocol stand-ins that predate the attribute.
        """
        return bool(getattr(self.node.protocol, "multiversion", False))

    def _stats_for(self, partition_index: int) -> PartitionBufferStats:
        stats = self.partition_stats.get(partition_index)
        if stats is None:
            stats = PartitionBufferStats()
            self.partition_stats[partition_index] = stats
        return stats

    # -- the access path -----------------------------------------------------

    def access(
        self,
        txn: Transaction,
        page_access: PageAccess,
        grant: Optional[LockGrant],
    ) -> Iterator[Event]:
        """Bring the page into the buffer and apply the access.

        Buffer hits complete synchronously, so this is a plain function
        returning an empty iterator on the hit path (callers delegate
        with ``yield from``, which exhausts it without suspending); only
        a miss returns a real generator.  The synchronous prefix runs at
        call time, which under ``yield from`` is the same instant the
        generator body would have started.
        """
        page = page_access.page
        first_touch = page not in txn.touched_pages
        txn.touched_pages.add(page)
        stats = self._stats_for(page[0])
        if first_touch:
            stats.accesses += 1
        if not page_access.lockable:
            return self._access_unlocked(txn, page_access, stats, first_touch)
        expected = self._expected_version(txn, page, grant)
        frame = self._frames.get(page)
        if frame is not None:
            if frame.version == expected:
                if first_touch:
                    stats.hits += 1
                self._touch(page, frame)
                if page_access.write:
                    self._apply_write(txn, page, expected)
                return iter(())
            if frame.version > expected:
                if not page_access.write and self._multiversion:
                    # Multi-version read: the frame holds a newer
                    # (possibly uncommitted, pinned) version; the
                    # version chain still serves the older committed
                    # version the grant promised -- a hit, no I/O.
                    if first_touch:
                        stats.hits += 1
                    self._touch(page, frame)
                    return iter(())
                raise CoherencyError(
                    f"node {self.node.node_id} caches page {page} version "
                    f"{frame.version}, newer than promised {expected}"
                )
            # Buffer invalidation: cached copy is obsolete.
            stats.invalidations += 1
            stats.misses += 1
            self._drop_stale_frame(page, frame)
        elif first_touch:
            stats.misses += 1
        return self._access_miss(txn, page_access, expected, grant)

    def _access_miss(
        self,
        txn: Transaction,
        page_access: PageAccess,
        expected: int,
        grant: Optional[LockGrant],
    ) -> Generator[Event, Any, None]:
        # ``_fetch`` is inlined here: the miss path is the deepest
        # yield-from chain in the model (lifecycle -> buffer -> storage
        # -> device) and every removed level takes one frame walk off
        # every resume of the transaction.
        page = page_access.page
        with self.node.recorder.span(txn.txn_id, phases.IO):
            if grant is not None and grant.page_supplied:
                # Current version arrived with the lock grant
                # (PCL+NOFORCE); the transfer delay was part of the
                # grant message exchange.
                yield from self._insert(page, expected, dirty=False)
            else:
                version: Optional[int] = None
                if grant is not None and grant.source is PageSource.OWNER:
                    txn.page_requests += 1
                    version = yield from self.node.protocol.request_page_from_owner(
                        txn, page, grant
                    )
                    if version is not None and version != expected:
                        if (
                            version > expected
                            and not page_access.write
                            and self._multiversion
                        ):
                            # The owner moved ahead of the read
                            # snapshot; the chain serves the promised
                            # version from the shipped copy.
                            pass
                        else:
                            raise CoherencyError(
                                f"owner supplied page {page} version {version}, "
                                f"expected {expected}"
                            )
                    # On ``None`` the ownership lapsed (owner wrote the
                    # page out); fall through to a storage read, which
                    # is guaranteed current again.
                if version is None:
                    version = yield from self.node.storage.read(page, self.node.cpu)
                    if not page_access.write and self._multiversion:
                        # Multi-version read: storage versions only
                        # grow, so anything at or above the promised
                        # snapshot keeps that snapshot readable through
                        # the chain; below it is a genuine protocol bug.
                        if version < expected:
                            self.ledger.check_storage_current(page, expected)
                        version = max(version, expected)
                    else:
                        self.ledger.check_storage_current(page, expected)
                yield from self._insert(page, version, dirty=False)
        if page_access.write:
            self._apply_write(txn, page, expected)

    def _access_unlocked(
        self,
        txn: Transaction,
        page_access: PageAccess,
        stats: PartitionBufferStats,
        first_touch: bool,
    ) -> Generator[Event, Any, None]:
        """Access to a latch-protected partition (HISTORY).

        Such pages carry no version semantics: they are synchronized by
        latches outside page locking (and in the debit-credit model are
        node-private append pages), so any cached copy is current.
        """
        page = page_access.page
        frame = self._frames.get(page)
        if frame is not None:
            if first_touch:
                stats.hits += 1
            self._touch(page, frame)
        else:
            if first_touch:
                stats.misses += 1
            with self.node.recorder.span(txn.txn_id, phases.IO):
                if not page_access.append:
                    yield from self.node.storage.read(page, self.node.cpu)
                # Appends allocate the fresh page directly in the buffer.
                yield from self._insert(page, 0, dirty=False)
            frame = self._frames.get(page)
        if page_access.write and page not in txn.modified_unlocked:
            txn.modified_unlocked.add(page)
            if frame is not None:
                self._mark_dirty(page, frame)
                frame.pins += 1

    def _expected_version(
        self, txn: Transaction, page: PageId, grant: Optional[LockGrant]
    ) -> int:
        if page in txn.modified:
            return txn.modified[page]
        if grant is None:
            raise RuntimeError("lockable access without a lock grant")
        return grant.seqno

    def _drop_stale_frame(self, page: PageId, frame: _Frame) -> None:
        # A stale frame may legitimately be dirty: this node was the
        # page owner, another node fetched the page, modified it and
        # took over ownership.  Dropping the old version is safe -- the
        # current version lives at the new owner (or on storage).  A
        # *pinned* stale frame however means an active local
        # modification without the X lock: a protocol bug.
        if frame.pins:
            raise CoherencyError(
                f"stale frame for page {page} at node {self.node.node_id} "
                "is pinned -- protocol bug"
            )
        if frame.evicting:
            # A write-back of the old version is in flight; the evictor
            # will notice the frame vanished and leave it dropped.
            pass
        self._remove(page)

    def _apply_write(self, txn: Transaction, page: PageId, expected: int) -> None:
        frame = self._frames.get(page)
        if frame is None:
            raise RuntimeError(f"write to page {page} that is not buffered")
        if page in txn.modified:
            return  # version already advanced by this transaction
        new_version = expected + 1
        txn.modified[page] = new_version
        frame.prev_dirty = frame.dirty
        frame.version = new_version
        self._mark_dirty(page, frame)
        frame.pins += 1  # no-steal: pinned until commit/abort

    # -- frame insertion and replacement ------------------------------------

    def _insert(
        self, page: PageId, version: int, dirty: bool
    ) -> Generator[Event, Any, None]:
        existing = self._frames.get(page)
        if existing is not None:
            # A concurrent fetch raced us; keep the newest version.
            self._touch(page, existing)
            if version > existing.version:
                existing.version = version
                if dirty:
                    self._mark_dirty(page, existing)
            return
        yield from self._ensure_space()
        replaced = self._frames.get(page)
        if replaced is None:
            self._clock += 1
            frame = _Frame(version, self._clock)
        else:
            # A concurrent fetch inserted the page while space was
            # being made: the new frame takes over its LRU slot (dict
            # assignment keeps the key's position).
            frame = _Frame(version, replaced.stamp)
            self._mark_clean(page, replaced)
        self._frames[page] = frame
        if dirty:
            self._mark_dirty(page, frame)

    # -- LRU order and dirty index -----------------------------------------
    # Apart from ``_insert`` adding a frame and ``drop_all``, only these
    # helpers change ``_frames`` or ``_dirty`` or flip a buffered
    # frame's ``dirty`` flag.

    def _touch(self, page: PageId, frame: _Frame) -> None:
        """Move ``frame`` to the most recently used end."""
        frames = self._frames
        del frames[page]
        frames[page] = frame
        self._clock += 1
        frame.stamp = self._clock
        if frame.dirty:
            dirty = self._dirty
            del dirty[page]
            dirty[page] = frame

    def _mark_dirty(self, page: PageId, frame: _Frame) -> None:
        if frame.dirty:
            return
        frame.dirty = True
        dirty = self._dirty
        if dirty and next(reversed(dirty.values())).stamp > frame.stamp:
            # Dirtied away from the MRU end (a rollback restoring a
            # committed dirty copy that was cleaned meanwhile, or a
            # dirty page received into a raced slot): rare, so rebuild
            # the index in LRU order.
            self._dirty = {p: f for p, f in self._frames.items() if f.dirty}
        else:
            dirty[page] = frame

    def _mark_clean(self, page: PageId, frame: _Frame) -> None:
        if frame.dirty:
            frame.dirty = False
            del self._dirty[page]

    def _remove(self, page: PageId) -> None:
        frame = self._frames.pop(page)
        if frame.dirty:
            del self._dirty[page]

    def insert_received_page(
        self, page: PageId, version: int, dirty: bool
    ) -> Generator[Event, Any, None]:
        """Insert a page that arrived by message (GLA receiving a commit
        page transfer, or a page request response)."""
        yield from self._insert(page, version, dirty)

    # -- asynchronous write-back ------------------------------------------

    def _notify_writer(self) -> None:
        if self._writer_signal is not None and not self._writer_signal.triggered:
            self._writer_signal.succeed()

    def _writeback_daemon(self) -> Generator[Event, Any, None]:
        """Clean dirty frames near the LRU end, off the critical path.

        Runs up to ``_MAX_WRITEBACKS`` concurrent page writes so that
        the cleaning rate can match the dirty-page production rate of a
        loaded node.
        """
        scan_depth = max(16, self.capacity // 8)
        while True:
            started = False
            while self._outstanding_writebacks < self._MAX_WRITEBACKS:
                candidate = self._oldest_dirty_unpinned(scan_depth)
                if candidate is None:
                    break
                page, frame = candidate
                frame.evicting = True
                self._outstanding_writebacks += 1
                self.sim.process(
                    self._writeback_one(page, frame), name="writeback"
                )
                started = True
            if not started or self._outstanding_writebacks >= self._MAX_WRITEBACKS:
                self._writer_signal = self.sim.event()
                yield self._writer_signal
                self._writer_signal = None

    def _writeback_one(
        self, page: PageId, frame: _Frame
    ) -> Generator[Event, Any, None]:
        version = frame.version
        self.writeback_writes += 1
        try:
            yield from self.node.storage.write(page, version, self.node.cpu)
        finally:
            frame.evicting = False
            self._outstanding_writebacks -= 1
        current = self._frames.get(page)
        if current is frame and frame.version == version:
            self._mark_clean(page, frame)
            if self.node.database.by_index(page[0]).lockable:
                yield from self.node.protocol.page_written_back(
                    self.node.node_id, page, version
                )
        self._notify_writer()

    def _oldest_dirty_unpinned(
        self, scan_depth: int
    ) -> Optional[Tuple[PageId, _Frame]]:
        """First dirty, unpinned frame among the ``scan_depth`` oldest.

        Returns None when the buffer is not full (no replacement
        pressure) or the tail is already clean.  Walks the dirty index,
        not the tail: stamps ascend along the LRU order, so a frame is
        in the tail exactly when its stamp is below that of the frame
        at position ``scan_depth``.
        """
        frames = self._frames
        dirty = self._dirty
        if not dirty or len(frames) < self.capacity:
            return None
        if scan_depth < len(frames):
            limit = next(islice(frames.values(), scan_depth, None)).stamp
        else:
            limit = self._clock + 1
        for page, frame in dirty.items():
            if frame.stamp >= limit:
                return None
            if not frame.pins and not frame.protects and not frame.evicting:
                return page, frame
        return None

    def _ensure_space(self) -> Generator[Event, Any, None]:
        while len(self._frames) >= self.capacity:
            self._notify_writer()
            victim_page, victim = self._choose_victim()
            if victim.dirty:
                victim.evicting = True
                version = victim.version
                self.eviction_writes += 1
                yield from self.node.storage.write(victim_page, version, self.node.cpu)
                current = self._frames.get(victim_page)
                if current is not victim or victim.version != version or victim.pins:
                    # The frame was touched/re-dirtied during the write;
                    # leave it cached, its newer version is still owned.
                    victim.evicting = False
                    continue
                victim.evicting = False
                self._remove(victim_page)
                self.evictions += 1
                if self.node.database.by_index(victim_page[0]).lockable:
                    yield from self.node.protocol.page_written_back(
                        self.node.node_id, victim_page, version
                    )
            else:
                self._remove(victim_page)
                self.evictions += 1

    def _choose_victim(self) -> Tuple[PageId, _Frame]:
        # Prefer clean victims (the write-back daemon keeps the tail
        # clean); fall back to a synchronous dirty write-out.
        fallback = None
        for page, frame in self._frames.items():  # LRU order
            if frame.pins == 0 and frame.protects == 0 and not frame.evicting:
                if not frame.dirty:
                    return page, frame
                if fallback is None:
                    fallback = (page, frame)
        if fallback is not None:
            return fallback
        raise BufferFullError(
            f"node {self.node.node_id}: all {self.capacity} frames pinned; "
            "increase buffer size or lower MPL"
        )

    # -- commit and abort ------------------------------------------------------

    def commit_phase1(self, txn: Transaction) -> Generator[Event, Any, None]:
        """Write log data and (FORCE) force all modified pages."""
        if txn.is_update:
            self.log_writes += 1
            yield from self.node.storage.write_log(txn.node, self.node.cpu)
        if self.node.config.force and (txn.modified or txn.modified_unlocked):
            writes = [
                self.sim.process(
                    self._force_write(page, version), name="force-write"
                )
                for page, version in txn.modified.items()
            ]
            # Sorted: modified_unlocked is a set and process spawn order
            # feeds the event schedule.
            writes.extend(
                self.sim.process(self._force_write(page, None), name="force-write")
                for page in sorted(txn.modified_unlocked)
            )
            yield self.sim.all_of(writes)

    def _force_write(
        self, page: PageId, version: Optional[int]
    ) -> Generator[Event, Any, None]:
        self.force_writes += 1
        yield from self.node.storage.write(page, version, self.node.cpu)
        frame = self._frames.get(page)
        if frame is not None and (version is None or frame.version == version):
            self._mark_clean(page, frame)

    def finish_commit(self, txn: Transaction) -> None:
        """Unpin the transaction's modified pages (end of commit)."""
        for page in txn.modified:
            frame = self._frames.get(page)
            if frame is not None and frame.pins > 0:
                frame.pins -= 1
        self._unpin_unlocked(txn)

    def rollback(self, txn: Transaction) -> None:
        """Undo uncommitted page versions after an abort.

        The frame is restored to its pre-modification state (version
        and dirtiness): if this node owned the committed dirty copy,
        simply dropping the frame would lose that copy while global
        ownership metadata still points here.
        """
        for page, version in txn.modified.items():
            frame = self._frames.get(page)
            if frame is not None and frame.version == version:
                frame.pins = max(0, frame.pins - 1)
                frame.version = version - 1
                if frame.prev_dirty:
                    self._mark_dirty(page, frame)
                else:
                    self._mark_clean(page, frame)
        self._unpin_unlocked(txn)

    def _unpin_unlocked(self, txn: Transaction) -> None:
        for page in sorted(txn.modified_unlocked):
            frame = self._frames.get(page)
            if frame is not None and frame.pins > 0:
                frame.pins -= 1

    # -- statistics ----------------------------------------------------------

    def hit_ratio(self, partition_index: int) -> float:
        stats = self.partition_stats.get(partition_index)
        return stats.hit_ratio() if stats else 0.0

    def reset_stats(self) -> None:
        for stats in self.partition_stats.values():
            stats.reset()
        self.evictions = 0
        self.eviction_writes = 0
        self.writeback_writes = 0
        self.force_writes = 0
        self.log_writes = 0
