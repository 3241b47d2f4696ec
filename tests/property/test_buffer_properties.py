"""Property-based tests for the buffer manager.

A sequence of committed single-page transactions is replayed against
the buffer while an independent model tracks which pages *must* be
resident; the LRU bound, pin accounting and hit/miss bookkeeping are
checked after every step.  Because the ledger verifies every fetch,
a completed run also certifies coherency.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.base import LockGrant, PageSource
from tests.helpers import MiniNode, make_txn
from repro.workload.transaction import PageAccess


operations = st.lists(
    st.tuples(st.integers(0, 15), st.booleans()),  # (page_no, write?)
    min_size=1,
    max_size=60,
)


class TestBufferModel:
    @given(ops=operations, capacity=st.integers(4, 12))
    @settings(max_examples=40, deadline=None)
    def test_capacity_and_accounting(self, ops, capacity):
        node = MiniNode(buffer_pages=capacity, disk_time=0.0001)
        txn_id = 0
        for page_no, write in ops:
            txn_id += 1
            txn = make_txn(txn_id)
            page = (0, page_no)
            access = PageAccess(page, write=write)
            txn.accesses.append(access)
            grant = LockGrant(
                node.ledger.committed_version(page), source=PageSource.STORAGE
            )
            node.run(node.buffer.access(txn, access, grant))
            assert len(node.buffer) <= capacity
            # The just-touched page must be resident.
            assert node.buffer.cached_version(page) is not None
            # Commit immediately (single-page transactions).
            node.run(node.buffer.commit_phase1(txn))
            for p, v in txn.modified.items():
                node.ledger.install_commit(p, v)
            node.buffer.finish_commit(txn)
        node.sim.run(until=node.sim.now + 5.0)  # drain write-backs
        stats = node.buffer.partition_stats[0]
        assert stats.hits + stats.misses == stats.accesses == len(ops)

    @given(ops=operations)
    @settings(max_examples=30, deadline=None)
    def test_versions_monotone_per_page(self, ops):
        node = MiniNode(buffer_pages=32, disk_time=0.0001)
        last_version = {}
        txn_id = 0
        for page_no, write in ops:
            txn_id += 1
            txn = make_txn(txn_id)
            page = (0, page_no)
            access = PageAccess(page, write=write)
            txn.accesses.append(access)
            grant = LockGrant(
                node.ledger.committed_version(page), source=PageSource.STORAGE
            )
            node.run(node.buffer.access(txn, access, grant))
            node.run(node.buffer.commit_phase1(txn))
            for p, v in txn.modified.items():
                node.ledger.install_commit(p, v)
            node.buffer.finish_commit(txn)
            version = node.ledger.committed_version(page)
            assert version >= last_version.get(page, 0)
            if write:
                assert version == last_version.get(page, 0) + 1
            last_version[page] = version


# -- the write-back candidate: dirty index vs. the linear tail scan ------


def reference_candidate(buffer, scan_depth):
    """First dirty, unpinned, unprotected, not-evicting frame among the
    ``scan_depth`` oldest, by a linear scan of the LRU order."""
    if len(buffer._frames) < buffer.capacity:
        return None
    for index, (page, frame) in enumerate(buffer._frames.items()):
        if index >= scan_depth:
            return None
        if (
            frame.dirty
            and not frame.pins
            and not frame.protects
            and not frame.evicting
        ):
            return page, frame
    return None


def reference_dirty_frames(buffer, predicate=None):
    """Sorted ``(page, version)`` of every dirty frame, from all frames."""
    return sorted(
        (page, frame.version)
        for page, frame in buffer._frames.items()
        if frame.dirty and (predicate is None or predicate(page))
    )


def complete(node, generator):
    """Step the simulator until ``generator`` has finished, leaving any
    other work (write-backs in flight) where it is."""
    done = []

    def proc():
        yield from generator
        done.append(True)

    node.sim.process(proc())
    while not done:
        node.sim.step()


def settle(node):
    """Make every committed version durable whose only buffered copy was
    dropped or cleaned (what REDO or a GLA write would do), so later
    storage reads stay coherent."""
    for page, version in list(node.ledger.stale_pages()):
        if not node.buffer.has_current_dirty(page, version):
            node.ledger.write_storage(page, version)


def odd_page(page):
    return page[1] % 2 == 1


#: Accesses drawn more often than the rest so the buffer fills.
INDEX_OPS = (
    "read", "read", "write", "write", "write", "unlocked",
    "commit", "rollback", "protect", "unprotect",
    "invalidate", "mark_clean", "drop_all", "drain",
)


class TestDirtyIndex:
    """The indexed write-back candidate and ``dirty_frames`` equal a
    linear scan over the LRU order after every buffer operation."""

    @given(
        data=st.data(),
        capacity=st.integers(4, 40),
        force=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_index_matches_linear_scan(self, data, capacity, force):
        node = MiniNode(buffer_pages=capacity, force=force, disk_time=0.0001)
        buffer = node.buffer
        daemon_depth = max(16, capacity // 8)
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(INDEX_OPS),
                    st.integers(0, 2),  # transaction slot
                    st.integers(0, capacity + capacity // 2),  # page number
                ),
                min_size=20,
                max_size=150,
            )
        )
        depth = data.draw(st.integers(1, capacity + 2), label="scan depth")
        open_txns = {}
        locks = {}  # page -> slot holding it (models 2PL exclusion)
        protected = []
        txn_ids = iter(range(1, 10_000))

        def held():
            return sum(
                1 for f in buffer._frames.values() if f.pins or f.protects
            )

        def finish(slot, commit):
            txn = open_txns.pop(slot)
            if commit:
                complete(node, buffer.commit_phase1(txn))
                for page, version in txn.modified.items():
                    node.ledger.install_commit(page, version)
                buffer.finish_commit(txn)
            else:
                buffer.rollback(txn)
            for page in [p for p, s in locks.items() if s == slot]:
                del locks[page]

        def access(slot, page, write, lockable=True):
            if lockable and locks.get(page, slot) != slot:
                return  # another open transaction holds the page
            txn = open_txns.get(slot)
            if txn is None:
                txn = open_txns[slot] = make_txn(next(txn_ids))
            pins_new = write and page not in (
                txn.modified if lockable else txn.modified_unlocked
            )
            if pins_new and held() >= capacity - 1:
                return  # keep one frame evictable
            if (
                buffer.cached_version(page) is None
                and held() + buffer._MAX_WRITEBACKS + 1 >= capacity
            ):
                # In-flight write-backs could mark every spare frame
                # evicting before the miss picks a victim: drain them.
                node.sim.run()
            page_access = PageAccess(
                page, write=write, lockable=lockable, append=not lockable
            )
            txn.accesses.append(page_access)
            grant = (
                LockGrant(
                    node.ledger.committed_version(page),
                    source=PageSource.STORAGE,
                )
                if lockable
                else None
            )
            complete(node, buffer.access(txn, page_access, grant))
            if lockable:
                locks[page] = slot

        for page_no in range(capacity):  # start from a full, dirty buffer
            access(0, (0, page_no), True)
            finish(0, commit=True)
        for kind, slot, page_no in ops:
            page = (0, page_no)
            if kind in ("read", "write"):
                access(slot, page, kind == "write")
            elif kind == "unlocked":
                access(slot, (1, page_no % 3), True, lockable=False)
            elif kind in ("commit", "rollback") and slot in open_txns:
                finish(slot, kind == "commit")
            elif kind == "protect" and held() < capacity - 1:
                if buffer.protect(page):
                    protected.append(page)
            elif kind == "unprotect" and protected:
                buffer.unprotect(protected.pop(page_no % len(protected)))
            elif kind == "invalidate":
                version = buffer.cached_version(page)
                if version is not None:
                    buffer.invalidate_stale(page, version + 1)
            elif kind == "mark_clean":
                own = sorted(open_txns[slot].modified) if slot in open_txns else []
                if own:  # a pinned copy, as PCL ships at commit
                    page = own[page_no % len(own)]
                version = buffer.cached_version(page)
                if version is not None:
                    buffer.mark_clean(page, version)
            elif kind == "drop_all":
                buffer.drop_all()  # a crash: open transactions abort
                for open_slot in sorted(open_txns):
                    finish(open_slot, commit=False)
                protected.clear()
            elif kind == "drain":
                node.sim.run()
            settle(node)
            assert list(buffer._dirty) == [
                p for p, f in buffer._frames.items() if f.dirty
            ]
            depths = {1, daemon_depth, depth, capacity, capacity + 1}
            oldest = reference_candidate(buffer, capacity + 1)
            if oldest is not None:  # the tail just misses / just holds it
                position = list(buffer._frames).index(oldest[0])
                depths.update((position, position + 1))
            for scan_depth in sorted(depths - {0}):
                assert buffer._oldest_dirty_unpinned(
                    scan_depth
                ) == reference_candidate(buffer, scan_depth)
            assert buffer.dirty_frames() == reference_dirty_frames(buffer)
            assert buffer.dirty_frames(odd_page) == reference_dirty_frames(
                buffer, odd_page
            )
