"""Unit tests for the buffer manager (LRU, invalidation, FORCE/NOFORCE)."""

import pytest

from repro.cc.base import LockGrant, PageSource
from repro.db.pages import CoherencyError
from repro.errors import BufferFullError

from tests.helpers import MiniNode, make_txn, read_access, write_access


def grant_for(node, page, seqno=None):
    if seqno is None:
        seqno = node.ledger.committed_version(page)
    return LockGrant(seqno, source=PageSource.STORAGE)


def do_access(node, txn, access, grant=None):
    if grant is None and access.lockable:
        grant = grant_for(node, access.page)
    if access not in txn.accesses:
        txn.accesses.append(access)  # keep txn.is_update consistent
    return node.run(node.buffer.access(txn, access, grant))


def commit(node, txn):
    node.run(node.buffer.commit_phase1(txn))
    for page, version in txn.modified.items():
        node.ledger.install_commit(page, version)
    node.buffer.finish_commit(txn)


class TestHitsAndMisses:
    def test_miss_then_hit(self):
        node = MiniNode()
        txn1, txn2 = make_txn(1), make_txn(2)
        do_access(node, txn1, read_access((0, 5)))
        do_access(node, txn2, read_access((0, 5)))
        stats = node.buffer.partition_stats[0]
        assert stats.misses == 1
        assert stats.hits == 1
        assert node.data_disks.reads == 1

    def test_repeat_access_same_txn_not_counted(self):
        node = MiniNode()
        txn = make_txn()
        do_access(node, txn, read_access((0, 5)))
        do_access(node, txn, read_access((0, 5)))
        stats = node.buffer.partition_stats[0]
        assert stats.accesses == 1
        assert stats.hits + stats.misses == 1

    def test_miss_costs_disk_time(self):
        node = MiniNode()
        txn = make_txn()
        start = node.sim.now
        do_access(node, txn, read_access((0, 5)))
        assert node.sim.now - start > 0.01  # disk path

    def test_cached_version_reporting(self):
        node = MiniNode()
        txn = make_txn()
        assert node.buffer.cached_version((0, 5)) is None
        do_access(node, txn, read_access((0, 5)))
        assert node.buffer.cached_version((0, 5)) == 0


class TestWritesAndVersions:
    def test_write_advances_version_and_pins(self):
        node = MiniNode()
        txn = make_txn()
        do_access(node, txn, write_access((0, 5)))
        assert txn.modified[(0, 5)] == 1
        assert node.buffer.cached_version((0, 5)) == 1

    def test_second_write_same_txn_does_not_advance(self):
        node = MiniNode()
        txn = make_txn()
        do_access(node, txn, write_access((0, 5)))
        do_access(node, txn, write_access((0, 5)))
        assert txn.modified[(0, 5)] == 1

    def test_sequence_of_committed_writers(self):
        node = MiniNode()
        for i in range(1, 4):
            txn = make_txn(i)
            do_access(node, txn, write_access((0, 5)),
                      grant_for(node, (0, 5)))
            commit(node, txn)
        assert node.ledger.committed_version((0, 5)) == 3

    def test_stale_cached_copy_detected_as_invalidation(self):
        node = MiniNode()
        txn1 = make_txn(1)
        do_access(node, txn1, read_access((0, 5)))
        # Simulate a remote commit: committed version moves to 1 and
        # storage is updated.
        node.ledger.install_commit((0, 5), 1)
        node.ledger.write_storage((0, 5), 1)
        txn2 = make_txn(2)
        do_access(node, txn2, read_access((0, 5)), LockGrant(1))
        stats = node.buffer.partition_stats[0]
        assert stats.invalidations == 1
        assert node.buffer.cached_version((0, 5)) == 1

    def test_newer_than_promised_raises(self):
        node = MiniNode()
        txn1 = make_txn(1)
        do_access(node, txn1, write_access((0, 5)))
        commit(node, txn1)
        txn2 = make_txn(2)
        with pytest.raises(CoherencyError):
            do_access(node, txn2, read_access((0, 5)), LockGrant(0))

    def test_stale_storage_read_raises(self):
        node = MiniNode()
        txn = make_txn()
        # CC promises version 1 but storage was never written.
        with pytest.raises(CoherencyError):
            do_access(node, txn, read_access((0, 5)), LockGrant(1))


class TestEviction:
    def test_lru_eviction_of_clean_pages(self):
        node = MiniNode(buffer_pages=3)
        txn = make_txn()
        for page_no in range(4):
            do_access(node, txn, read_access((0, page_no)))
        assert node.buffer.cached_version((0, 0)) is None  # LRU evicted
        assert len(node.buffer) == 3

    def test_pinned_pages_survive_eviction(self):
        node = MiniNode(buffer_pages=3)
        writer = make_txn(1)
        do_access(node, writer, write_access((0, 99)))  # pinned dirty
        reader = make_txn(2)
        for page_no in range(5):
            do_access(node, reader, read_access((0, page_no)))
        assert node.buffer.cached_version((0, 99)) == 1

    def test_dirty_eviction_writes_back_and_notifies(self):
        node = MiniNode(buffer_pages=3)
        writer = make_txn(1)
        do_access(node, writer, write_access((0, 99)))
        commit(node, writer)  # unpinned committed dirty page
        reader = make_txn(2)
        for page_no in range(6):
            do_access(node, reader, read_access((0, page_no)))
        node.sim.run()  # let the write-back daemon finish
        assert node.ledger.storage_version((0, 99)) == 1
        assert node.protocol.written_back  # ownership hook fired

    def test_protected_frames_survive_capacity_eviction(self):
        node = MiniNode(buffer_pages=3)
        txn = make_txn(1)
        do_access(node, txn, read_access((0, 99)))
        assert node.buffer.protect((0, 99))
        reader = make_txn(2)
        for page_no in range(5):
            do_access(node, reader, read_access((0, page_no)))
        assert node.buffer.cached_version((0, 99)) == 0
        node.buffer.unprotect((0, 99))

    def test_protect_missing_page_returns_false(self):
        node = MiniNode()
        assert not node.buffer.protect((0, 1))

    def test_buffer_full_raises(self):
        node = MiniNode(buffer_pages=2)
        w1, w2 = make_txn(1), make_txn(2)
        do_access(node, w1, write_access((0, 1)))
        do_access(node, w2, write_access((0, 2)))
        w3 = make_txn(3)
        with pytest.raises(BufferFullError):
            do_access(node, w3, write_access((0, 3)))


class TestCommitAndRollback:
    def test_noforce_commit_leaves_page_dirty(self):
        node = MiniNode(force=False)
        txn = make_txn()
        do_access(node, txn, write_access((0, 5)))
        commit(node, txn)
        # NOFORCE: storage not updated at commit.
        assert node.ledger.storage_version((0, 5)) == 0
        assert node.data_disks.writes == 0

    def test_force_commit_writes_all_modified_pages(self):
        node = MiniNode(force=True)
        txn = make_txn()
        do_access(node, txn, write_access((0, 5)))
        do_access(node, txn, write_access((0, 6)))
        commit(node, txn)
        assert node.ledger.storage_version((0, 5)) == 1
        assert node.ledger.storage_version((0, 6)) == 1
        assert node.buffer.force_writes == 2

    def test_update_txn_writes_log(self):
        node = MiniNode()
        txn = make_txn()
        do_access(node, txn, write_access((0, 5)))
        commit(node, txn)
        assert node.log_disk.writes == 1

    def test_readonly_txn_skips_log(self):
        node = MiniNode()
        txn = make_txn()
        txn.accesses = [read_access((0, 5))]
        do_access(node, txn, txn.accesses[0])
        commit(node, txn)
        assert node.log_disk.writes == 0

    def test_rollback_restores_version_and_dirtiness(self):
        node = MiniNode()
        txn1 = make_txn(1)
        do_access(node, txn1, write_access((0, 5)))
        commit(node, txn1)  # committed dirty v1 (this node owns it)
        txn2 = make_txn(2)
        do_access(node, txn2, write_access((0, 5)), LockGrant(1))
        assert node.buffer.cached_version((0, 5)) == 2
        node.buffer.rollback(txn2)
        # The committed dirty copy v1 is restored, not lost.
        assert node.buffer.cached_version((0, 5)) == 1
        assert node.buffer.has_current_dirty((0, 5), 1)

    def test_rollback_redirty_keeps_lru_order_for_writeback(self):
        node = MiniNode(buffer_pages=3)
        txn1 = make_txn(1)
        do_access(node, txn1, write_access((0, 1)))
        commit(node, txn1)  # committed dirty v1
        txn2 = make_txn(2)
        do_access(node, txn2, write_access((0, 1)), LockGrant(1))
        node.buffer.mark_clean((0, 1), 2)  # the pinned v2 was shipped
        txn3 = make_txn(3)
        do_access(node, txn3, write_access((0, 2)))
        commit(node, txn3)
        # Page 1 turns dirty again behind the newer dirty page 2.
        node.buffer.rollback(txn2)
        do_access(node, make_txn(4), read_access((0, 3)))  # buffer full
        assert node.buffer.dirty_frames() == [((0, 1), 1), ((0, 2), 1)]
        # Page 1 is the least recently used dirty frame: the write-back
        # candidate whether the tail spans the buffer or one frame.
        for scan_depth in (16, 1):
            page, _ = node.buffer._oldest_dirty_unpinned(scan_depth)
            assert page == (0, 1)

    def test_rollback_of_fresh_page_restores_clean(self):
        node = MiniNode()
        txn = make_txn()
        do_access(node, txn, write_access((0, 5)))
        node.buffer.rollback(txn)
        assert node.buffer.cached_version((0, 5)) == 0
        assert not node.buffer.has_current_dirty((0, 5), 0)


class TestUnlockedPartitions:
    def test_append_allocates_without_read(self):
        node = MiniNode()
        txn = make_txn()
        access = write_access((1, 100), lockable=False)
        access.append = True
        do_access(node, txn, access)
        assert node.seq_disks.reads == 0
        assert node.buffer.cached_version((1, 100)) == 0

    def test_non_append_miss_reads_storage(self):
        node = MiniNode()
        txn = make_txn()
        do_access(node, txn, read_access((1, 100), lockable=False))
        assert node.seq_disks.reads == 1

    def test_force_writes_unlocked_pages(self):
        node = MiniNode(force=True)
        txn = make_txn()
        access = write_access((1, 100), lockable=False)
        access.append = True
        do_access(node, txn, access)
        commit(node, txn)
        assert node.seq_disks.writes == 1

    def test_concurrent_unlocked_writers_no_version_conflict(self):
        node = MiniNode()
        t1, t2 = make_txn(1), make_txn(2)
        a1 = write_access((1, 100), lockable=False)
        a2 = write_access((1, 100), lockable=False)
        do_access(node, t1, a1)
        do_access(node, t2, a2)  # must not raise
        commit(node, t1)
        commit(node, t2)


class TestForceWriteOrder:
    def test_unlocked_force_writes_spawn_in_page_order(self):
        """FORCE must walk ``modified_unlocked`` in sorted page order.

        The set's iteration order feeds process spawn order and hence
        the event schedule; pre-fix it depended on hash layout.
        """
        node = MiniNode(force=True, buffer_pages=16)
        txn = make_txn()
        spawned = []
        real = node.buffer._force_write

        def spy(page, version):
            spawned.append(page)
            return real(page, version)

        node.buffer._force_write = spy
        pages = [(1, 9), (1, 2), (1, 17), (1, 5)]
        for page in pages:
            do_access(node, txn, write_access(page, lockable=False))
        assert txn.modified_unlocked == set(pages)
        node.run(node.buffer.commit_phase1(txn))
        assert spawned == sorted(pages)
