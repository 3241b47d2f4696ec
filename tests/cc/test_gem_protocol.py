"""Unit tests for the GEM locking protocol (driven on a quiesced cluster)."""

import pytest

from repro.cc.base import PageSource
from repro.errors import TransactionAborted

from tests.helpers import drive_cluster as drive
from tests.helpers import make_txn as _make_txn
from tests.helpers import quiesced_cluster


def make_cluster(**overrides):
    overrides.setdefault("routing", "random")
    return quiesced_cluster(**overrides)


def make_txn(cluster, txn_id, node):
    return _make_txn(txn_id, node)


PAGE = (0, 7)


class TestAcquire:
    def test_acquire_returns_current_seqno(self):
        cluster = make_cluster()
        txn = make_txn(cluster, 1, 0)
        grant = drive(cluster, cluster.protocol.acquire(txn, PAGE, False, None))
        assert grant.seqno == 0
        assert grant.source is PageSource.STORAGE
        assert PAGE in txn.held_locks

    def test_acquire_costs_entry_accesses(self):
        cluster = make_cluster()
        txn = make_txn(cluster, 1, 0)
        before = cluster.gem.entry_accesses
        drive(cluster, cluster.protocol.acquire(txn, PAGE, False, None))
        assert cluster.gem.entry_accesses == before + 2

    def test_acquire_holds_cpu_during_entry_access(self):
        cluster = make_cluster()
        txn = make_txn(cluster, 1, 0)
        drive(cluster, cluster.protocol.acquire(txn, PAGE, False, None))
        # 2 entry ops at 2us plus 2x100 instructions at 10 MIPS.
        assert cluster.sim.now == pytest.approx(2 * 2e-6 + 2 * 100 / 10e6)

    def test_conflicting_acquire_waits_for_release(self):
        cluster = make_cluster()
        holder = make_txn(cluster, 1, 0)
        waiter = make_txn(cluster, 2, 1)
        sim = cluster.sim
        log = []

        def holder_proc():
            yield from cluster.protocol.acquire(holder, PAGE, True, None)
            yield sim.timeout(0.010)
            yield from cluster.protocol.commit_release(holder)
            log.append(("released", sim.now))

        def waiter_proc():
            yield sim.timeout(0.001)
            yield from cluster.protocol.acquire(waiter, PAGE, True, None)
            log.append(("granted", sim.now))

        sim.process(holder_proc())
        sim.process(waiter_proc())
        sim.run(until=sim.now + 50.0)
        assert log[0][0] == "released"
        assert log[1][0] == "granted"
        assert log[1][1] >= log[0][1]


class TestCoherency:
    def _commit_modification(self, cluster, txn_id, node, page=PAGE):
        txn = make_txn(cluster, txn_id, node)

        def proc():
            grant = yield from cluster.protocol.acquire(txn, page, True, None)
            buffer = cluster.nodes[node].buffer
            from repro.workload.transaction import PageAccess

            access = PageAccess(page, write=True)
            txn.accesses.append(access)
            yield from buffer.access(txn, access, grant)
            for p, v in txn.modified.items():
                cluster.ledger.install_commit(p, v)
            yield from cluster.protocol.commit_release(txn)
            buffer.finish_commit(txn)

        drive(cluster, proc())
        return txn

    def test_noforce_modification_records_owner(self):
        cluster = make_cluster(update_strategy="noforce")
        self._commit_modification(cluster, 1, node=0)
        entry = cluster.protocol.glt.entry(PAGE)
        assert entry.seqno == 1
        assert entry.owner == 0

    def test_force_modification_clears_owner(self):
        cluster = make_cluster(update_strategy="force")
        self._commit_modification(cluster, 1, node=0)
        entry = cluster.protocol.glt.entry(PAGE)
        assert entry.seqno == 1
        assert entry.owner is None

    def test_reader_at_other_node_directed_to_owner(self):
        cluster = make_cluster(update_strategy="noforce")
        self._commit_modification(cluster, 1, node=0)
        reader = make_txn(cluster, 2, 1)
        grant = drive(cluster, cluster.protocol.acquire(reader, PAGE, False, None))
        assert grant.source is PageSource.OWNER
        assert grant.owner_node == 0

    def test_owner_itself_reads_from_storage_path(self):
        cluster = make_cluster(update_strategy="noforce")
        self._commit_modification(cluster, 1, node=0)
        reader = make_txn(cluster, 2, 0)
        grant = drive(cluster, cluster.protocol.acquire(reader, PAGE, False, None))
        assert grant.source is PageSource.STORAGE

    def test_page_request_returns_version_from_owner(self):
        cluster = make_cluster(update_strategy="noforce")
        self._commit_modification(cluster, 1, node=0)
        reader = make_txn(cluster, 2, 1)

        def proc():
            grant = yield from cluster.protocol.acquire(reader, PAGE, False, None)
            version = yield from cluster.protocol.request_page_from_owner(
                reader, PAGE, grant
            )
            return version

        assert drive(cluster, proc()) == 1
        # One short request + one long reply travelled the network.
        assert cluster.nodes[1].comm.sent_short == 1
        assert cluster.nodes[0].comm.sent_long == 1

    def test_page_request_fails_over_when_owner_dropped_page(self):
        cluster = make_cluster(update_strategy="noforce")
        txn = self._commit_modification(cluster, 1, node=0)
        # Simulate the owner having written back and dropped the page.
        drive(
            cluster,
            cluster.nodes[0].storage.write(PAGE, 1, cluster.nodes[0].cpu),
        )
        cluster.nodes[0].buffer.drop_all()
        reader = make_txn(cluster, 2, 1)

        def proc():
            grant = yield from cluster.protocol.acquire(reader, PAGE, False, None)
            version = yield from cluster.protocol.request_page_from_owner(
                reader, PAGE, grant
            )
            return version

        assert drive(cluster, proc()) is None
        assert cluster.protocol.store.page_requests_failed == 1

    def test_write_back_hook_clears_owner(self):
        cluster = make_cluster(update_strategy="noforce")
        self._commit_modification(cluster, 1, node=0)
        drive(cluster, cluster.protocol.page_written_back(0, PAGE, 1))
        assert cluster.protocol.glt.entry(PAGE).owner is None

    def test_write_back_of_stale_version_keeps_owner(self):
        cluster = make_cluster(update_strategy="noforce")
        self._commit_modification(cluster, 1, node=0)
        self._commit_modification(cluster, 2, node=1)
        # Node 0 write-back of its old version 1 must not clear node
        # 1's ownership of version 2.
        drive(cluster, cluster.protocol.page_written_back(0, PAGE, 1))
        assert cluster.protocol.glt.entry(PAGE).owner == 1

    def test_page_transfer_via_gem_extension(self):
        cluster = make_cluster(update_strategy="noforce", page_transfer_via_gem=True)
        self._commit_modification(cluster, 1, node=0)
        reader = make_txn(cluster, 2, 1)

        def proc():
            grant = yield from cluster.protocol.acquire(reader, PAGE, False, None)
            version = yield from cluster.protocol.request_page_from_owner(
                reader, PAGE, grant
            )
            return version

        pages_before = cluster.gem.page_accesses
        assert drive(cluster, proc()) == 1
        # Two GEM page accesses (owner write + requester read), no
        # network messages.
        assert cluster.gem.page_accesses == pages_before + 2
        assert cluster.nodes[1].comm.sent_short == 0


class TestDeadlockIntegration:
    def test_deadlock_aborts_youngest(self):
        cluster = make_cluster()
        sim = cluster.sim
        t1 = make_txn(cluster, 1, 0)
        t2 = make_txn(cluster, 2, 1)
        page_a, page_b = (0, 1), (0, 2)
        outcomes = {}

        def proc(txn, first, second):
            try:
                yield from cluster.protocol.acquire(txn, first, True, None)
                yield sim.timeout(0.001)
                yield from cluster.protocol.acquire(txn, second, True, None)
                outcomes[txn.txn_id] = "ok"
                yield sim.timeout(0.005)
                yield from cluster.protocol.commit_release(txn)
            except TransactionAborted:
                outcomes[txn.txn_id] = "aborted"
                yield from cluster.protocol.abort_release(txn)

        sim.process(proc(t1, page_a, page_b))
        sim.process(proc(t2, page_b, page_a))
        sim.run(until=sim.now + 50.0)
        assert outcomes[2] == "aborted"
        assert outcomes[1] == "ok"
        assert cluster.detector.deadlocks_detected == 1
