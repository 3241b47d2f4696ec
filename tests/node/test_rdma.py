"""Unit tests for the disaggregated-memory coupling machinery.

Exercises :class:`~repro.cc.store.RdmaStore` (pool residency, verb
accounting, cache invalidation, lease arithmetic) and 2PL against it,
:class:`~repro.cc.store_locking.StoreLockingProtocol` (grants,
pool-backed NOFORCE page transfer, idempotent abort release), on a
quiesced RDMA cluster with transactions driven by hand.
"""

import pytest

from repro.cc.base import LockGrant, PageSource
from repro.cc.store import RdmaStore
from repro.cc.store_locking import StoreLockingProtocol

from tests.helpers import drive_cluster, make_rdma_cluster, make_txn, quiesced_cluster

PAGE = (0, 7)


@pytest.fixture
def cluster():
    return make_rdma_cluster()


def _grant(seqno):
    return LockGrant(seqno, source=PageSource.OWNER)


class TestHelperConstruction:
    def test_requires_rdma_coupling(self):
        gem_cluster = quiesced_cluster()
        with pytest.raises(ValueError):
            RdmaStore(gem_cluster)

    def test_cluster_builds_fabric_and_protocol(self, cluster):
        assert cluster.rdma is not None
        assert isinstance(cluster.protocol, StoreLockingProtocol)
        assert isinstance(cluster.protocol.store, RdmaStore)
        assert cluster.protocol.store.pool == {}

    def test_gem_cluster_has_no_fabric(self):
        assert quiesced_cluster().rdma is None


class TestPoolResidency:
    def test_install_records_residency_and_charges_writes(self, cluster):
        helper = cluster.protocol.store
        drive_cluster(cluster, helper.install(0, [(PAGE, 3)]))
        assert helper.pool == {PAGE: 3}
        assert cluster.rdma.page_writes == 1

    def test_install_keeps_newer_resident_version(self, cluster):
        helper = cluster.protocol.store
        drive_cluster(cluster, helper.install(0, [(PAGE, 5)]))
        drive_cluster(cluster, helper.install(1, [(PAGE, 4)]))
        assert helper.pool == {PAGE: 5}

    def test_current_respects_seqno(self, cluster):
        helper = cluster.protocol.store
        drive_cluster(cluster, helper.install(0, [(PAGE, 2)]))
        assert helper.current(PAGE, 2)
        assert helper.current(PAGE, 1)
        assert not helper.current(PAGE, 3)
        assert not helper.current((0, 8), 1)

    def test_written_back_drops_exact_version_only(self, cluster):
        helper = cluster.protocol.store
        drive_cluster(cluster, helper.install(0, [(PAGE, 2)]))
        helper.written_back(PAGE, 1)
        assert helper.pool == {PAGE: 2}
        helper.written_back(PAGE, 2)
        assert helper.pool == {}

    def test_fetch_returns_resident_version(self, cluster):
        helper = cluster.protocol.store
        drive_cluster(cluster, helper.install(0, [(PAGE, 2)]))
        txn = make_txn(1, node=1)
        version = drive_cluster(cluster, helper.fetch(txn, PAGE, _grant(2)))
        assert version == 2
        assert cluster.rdma.page_reads == 1

    def test_fetch_misses_after_write_back(self, cluster):
        helper = cluster.protocol.store
        drive_cluster(cluster, helper.install(0, [(PAGE, 2)]))
        helper.written_back(PAGE, 2)
        txn = make_txn(1, node=1)
        version = drive_cluster(cluster, helper.fetch(txn, PAGE, _grant(2)))
        assert version is None


class TestCacheInvalidation:
    def test_install_drops_other_nodes_stale_frames(self, cluster):
        helper = cluster.protocol.store
        for node in cluster.nodes:
            drive_cluster(
                cluster, node.buffer.insert_received_page(PAGE, 1, dirty=False)
            )
        drive_cluster(cluster, helper.install(0, [(PAGE, 2)]))
        # Installer keeps its (current) copy; node 1's stale frame dies.
        assert cluster.nodes[0].buffer.cached_version(PAGE) == 1
        assert cluster.nodes[1].buffer.cached_version(PAGE) is None


class TestLockingProtocol:
    def test_immediate_grant_costs_one_cas(self, cluster):
        protocol = cluster.protocol
        txn = make_txn(1, node=0)
        grant = drive_cluster(cluster, protocol.acquire(txn, PAGE, True, None))
        assert grant.source is PageSource.STORAGE
        assert txn.held_locks == {PAGE: True}
        assert cluster.rdma.cas_ops == 1

    def test_grant_is_pool_backed_after_commit(self, cluster):
        protocol = cluster.protocol
        writer = make_txn(1, node=0)
        drive_cluster(cluster, protocol.acquire(writer, PAGE, True, None))
        writer.modified[PAGE] = 1
        drive_cluster(cluster, protocol.commit_release(writer))
        assert protocol.store.pool == {PAGE: 1}
        reader = make_txn(2, node=1)
        grant = drive_cluster(cluster, protocol.acquire(reader, PAGE, False, None))
        assert grant.source is PageSource.OWNER
        assert grant.seqno == 1
        version = drive_cluster(
            cluster, protocol.request_page_from_owner(reader, PAGE, grant)
        )
        assert version == 1

    def test_conflicting_acquire_waits_for_release(self, cluster):
        protocol = cluster.protocol
        holder = make_txn(1, node=0)
        drive_cluster(cluster, protocol.acquire(holder, PAGE, True, None))
        arrived = []

        def contender():
            txn = make_txn(2, node=1)
            grant = yield from protocol.acquire(txn, PAGE, True, None)
            arrived.append(grant)

        cluster.sim.process(contender())
        cluster.sim.run(until=cluster.sim.now + 0.01)
        assert not arrived
        assert protocol.glt.num_blocked() == 1
        drive_cluster(cluster, protocol.commit_release(holder))
        cluster.sim.run(until=cluster.sim.now + 0.01)
        assert len(arrived) == 1
        assert protocol.lock_wait_time.count == 1

    def test_abort_release_is_idempotent(self, cluster):
        protocol = cluster.protocol
        txn = make_txn(1, node=0)
        drive_cluster(cluster, protocol.acquire(txn, PAGE, True, None))
        drive_cluster(cluster, protocol.abort_release(txn))
        assert protocol.glt.holds(1, PAGE) is None
        assert txn.held_locks == {}
        # Second call must be a no-op, not a double release.
        drive_cluster(cluster, protocol.abort_release(txn))
        assert protocol.glt.holds(1, PAGE) is None

    def test_lock_stats_shape(self, cluster):
        protocol = cluster.protocol
        txn = make_txn(1, node=0)
        drive_cluster(cluster, protocol.acquire(txn, PAGE, False, None))
        stats = protocol.lock_stats()
        assert stats["local_share"] == 1.0
        assert stats["remote_lock_requests"] == 0.0
        assert stats["lock_requests"] == 1.0
        protocol.reset_stats()
        assert protocol.lock_stats()["lock_requests"] == 0.0


class TestLease:
    def test_lease_wait_sits_out_remaining_lease(self, cluster):
        class _Record:
            crash_time = 0.0

        helper = cluster.protocol.store
        done = []

        def proc():
            yield from helper.lease_wait(_Record())
            done.append(cluster.sim.now)

        cluster.sim.process(proc())
        cluster.sim.run(
            until=cluster.config.rdma_lock_lease_seconds + 0.001
        )
        assert done == [pytest.approx(cluster.config.rdma_lock_lease_seconds)]
