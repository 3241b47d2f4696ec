"""Unit tests for the RDMA fabric model."""

import pytest

from repro.cc.base import LockGrant
from repro.devices.rdma import RdmaFabric
from repro.sim import Simulator
from repro.sim.engine import SimulationError

from tests.helpers import drive_cluster, make_rdma_cluster, make_txn

PAGE = (0, 7)


@pytest.fixture
def sim():
    return Simulator()


class TestVerbTimes:
    # Verbs are issued by the shared-store substrate (one chained
    # CPU-then-channel access each); the fabric keeps the counters.

    def test_cas_time(self):
        cluster = make_rdma_cluster(rdma_cas_time=3e-6)
        drive_cluster(cluster, cluster.protocol.store.access(0, 1))
        assert cluster.rdma.cas_ops == 1
        assert cluster.rdma.busy_time() == pytest.approx(3e-6)

    def test_batched_cas(self):
        cluster = make_rdma_cluster(rdma_cas_time=3e-6)
        drive_cluster(cluster, cluster.protocol.store.access(0, 4))
        assert cluster.rdma.cas_ops == 4
        assert cluster.rdma.busy_time() == pytest.approx(12e-6)

    def test_entry_read_and_page_verbs(self):
        cluster = make_rdma_cluster(
            rdma_read_time=2e-6, rdma_page_read_time=8e-6, rdma_page_write_time=10e-6
        )
        store = cluster.protocol.store

        def verbs():
            yield from store.reread(0, 1)
            yield from store.install(0, [(PAGE, 1), ((0, 8), 1)])
            yield from store.fetch(make_txn(1, node=1), PAGE, LockGrant(1))

        drive_cluster(cluster, verbs())
        fabric = cluster.rdma
        assert fabric.busy_time() == pytest.approx(2e-6 + 20e-6 + 8e-6)
        assert fabric.entry_reads == 1
        assert fabric.page_reads == 1
        assert fabric.page_writes == 2

    def test_zero_count_is_noop(self):
        cluster = make_rdma_cluster()
        store = cluster.protocol.store

        def verbs():
            yield from store.access(0, 0)
            yield from store.reread(0, 0)
            yield from store.install(0, [])

        drive_cluster(cluster, verbs())
        assert cluster.rdma.cas_ops == 0
        assert cluster.rdma.entry_reads == 0
        assert cluster.rdma.page_writes == 0
        assert cluster.rdma.busy_time() == 0.0

    def test_negative_count_rejected(self):
        store = make_rdma_cluster().protocol.store
        with pytest.raises(SimulationError):
            next(store.access(0, -1))
        with pytest.raises(SimulationError):
            next(store.reread(0, -1))

    def test_negative_verb_time_rejected(self, sim):
        with pytest.raises(ValueError):
            RdmaFabric(sim, cas_time=-1.0)

    def test_zero_channels_rejected(self, sim):
        with pytest.raises(ValueError):
            RdmaFabric(sim, channels=0)


class TestQueuing:
    def test_single_channel_serializes(self, sim):
        fabric = RdmaFabric(sim, channels=1, page_read_time=8e-6)
        done = []

        def proc(tag):
            yield from fabric.channel.acquire(fabric.page_read_time)
            done.append((tag, sim.now))

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        assert done[0] == ("a", pytest.approx(8e-6))
        assert done[1] == ("b", pytest.approx(16e-6))

    def test_two_channels_overlap(self, sim):
        fabric = RdmaFabric(sim, channels=2, page_read_time=8e-6)
        done = []

        def proc():
            yield from fabric.channel.acquire(fabric.page_read_time)
            done.append(sim.now)

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert done == [pytest.approx(8e-6), pytest.approx(8e-6)]

    def test_utilization_and_reset(self, sim):
        fabric = RdmaFabric(sim, channels=1, page_read_time=0.1)

        def proc():
            yield from fabric.channel.acquire(fabric.page_read_time)

        sim.process(proc())
        sim.run()
        sim.run(until=0.2)
        assert fabric.utilization() == pytest.approx(0.5)
        fabric.reset_stats()
        assert fabric.cas_ops == 0
        assert fabric.page_reads == 0
        assert fabric.busy_time() == pytest.approx(0.0)
