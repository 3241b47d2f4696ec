"""Unit tests for the GEM device model."""

import pytest

from repro.devices.gem import GemDevice
from repro.node.cpu import CpuPool
from repro.sim import Simulator, StreamRegistry
from repro.sim.engine import SimulationError

from tests.helpers import drive_cluster, quiesced_cluster


@pytest.fixture
def sim():
    return Simulator()


def make_cpu(sim, cpus=4):
    """10 MIPS CPUs: 300 initiation instructions take 30 us."""
    return CpuPool(sim, cpus, 10.0, StreamRegistry(1).stream("cpu"))


class TestAccessTimes:
    def test_page_access_time(self, sim):
        gem = GemDevice(sim, page_access_time=50e-6)
        cpu = make_cpu(sim)
        done = []

        def proc():
            yield from gem.page_access(cpu, 300)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        # 30 us to initiate, then the 50 us page access.
        assert done == [pytest.approx(80e-6)]
        assert gem.page_accesses == 1
        assert cpu.instructions_executed == 300
        # The CPU was held for the whole access.
        assert cpu.busy_time() == pytest.approx(80e-6)

    # Entry accesses are issued by the shared-store substrate (one
    # chained CPU-then-server access); the device keeps the counter.

    def test_entry_access_time(self):
        cluster = quiesced_cluster(gem_entry_access_time=2e-6)
        drive_cluster(cluster, cluster.protocol.store.access(0, 1))
        assert cluster.gem.entry_accesses == 1
        assert cluster.gem.busy_time() == pytest.approx(2e-6)

    def test_batched_entry_accesses(self):
        cluster = quiesced_cluster(gem_entry_access_time=2e-6)
        drive_cluster(cluster, cluster.protocol.store.access(0, 5))
        assert cluster.gem.entry_accesses == 5
        assert cluster.gem.busy_time() == pytest.approx(10e-6)

    def test_zero_entries_is_noop(self):
        cluster = quiesced_cluster()
        drive_cluster(cluster, cluster.protocol.store.access(0, 0))
        assert cluster.gem.entry_accesses == 0
        assert cluster.gem.busy_time() == 0.0

    def test_negative_entries_rejected(self):
        cluster = quiesced_cluster()
        with pytest.raises(SimulationError):
            next(cluster.protocol.store.access(0, -1))

    def test_negative_access_time_rejected(self, sim):
        with pytest.raises(ValueError):
            GemDevice(sim, page_access_time=-1.0)


class TestQueuing:
    def test_single_server_serializes_accesses(self, sim):
        gem = GemDevice(sim, servers=1, page_access_time=50e-6)
        cpu = make_cpu(sim)
        done = []

        def proc(tag):
            yield from gem.page_access(cpu, 0)
            done.append((tag, sim.now))

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        assert done[0] == ("a", pytest.approx(50e-6))
        assert done[1] == ("b", pytest.approx(100e-6))

    def test_multi_server_parallelism(self, sim):
        gem = GemDevice(sim, servers=2, page_access_time=50e-6)
        cpu = make_cpu(sim)
        done = []

        def proc():
            yield from gem.page_access(cpu, 0)
            done.append(sim.now)

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert done == [pytest.approx(50e-6), pytest.approx(50e-6)]

    def test_utilization_accounting(self, sim):
        gem = GemDevice(sim, page_access_time=0.1)
        cpu = make_cpu(sim)

        def proc():
            yield from gem.page_access(cpu, 0)

        sim.process(proc())
        sim.run()
        sim.run(until=0.2)
        assert gem.utilization() == pytest.approx(0.5)

    def test_reset_stats(self):
        cluster = quiesced_cluster()
        gem = cluster.gem

        def proc():
            yield from gem.page_access(cluster.nodes[0].cpu, 300)
            yield from cluster.protocol.store.access(0, 1)

        drive_cluster(cluster, proc())
        assert gem.page_accesses == 1 and gem.entry_accesses == 1
        gem.reset_stats()
        assert gem.page_accesses == 0
        assert gem.entry_accesses == 0
