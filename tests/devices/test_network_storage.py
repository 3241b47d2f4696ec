"""Unit tests for the network model and the storage directory."""

import pytest

from repro.db.pages import VersionLedger
from repro.devices.disk import DiskArray
from repro.devices.gem import GemDevice
from repro.devices.network import Network
from repro.devices.storage import StorageDirectory
from repro.node.cpu import CpuPool
from repro.sim import Simulator, StreamRegistry

from tests.helpers import quiesced_cluster


@pytest.fixture
def sim():
    return Simulator()


class TestNetwork:
    def test_transmission_time_from_bandwidth(self, sim):
        net = Network(sim, bandwidth=10e6)
        done = []

        def proc():
            yield from net.transmit(100)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [pytest.approx(100 / 10e6)]

    def test_shared_medium_serializes(self, sim):
        net = Network(sim, bandwidth=10e6)
        done = []

        def proc():
            yield from net.transmit(4096)
            done.append(sim.now)

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert done[1] == pytest.approx(2 * 4096 / 10e6)

    def test_byte_accounting(self, sim):
        net = Network(sim, bandwidth=10e6)

        def proc():
            yield from net.transmit(100)
            yield from net.transmit(4096)

        sim.process(proc())
        sim.run()
        assert net.bytes_transmitted == 4196
        assert net.messages == 2

    def test_invalid_parameters(self, sim):
        with pytest.raises(ValueError):
            Network(sim, bandwidth=0)
        net = Network(sim)
        with pytest.raises(ValueError):
            list(net.transmit(0))


class TestStorageDirectory:
    def _make(self, sim):
        ledger = VersionLedger()
        streams = StreamRegistry(1)
        directory = StorageDirectory(sim, ledger, 3000.0, 300.0)
        disk = DiskArray(
            sim, "d", 2, ledger, streams.stream("d"), disk_time=0.015
        )
        gem = GemDevice(sim, page_access_time=50e-6)
        directory.assign(0, disk)
        directory.assign(1, gem)
        log = DiskArray(sim, "log", 1, ledger, streams.stream("l"), disk_time=0.005)
        directory.assign_log_disks([log])
        cpu = CpuPool(sim, 1, 10.0, streams.stream("cpu"))
        return directory, ledger, cpu, disk, gem, log

    def test_disk_read_charges_cpu_then_device(self, sim):
        directory, ledger, cpu, disk, _gem, _log = self._make(sim)
        done = []

        def proc():
            yield from directory.read((0, 1), cpu)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        # 3000 instr at 10 MIPS = 0.3ms CPU, then the disk path.
        assert done[0] > 0.0003
        assert disk.reads == 1

    def test_gem_write_durable_and_fast(self, sim):
        directory, ledger, cpu, _disk, gem, _log = self._make(sim)
        done = []

        def proc():
            yield from directory.write((1, 5), 2, cpu)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        # 300 instr (30us) + 50us GEM access.
        assert done == [pytest.approx(80e-6)]
        assert ledger.storage_version((1, 5)) == 2
        assert gem.page_accesses == 1

    def test_gem_access_holds_cpu(self, sim):
        directory, _ledger, cpu, _disk, _gem, _log = self._make(sim)
        order = []

        def gem_writer():
            yield from directory.write((1, 5), 1, cpu)
            order.append(("gem", sim.now))

        def cpu_user():
            yield from cpu.consume(1000)  # 0.1ms
            order.append(("cpu", sim.now))

        sim.process(gem_writer())
        sim.process(cpu_user())
        sim.run()
        # The single CPU is held across the whole GEM access, so the
        # other work only starts after 80us.
        assert order[0][0] == "gem"
        assert order[1][1] == pytest.approx(80e-6 + 100e-6)

    def test_gem_write_without_version(self, sim):
        directory, ledger, cpu, _disk, _gem, _log = self._make(sim)

        def proc():
            yield from directory.write((1, 5), None, cpu)

        sim.process(proc())
        sim.run()
        assert ledger.storage_version((1, 5)) == 0

    def test_log_write_uses_node_log_disk(self, sim):
        directory, _ledger, cpu, _disk, _gem, log = self._make(sim)

        def proc():
            yield from directory.write_log(0, cpu)

        sim.process(proc())
        sim.run()
        assert log.writes == 1

    def test_is_gem_resident(self, sim):
        directory, *_ = self._make(sim)
        assert not directory.is_gem_resident(0)
        assert directory.is_gem_resident(1)


class TestGemCpuGrantLeak:
    """Interrupting a reader queued for the CPU on the GEM path must
    withdraw the CPU request (regression: the bare ``request()`` there
    let the next release grant the unit to the dead event, permanently
    losing one CPU of capacity)."""

    def _make(self, sim):
        ledger = VersionLedger()
        streams = StreamRegistry(1)
        directory = StorageDirectory(sim, ledger, 3000.0, 300.0)
        gem = GemDevice(sim, page_access_time=50e-6)
        directory.assign(1, gem)
        cpu = CpuPool(sim, 1, 10.0, streams.stream("cpu"))
        return directory, cpu

    def test_interrupted_gem_read_releases_cpu_claim(self, sim):
        from repro.errors import NodeCrashed

        directory, cpu = self._make(sim)

        def hog():
            yield from cpu.consume(10_000_000)  # holds the CPU until t=1

        def reader():
            try:
                yield from directory.read((1, 3), cpu)
            except NodeCrashed:
                return

        sim.process(hog())
        victim = sim.process(reader())
        sim.run(until=0.5)
        assert cpu.resource.queue_length == 1
        assert victim.interrupt(NodeCrashed(0))
        sim.run(until=0.501)
        assert cpu.resource.queue_length == 0

        done = []

        def late_reader():
            yield from directory.read((1, 3), cpu)
            done.append(sim.now)

        sim.process(late_reader())
        sim.run()
        assert done and done[0] == pytest.approx(1.0 + 30e-6 + 50e-6)
        assert cpu.resource.busy == 0

    # Every CPU-held access form, as (directory call, server leg).  The
    # GEM forms and the store entry are one CpuPool.synchronous access
    # (the CPU stays held at the server); the disk forms lead with the
    # CPU slice and then queue at the controllers.
    FORMS = {
        "gem-read": (lambda d, cpu: d.read((1, 3), cpu), "gem"),
        "gem-write": (lambda d, cpu: d.write((1, 3), 1, cpu), "gem"),
        "gem-wbuf-write": (lambda d, cpu: d.write((2, 3), 1, cpu), "gem"),
        "gem-log-read": (lambda d, cpu: d.read_log(0, cpu), "gem"),
        "gem-log-write": (lambda d, cpu: d.write_log(0, cpu), "gem"),
        "disk-read": (lambda d, cpu: d.read((0, 3), cpu), "ctrl"),
        "disk-write": (lambda d, cpu: d.write((0, 3), 1, cpu), "ctrl"),
    }

    def _rig(self, sim, form):
        """(simulator, cpu, access factory, server hogged in the
        server stage, every resource the access may hold)."""
        if form == "store-entry":
            cluster = quiesced_cluster()
            cpu = cluster.nodes[0].cpu
            store = cluster.protocol.store
            server = cluster.gem.server
            units = [cpu.resource, server]
            return cluster.sim, cpu, lambda: store.access(0, 1), server, units
        ledger = VersionLedger()
        streams = StreamRegistry(1)
        gem = GemDevice(sim, page_access_time=50e-6)
        directory = StorageDirectory(sim, ledger, 3000.0, 300.0, log_gem=gem)
        disks = DiskArray(sim, "d", 1, ledger, streams.stream("d"))
        buffered = DiskArray(sim, "w", 1, ledger, streams.stream("w"))
        directory.assign(0, disks)
        directory.assign(1, gem)
        directory.assign(2, buffered, gem_write_buffer=gem)
        cpu = CpuPool(sim, 1, 10.0, streams.stream("cpu"))
        call, leg = self.FORMS[form]
        server = gem.server if leg == "gem" else disks.controllers
        units = [cpu.resource, gem.server]
        for array in (disks, buffered):
            units += [array.controllers, *array.disks]
        return sim, cpu, lambda: call(directory, cpu), server, units

    @pytest.mark.parametrize("stage", ["cpu-queued", "server-queued"])
    @pytest.mark.parametrize("form", [*FORMS, "store-entry"])
    def test_interrupted_access_releases_every_unit(self, sim, form, stage):
        """Interrupt the access while it queues for the CPU (every CPU
        unit hogged) or for its server (the server hogged; a
        synchronous access holds its CPU meanwhile): afterwards no
        resource keeps a busy or queued unit for it, and a later access
        of the same form completes."""
        from repro.errors import NodeCrashed

        sim, cpu, access, server, units = self._rig(sim, form)
        hogged = cpu.resource if stage == "cpu-queued" else server

        def hog():
            yield from hogged.acquire(1.0)

        def victim():
            try:
                yield from access()
            except NodeCrashed:
                return

        for _ in range(hogged.capacity):
            sim.process(hog())
        proc = sim.process(victim())
        sim.run(until=0.5)
        assert hogged.queue_length == 1
        assert proc.interrupt(NodeCrashed(0))
        sim.run(until=0.501)
        assert hogged.queue_length == 0
        # Only the hogs still hold a CPU.
        hogs = cpu.resource.capacity if stage == "cpu-queued" else 0
        assert cpu.resource.busy == hogs

        done = []

        def late():
            yield from access()
            done.append(sim.now)

        sim.process(late())
        sim.run(until=50.0)
        assert done and done[0] > 1.0
        for unit in units:
            assert (unit.name, unit.busy, unit.queue_length) == (unit.name, 0, 0)
