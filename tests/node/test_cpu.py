"""Unit tests for the CPU pool."""

import pytest

from repro.node.cpu import CpuPool
from repro.sim import Simulator, StreamRegistry
from repro.sim.resources import Resource


@pytest.fixture
def sim():
    return Simulator()


def make_pool(sim, cpus=4, mips=10.0):
    return CpuPool(sim, cpus, mips, StreamRegistry(1).stream("cpu"))


class TestConsume:
    def test_service_time_conversion(self, sim):
        pool = make_pool(sim, cpus=1, mips=10.0)
        done = []

        def proc():
            yield from pool.consume(250_000)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [pytest.approx(0.025)]  # 250k instr at 10 MIPS

    def test_zero_instructions_noop(self, sim):
        pool = make_pool(sim)

        def proc():
            yield from pool.consume(0)
            yield sim.timeout(0)

        sim.process(proc())
        sim.run()
        assert sim.now == 0.0

    def test_negative_instructions_rejected(self, sim):
        pool = make_pool(sim)
        with pytest.raises(ValueError):
            list(pool.consume(-1))

    def test_parallel_service_on_multiple_cpus(self, sim):
        pool = make_pool(sim, cpus=2, mips=10.0)
        done = []

        def proc():
            yield from pool.consume(100_000)
            done.append(sim.now)

        for _ in range(4):
            sim.process(proc())
        sim.run()
        assert done == [
            pytest.approx(0.01),
            pytest.approx(0.01),
            pytest.approx(0.02),
            pytest.approx(0.02),
        ]

    def test_instruction_accounting(self, sim):
        pool = make_pool(sim)

        def proc():
            yield from pool.consume(5000)

        sim.process(proc())
        sim.run()
        assert pool.instructions_executed == 5000


class TestCompoundHold:
    def test_busy_work_requires_held_cpu(self, sim):
        pool = make_pool(sim, cpus=1, mips=10.0)
        log = []

        device = Resource(sim, capacity=1)

        def holder():
            # 1ms of CPU, then a 5ms synchronous device access with the
            # CPU still held.
            yield from pool.synchronous(device, 10_000, 0.005)
            log.append(("holder", sim.now))

        def other():
            yield from pool.consume(10_000)
            log.append(("other", sim.now))

        sim.process(holder())
        sim.process(other())
        sim.run()
        # The holder keeps the only CPU for 6ms; other runs after.
        assert log[0] == ("holder", pytest.approx(0.006))
        assert log[1] == ("other", pytest.approx(0.007))
        assert pool.instructions_executed == 20_000

    def test_utilization(self, sim):
        pool = make_pool(sim, cpus=2, mips=10.0)

        def proc():
            yield from pool.consume(100_000)  # 10ms

        sim.process(proc())
        sim.run()
        sim.run(until=0.02)
        assert pool.utilization() == pytest.approx(0.25)

    def test_invalid_construction(self, sim):
        with pytest.raises(ValueError):
            CpuPool(sim, 0, 10.0, StreamRegistry(1).stream("x"))
        with pytest.raises(ValueError):
            CpuPool(sim, 1, 0.0, StreamRegistry(1).stream("x"))
