"""Edge-case tests for the simulation engine."""

import pytest

from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestConditionEdges:
    def test_all_of_with_all_preprocessed_events(self, sim):
        e1, e2 = sim.event(), sim.event()
        e1.succeed("a")
        e2.succeed("b")
        sim.run(until=0.0)  # process both
        seen = []

        def proc():
            values = yield sim.all_of([e1, e2])
            seen.append(values)

        sim.process(proc())
        sim.run()
        assert seen == [["a", "b"]]

    def test_all_of_with_preprocessed_failure(self, sim):
        bad = sim.event()
        bad.fail(ValueError("early"))
        caught = []

        def observer():
            try:
                yield bad
            except ValueError:
                caught.append("direct")

        sim.process(observer())
        sim.run()

        def proc():
            try:
                yield sim.all_of([bad, sim.timeout(1.0)])
            except ValueError:
                caught.append("condition")

        sim.process(proc())
        sim.run()
        assert caught == ["direct", "condition"]

    def test_nested_conditions(self, sim):
        seen = []

        def proc():
            inner = sim.all_of([sim.timeout(1.0, "x"), sim.timeout(2.0, "y")])
            values = yield sim.all_of([inner, sim.timeout(5.0, "z")])
            seen.append((sim.now, values))

        sim.process(proc())
        sim.run()
        assert seen == [(5.0, [["x", "y"], "z"])]


class TestRunEdges:
    def test_run_until_exact_event_time_processes_event(self, sim):
        fired = []

        def proc():
            yield sim.timeout(5.0)
            fired.append(sim.now)

        sim.process(proc())
        sim.run(until=5.0)
        assert fired == [5.0]

    def test_multiple_runs_resume(self, sim):
        fired = []

        def proc():
            for _ in range(3):
                yield sim.timeout(1.0)
                fired.append(sim.now)

        sim.process(proc())
        sim.run(until=1.5)
        assert fired == [1.0]
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_chained_processes(self, sim):
        order = []

        def leaf(tag, delay):
            yield sim.timeout(delay)
            order.append(tag)
            return tag

        def parent():
            a = yield sim.process(leaf("a", 1.0))
            b = yield sim.process(leaf("b", 1.0))
            order.append(a + b)

        sim.process(parent())
        sim.run()
        assert order == ["a", "b", "ab"]

    def test_many_simultaneous_processes(self, sim):
        done = []

        def proc(i):
            yield sim.timeout(1.0)
            done.append(i)

        for i in range(500):
            sim.process(proc(i))
        sim.run()
        assert done == list(range(500))
