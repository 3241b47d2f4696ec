"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestClockAndTimeouts:
    def test_initial_time_is_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        times = []

        def proc():
            yield sim.timeout(1.5)
            times.append(sim.now)
            yield sim.timeout(2.5)
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [1.5, 4.0]

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_stops_before_later_events(self, sim):
        fired = []

        def proc():
            yield sim.timeout(5.0)
            fired.append(sim.now)

        sim.process(proc())
        sim.run(until=3.0)
        assert fired == []
        assert sim.now == 3.0
        sim.run(until=10.0)
        assert fired == [5.0]

    def test_run_into_past_rejected(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_timeout_carries_value(self, sim):
        seen = []

        def proc():
            value = yield sim.timeout(1.0, value="hello")
            seen.append(value)

        sim.process(proc())
        sim.run()
        assert seen == ["hello"]

    def test_peek_returns_next_event_time(self, sim):
        sim.timeout(7.0)
        assert sim.peek() == 7.0

    def test_peek_empty_is_inf(self, sim):
        assert sim.peek() == float("inf")


class TestEventOrdering:
    def test_events_fire_in_time_order(self, sim):
        order = []

        def proc(delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(proc(3.0, "c"))
        sim.process(proc(1.0, "a"))
        sim.process(proc(2.0, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in ["first", "second", "third"]:
            sim.process(proc(tag))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_events_processed_counter(self, sim):
        def proc():
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        assert sim.events_processed > 0


class TestEvents:
    def test_manual_succeed_wakes_waiter(self, sim):
        gate = sim.event()
        seen = []

        def waiter():
            value = yield gate
            seen.append((sim.now, value))

        def firer():
            yield sim.timeout(2.0)
            gate.succeed("go")

        sim.process(waiter())
        sim.process(firer())
        sim.run()
        assert seen == [(2.0, "go")]

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_value_before_trigger_rejected(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            event.value

    def test_fail_raises_in_waiter(self, sim):
        gate = sim.event()
        caught = []

        def waiter():
            try:
                yield gate
            except ValueError as exc:
                caught.append(str(exc))

        def firer():
            yield sim.timeout(1.0)
            gate.fail(ValueError("boom"))

        sim.process(waiter())
        sim.process(firer())
        sim.run()
        assert caught == ["boom"]

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")  # type: ignore[arg-type]

    def test_unobserved_failed_event_surfaces(self, sim):
        event = sim.event()
        event.fail(RuntimeError("lost failure"))
        with pytest.raises(RuntimeError, match="lost failure"):
            sim.run()

    def test_waiting_on_already_processed_event_resumes(self, sim):
        gate = sim.event()
        gate.succeed("early")
        seen = []

        def late_waiter():
            yield sim.timeout(5.0)
            value = yield gate
            seen.append((sim.now, value))

        sim.process(late_waiter())
        sim.run()
        assert seen == [(5.0, "early")]


class TestProcesses:
    def test_process_return_value(self, sim):
        def child():
            yield sim.timeout(1.0)
            return 42

        results = []

        def parent():
            value = yield sim.process(child())
            results.append(value)

        sim.process(parent())
        sim.run()
        assert results == [42]

    def test_process_exception_propagates_to_waiter(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise KeyError("inner")

        caught = []

        def parent():
            try:
                yield sim.process(child())
            except KeyError as exc:
                caught.append(exc.args[0])

        sim.process(parent())
        sim.run()
        assert caught == ["inner"]

    def test_unobserved_crashed_process_surfaces(self, sim):
        def crasher():
            yield sim.timeout(1.0)
            raise RuntimeError("crash")

        sim.process(crasher())
        with pytest.raises(RuntimeError, match="crash"):
            sim.run()

    def test_yielding_non_event_fails_process(self, sim):
        def bad():
            yield "not an event"

        proc = sim.process(bad())

        caught = []

        def watcher():
            try:
                yield proc
            except SimulationError as exc:
                caught.append(str(exc))

        sim.process(watcher())
        sim.run()
        assert len(caught) == 1
        assert "non-event" in caught[0]

    def test_process_is_alive(self, sim):
        def proc():
            yield sim.timeout(3.0)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_immediate_return_process(self, sim):
        def instant():
            return 7
            yield  # pragma: no cover

        results = []

        def parent():
            value = yield sim.process(instant())
            results.append(value)

        sim.process(parent())
        sim.run()
        assert results == [7]

    def test_cross_simulator_yield_rejected(self, sim):
        other = Simulator()

        def proc():
            yield other.timeout(1.0)

        p = sim.process(proc())
        errors = []

        def watcher():
            try:
                yield p
            except SimulationError as exc:
                errors.append(str(exc))

        sim.process(watcher())
        sim.run()
        assert errors and "another simulator" in errors[0]


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        seen = []

        def proc():
            result = yield sim.all_of([sim.timeout(1.0, "a"), sim.timeout(3.0, "b")])
            seen.append((sim.now, result))

        sim.process(proc())
        sim.run()
        assert seen == [(3.0, ["a", "b"])]

    def test_all_of_empty_fires_immediately(self, sim):
        seen = []

        def proc():
            result = yield sim.all_of([])
            seen.append((sim.now, result))

        sim.process(proc())
        sim.run()
        assert seen == [(0.0, [])]

    def test_all_of_fails_on_child_failure(self, sim):
        gate = sim.event()

        def firer():
            yield sim.timeout(1.0)
            gate.fail(ValueError("child died"))

        caught = []

        def proc():
            try:
                yield sim.all_of([sim.timeout(5.0), gate])
            except ValueError as exc:
                caught.append((sim.now, str(exc)))

        sim.process(proc())
        sim.process(firer())
        sim.run()
        assert caught == [(1.0, "child died")]


class TestDeterminism:
    def test_same_model_same_trace(self):
        def build_and_run():
            sim = Simulator()
            trace = []

            def worker(tag, delay):
                for _ in range(3):
                    yield sim.timeout(delay)
                    trace.append((round(sim.now, 9), tag))

            sim.process(worker("x", 1.1))
            sim.process(worker("y", 0.7))
            sim.run()
            return trace

        assert build_and_run() == build_and_run()
