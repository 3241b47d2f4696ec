"""Property-based tests for the tuple-backed event heap.

The engine schedules everything through one heap of
``(time, priority, seq, event)`` tuples.  Correctness rests on three
invariants these tests hammer from every angle the optimization work
touched:

* heap order is (time, priority, seq) -- never event identity;
* ``seq`` is a global monotone counter, so same-time same-priority
  events fire in schedule (FIFO) order;
* URGENT (process bootstraps, resource grants) beats NORMAL at equal
  times regardless of schedule order.

They complement ``test_engine_properties.TestSameTimeTieBreaking``:
that class pins specific interleavings, these generate them.
``TestOneLoop`` checks that plain, sliced, sanitized and single-step
runs of one schedule are the same run.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sanitize import SanitizedSimulator, SanitizerReport
from repro.sim import Simulator
from repro.sim.resources import Resource

delays = st.floats(min_value=0.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


class TestHeapOrdering:
    @given(st.lists(st.tuples(delays, st.booleans()), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_mixed_timeout_and_succeed_delay_fire_in_time_order(self, specs):
        """timeout() and Event.succeed(delay=...) share one clock line."""
        sim = Simulator()
        fired = []

        def via_timeout(delay, tag):
            yield sim.timeout(delay)
            fired.append((sim.now, tag))

        def via_succeed(delay, tag):
            event = sim.event()
            event.succeed(delay=delay)
            yield event
            fired.append((sim.now, tag))

        for tag, (delay, use_timeout) in enumerate(specs):
            sim.process(via_timeout(delay, tag) if use_timeout
                        else via_succeed(delay, tag))
        sim.run()
        assert len(fired) == len(specs)
        times = [t for t, _tag in fired]
        assert times == sorted(times)
        # Equal-time events keep schedule order within each mechanism
        # and across them: seq is global, so tag order is preserved
        # whenever times tie exactly.
        for (t_a, tag_a), (t_b, tag_b) in zip(fired, fired[1:]):
            if t_a == t_b:
                assert tag_a < tag_b

    @given(st.lists(delays, min_size=1, max_size=30))
    @settings(max_examples=60)
    def test_step_by_step_equals_run(self, delay_list):
        """Draining the heap via step() visits the same trajectory as run()."""
        def build():
            sim = Simulator()
            fired = []

            def proc(delay, tag):
                yield sim.timeout(delay)
                fired.append((sim.now, tag))

            for tag, delay in enumerate(delay_list):
                sim.process(proc(delay, tag))
            return sim, fired

        sim_run, fired_run = build()
        sim_run.run()

        sim_step, fired_step = build()
        while sim_step.peek() != math.inf:
            sim_step.step()

        assert fired_step == fired_run
        assert sim_step.now == sim_run.now

    @given(st.lists(delays, min_size=1, max_size=30), delays)
    @settings(max_examples=60)
    def test_run_until_is_a_clean_horizon(self, delay_list, horizon):
        """run(until) fires exactly the events scheduled before the horizon."""
        sim = Simulator()
        fired = []

        def proc(delay, tag):
            yield sim.timeout(delay)
            fired.append((sim.now, tag))

        for tag, delay in enumerate(delay_list):
            sim.process(proc(delay, tag))
        sim.run(until=horizon)
        assert sim.now == horizon
        assert all(t <= horizon for t, _tag in fired)
        # Processes are bootstrapped at time 0 via URGENT events, so
        # every delay inside the horizon must have fired.
        expected = sum(1 for d in delay_list if d <= horizon)
        assert len(fired) == expected

    @given(st.lists(st.booleans(), min_size=2, max_size=24))
    @settings(max_examples=60)
    def test_resource_grant_storm_is_fifo(self, wants_long):
        """N contenders for one server are served strictly in arrival order.

        Grants are URGENT events created inside release(); the seq
        tie-break must keep the wait queue FIFO no matter how service
        times collide.
        """
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        served = []

        def client(tag, long_service):
            # simlint: disable-next=RES001 -- FIFO order of raw request() grants is the subject
            yield resource.request()
            try:
                served.append(tag)
                yield sim.timeout(1.0 if long_service else 0.0)
            finally:
                resource.release()

        for tag, long_service in enumerate(wants_long):
            sim.process(client(tag, long_service))
        sim.run()
        assert served == list(range(len(wants_long)))
        assert resource.busy == 0
        assert resource.queue_length == 0

    @given(st.lists(delays, min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_replay_is_deterministic(self, delay_list):
        """Two fresh simulators given the same schedule fire identically."""
        def trace():
            sim = Simulator()
            fired = []

            def proc(delay, tag):
                yield sim.timeout(delay)
                fired.append((sim.now, tag))

            for tag, delay in enumerate(delay_list):
                sim.process(proc(delay, tag))
            sim.run()
            return fired, sim.events_processed

        first = trace()
        second = trace()
        assert first == second


#: Delays on a half-unit grid: sums stay exact, so events land exactly
#: on the slice boundaries drawn from the same grid.
GRID = (0.0, 0.5, 1.0, 1.5)
steps = st.lists(
    st.tuples(
        st.sampled_from(("timeout", "cohort", "spawn", "relay", "interrupt")),
        st.one_of(st.sampled_from(GRID), delays),
    ),
    min_size=1,
    max_size=6,
)
cuts = st.lists(st.sampled_from([0.5 * i for i in range(16)]), max_size=6)


class Poke(Exception):
    """The cause thrown into an interrupted process."""


def play(sim, schedule):
    """Spawn one worker per step list; return the log they append to.

    The steps mix delayed timeouts, zero-delay cohorts on the ready
    lane, and three kinds of URGENT entries at the current timestamp:
    process bootstraps, relays of an already-processed event and
    interrupt relays.
    """
    log = []
    done = sim.event()
    done.succeed("done")

    def child(tag, delay):
        log.append((sim.now, tag, "child"))
        yield sim.timeout(delay)

    def victim(tag):
        try:
            yield sim.timeout(100.0)
        except Poke:
            log.append((sim.now, tag, "poked"))

    def worker(tag, plan):
        for index, (kind, delay) in enumerate(plan):
            if kind == "timeout":
                yield sim.timeout(delay)
            elif kind == "cohort":
                event = sim.event()
                event.succeed(index, delay=delay)
                yield event
            elif kind == "spawn":
                yield sim.process(child((tag, index), delay))
            elif kind == "relay":
                yield sim.timeout(delay)
                yield done
            else:
                target = sim.process(victim((tag, index)))
                yield sim.timeout(delay)
                target.interrupt(Poke())
            log.append((sim.now, tag, index))

    for tag, plan in enumerate(schedule):
        sim.process(worker(tag, plan))
    return log


class TestOneLoop:
    @given(st.lists(steps, min_size=1, max_size=5), cuts)
    @settings(max_examples=80, deadline=None)
    def test_plain_sliced_sanitized_and_stepped_runs_agree(self, schedule, slices):
        """One schedule, four drivers, one dispatch log.

        ``run()`` once, ``run(until=…)`` in slices whose boundaries
        coincide with event times, a sanitized run in the same slices,
        and ``step()`` until the event list is empty must all dispatch
        the same events in the same order.
        """
        plain = Simulator()
        plain_log = play(plain, schedule)
        plain.run()

        sliced = Simulator()
        sliced_log = play(sliced, schedule)
        for cut in sorted(slices):
            sliced.run(until=cut)
            assert sliced.now == cut
        sliced.run()

        report = SanitizerReport()
        sanitized = SanitizedSimulator(report)
        sanitized_log = play(sanitized, schedule)
        for cut in sorted(slices):
            sanitized.run(until=cut)
        sanitized.run()

        stepped = Simulator()
        stepped_log = play(stepped, schedule)
        while stepped.peek() != math.inf:
            stepped.step()

        assert sliced_log == plain_log
        assert sanitized_log == plain_log
        assert stepped_log == plain_log
        assert (
            sliced.events_processed
            == sanitized.events_processed
            == stepped.events_processed
            == plain.events_processed
        )
        assert report.ok, report.summary()
        assert report.events_checked == plain.events_processed
