"""Property-based tests for the simulation kernel."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.stats import Tally, TimeWeighted


class TestEventOrdering:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    @settings(max_examples=60)
    def test_timeouts_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []

        def proc(delay, tag):
            yield sim.timeout(delay)
            fired.append((sim.now, tag))

        for tag, delay in enumerate(delays):
            sim.process(proc(delay, tag))
        sim.run()
        times = [t for t, _tag in fired]
        assert times == sorted(times)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=60)
    def test_equal_times_preserve_schedule_order(self, delays):
        sim = Simulator()
        fired = []
        common = 5.0

        def proc(tag):
            yield sim.timeout(common)
            fired.append(tag)

        for tag in range(len(delays)):
            sim.process(proc(tag))
        sim.run()
        assert fired == list(range(len(delays)))

    @given(st.lists(st.floats(min_value=0.001, max_value=10.0,
                              allow_nan=False), min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_clock_never_goes_backwards(self, delays):
        sim = Simulator()
        observed = []

        def proc(delay):
            yield sim.timeout(delay)
            observed.append(sim.now)
            yield sim.timeout(delay)
            observed.append(sim.now)

        for delay in delays:
            sim.process(proc(delay))
        last = -1.0
        while sim.peek() != math.inf:
            sim.step()
            assert sim.now >= last
            last = sim.now


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=80)
    def test_tally_matches_reference_statistics(self, values):
        import statistics

        tally = Tally()
        for value in values:
            tally.record(value)
        assert tally.count == len(values)
        assert tally.mean == pytest_approx(statistics.fmean(values))
        assert tally.min == min(values)
        assert tally.max == max(values)
        if len(values) > 1:
            assert tally.variance == pytest_approx(statistics.variance(values))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
                st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            ),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=80)
    def test_timeweighted_matches_manual_integration(self, steps):
        tw = TimeWeighted(initial=0.0, now=0.0)
        now = 0.0
        area = 0.0
        value = 0.0
        for dt, new_value in steps:
            area += value * dt
            now += dt
            tw.update(new_value, now=now)
            value = new_value
        horizon = now + 1.0
        area += value * 1.0
        assert tw.time_average(horizon) == pytest_approx(area / horizon)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e3,
                              allow_nan=False), min_size=2, max_size=100),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60)
    def test_percentiles_bounded_and_monotonic(self, values, q):
        tally = Tally(keep_samples=True)
        for value in values:
            tally.record(value)
        p = tally.percentile(q)
        assert min(values) <= p <= max(values)
        assert tally.percentile(0.0) <= tally.percentile(1.0)


def pytest_approx(value):
    import pytest

    return pytest.approx(value, rel=1e-6, abs=1e-6)


class TestSameTimeTieBreaking:
    """The heap key is ``(time, priority, seq, event)`` with a strictly
    monotonic ``seq``: ties on time and priority are broken by schedule
    order alone, and ``Event`` objects are never compared."""

    @given(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=1,
                    max_size=80))
    @settings(max_examples=60)
    def test_many_same_time_events_fire_in_schedule_order(self, times):
        sim = Simulator()
        fired = []
        for tag, when in enumerate(times):
            event = sim.event()
            event.callbacks.append(lambda _e, t=tag: fired.append(t))
            event.succeed(value=None, delay=when)
        sim.run()
        expected = [tag for when in (0.0, 1.0, 2.0)
                    for tag, t in enumerate(times) if t == when]
        assert fired == expected

    @given(st.lists(st.booleans(), min_size=2, max_size=60))
    @settings(max_examples=60)
    def test_urgent_preempts_normal_within_a_timestamp(self, urgencies):
        sim = Simulator()
        fired = []

        def record(tag):
            fired.append(tag)
            return
            yield  # a generator: its bootstrap is URGENT

        def start_urgent(_event):
            for tag, urgent in enumerate(urgencies):
                if urgent:
                    sim.process(record(tag))

        # The first event at t = 1 starts the URGENT processes.  By then
        # every NORMAL event of t = 1 sits on the heap with an earlier
        # sequence number than theirs, so priority, not seq, decides.
        sim.timeout(1.0).callbacks.append(start_urgent)
        for tag, urgent in enumerate(urgencies):
            if not urgent:
                event = sim.event()
                event.callbacks.append(lambda _e, t=tag: fired.append(t))
                event.succeed(value=None, delay=1.0)
        sim.run()
        expected = ([t for t, u in enumerate(urgencies) if u]
                    + [t for t, u in enumerate(urgencies) if not u])
        assert fired == expected

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1,
                    max_size=60))
    @settings(max_examples=40)
    def test_identical_schedules_replay_identically(self, times):
        def run_once():
            sim = Simulator()
            fired = []
            for tag, when in enumerate(times):
                event = sim.event()
                event.callbacks.append(lambda _e, t=tag: fired.append(t))
                event.succeed(value=None, delay=float(when))
            sim.run()
            return fired

        assert run_once() == run_once()

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=30)
    def test_store_serves_same_time_getters_fifo(self, n):
        from repro.sim import Store

        sim = Simulator()
        store = Store(sim)
        served = []

        def getter(tag):
            item = yield store.get()
            served.append((tag, item))

        for tag in range(n):
            sim.process(getter(tag))

        def producer():
            yield sim.timeout(1.0)
            for item in range(n):
                store.put(item)

        sim.process(producer())
        sim.run()
        assert served == [(i, i) for i in range(n)]
