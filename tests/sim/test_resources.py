"""Unit tests for Resource and Store."""

import pytest

from repro.errors import NodeCrashed
from repro.sim import Resource, Simulator, Store
from repro.sim.resources import compound_cancel, held_chain, hold_seq


@pytest.fixture
def sim():
    return Simulator()


class TestResourceBasics:
    def test_invalid_capacity_rejected(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_immediate_grant_when_idle(self, sim):
        res = Resource(sim, capacity=1)
        grants = []

        def proc():
            # simlint: disable-next=RES001 -- the raw request() grant is what this test checks
            yield res.request()
            grants.append(sim.now)
            res.release()

        sim.process(proc())
        sim.run()
        assert grants == [0.0]

    def test_release_idle_resource_raises(self, sim):
        res = Resource(sim, capacity=1)
        with pytest.raises(RuntimeError):
            res.release()

    def test_fifo_queuing_single_server(self, sim):
        res = Resource(sim, capacity=1, name="cpu")
        log = []

        def job(tag, service):
            # simlint: disable-next=RES001 -- FIFO order of raw request() grants is the subject
            yield res.request()
            log.append(("start", tag, sim.now))
            yield sim.timeout(service)
            res.release()
            log.append(("end", tag, sim.now))

        sim.process(job("a", 2.0))
        sim.process(job("b", 1.0))
        sim.process(job("c", 1.0))
        sim.run()
        assert log == [
            ("start", "a", 0.0),
            ("end", "a", 2.0),
            ("start", "b", 2.0),
            ("end", "b", 3.0),
            ("start", "c", 3.0),
            ("end", "c", 4.0),
        ]

    def test_multi_server_parallelism(self, sim):
        res = Resource(sim, capacity=2)
        ends = []

        def job(service):
            yield from res.acquire(service)
            ends.append(sim.now)

        for _ in range(4):
            sim.process(job(1.0))
        sim.run()
        # Two run immediately, two queue behind them.
        assert ends == [1.0, 1.0, 2.0, 2.0]

    def test_holder_crash_with_release_in_finally_frees_unit(self, sim):
        res = Resource(sim, capacity=1)
        grants = []

        def holder():
            # simlint: disable-next=RES001 -- a raw request() holder released in finally is the subject
            yield res.request()
            try:
                yield sim.timeout(2.0)
                raise ValueError("abort mid-hold")
            finally:
                res.release()

        def waiter():
            # simlint: disable-next=RES001 -- the raw request() grant after the crash is what this test checks
            yield res.request()
            grants.append(sim.now)
            res.release()

        crashing = sim.process(holder())

        def supervisor():
            try:
                yield crashing
            except ValueError:
                pass

        sim.process(supervisor())
        sim.process(waiter())
        sim.run()
        assert grants == [2.0]
        assert res.busy == 0

    def test_busy_and_queue_counts(self, sim):
        res = Resource(sim, capacity=1)

        def holder():
            yield from res.acquire(5.0)

        def waiter():
            yield from res.acquire(0.0)

        sim.process(holder())
        sim.process(waiter())
        sim.run(until=1.0)
        assert res.busy == 1
        assert res.queue_length == 1
        sim.run()
        assert res.busy == 0
        assert res.queue_length == 0


class TestResourceStatistics:
    def test_utilization_single_job(self, sim):
        res = Resource(sim, capacity=1)

        def job():
            yield from res.acquire(4.0)

        sim.process(job())
        sim.run()
        sim.run(until=8.0)
        assert res.utilization() == pytest.approx(0.5)

    def test_utilization_multi_server(self, sim):
        res = Resource(sim, capacity=4)

        def job():
            yield from res.acquire(10.0)

        sim.process(job())
        sim.process(job())
        sim.run()
        assert res.utilization() == pytest.approx(0.5)

    def test_wait_time_tally(self, sim):
        res = Resource(sim, capacity=1)

        def job(service):
            yield from res.acquire(service)

        sim.process(job(3.0))
        sim.process(job(1.0))
        sim.run()
        assert res.wait_time.count == 2
        assert res.wait_time.mean == pytest.approx((0.0 + 3.0) / 2)

    def test_services_counter(self, sim):
        res = Resource(sim, capacity=2)

        def job():
            yield from res.acquire(1.0)

        for _ in range(5):
            sim.process(job())
        sim.run()
        assert res.services == 5

    def test_reset_stats_discards_history(self, sim):
        res = Resource(sim, capacity=1)

        def job():
            yield from res.acquire(10.0)

        sim.process(job())
        sim.run()
        res.reset_stats()
        sim.run(until=20.0)
        assert res.utilization() == pytest.approx(0.0)
        assert res.services == 0

    def test_mean_queue_length(self, sim):
        res = Resource(sim, capacity=1)

        def holder():
            yield from res.acquire(10.0)

        def waiter():
            yield from res.acquire(0.0)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        # One waiter queued for the whole 10s interval.
        assert res.mean_queue_length() == pytest.approx(1.0)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        seen = []

        def consumer():
            item = yield store.get()
            seen.append((sim.now, item))

        store.put("m1")
        sim.process(consumer())
        sim.run()
        assert seen == [(0.0, "m1")]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        seen = []

        def consumer():
            item = yield store.get()
            seen.append((sim.now, item))

        def producer():
            yield sim.timeout(3.0)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert seen == [(3.0, "late")]

    def test_fifo_item_order(self, sim):
        store = Store(sim)
        seen = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                seen.append(item)

        for item in ["a", "b", "c"]:
            store.put(item)
        sim.process(consumer())
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_fifo_getter_order(self, sim):
        store = Store(sim)
        seen = []

        def consumer(tag):
            item = yield store.get()
            seen.append((tag, item))

        sim.process(consumer("first"))
        sim.process(consumer("second"))

        def producer():
            yield sim.timeout(1.0)
            store.put("x")
            store.put("y")

        sim.process(producer())
        sim.run()
        assert seen == [("first", "x"), ("second", "y")]

    def test_len_and_puts(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.puts == 2


class TestCancel:
    """Regression tests: aborting a waiter must not leak a unit."""

    def test_cancel_removes_queued_request(self, sim):
        res = Resource(sim, capacity=1)
        res.request()  # granted immediately, held forever
        waiting = res.request()
        assert res.queue_length == 1
        res.cancel(waiting)
        assert res.queue_length == 0
        res.release()
        assert res.busy == 0  # no grant went to the cancelled event

    def test_cancel_of_unknown_request_raises(self, sim):
        res = Resource(sim, capacity=1)
        from repro.sim.engine import Event

        with pytest.raises(ValueError):
            res.cancel(Event(sim))

    def test_cancel_after_grant_returns_unit(self, sim):
        res = Resource(sim, capacity=1)
        granted = res.request()
        assert granted.triggered
        res.cancel(granted)  # too late to withdraw: unit is returned
        assert res.busy == 0

    def test_aborted_waiter_does_not_leak_unit(self, sim):
        """A waiter killed inside ``acquire`` must withdraw its request.

        Pre-fix, the queued request survived the death of its
        generator: the next ``release`` granted the unit to the dead
        event and ``busy`` stayed at 1 forever.
        """
        from repro.errors import TransactionAborted

        res = Resource(sim, capacity=1)

        def holder():
            yield from res.acquire(10.0)

        sim.process(holder())
        sim.run(until=1.0)
        # Drive a second acquirer by hand so we can throw into it while
        # it waits for the grant (an abort mid-lock-wait does this to
        # any process suspended inside ``acquire``).
        gen = res.acquire(5.0)
        gen.send(None)  # yields the queued request event
        with pytest.raises(TransactionAborted):
            gen.throw(TransactionAborted(99))
        assert res.queue_length == 0
        sim.run()  # holder releases at t=10
        assert res.busy == 0

    def test_waiter_killed_by_crash_leaves_resource_consistent(self, sim):
        """Regression: a queued waiter interrupted by a node crash must
        withdraw its request -- otherwise a later release grants the
        unit to the dead event and it leaks forever."""
        from repro.errors import NodeCrashed

        res = Resource(sim, capacity=1)

        def holder():
            yield from res.acquire(2.0)

        def waiter():
            try:
                yield from res.acquire(1.0)
            except NodeCrashed:
                pass  # the crash teardown swallows it, as the TM does

        sim.process(holder())
        victim = sim.process(waiter())
        sim.run(until=1.0)
        assert res.queue_length == 1
        assert victim.interrupt(NodeCrashed(0))
        sim.run(until=1.001)  # deliver the urgent interrupt throw
        assert res.queue_length == 0  # request withdrawn
        assert res.busy == 1  # holder still owns the unit

        # The unit must still circulate: a fresh waiter gets it when
        # the holder releases at t=2.
        served = []

        def successor():
            yield from res.acquire(0.5)
            served.append(sim.now)

        sim.process(successor())
        sim.run()
        assert served == [pytest.approx(2.5)]
        assert res.busy == 0
        assert res.queue_length == 0

    def test_busy_time_integral(self, sim):
        res = Resource(sim, capacity=2)

        def job(duration):
            yield from res.acquire(duration)

        sim.process(job(2.0))
        sim.process(job(3.0))
        sim.run()
        assert res.busy_time() == pytest.approx(5.0)


class TestGrab:
    """Cancel-safe grant waits: the MPL-slot shape, ``request`` then
    ``try: yield ... except BaseException: cancel; raise``.

    Regression class for the unit-leak bug: a bare ``yield
    resource.request()`` interrupted while queued left the request in
    the queue, so the next release granted the unit to a dead event
    and the capacity was lost for the rest of the run.
    """

    def test_grab_holds_unit_on_return(self, sim):
        res = Resource(sim, capacity=1)
        observed = []

        def proc():
            request = res.request()
            try:
                yield request
            except BaseException:
                res.cancel(request)
                raise
            try:
                observed.append(res.busy)
            finally:
                res.release()

        sim.process(proc())
        sim.run()
        assert observed == [1]
        assert res.busy == 0

    def test_interrupt_while_queued_withdraws_request(self, sim):
        from repro.errors import NodeCrashed

        res = Resource(sim, capacity=1, name="cpu")

        def holder():
            yield from res.acquire(2.0)

        def waiter():
            try:
                request = res.request()
                try:
                    yield request
                except BaseException:
                    res.cancel(request)
                    raise
            except NodeCrashed:
                return  # torn down while still queued
            res.release()  # pragma: no cover - must not be granted

        sim.process(holder())
        victim = sim.process(waiter())
        sim.run(until=1.0)
        assert res.queue_length == 1
        assert victim.interrupt(NodeCrashed(0))
        sim.run(until=1.001)
        assert res.queue_length == 0

        # The holder's release at t=2 must leave the unit free, not
        # grant it to the interrupted waiter's dead event.
        served = []

        def successor():
            yield from res.acquire(0.5)
            served.append(sim.now)

        sim.process(successor())
        sim.run()
        assert served == [pytest.approx(2.5)]
        assert res.busy == 0


def crashable(sim, start_access):
    """A process that runs one compound access, cancel-guarded, and
    dies quietly when a crash interrupts it."""

    def proc():
        try:
            done = start_access()
            try:
                yield done
            except BaseException:
                compound_cancel(done)
                raise
        except NodeCrashed:
            return

    return sim.process(proc())


class TestCompoundCancel:
    """An interrupt at any stage of a compound access returns what the
    access holds and withdraws what it queues."""

    @pytest.mark.parametrize(
        "outer_blocked, inner_blocked, crash_at, busy_after",
        [
            (True, False, 1.0, (1, 0)),  # queued at the outer resource
            (False, False, 0.5, (0, 0)),  # holding the outer
            (False, True, 2.0, (0, 1)),  # holding the outer, queued at the inner
            (False, False, 1.5, (0, 0)),  # holding both
        ],
    )
    def test_held_chain_cancel_at_every_stage(
        self, sim, outer_blocked, inner_blocked, crash_at, busy_after
    ):
        outer = Resource(sim, name="cpu")
        inner = Resource(sim, name="gem")
        for resource, blocked in ((outer, outer_blocked), (inner, inner_blocked)):
            if blocked:
                sim.process(resource.acquire(3.0))
        victim = crashable(sim, lambda: held_chain(outer, inner, 1.0, 1.0))
        sim.run(until=crash_at)
        assert victim.interrupt(NodeCrashed(0))
        sim.run(until=crash_at + 0.001)
        # Only the blockers' units remain; nothing of the chain queues.
        assert (outer.busy, inner.busy) == busy_after
        assert outer.queue_length == inner.queue_length == 0
        sim.run()
        assert outer.busy == inner.busy == 0

    def test_hold_seq_cancel_in_a_delay_leg_disarms_it(self, sim):
        res = Resource(sim, name="disk")
        victim = crashable(
            sim, lambda: hold_seq(sim, ((None, 1.0, None), (res, 1.0, None)))
        )
        sim.run(until=0.5)
        assert victim.interrupt(NodeCrashed(0))
        sim.run()
        # The delay's entry fires at t=1 as a no-op: no leg starts.
        assert sim.now == pytest.approx(1.0)
        assert res.services == 0 and res.busy == 0

    def test_cancel_after_completion_is_a_no_op(self, sim):
        res = Resource(sim)
        done = hold_seq(sim, ((res, 1.0, None),))
        sim.run()
        compound_cancel(done)
        compound_cancel(done)
        assert res.busy == 0 and res.services == 1
