"""Queued resources and mailboxes.

:class:`Resource` models a multi-server FCFS service station (CPUs, a
disk, the GEM store, the network).  It is a counted semaphore with a
FIFO wait queue plus built-in statistics: time-weighted busy-server and
queue-length curves, waiting-time and service-count tallies, so that
device utilizations and queuing delays can be reported directly.

:class:`Store` is an unbounded FIFO mailbox used for message passing
between model components (e.g. the communication subsystem delivering
lock requests to a remote node's lock-manager process).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Generator, Optional, Tuple

from repro.sim.engine import (
    NORMAL,
    _PENDING,
    Event,
    SimulationError,
    Simulator,
    _Callback,
)
from repro.sim.stats import Tally, TimeWeighted

__all__ = [
    "Resource",
    "Store",
    "compound_cancel",
    "held_chain",
    "hold_seq",
]


def _end_hold(event: Event) -> None:
    """Dispatch function of a coalesced slice-end (:meth:`Resource.hold`).

    Runs as the entry's first callback when the slice-end timestamp is
    reached: returns the held unit (granting the next waiter, if any)
    *before* the holding process resumes -- exactly where the
    ``finally: release()`` of the event-per-step formulation ran.  A
    slice cancelled early (holder interrupted mid-hold) already
    released and cleared ``data``, making this a no-op.
    """
    resource = event.data
    if resource is not None:
        event.data = None
        resource.release()


class Resource:
    """A multi-server FCFS resource.

    Usage from a process::

        yield resource.request()
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()

    or, equivalently, the :meth:`acquire` helper::

        yield from resource.acquire(service_time)
    """

    __slots__ = (
        "sim",
        "capacity",
        "name",
        "_busy",
        "_queue",
        "busy_stat",
        "queue_stat",
        "wait_time",
        "services",
    )

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._busy = 0
        self._queue: Deque[Tuple[Event, float]] = deque()
        # Statistics.
        self.busy_stat = TimeWeighted(f"{self.name}.busy", now=sim.now)
        self.queue_stat = TimeWeighted(f"{self.name}.queue", now=sim.now)
        self.wait_time = Tally(f"{self.name}.wait")
        self.services = 0

    @property
    def busy(self) -> int:
        """Number of units currently held."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self._queue)

    def request(self) -> Event:
        """Request one unit; the returned event fires when granted."""
        # Manual Event construction: this is the hottest allocation in
        # the model (one per CPU slice / IO), and skipping the __init__
        # frame is measurable.
        sim = self.sim
        event = Event.__new__(Event)
        event.sim = sim
        event.callbacks = []
        event._value = _PENDING
        event._ok = True
        event._scheduled = False
        busy = self._busy
        if busy < self.capacity and not self._queue:
            # Uncontended grant: ``_grant(event, waited=0.0)`` inlined
            # (same float operations, see the comment there) -- this is
            # the overwhelmingly common case and saves a call per
            # request.
            self._busy = busy = busy + 1
            now = sim.now
            stat = self.busy_stat
            stat._area += stat._value * (now - stat._last_time)
            stat._last_time = now
            stat._value = busy
            if busy > stat.max:
                stat.max = busy
            # Deferred zero-wait record (Tally._fold): the count stays
            # eager, the moments fold in before the next read/record.
            tally = self.wait_time
            tally.count += 1
            tally._zeros += 1
            if tally._samples is not None:
                tally._samples.append(0.0)
            self.services += 1
            event._value = self
            event._scheduled = True
            sim._seq += 1
            sim._ready.append((now, NORMAL, sim._seq, event))
        else:
            now = sim.now
            queue = self._queue
            queue.append((event, now))
            # Inlined queue_stat.update(len(queue), now); at high
            # utilization most requests queue, so this is hot too.
            stat = self.queue_stat
            stat._area += stat._value * (now - stat._last_time)
            stat._last_time = now
            depth = len(queue)
            stat._value = depth
            if depth > stat.max:
                stat.max = depth
        return event

    def release(self) -> None:
        """Return one unit, granting it to the next waiter if any."""
        busy = self._busy
        if busy <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        queue = self._queue
        if not queue:
            self._busy = busy = busy - 1
            now = self.sim.now
            # Inlined busy_stat.update(busy, now); the simulation clock
            # is monotone, so the backwards-time guard cannot fire.
            stat = self.busy_stat
            stat._area += stat._value * (now - stat._last_time)
            stat._last_time = now
            stat._value = busy
            return
        # Handoff fusion: the released unit goes straight to the queue
        # head, so the busy level never changes at this instant -- the
        # down-then-up busy_stat double update is skipped entirely
        # (deferring the time-weighted accrual to the next real level
        # change integrates the identical area, since the level is
        # constant in between, and the max cannot move).  The grant
        # accounting runs inline: wait tally, service count, then
        # either the slice-end timer of a coalesced hold/chain entry
        # or the grant event of a plain request.
        sim = self.sim
        now = sim.now
        event, enqueued_at = queue.popleft()
        # Inlined queue_stat.update (see request); the queue only
        # shrinks here, so the max check would never fire.
        qstat = self.queue_stat
        qstat._area += qstat._value * (now - qstat._last_time)
        qstat._last_time = now
        qstat._value = len(queue)
        waited = now - enqueued_at
        # Inlined wait_time.record(waited), folding any deferred
        # zero-wait observations first (see Tally._fold).
        tally = self.wait_time
        if tally._zeros:
            tally._fold()
        tally.count = count = tally.count + 1
        delta = waited - tally._mean
        tally._mean += delta / count
        tally._m2 += delta * (waited - tally._mean)
        if waited < tally._min:
            tally._min = waited
        if waited > tally._max:
            tally._max = waited
        if tally._samples is not None:
            tally._samples.append(waited)
        self.services += 1
        if type(event) is _Callback:
            # Coalesced hold / chain leg: arm the slice-end timer
            # directly instead of waking the holder just to start it.
            data = event.data
            if type(data) is _Compound:
                # A compound leg: the access now holds this resource.
                data.holding = self
            event._scheduled = True
            duration = event.duration
            sim._seq += 1
            if duration:
                heappush(sim._heap, (now + duration, NORMAL, sim._seq, event))
            else:
                sim._ready.append((now, NORMAL, sim._seq, event))
        else:
            # Inlined event.succeed(self): the event came off the wait
            # queue, so it cannot be triggered yet.
            event._value = self
            event._scheduled = True
            sim._seq += 1
            sim._ready.append((now, NORMAL, sim._seq, event))

    def cancel(self, event: Event) -> None:
        """Withdraw a pending :meth:`request`.

        A requester that dies while waiting (e.g. a transaction aborted
        as a deadlock victim) must cancel its request: otherwise a later
        ``release`` grants the unit to the dead event and the unit leaks
        forever.  If the grant already happened, the unit is returned.
        """
        if event.triggered:
            self.release()
            return
        for index, (queued, _enqueued_at) in enumerate(self._queue):
            if queued is event:
                del self._queue[index]
                self.queue_stat.update(len(self._queue), self.sim.now)
                return
        raise ValueError(f"cancel() of unknown request on {self.name!r}")

    def hold(self, duration: float) -> Event:
        """Coalesced slice: one scheduled entry for grant *and* end.

        When a unit is free and nobody queues ahead, the grant happens
        immediately (same statistics as an uncontended :meth:`request`,
        ``waited = 0.0``) and a single :class:`~repro.sim.engine._Callback`
        entry is scheduled at ``now + duration`` whose dispatch releases
        the unit before the holder resumes.  When the resource is
        contended, the entry joins the FIFO wait queue like a request
        would -- but the grant (in :meth:`release`) arms the slice-end
        timer directly instead of waking the holder just so it can
        start a timeout.  Either way the holder suspends exactly
        once per slice, on the slice-end entry, and the grant event of
        the event-per-step formulation never exists.

        The caller *must* guard the ``yield`` with :meth:`hold_cancel`
        so an interrupt thrown mid-wait or mid-hold returns the unit::

            entry = resource.hold(duration)
            try:
                yield entry
            except BaseException:
                resource.hold_cancel(entry)
                raise
        """
        if duration < 0:
            raise SimulationError(f"negative timeout delay: {duration!r}")
        sim = self.sim
        entry = _Callback.__new__(_Callback)
        entry.sim = sim
        entry.callbacks = [_end_hold]
        entry._value = None
        entry._ok = True
        entry.data = self
        busy = self._busy
        if busy < self.capacity and not self._queue:
            # Inlined uncontended grant (same float operations as the
            # request() fast path: busy_stat.update(busy+1, now) and
            # wait_time.record(0.0)).
            self._busy = busy = busy + 1
            now = sim.now
            stat = self.busy_stat
            stat._area += stat._value * (now - stat._last_time)
            stat._last_time = now
            stat._value = busy
            if busy > stat.max:
                stat.max = busy
            # Deferred zero-wait record (Tally._fold): the count stays
            # eager, the moments fold in before the next read/record.
            tally = self.wait_time
            tally.count += 1
            tally._zeros += 1
            if tally._samples is not None:
                tally._samples.append(0.0)
            self.services += 1
            entry._scheduled = True
            sim._seq += 1
            if duration:
                heappush(sim._heap, (now + duration, NORMAL, sim._seq, entry))
            else:
                sim._ready.append((now, NORMAL, sim._seq, entry))
        else:
            # Contended: park the entry on the wait queue; ``duration``
            # rides along for _grant_hold.  ``_scheduled`` doubles as
            # the waiting/armed discriminator for hold_cancel.
            entry._scheduled = False
            entry.duration = duration
            now = sim.now
            queue = self._queue
            queue.append((entry, now))
            # Inlined queue_stat.update(len(queue), now), as in request().
            stat = self.queue_stat
            stat._area += stat._value * (now - stat._last_time)
            stat._last_time = now
            depth = len(queue)
            stat._value = depth
            if depth > stat.max:
                stat.max = depth
        return entry

    def hold_cancel(self, entry: Event) -> None:
        """Tear down a coalesced slice mid-wait or mid-hold.

        Still queued: the entry is withdrawn, like :meth:`cancel` of a
        pending request.  Already holding: the unit is returned and the
        pending slice-end entry is disarmed in place (its dispatch
        becomes a no-op), so the unit cannot be returned twice.  The
        armed form is idempotent, mirroring the at-most-once
        ``finally: release()`` of the event-per-step path.
        """
        if not entry._scheduled:
            for index, (queued, _enqueued_at) in enumerate(self._queue):
                if queued is entry:
                    del self._queue[index]
                    self.queue_stat.update(len(self._queue), self.sim.now)
                    return
            raise ValueError(f"hold_cancel() of unknown entry on {self.name!r}")
        if entry.data is not None:
            entry.data = None
            self.release()

    def acquire(self, duration: float) -> Generator[Event, Any, None]:
        """Request a unit, hold it for ``duration``, release it.

        A thin cancel-safe wrapper over :meth:`hold`: the generator
        suspends exactly once, on the combined slice-end entry, whether
        or not the resource is contended.  An exception thrown into the
        generator while it waits (or holds) returns the unit.
        """
        entry = self.hold(duration)
        try:
            yield entry
        except BaseException:
            self.hold_cancel(entry)
            raise

    def busy_time(self, now: Optional[float] = None) -> float:
        """Accumulated busy server-seconds since the last reset."""
        now = self.sim.now if now is None else now
        return self.busy_stat.integral(now)

    def utilization(self, now: Optional[float] = None) -> float:
        """Time-average fraction of units busy since the last reset."""
        now = self.sim.now if now is None else now
        return self.busy_stat.time_average(now) / self.capacity

    def mean_queue_length(self, now: Optional[float] = None) -> float:
        now = self.sim.now if now is None else now
        return self.queue_stat.time_average(now)

    def reset_stats(self) -> None:
        """Discard accumulated statistics (end of warm-up)."""
        now = self.sim.now
        self.busy_stat.reset(now)
        self.queue_stat.reset(now)
        self.wait_time.reset()
        self.services = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Resource({self.name!r}, busy={self._busy}/{self.capacity}, "
            f"queued={len(self._queue)})"
        )


# -- compound held accesses -----------------------------------------------


class _Compound:
    """Progress record of one compound access (:func:`hold_seq`,
    :func:`held_chain`): the legs, the next leg to start, the unit the
    current leg holds, and -- for a nested chain -- the first leg's unit,
    which stays held until the whole access completes."""

    __slots__ = ("legs", "index", "holding", "nested", "outer", "done", "entry")

    legs: Tuple[Tuple[Optional[Resource], float, Any], ...]
    index: int
    holding: Optional[Resource]
    nested: bool
    outer: Optional[Resource]
    done: _Callback
    entry: _Callback


def _advance(entry: Event) -> None:
    """End the current leg (if any) and start the next one.

    The sole dispatch of a compound entry, and also how the constructor
    starts leg 0.  The ended leg's unit is released -- except the first
    leg of a nested chain, whose unit stays held under the rest.  A
    resource leg is then granted immediately when free (arming the
    leg-end timer in this same step) or parked on the resource's FIFO
    queue, where the grant in :meth:`Resource.release` arms the timer
    and records the unit in ``holding``; a ``None`` resource is a pure
    delay.  Past the last leg the kept outer unit is released and the
    ``done`` event's callbacks run inline, so releases run innermost
    first and no separate completion event is ever scheduled.  A
    cancelled access cleared ``data``, making the fire a no-op.
    """
    state = entry.data
    if state is None:
        return
    holding = state.holding
    if holding is not None:
        state.holding = None
        if state.nested and state.outer is None:
            state.outer = holding
        else:
            holding.release()
    legs = state.legs
    index = state.index
    if index == len(legs):
        entry.data = None
        outer = state.outer
        if outer is not None:
            outer.release()
        done = state.done
        # Break the done <-> state cycle: the collector is suspended
        # during runs, so cyclic garbage would pile up.
        done.data = None
        callbacks = done.callbacks
        done.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(done)
        return
    state.index = index + 1
    # Re-arm: the run loop consumed the callbacks list when the entry
    # fired, so every leg installs a fresh dispatch.
    entry.callbacks = [_advance]
    resource, duration, stream = legs[index]
    if stream is not None:
        # Lazy service-time draw, at the instant the leg starts -- the
        # interleaving of draws on a shared stream is preserved.
        duration = stream.exponential(duration)
    sim = entry.sim
    now = sim.now
    if resource is not None:
        busy = resource._busy
        if busy >= resource.capacity or resource._queue:
            # Contended: park the entry on the FIFO wait queue with its
            # duration, as Resource.hold does; the grant in release()
            # arms the leg-end timer.
            entry._scheduled = False
            entry.duration = duration
            queue = resource._queue
            queue.append((entry, now))
            stat = resource.queue_stat
            stat._area += stat._value * (now - stat._last_time)
            stat._last_time = now
            depth = len(queue)
            stat._value = depth
            if depth > stat.max:
                stat.max = depth
            return
        # Inlined uncontended grant: the float operations of the
        # request() fast path (busy_stat update, deferred zero-wait
        # record, service count).
        resource._busy = busy = busy + 1
        stat = resource.busy_stat
        stat._area += stat._value * (now - stat._last_time)
        stat._last_time = now
        stat._value = busy
        if busy > stat.max:
            stat.max = busy
        tally = resource.wait_time
        tally.count += 1
        tally._zeros += 1
        if tally._samples is not None:
            tally._samples.append(0.0)
        resource.services += 1
        state.holding = resource
    entry._scheduled = True
    sim._seq += 1
    if duration:
        heappush(sim._heap, (now + duration, NORMAL, sim._seq, entry))
    else:
        sim._ready.append((now, NORMAL, sim._seq, entry))


def _compound(
    sim: Simulator,
    legs: Tuple[Tuple[Optional[Resource], float, Any], ...],
    nested: bool,
) -> Event:
    """Build the completion event and the one re-armed leg entry, and
    start leg 0."""
    done = _Callback.__new__(_Callback)
    done.sim = sim
    done.callbacks = []
    done._value = None
    done._ok = True
    done._scheduled = True
    entry = _Callback.__new__(_Callback)
    entry.sim = sim
    entry._value = None
    entry._ok = True
    entry._scheduled = False
    state = _Compound()
    state.legs = legs
    state.index = 0
    state.holding = None
    state.nested = nested
    state.outer = None
    state.done = done
    state.entry = entry
    entry.data = state
    done.data = state
    _advance(entry)
    return done


def hold_seq(
    sim: Simulator, legs: Tuple[Tuple[Optional[Resource], float, Any], ...]
) -> Event:
    """Sequential compound access: hold each leg in turn, one resume.

    Each leg is ``(resource, time, stream)``: the resource is acquired
    (FIFO alongside plain requests), held and released before the next
    leg starts; a ``None`` resource is a plain delay.  With a ``None``
    stream the leg lasts exactly ``time``; otherwise the duration is
    drawn as ``stream.exponential(time)`` when the leg *starts*, so the
    interleaving of draws on a shared stream is unchanged.

    This is the disk I/O shape -- CPU setup slice, controller service,
    bus transfer, disk service.  The whole access is driven by ONE
    re-armed scheduled entry; the caller suspends exactly once, on the
    returned completion event, instead of once per leg.  Queueing,
    grant statistics, RNG draws and release instants are identical to
    one :meth:`Resource.hold` (or ``sim.timeout`` for a ``None`` leg)
    per leg, under the same-timestamp contract of ``docs/MODEL.md``: a
    grant and the start of its hold are one dispatch step.  A
    ``request`` / ``yield`` / ``timeout`` / ``release`` step per leg is
    *not* equivalent on timestamp ties -- it spends an extra same-time
    step per grant, so its leg timers lose ties they win here.

    The caller *must* guard the ``yield`` with :func:`compound_cancel`
    so an interrupt at any stage returns whatever is held or queued::

        done = hold_seq(sim, ((cpu, setup, None), (ctrl, t1, s), (None, xfer, None)))
        try:
            yield done
        except BaseException:
            compound_cancel(done)
            raise
    """
    for _resource, duration, stream in legs:
        if stream is None and duration < 0:
            raise SimulationError(f"negative leg duration: {duration!r}")
    return _compound(sim, legs, False)


def held_chain(
    outer: Resource, inner: Resource, outer_time: float, inner_time: float
) -> Event:
    """Compound access: hold ``outer``, then ``inner`` on top of it.

    Models the paper's synchronous GEM access: the CPU (``outer``) is
    acquired and held for ``outer_time`` (the setup instructions), then
    -- with the CPU still held -- one unit of the GEM server
    (``inner``) is acquired, held for ``inner_time`` and released,
    after which the CPU is released too.  Queuing at either resource is
    FIFO alongside plain requests, and the outer stays busy while the
    chain waits for the inner.

    A two-leg :func:`hold_seq` whose first unit stays held until the
    chain completes: one re-armed entry, one resume of the caller, and
    the same cancel.  The caller *must* guard the ``yield`` with
    :func:`compound_cancel`::

        done = held_chain(cpu, server, setup_time, access_time)
        try:
            yield done
        except BaseException:
            compound_cancel(done)
            raise
    """
    if outer_time < 0 or inner_time < 0:
        raise SimulationError(
            f"negative chain duration: {outer_time!r}, {inner_time!r}"
        )
    return _compound(
        outer.sim, ((outer, outer_time, None), (inner, inner_time, None)), True
    )


def compound_cancel(done: Event) -> None:
    """Tear down an in-flight :func:`hold_seq` / :func:`held_chain`.

    Releases the current leg's unit or withdraws its queued entry (a
    pure-delay leg's disarmed entry fires as a no-op), then releases a
    nested chain's kept outer unit -- innermost first, as at completion.
    Idempotent and a no-op on a completed access.
    """
    state = done.data
    if state is None:
        return
    done.data = None
    entry = state.entry
    entry.data = None
    holding = state.holding
    if holding is not None:
        state.holding = None
        holding.release()
    elif not entry._scheduled:
        # Queued at the current leg's resource (only resource legs
        # enqueue, so the leg cannot be a pure delay): withdraw it the
        # way a queued slice is withdrawn.
        state.legs[state.index - 1][0].hold_cancel(entry)
    outer = state.outer
    if outer is not None:
        outer.release()


class Store:
    """An unbounded FIFO mailbox.

    ``put`` never blocks; ``get`` returns an event that fires with the
    next item (immediately if one is already buffered).  Items are
    delivered to getters in FIFO order on both sides.
    """

    __slots__ = ("sim", "name", "_items", "_getters", "size_stat", "puts")

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name or "store"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.size_stat = TimeWeighted(f"{self.name}.size", now=sim.now)
        self.puts = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        self.puts += 1
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
            self.size_stat.update(len(self._items), self.sim.now)

    def get(self) -> Event:
        event = Event(self.sim)
        if self._items:
            item = self._items.popleft()
            self.size_stat.update(len(self._items), self.sim.now)
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    def clear(self) -> int:
        """Drop all buffered items (crash teardown); returns the count."""
        dropped = len(self._items)
        if dropped:
            self._items.clear()
            self.size_stat.update(0, self.sim.now)
        return dropped

    def reset_stats(self) -> None:
        self.size_stat.reset(self.sim.now)
        self.puts = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Store({self.name!r}, items={len(self._items)}, waiting={len(self._getters)})"
