"""Event loop, events and processes for the simulation kernel.

The design follows the classic process-oriented simulation style: model
logic is written as Python generator functions that ``yield`` events.
The :class:`Simulator` owns a binary heap of ``(time, priority,
sequence, event)`` tuples so that execution order is fully
deterministic for a given model and seed.

The hot paths -- triggering an event, resuming a process, the run loop
-- are deliberately flat: scheduling is inlined into
:meth:`Event.succeed` and :meth:`Simulator.timeout`, the generator
``send`` / ``throw`` methods are bound once per process, and the run
loop touches the heap through pre-bound module functions.

There is one event-loop body, in :meth:`Simulator.run`; bounded
(``until=t``), unbounded (``until=None``, an infinite horizon) and
sanitized runs all execute it.  :meth:`Simulator.step` processes a
single event by the same rule and is the reference the property tests
compare ``run`` against.

Same-timestamp scheduling bypasses the heap entirely.  Every zero-delay
schedule lands at the current clock value, so the engine keeps two FIFO
side lanes next to the heap -- ``_urgent`` for priority-:data:`URGENT`
entries (process bootstraps, interrupt relays) and ``_ready`` for
zero-delay :data:`NORMAL` entries (resource grants, mailbox deliveries).
Lane entries carry the same ``(time, priority, seq, event)`` tuples as
the heap, and the run loop picks the tuple-minimum of the lane heads
and the heap top, so the observable execution order is *identical* to
pushing everything through one heap: the global monotone ``seq``
remains the only same-time tie-break.  What changes is the cost -- one
heap pop brings the clock to ``t`` and the whole same-timestamp cohort
then drains from the lanes at deque speed.

:class:`_Callback` is the other structural event-count saver: a
pre-armed, ``__slots__``-based record whose dispatch function is
installed as its first callback at construction.  Resource slices
(grant -> hold -> release) schedule one ``_Callback`` at the slice end
instead of a grant event plus a timeout, halving both the heap traffic
and the generator resumes of the no-contention fast path (see
:meth:`repro.sim.resources.Resource.hold`).
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional

__all__ = [
    "AllOf",
    "Event",
    "Interrupted",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]

#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for urgent events (processed before normal events at
#: the same timestamp), e.g. process bootstrap.
URGENT = 0


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel itself."""


class Interrupted(Exception):
    """Raised inside a process when one of its waited-on events fails.

    The original cause is available as ``exc.cause``.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


_PENDING = object()


def _discard(event: "Event") -> None:
    """Callback placeholder for waiters detached by an interrupt."""


class Event:
    """A one-shot occurrence that processes can wait for.

    An event starts *pending*, is *triggered* exactly once with either a
    value (:meth:`succeed`) or an exception (:meth:`fail`) and then
    notifies all registered callbacks when the simulator processes it.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callables invoked with this event once it has been processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value or exception attached."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is fully done)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError("event has already been triggered")
        if delay < 0:
            raise SimulationError("negative delay")
        # _ok is True from construction and a failed event counts as
        # triggered, so it cannot be stale here.
        self._value = value
        self._scheduled = True
        sim = self.sim
        sim._seq += 1
        if delay == 0.0:
            sim._ready.append((sim.now, NORMAL, sim._seq, self))
        else:
            heappush(sim._heap, (sim.now + delay, NORMAL, sim._seq, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        Waiting processes observe the exception being raised at their
        ``yield`` statement.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise SimulationError("event has already been triggered")
        if delay < 0:
            raise SimulationError("negative delay")
        self._ok = False
        self._value = exception
        self._scheduled = True
        sim = self.sim
        sim._seq += 1
        if delay == 0.0:
            sim._ready.append((sim.now, NORMAL, sim._seq, self))
        else:
            heappush(sim._heap, (sim.now + delay, NORMAL, sim._seq, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self.callbacks is None:
            state = "processed"
        elif self._value is not _PENDING:
            state = "triggered"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after a fixed delay.

    Built only by :meth:`Simulator.timeout`, which fills the slots
    directly: timeouts are the most common event kind and an
    ``__init__`` frame is pure overhead at this call frequency.
    """

    __slots__ = ("delay",)

    delay: float


class _Callback(Event):
    """A pre-armed plumbing event that never goes through succeed/fail.

    The creator installs a module-level dispatch function as the first
    (and initially only) callback and parks whatever state the dispatch
    needs in ``data``.  A process may still wait on it -- its resume
    callback is appended behind the dispatch function, so the dispatch
    always runs first when the entry is popped.

    This is the record behind the coalesced resource slice: one
    ``_Callback`` at the slice-end timestamp replaces the grant event
    plus hold timeout of the event-per-step formulation (the dispatch
    releases the resource before the holder resumes, exactly where the
    ``finally: release()`` of the two-event path ran).  A contended
    slice parks the entry on the resource's wait queue with its
    ``duration``; the grant arms the slice-end timer directly instead
    of waking the holder just to start it.
    """

    __slots__ = ("data", "duration")

    data: Any
    duration: float


class Process(Event):
    """A running model process.

    Wraps a generator; each value the generator yields must be an
    :class:`Event`.  The process resumes when that event is processed,
    receiving the event's value at the ``yield`` (or the event's
    exception raised at the ``yield`` wrapped in :class:`Interrupted`
    for failed non-process events, or re-raised directly for failed
    child processes).

    A process is itself an event: it triggers with the generator's
    return value, or fails if the generator raises.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_send", "_throw", "_resume_cb")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError("Process requires a generator")
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._scheduled = False
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bound once: every resume uses these, and a bound-method lookup
        # per event is measurable at this call frequency.
        self._send = generator.send
        self._throw = generator.throw
        resume = self._resume
        self._resume_cb: Callable[[Event], None] = resume
        # Bootstrap: resume the generator at the current simulation time.
        bootstrap = Event.__new__(Event)
        bootstrap.sim = sim
        bootstrap.callbacks = [resume]
        bootstrap._value = None
        bootstrap._ok = True
        bootstrap._scheduled = True
        self._waiting_on: Optional[Event] = bootstrap
        sim._seq += 1
        sim._urgent.append((sim.now, URGENT, sim._seq, bootstrap))

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: BaseException) -> bool:
        """Tear the process off whatever event it is waiting on.

        ``cause`` is raised inside the generator at its current
        ``yield``, exactly as if the awaited event had failed.  Cleanup
        handlers (``try``/``finally``, resource cancel-on-throw) run as
        usual, so model state stays consistent.

        Returns ``False`` (and does nothing) when the process has
        already finished.  Interrupting a process twice before the
        first interrupt is delivered is a no-op on the second call.
        """
        if self._value is not _PENDING:
            return False
        target = self._waiting_on
        if target is None:
            # Interrupt already pending (or process mid-resume, which
            # cannot happen from model code: the event loop is single
            # threaded and only the interrupt relay clears _waiting_on).
            return False
        if target.callbacks is not None:
            try:
                index = target.callbacks.index(self._resume_cb)
            except ValueError:
                pass
            else:
                # Keep a placeholder so a later failure of the
                # abandoned event is discarded instead of surfacing as
                # an unhandled simulation error.
                target.callbacks[index] = _discard
        self._waiting_on = None
        sim = self.sim
        relay = Event.__new__(Event)
        relay.sim = sim
        relay.callbacks = [self._resume_cb]
        relay._value = cause
        relay._ok = False
        relay._scheduled = True
        sim._seq += 1
        sim._urgent.append((sim.now, URGENT, sim._seq, relay))
        return True

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                target = self._throw(event._value)
        except StopIteration as stop:
            # Break the instance -> bound-method -> instance cycle so a
            # finished process is freed by reference counting alone (the
            # run loop suspends the cyclic collector, see ``run``).
            self._resume_cb = _discard
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._resume_cb = _discard
            self.fail(exc)
            return
        sim = self.sim
        # Duck-typed in place of ``isinstance(target, Event)``: the
        # attribute loads are needed anyway and the try block is free
        # on the success path (3.11 zero-cost exceptions).
        try:
            target_sim = target.sim
            callbacks = target.callbacks
        except AttributeError:
            # Tell the generator off; this surfaces as a process failure.
            try:
                self._throw(
                    SimulationError(
                        f"process {self.name!r} yielded a non-event: {target!r}"
                    )
                )
            except StopIteration as stop:
                self.succeed(stop.value)
            except BaseException as exc:
                self.fail(exc)
            return
        if target_sim is not sim:
            self.fail(SimulationError("yielded event belongs to another simulator"))
            return
        if callbacks is None:
            # Already done: resume immediately (at current time, urgent).
            relay = Event.__new__(Event)
            relay.sim = sim
            relay.callbacks = [self._resume_cb]
            relay._value = target._value
            relay._ok = target._ok
            relay._scheduled = True
            self._waiting_on = relay
            sim._seq += 1
            sim._urgent.append((sim.now, URGENT, sim._seq, relay))
        else:
            self._waiting_on = target
            callbacks.append(self._resume_cb)


class AllOf(Event):
    """Triggers when *all* component events have been processed.

    Succeeds with the list of component values; fails as soon as any
    component fails.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition spans multiple simulators")
        self._remaining = 0
        for ev in self.events:
            if ev.processed and not ev._ok:
                self.fail(ev._value)
                return
        pending = [ev for ev in self.events if not ev.processed]
        self._remaining = len(pending)
        if not self._remaining:
            self.succeed([ev._value for ev in self.events])
            return
        for ev in pending:
            ev.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([ev._value for ev in self.events])


class Simulator:
    """The simulation clock and event loop."""

    def __init__(self) -> None:
        #: Current simulation time (seconds).  Read-mostly for model
        #: code; only the run loop advances it.
        self.now = 0.0
        #: Number of events executed so far (for diagnostics).
        self.events_processed = 0
        self._heap: List[Any] = []
        #: Same-timestamp fast lanes (see module docstring): FIFO
        #: deques of the same ``(time, priority, seq, event)`` tuples
        #: as the heap.  Every entry in them is at the current clock
        #: value -- zero-delay schedules only -- so append order is seq
        #: order and the lane heads compare against the heap top with
        #: plain tuple comparison.
        self._urgent: Deque[Any] = deque()
        self._ready: Deque[Any] = deque()
        self._seq = 0

    # -- event construction helpers ------------------------------------

    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        event = Timeout.__new__(Timeout)
        event.sim = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._scheduled = True
        event.delay = delay
        self._seq += 1
        if delay == 0.0:
            self._ready.append((self.now, NORMAL, self._seq, event))
        else:
            heappush(self._heap, (self.now + delay, NORMAL, self._seq, event))
        return event

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Spawn a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- running --------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event: the reference for :meth:`run`.

        The next event is the global minimum of the lane heads and the
        heap top, all valid heap tuples.  ``_urgent`` entries are at
        the current time with priority :data:`URGENT`; every heap entry
        is :data:`NORMAL` (only process bootstraps and interrupt relays
        are URGENT, and both are same-time), so an urgent head always
        wins.  ``_ready`` entries can only lose to an earlier-``seq``
        NORMAL landing now.
        :meth:`run` inlines this body; the property tests compare the
        two event by event.  Raises ``IndexError`` when no event is
        scheduled at all.
        """
        heap = self._heap
        urgent = self._urgent
        ready = self._ready
        if urgent:
            entry = urgent[0]
            if heap and heap[0] < entry:
                entry = heappop(heap)
            else:
                urgent.popleft()
        elif ready:
            entry = ready[0]
            if heap and heap[0] < entry:
                entry = heappop(heap)
            else:
                ready.popleft()
        else:
            entry = heappop(heap)
        time_, _prio, _seq, event = entry
        self.now = time_
        callbacks = event.callbacks
        event.callbacks = None
        self.events_processed += 1
        for callback in callbacks:
            callback(event)
        if (
            not event._ok
            and not callbacks
            and not getattr(event._value, "unhandled_ok", False)
        ):
            # A failed event (or crashed process) nobody waited for:
            # surface the error rather than losing it silently.
            # Exceptions marking themselves ``unhandled_ok`` (a process
            # torn down by fault injection) are a clean termination.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event list is exhausted or ``until`` is reached.

        ``until=None`` is an infinite horizon: the loop ends only when
        no event is left.  With a finite ``until`` every event at or
        before it is processed and the clock is then advanced to
        exactly ``until``, even if the last event fires earlier.

        There is one loop body, shared by bounded, unbounded and
        sanitized runs (:class:`repro.sanitize.SanitizedSimulator`
        checks the clock where it is written, not in a loop of its
        own).  It is :meth:`step` inlined, with the processed-event
        counter kept in a local (flushed on every exit path).  The lane
        checks come first: while a same-timestamp cohort is draining,
        the next event is almost always a deque head, and the single
        tuple comparison against the heap top replaces a full heap
        sift.  The horizon check lives in the heap-only branch -- lane
        entries are always at the current clock value, which the loop
        never advances past the horizon.

        The cyclic garbage collector is suspended for the duration of
        the loop (restored on every exit path): the event churn would
        otherwise trigger hundreds of generation-0 scans per simulated
        second, and the dominant cycle -- a finished process holding
        its own bound resume method -- is broken explicitly in
        :meth:`Process._resume`, so reference counting reclaims the
        plumbing as it completes.
        """
        if until is not None and until < self.now:
            raise SimulationError("cannot run into the past")
        horizon = float("inf") if until is None else until
        gc_enabled = gc.isenabled()
        if gc_enabled:
            gc.disable()
        heap = self._heap
        urgent = self._urgent
        ready = self._ready
        pop = heappop
        processed = self.events_processed
        try:
            while True:
                if urgent:
                    entry = urgent[0]
                    if heap and heap[0] < entry:
                        entry = pop(heap)
                    else:
                        urgent.popleft()
                elif ready:
                    entry = ready[0]
                    if heap and heap[0] < entry:
                        entry = pop(heap)
                    else:
                        ready.popleft()
                elif heap:
                    if heap[0][0] > horizon:
                        break
                    entry = pop(heap)
                else:
                    break
                time_, _prio, _seq, event = entry
                self.now = time_
                callbacks = event.callbacks
                event.callbacks = None
                processed += 1
                for callback in callbacks:
                    callback(event)
                if not event._ok and not callbacks and not getattr(
                    event._value, "unhandled_ok", False
                ):
                    raise event._value
        finally:
            self.events_processed = processed
            if gc_enabled:
                gc.enable()
        if until is not None:
            self.now = until

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._urgent or self._ready:
            return self.now
        return self._heap[0][0] if self._heap else float("inf")
