"""The coalesced scheduler must be observably event-per-step equivalent.

``Resource.hold``, :func:`~repro.sim.resources.hold_seq` and
:func:`~repro.sim.resources.held_chain` replace request/timeout/release
generators with ONE re-armed scheduled entry per compound operation --
that is where the event-count reduction comes from.  The contract is
that this is purely mechanical: every process must observe the same
grant order, the same completion instants and the same resource
statistics as the formulation it replaced.  These properties drive both
formulations over the same workloads on twin simulators and require
exact agreement -- over randomized workloads, and over every small case
(:class:`TestExhaustiveSmallCases`).

``hold_seq`` is checked against one :meth:`Resource.hold` per leg, not
against ``request`` / ``yield`` / ``timeout`` / ``release``: under the
same-timestamp contract (docs/MODEL.md) a grant and the start of its
hold are one dispatch step, while the request form spends an extra
same-time step per grant, so its leg timers lose ties at ``t + d``.
"""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.resources import Resource, held_chain, hold_seq

short_floats = st.floats(
    min_value=0.0, max_value=4.0, allow_nan=False, allow_infinity=False
)
jobs = st.lists(
    st.tuples(short_floats, short_floats),  # (start delay, hold duration)
    min_size=1,
    max_size=25,
)


def reference_hold(sim, resource, duration):
    """The event-per-step formulation ``hold`` replaced."""
    # simlint: disable-next=RES001,RES002 -- the uncancellable request/yield/release reference is the subject
    request = resource.request()
    yield request
    yield sim.timeout(duration)
    resource.release()


def resource_fingerprint(resource):
    """Observable statistics, split into exact and float parts.

    Counts, extrema and the busy maximum are bit-exact across the two
    formulations.  The accrued areas and the wait mean are mathematically
    equal but not bit-equal: handoff fusion defers a time-weighted
    accrual across a constant-level span and the zero-wait records fold
    in one merge step instead of one Welford update each, so the same
    sums are computed in a different association order.
    """
    now = resource.sim.now
    exact = (
        resource.services,
        resource.wait_time.count,
        resource.wait_time.min,
        resource.wait_time.max,
        resource.busy_stat.max,
    )
    close = (
        resource.busy_time(now),
        resource.wait_time.mean,
        resource.queue_stat.time_average(now),
    )
    return exact, close


class TestHoldEquivalence:
    @given(jobs, st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_hold_matches_request_timeout_release(self, schedule, capacity):
        def run(coalesced):
            sim = Simulator()
            resource = Resource(sim, capacity=capacity)
            completions = {}

            def worker(tag, start, duration):
                yield sim.timeout(start)
                if coalesced:
                    yield resource.hold(duration)
                else:
                    yield from reference_hold(sim, resource, duration)
                completions[tag] = sim.now

            for tag, (start, duration) in enumerate(schedule):
                sim.process(worker(tag, start, duration))
            sim.run()
            return completions, resource_fingerprint(resource), sim.now

        fast, (fast_exact, fast_close), fast_now = run(coalesced=True)
        slow, (slow_exact, slow_close), slow_now = run(coalesced=False)
        assert fast == slow
        assert fast_now == slow_now
        assert fast_exact == slow_exact
        for a, b in zip(fast_close, slow_close):
            if math.isnan(a):
                assert math.isnan(b)
            else:
                assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

    @given(jobs)
    @settings(max_examples=40, deadline=None)
    def test_coalesced_run_never_processes_more_events(self, schedule):
        def run(coalesced):
            sim = Simulator()
            resource = Resource(sim, capacity=1)

            def worker(start, duration):
                yield sim.timeout(start)
                if coalesced:
                    yield resource.hold(duration)
                else:
                    yield from reference_hold(sim, resource, duration)

            for start, duration in schedule:
                sim.process(worker(start, duration))
            sim.run()
            return sim.events_processed

        assert run(coalesced=True) <= run(coalesced=False)


leg_lists = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=1)),
        short_floats,
    ),
    min_size=1,
    max_size=5,
)

#: The pair that exposed the tie difference (every leg but one is 0).
ZERO_LEG_PAIR = [
    (0.0, [(None, 0.0), (None, 0.0), (0, 0.0), (0, 1.0)]),
    (0.0, [(None, 0.0), (None, 0.0), (None, 0.0), (0, 0.0)]),
]
#: The smallest pair on which the request form differs with every
#: duration nonzero.
NONZERO_PAIR = [
    (0.0, [(0, 1.0), (0, 1.0)]),
    (0.0, [(None, 1.0), (0, 1.0)]),
]


def run_leg_chains(chains, compound):
    """Run ``(start, legs)`` chains on two unit-capacity resources.

    Each leg is ``(index, duration)``: resource 0 or 1, or ``None`` for
    a pure delay.  ``compound`` runs every chain as one
    :func:`hold_seq`; otherwise each leg is one :meth:`Resource.hold`
    (``sim.timeout`` for a delay), a path that shares no code with the
    compound machine.  Returns the completion log in completion order,
    the service counts and the final clock.
    """
    sim = Simulator()
    resources = (Resource(sim, capacity=1), Resource(sim, capacity=1))
    log = []

    def worker(tag, start, legs):
        yield sim.timeout(start)
        if compound:
            yield hold_seq(
                sim,
                tuple(
                    (None if index is None else resources[index], duration, None)
                    for index, duration in legs
                ),
            )
        else:
            for index, duration in legs:
                if index is None:
                    yield sim.timeout(duration)
                else:
                    yield resources[index].hold(duration)
        log.append((tag, sim.now))

    for tag, (start, legs) in enumerate(chains):
        sim.process(worker(tag, start, legs))
    sim.run()
    return log, [r.services for r in resources], sim.now


def run_held_chains(chains, outer_capacity, inner_capacity, coalesced):
    """Run ``(start, outer_time, inner_time, plain)`` workers.

    A chain worker holds the outer resource, then the inner on top of
    it: as one :func:`held_chain` when ``coalesced``, else as the nested
    request/timeout/release reference.  A ``plain`` worker is an
    ordinary hold of the outer resource competing with the chains (CPU
    work next to store accesses).  Returns the exact observables and
    the two busy-time integrals.
    """
    sim = Simulator()
    outer = Resource(sim, capacity=outer_capacity)
    inner = Resource(sim, capacity=inner_capacity)
    completions = {}

    def worker(tag, start, outer_time, inner_time, plain):
        yield sim.timeout(start)
        if plain:
            yield from outer.acquire(outer_time)
        elif coalesced:
            yield held_chain(outer, inner, outer_time, inner_time)
        else:
            # simlint: disable-next=RES001,RES002 -- the uncancellable request/yield/release reference is the subject
            request = outer.request()
            yield request
            yield sim.timeout(outer_time)
            # simlint: disable-next=RES001,RES002 -- the uncancellable request/yield/release reference is the subject
            inner_request = inner.request()
            yield inner_request
            yield sim.timeout(inner_time)
            inner.release()
            outer.release()
        completions[tag] = sim.now

    for tag, chain in enumerate(chains):
        sim.process(worker(tag, *chain))
    sim.run()
    return (
        completions,
        outer.services,
        inner.services,
        sim.now,
    ), (outer.busy_time(sim.now), inner.busy_time(sim.now))


def assert_held_chains_agree(chains, outer_capacity, inner_capacity):
    fast, fast_busy = run_held_chains(chains, outer_capacity, inner_capacity, True)
    slow, slow_busy = run_held_chains(chains, outer_capacity, inner_capacity, False)
    assert fast == slow, chains
    for fast_time, slow_time in zip(fast_busy, slow_busy):
        assert math.isclose(fast_time, slow_time, rel_tol=1e-9, abs_tol=1e-12)


class TestHoldSeqEquivalence:
    @given(st.lists(st.tuples(short_floats, leg_lists), min_size=1, max_size=8))
    @example(ZERO_LEG_PAIR)
    @example(NONZERO_PAIR)
    @settings(max_examples=50, deadline=None)
    def test_hold_seq_matches_per_leg_formulation(self, chains):
        assert run_leg_chains(chains, compound=True) == run_leg_chains(
            chains, compound=False
        )

    def test_pinned_pairs_follow_the_same_timestamp_contract(self):
        # Zero-leg pair: chain 0 reaches resource 0 first (its zero
        # hold ends and its unit-length hold is granted in one step),
        # so chain 1's zero hold queues behind it until t=1.
        log, _services, _now = run_leg_chains(ZERO_LEG_PAIR, compound=True)
        assert dict(log) == {0: 1.0, 1: 1.0}
        # Nonzero pair: chain 0's first hold timer is sequenced at its
        # grant, ahead of chain 1's delay timer, so at t=1 it fires
        # first and chain 0's second hold is granted before chain 1
        # asks for the resource.
        log, _services, _now = run_leg_chains(NONZERO_PAIR, compound=True)
        assert log == [(0, 2.0), (1, 3.0)]


class TestHeldChainEquivalence:
    @given(
        st.lists(
            st.tuples(short_floats, short_floats, short_floats, st.booleans()),
            min_size=1,
            max_size=10,
        ),
        # Nodes run 4 CPUs (outer) and the RDMA fabric 2 channels
        # (inner); GEM is a single server.
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_held_chain_matches_nested_formulation(
        self, chains, outer_capacity, inner_capacity
    ):
        assert_held_chains_agree(chains, outer_capacity, inner_capacity)


#: Every leg of the exhaustive check: resource {None, 0, 1} x duration {0, 1}.
LEG_CHOICES = [(index, duration) for index in (None, 0, 1) for duration in (0.0, 1.0)]


def leg_sequences(max_legs):
    """Every leg sequence of length 1..``max_legs`` over LEG_CHOICES."""
    for count in range(1, max_legs + 1):
        yield from itertools.product(LEG_CHOICES, repeat=count)


class TestExhaustiveSmallCases:
    """Deterministic enumeration beside the randomized search.

    Hypothesis rarely draws exact timestamp ties from float strategies;
    integer durations make ties the common case, and enumerating every
    small case leaves no tie ordering unchecked.
    """

    @pytest.mark.parametrize(
        "workers, max_legs, cases", [(2, 3, 66_564), (3, 2, 74_088)]
    )
    def test_hold_seq_matches_per_leg_hold(self, workers, max_legs, cases):
        sequences = list(leg_sequences(max_legs))
        checked = 0
        mismatches = []
        for legs in itertools.product(sequences, repeat=workers):
            chains = [(0.0, list(leg_list)) for leg_list in legs]
            checked += 1
            if run_leg_chains(chains, compound=True) != run_leg_chains(
                chains, compound=False
            ):
                mismatches.append(chains)
        assert checked == cases
        assert not mismatches, (len(mismatches), mismatches[:3])

    @pytest.mark.parametrize("outer_capacity", [1, 2])
    @pytest.mark.parametrize("inner_capacity", [1, 2])
    def test_held_chain_matches_nested_reference(
        self, outer_capacity, inner_capacity
    ):
        # (start, outer time, inner time, plain hold competitor)
        workers = list(
            itertools.product((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (False, True))
        )
        for chains in itertools.product(workers, repeat=2):
            assert_held_chains_agree(list(chains), outer_capacity, inner_capacity)


class TestSameTimestampOrdering:
    @given(
        st.lists(
            st.sampled_from(["timeout", "hold", "urgent"]),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_lanes_preserve_urgent_then_fifo_order(self, kinds):
        """Heap timers, coalesced zero-duration holds (the ``_ready``
        lane) and URGENT wakeups (process bootstraps, the ``_urgent``
        lane) landing on one timestamp fire URGENT-first, then FIFO by
        schedule order."""
        sim = Simulator()
        fired = []

        def record(tag):
            fired.append(tag)
            return
            yield  # a generator: its bootstrap is the URGENT wakeup

        # A dedicated idle resource per hold keeps every hold on its
        # uncontended fast path, which arms through the _ready lane.
        for tag, kind in enumerate(kinds):
            if kind == "urgent":
                sim.process(record(tag))
            elif kind == "hold":
                entry = Resource(sim, capacity=1).hold(0.0)
                entry.callbacks.append(lambda _e, t=tag: fired.append(t))
            else:
                timer = sim.timeout(0.0)
                timer.callbacks.append(lambda _e, t=tag: fired.append(t))
        sim.run()
        expected = [t for t, kind in enumerate(kinds) if kind == "urgent"] + [
            t for t, kind in enumerate(kinds) if kind != "urgent"
        ]
        assert fired == expected

    @given(st.lists(st.booleans(), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_contended_holds_granted_fifo(self, writers):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        order = []

        def worker(tag):
            yield resource.hold(1.0)
            order.append(tag)

        for tag in range(len(writers)):
            sim.process(worker(tag))
        sim.run()
        assert order == list(range(len(writers)))


class TestStepRunEquivalence:
    @given(jobs)
    @settings(max_examples=40, deadline=None)
    def test_step_loop_reproduces_run(self, schedule):
        def build(sim, resource, log):
            def worker(tag, start, duration):
                yield sim.timeout(start)
                yield resource.hold(duration)
                log.append((tag, sim.now))

            for tag, (start, duration) in enumerate(schedule):
                sim.process(worker(tag, start, duration))

        sim_a = Simulator()
        log_a = []
        build(sim_a, Resource(sim_a, capacity=1), log_a)
        sim_a.run()

        sim_b = Simulator()
        log_b = []
        build(sim_b, Resource(sim_b, capacity=1), log_b)
        while sim_b.peek() != math.inf:
            sim_b.step()

        assert log_a == log_b
        assert sim_a.now == sim_b.now
        assert sim_a.events_processed == sim_b.events_processed

    @given(jobs)
    @settings(max_examples=30, deadline=None)
    def test_replay_is_deterministic(self, schedule):
        def run_once():
            sim = Simulator()
            resource = Resource(sim, capacity=2)
            log = []

            def worker(tag, start, duration):
                yield sim.timeout(start)
                yield resource.hold(duration)
                log.append((tag, sim.now))

            for tag, (start, duration) in enumerate(schedule):
                sim.process(worker(tag, start, duration))
            sim.run()
            return log, sim.events_processed

        assert run_once() == run_once()


class TestJobsDeterminismAllRegimes:
    """RunResults must be bit-identical under --jobs 1 and --jobs 4."""

    def test_all_regimes_identical_across_worker_counts(self):
        from repro.system.parallel import SweepRunner

        from tests.helpers import system_config

        configs = [
            system_config(
                num_nodes=2,
                coupling=coupling,
                arrival_rate_per_node=50.0,
                warmup_time=0.3,
                measure_time=1.0,
                random_seed=4242,
            )
            for coupling in ("gem", "pcl", "rdma")
        ]
        with SweepRunner(jobs=1) as serial:
            a = serial.map_raw(configs)
        with SweepRunner(jobs=4) as pool:
            b = pool.map_raw(configs)
        for config, x, y in zip(configs, a, b):
            assert x.deterministic_dict() == y.deterministic_dict(), (
                config.coupling
            )
