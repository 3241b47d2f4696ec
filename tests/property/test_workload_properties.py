"""Property-based tests for workload generation, traces and routing."""

import io
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.gla import build_gla_map
from repro.routing.routing_table import SegmentCounts, build_routing_table
from repro.sim import StreamRegistry
from repro.sim.rng import zipf_weights
from repro.workload.trace import Trace, TraceReference, TraceTransaction


references = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 1000), st.booleans()),
    max_size=20,
)
transactions = st.lists(
    st.tuples(st.integers(0, 6), references), min_size=1, max_size=30
)


def build_trace(spec):
    txns = [
        TraceTransaction(t, [TraceReference(f, p, w) for f, p, w in refs])
        for t, refs in spec
    ]
    return Trace(txns, num_files=5)


class TestTraceRoundTrip:
    @given(spec=transactions)
    @settings(max_examples=60)
    def test_save_load_identity(self, spec):
        trace = build_trace(spec)
        buffer = io.StringIO()
        trace.write_to(buffer)
        buffer.seek(0)
        loaded = Trace.read_from(buffer)
        assert len(loaded) == len(trace)
        assert loaded.num_references() == trace.num_references()
        assert loaded.distinct_pages() == trace.distinct_pages()
        assert loaded.write_reference_fraction() == trace.write_reference_fraction()
        for a, b in zip(trace, loaded):
            assert a.type_id == b.type_id
            assert a.references == b.references


class TestRoutingProperties:
    @given(spec=transactions, num_nodes=st.integers(1, 5))
    @settings(max_examples=50)
    def test_routing_table_assigns_all_types_to_valid_nodes(
        self, spec, num_nodes
    ):
        trace = build_trace(spec)
        table = build_routing_table(SegmentCounts(trace), num_nodes)
        for txn in trace:
            assert 0 <= table.node_for(txn.type_id) < num_nodes

    @given(spec=transactions, num_nodes=st.integers(1, 4))
    @settings(max_examples=50)
    def test_routing_load_within_slack(self, spec, num_nodes):
        trace = build_trace(spec)
        table = build_routing_table(
            SegmentCounts(trace), num_nodes, balance_slack=1.25
        )
        loads = [0] * num_nodes
        for txn in trace:
            loads[table.node_for(txn.type_id)] += len(txn.references)
        total = sum(loads)
        if total == 0 or num_nodes == 1:
            return
        # No node may exceed the cap by more than one (indivisible)
        # type's volume.
        biggest_type = max(
            (len(t.references) for t in trace), default=0
        )
        cap = total / num_nodes * 1.25
        assert max(loads) <= cap + biggest_type * 30  # types share ids

    @given(spec=transactions, num_nodes=st.integers(1, 4))
    @settings(max_examples=50)
    def test_gla_map_total_and_deterministic(self, spec, num_nodes):
        trace = build_trace(spec)
        counts = SegmentCounts(trace)
        table = build_routing_table(counts, num_nodes)
        gla = build_gla_map(counts, table, num_nodes)
        for txn in trace:
            for ref in txn.references:
                node = gla((ref.file_id, ref.page_no))
                assert 0 <= node < num_nodes
                assert node == gla((ref.file_id, ref.page_no))


def per_reference_counts(trace, segment_size):
    """References per (type, segment) in first-encounter order, counted
    one reference at a time (the plain pass the shared count replaces)."""
    counts = {}
    for txn in trace:
        for ref in txn.references:
            key = (txn.type_id, (ref.file_id, ref.page_no // segment_size))
            counts[key] = counts.get(key, 0) + 1
    return counts


def per_reference_gla(trace, table, num_nodes, segment_size, balance_slack):
    """``build_gla_map``'s assignment from a per-reference count."""
    segment_refs = {}
    for txn in trace:
        node = table.node_for(txn.type_id)
        for ref in txn.references:
            segment = (ref.file_id, ref.page_no // segment_size)
            segment_refs.setdefault(segment, Counter())[node] += 1
    total = sum(sum(c.values()) for c in segment_refs.values())
    cap = total / num_nodes * balance_slack if num_nodes > 1 else float("inf")
    load = [0.0] * num_nodes
    assignment = {}
    for segment, per_node in sorted(
        segment_refs.items(), key=lambda item: -sum(item[1].values())
    ):
        weight = sum(per_node.values())
        chosen = next(
            (
                node
                for node, _ in sorted(per_node.items(), key=lambda kv: -kv[1])
                if load[node] + weight <= cap
            ),
            None,
        )
        if chosen is None:
            chosen = min(range(num_nodes), key=lambda n: load[n])
        assignment[segment] = chosen
        load[chosen] += weight
    return assignment


class TestSharedSegmentCount:
    """The one segment count keeps the per-reference passes' counts and
    first-encounter orders, so both heuristics' stable-sort tie-breaks
    (segment order in trace order, node order within a segment) hold."""

    @given(spec=transactions, segment_size=st.sampled_from([1, 7, 256]))
    @settings(max_examples=80)
    def test_counts_and_order_match_per_reference_pass(self, spec, segment_size):
        trace = build_trace(spec)
        shared = SegmentCounts(trace, segment_size)
        expected = per_reference_counts(trace, segment_size)
        assert list(shared.counts.items()) == list(expected.items())
        assert shared.types == list(dict.fromkeys(t for t, _ in spec))
        vectors, volumes = shared.vectors()
        assert list(vectors) == shared.types
        for type_id, vector in vectors.items():
            assert list(vector.items()) == [
                (segment, count)
                for (t, segment), count in expected.items()
                if t == type_id
            ]
        assert list(volumes) == list(dict.fromkeys(t for t, _ in expected))

    @given(
        spec=transactions,
        num_nodes=st.integers(1, 4),
        segment_size=st.sampled_from([1, 7, 256]),
        balance_slack=st.sampled_from([1.0, 1.3]),
    )
    @settings(max_examples=80)
    def test_gla_matches_per_reference_pass(
        self, spec, num_nodes, segment_size, balance_slack
    ):
        trace = build_trace(spec)
        counts = SegmentCounts(trace, segment_size)
        table = build_routing_table(counts, num_nodes)
        gla = build_gla_map(counts, table, num_nodes, balance_slack=balance_slack)
        expected = per_reference_gla(
            trace, table, num_nodes, segment_size, balance_slack
        )
        assert list(gla.assignment.items()) == list(expected.items())


class TestRngProperties:
    @given(n=st.integers(1, 500), theta=st.floats(0.0, 2.0, allow_nan=False))
    @settings(max_examples=60)
    def test_zipf_weights_cumulative_and_positive(self, n, theta):
        weights = zipf_weights(n, theta)
        assert len(weights) == n
        assert weights[0] > 0
        for earlier, later in zip(weights, weights[1:]):
            assert later > earlier

    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(1, 100),
        theta=st.floats(0.0, 1.5, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_weighted_index_in_bounds(self, seed, n, theta):
        stream = StreamRegistry(seed).stream("w")
        weights = zipf_weights(n, theta)
        for _ in range(50):
            index = stream.weighted_index(weights)
            assert 0 <= index < n
