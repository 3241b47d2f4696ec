"""Unit tests for the synthetic real-life trace generator.

The generator's whole purpose is to match the aggregates the paper
reports about its proprietary trace, so those aggregates are asserted
here (on a scaled trace for speed; the full-size values are checked in
the slower integration suite).
"""

import pytest

from repro.sim import StreamRegistry
from tests.helpers import generated_trace, sha256_of
from repro.system.config import TraceWorkloadConfig
from repro.workload.tracegen import file_sizes, generate_trace


@pytest.fixture(scope="module")
def scaled_trace():
    config = TraceWorkloadConfig(scale=0.2)
    stream = StreamRegistry(42).stream("tracegen")
    trace, profiles, sizes = generate_trace(config, stream)
    return config.scaled(), trace, profiles, sizes


class TestAggregates:
    def test_transaction_count(self, scaled_trace):
        config, trace, _, _ = scaled_trace
        assert len(trace) == config.num_transactions

    def test_number_of_types(self, scaled_trace):
        _, trace, _, _ = scaled_trace
        assert trace.num_types() == 12

    def test_mean_references_near_target(self, scaled_trace):
        config, trace, _, _ = scaled_trace
        assert trace.mean_references() == pytest.approx(
            config.mean_references, rel=0.25
        )

    def test_largest_transaction_is_adhoc_query(self, scaled_trace):
        config, trace, _, _ = scaled_trace
        assert trace.max_references() == config.max_references
        largest = max(trace, key=len)
        assert largest.type_id == config.num_types - 1
        assert not largest.is_update  # the ad-hoc query is read-only

    def test_write_reference_fraction(self, scaled_trace):
        config, trace, _, _ = scaled_trace
        assert trace.write_reference_fraction() == pytest.approx(
            config.write_reference_fraction, rel=0.4
        )

    def test_update_transaction_fraction(self, scaled_trace):
        config, trace, _, _ = scaled_trace
        assert trace.update_transaction_fraction() == pytest.approx(
            config.update_txn_fraction, rel=0.35
        )

    def test_distinct_pages_near_target(self, scaled_trace):
        config, trace, _, _ = scaled_trace
        assert trace.distinct_pages() == pytest.approx(
            config.distinct_pages, rel=0.35
        )

    def test_thirteen_files(self, scaled_trace):
        _, trace, _, _ = scaled_trace
        files = {ref.file_id for txn in trace for ref in txn.references}
        assert files == set(range(13))


class TestStructure:
    def test_access_skew_within_files(self, scaled_trace):
        """Zipf popularity: the top pages take a large reference share."""
        _, trace, _, sizes = scaled_trace
        from collections import Counter

        counts = Counter(
            ref.page_no
            for txn in trace
            for ref in txn.references
            if ref.file_id == 0 and not ref.write
        )
        total = sum(counts.values())
        top = sum(count for _page, count in counts.most_common(len(counts) // 20))
        assert top / total > 0.4  # top 5% of pages >40% of references

    def test_writes_disjoint_from_adhoc_footprint(self, scaled_trace):
        _, trace, _, _ = scaled_trace
        for txn in trace:
            for ref in txn.references:
                if ref.write:
                    assert ref.file_id >= 3

    def test_writes_fall_in_write_region(self, scaled_trace):
        _, trace, _, sizes = scaled_trace
        for txn in trace:
            for ref in txn.references:
                if ref.write:
                    assert ref.page_no >= (3 * sizes[ref.file_id]) // 4

    def test_equal_references_are_shared(self, scaled_trace):
        _, trace, _, _ = scaled_trace
        shared = {}
        for txn in trace:
            for ref in txn.references:
                assert shared.setdefault(ref, ref) is ref
        assert len(shared) < trace.num_references() / 10

    def test_deterministic_under_seed(self):
        config = TraceWorkloadConfig(scale=0.05)
        t1, _, _ = generate_trace(config, StreamRegistry(9).stream("tracegen"))
        t2, _, _ = generate_trace(config, StreamRegistry(9).stream("tracegen"))
        assert t1.num_references() == t2.num_references()
        assert t1.distinct_pages() == t2.distinct_pages()

    def test_different_seeds_differ(self):
        config = TraceWorkloadConfig(scale=0.05)
        t1, _, _ = generate_trace(config, StreamRegistry(1).stream("tracegen"))
        t2, _, _ = generate_trace(config, StreamRegistry(2).stream("tracegen"))
        assert t1.num_references() != t2.num_references()


class TestFileSizes:
    def test_sizes_sum_near_distinct_pages(self):
        config = TraceWorkloadConfig()
        sizes = file_sizes(config)
        assert sum(sizes) == pytest.approx(config.distinct_pages, rel=0.05)

    def test_sizes_skewed_descending(self):
        sizes = file_sizes(TraceWorkloadConfig())
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] > 5 * sizes[-1]

    def test_scaling(self):
        full = TraceWorkloadConfig()
        scaled = TraceWorkloadConfig(scale=0.1).scaled()
        assert scaled.num_transactions == pytest.approx(
            full.num_transactions * 0.1, rel=0.01
        )
        assert scaled.scale == 1.0


def trace_digest(seed: int, scale: float) -> str:
    """SHA-256 over every transaction's type id and ``(file, page,
    write)`` references, then the generator stream's next draw."""
    trace, next_draw = generated_trace(seed, scale)
    lines = [
        f"{txn.type_id} "
        + ",".join(
            f"{ref.file_id}:{ref.page_no}:{int(ref.write)}"
            for ref in txn.references
        )
        for txn in trace
    ]
    lines.append(repr(next_draw))
    return sha256_of("\n".join(lines))


#: Pinned outputs of ``generate_trace`` per ``(seed, scale)``: the
#: generator must draw the same values, in the same order, from its
#: stream on every supported Python version.
TRACE_PINS = {
    (42, 1.0): "876a0ba275efa66dae13ad0422cac0eb695ef25fa75ff93a2d716a301cd8ad8c",
    (7, 0.2): "fec7d6fc9ab91ec1c9aef16e31f99d7c51812741d7acf58a20cc5962aea7fe7a",
    (9091, 0.5): "1649c69b653072f7275148bc9bd9b0c19407af30798eda26cf3a4b54c1bf7e76",
}


class TestPinnedOutput:
    @pytest.mark.parametrize("seed,scale", list(TRACE_PINS))
    def test_trace_and_stream_position_pinned(self, seed, scale):
        assert trace_digest(seed, scale) == TRACE_PINS[(seed, scale)]
