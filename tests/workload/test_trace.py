"""Unit tests for the trace format and its statistics."""

import io

import pytest

from repro.workload.trace import Trace, TraceReference, TraceTransaction


def small_trace():
    return Trace(
        [
            TraceTransaction(0, [TraceReference(0, 1, False), TraceReference(1, 2, True)]),
            TraceTransaction(1, [TraceReference(0, 1, False)]),
            TraceTransaction(0, [TraceReference(2, 9, False)] * 3),
        ],
        num_files=3,
    )


class TestStatistics:
    def test_counts(self):
        trace = small_trace()
        assert len(trace) == 3
        assert trace.num_references() == 6
        assert trace.mean_references() == pytest.approx(2.0)
        assert trace.max_references() == 3

    def test_types_and_pages(self):
        trace = small_trace()
        assert trace.num_types() == 2
        assert trace.distinct_pages() == 3

    def test_write_fraction(self):
        trace = small_trace()
        assert trace.write_reference_fraction() == pytest.approx(1 / 6)

    def test_update_fraction(self):
        trace = small_trace()
        assert trace.update_transaction_fraction() == pytest.approx(1 / 3)

    def test_pages_per_file(self):
        trace = small_trace()
        assert trace.pages_per_file() == {0: 1, 1: 2, 2: 9}

    def test_empty_trace_statistics(self):
        trace = Trace([], num_files=1)
        assert trace.mean_references() == 0.0
        assert trace.write_reference_fraction() == 0.0
        assert trace.update_transaction_fraction() == 0.0
        assert trace.max_references() == 0


class TestRoundTrip:
    def test_write_and_read_back(self):
        trace = small_trace()
        buffer = io.StringIO()
        trace.write_to(buffer)
        buffer.seek(0)
        loaded = Trace.read_from(buffer)
        assert len(loaded) == len(trace)
        assert loaded.num_files == trace.num_files
        for original, reloaded in zip(trace, loaded):
            assert original.type_id == reloaded.type_id
            assert original.references == reloaded.references
        # Loading interns: equal references are one shared object.
        shared = {}
        for txn in loaded:
            for ref in txn.references:
                assert shared.setdefault(ref, ref) is ref
        assert len(shared) == 3

    def test_file_round_trip(self, tmp_path):
        trace = small_trace()
        path = str(tmp_path / "t.trace")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.num_references() == trace.num_references()

    def test_rejects_garbage_header(self):
        with pytest.raises(ValueError):
            Trace.read_from(io.StringIO("not a trace\n"))

    def test_rejects_bad_mode(self):
        text = "# repro-trace v1\nfiles 1\ntxn 0 0:1:z\n"
        with pytest.raises(ValueError):
            Trace.read_from(io.StringIO(text))

    def test_rejects_malformed_line(self):
        text = "# repro-trace v1\nfiles 1\nbogus line here\n"
        with pytest.raises(ValueError):
            Trace.read_from(io.StringIO(text))

    def test_empty_transaction_round_trip(self):
        trace = Trace([TraceTransaction(4, [])], num_files=1)
        buffer = io.StringIO()
        trace.write_to(buffer)
        buffer.seek(0)
        loaded = Trace.read_from(buffer)
        assert len(loaded.transactions[0].references) == 0
        assert loaded.transactions[0].type_id == 4
