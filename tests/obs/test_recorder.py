"""Unit tests for the span recorder and the null recorder."""

import pytest

from repro.obs import NULL_RECORDER, NullRecorder, PhaseRecorder, phases


class FakeSim:
    """Just a clock; the recorder only ever reads ``now``."""

    def __init__(self):
        self.now = 0.0


@pytest.fixture
def sim():
    return FakeSim()


class TestNullRecorder:
    def test_disabled_and_inert(self, sim):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.txn_begin(1, 0, 0.0)
        with NULL_RECORDER.span(1, phases.CPU):
            pass
        NULL_RECORDER.txn_end(1, 1.0)
        NULL_RECORDER.reset()

    def test_span_is_shared_singleton(self):
        # The hot paths allocate nothing when tracing is off.
        a = NULL_RECORDER.span(1, phases.CPU)
        b = NullRecorder().span(2, phases.IO)
        assert a is b


class TestPhaseAttribution:
    def test_uncovered_time_goes_to_other(self, sim):
        rec = PhaseRecorder(sim)
        sim.now = 1.0
        rec.txn_begin(7, 0, sim.now)
        sim.now = 3.0
        rec.txn_end(7, sim.now)
        breakdown = rec.breakdown()
        assert breakdown[phases.OTHER] == pytest.approx(2.0)
        assert sum(breakdown.values()) == pytest.approx(2.0)

    def test_innermost_span_wins(self, sim):
        rec = PhaseRecorder(sim)
        rec.txn_begin(7, 0, sim.now)
        sim.now = 1.0
        with rec.span(7, phases.CPU):
            sim.now = 2.0
            with rec.span(7, phases.IO):
                sim.now = 4.0
            sim.now = 5.0
        sim.now = 6.0
        rec.txn_end(7, sim.now)
        breakdown = rec.breakdown()
        assert breakdown[phases.CPU] == pytest.approx(2.0)  # [1,2) + [4,5)
        assert breakdown[phases.IO] == pytest.approx(2.0)   # [2,4)
        assert breakdown[phases.OTHER] == pytest.approx(2.0)
        assert sum(breakdown.values()) == pytest.approx(6.0)

    def test_components_partition_response_time(self, sim):
        rec = PhaseRecorder(sim)
        for txn_id, duration in ((1, 2.0), (2, 4.0)):
            start = sim.now
            rec.txn_begin(txn_id, 0, start)
            sim.now = start + duration / 2
            with rec.span(txn_id, phases.LOCK_LOCAL):
                sim.now = start + duration
            rec.txn_end(txn_id, sim.now)
        total = sum(rec.breakdown().values())
        assert total == pytest.approx(rec.rt_seconds / rec.txn_count)
        assert total == pytest.approx(3.0)

    def test_span_for_unknown_txn_is_noop(self, sim):
        rec = PhaseRecorder(sim)
        with rec.span(99, phases.CPU):
            sim.now = 1.0
        assert rec.txn_count == 0
        rec.txn_end(99, sim.now)  # unknown end is ignored too
        assert rec.txn_count == 0

    def test_mismatched_pop_is_noop(self, sim):
        rec = PhaseRecorder(sim)
        rec.txn_begin(7, 0, sim.now)
        rec._push(7, phases.CPU)
        sim.now = 1.0
        rec._pop(7, phases.IO)  # attribute nothing, keep the stack
        sim.now = 2.0
        rec._pop(7, phases.CPU)
        sim.now = 3.0
        rec.txn_end(7, sim.now)
        breakdown = rec.breakdown()
        assert breakdown[phases.CPU] == pytest.approx(2.0)
        assert breakdown[phases.IO] == 0.0

    def test_txn_end_closes_leftover_spans(self, sim):
        rec = PhaseRecorder(sim)
        rec.txn_begin(7, 0, sim.now)
        rec._push(7, phases.COMM)
        sim.now = 2.5
        rec.txn_end(7, sim.now)
        assert rec.breakdown()[phases.COMM] == pytest.approx(2.5)

    def test_empty_breakdown_is_all_zero(self, sim):
        rec = PhaseRecorder(sim)
        breakdown = rec.breakdown()
        assert set(breakdown) == set(phases.PHASES)
        assert all(v == 0.0 for v in breakdown.values())


class TestKeepSpans:
    def test_spans_and_transactions_retained(self, sim):
        rec = PhaseRecorder(sim, keep_spans=True)
        rec.txn_begin(7, 3, sim.now)
        sim.now = 1.0
        with rec.span(7, phases.CPU):
            sim.now = 2.0
            with rec.span(7, phases.IO):
                sim.now = 4.0
            sim.now = 5.0
        sim.now = 6.0
        rec.txn_end(7, sim.now, committed=True)
        assert [(s.phase, s.start, s.end, s.depth) for s in rec.spans] == [
            (phases.IO, 2.0, 4.0, 1),
            (phases.CPU, 1.0, 5.0, 0),
        ]
        (txn,) = rec.transactions
        assert (txn.txn_id, txn.node_id) == (7, 3)
        assert (txn.start, txn.end, txn.committed) == (0.0, 6.0, True)


class TestReset:
    def test_reset_drops_aggregates_keeps_in_flight(self, sim):
        rec = PhaseRecorder(sim)
        rec.txn_begin(1, 0, sim.now)
        sim.now = 1.0
        rec.txn_end(1, sim.now)
        rec.txn_begin(2, 0, sim.now)  # in flight across the reset
        sim.now = 1.5
        with rec.span(2, phases.IO):
            sim.now = 2.0
            rec.reset()  # warmup boundary
            sim.now = 3.0
        sim.now = 3.5
        rec.txn_end(2, sim.now)
        assert rec.txn_count == 1
        breakdown = rec.breakdown()
        # Full arrival-to-commit attribution survives the reset.
        assert breakdown[phases.IO] == pytest.approx(1.5)
        assert sum(breakdown.values()) == pytest.approx(2.5)
