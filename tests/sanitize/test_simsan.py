"""simsan: identity with the unsanitized engine, plus seeded violations.

The sanitizer's contract is *observation only*: a sanitized run must
produce byte-identical model results to an unsanitized one, and a
healthy run must report zero violations.  Each seeded-corruption test
then breaks one invariant by hand and asserts the matching check
catches it with a structured violation.
"""

import pytest

from repro.obs.recorder import NULL_RECORDER
from repro.sanitize import (
    SanitizedRecorder,
    SanitizedSimulator,
    SanitizerError,
    SanitizerReport,
    SimSanitizer,
    sanitize_enabled,
)
from repro.sanitize.sanitizer import ENV_FLAG
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.runner import run_simulation


def small_config(**overrides):
    base = dict(
        num_nodes=2,
        warmup_time=0.5,
        measure_time=1.0,
        random_seed=7,
    )
    base.update(overrides)
    return SystemConfig(**base)


def comparable(result):
    data = result.as_dict()
    data.pop("wall_clock_seconds", None)
    return data


class TestEnablement:
    def test_config_flag_enables(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        assert sanitize_enabled(True)
        assert not sanitize_enabled(False)

    def test_env_flag_enables(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        assert sanitize_enabled(False)
        monkeypatch.setenv(ENV_FLAG, "0")
        assert not sanitize_enabled(False)

    def test_env_flag_installs_the_sanitizer_on_the_cluster(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        cluster = Cluster(small_config())
        assert cluster.sanitizer is not None
        assert isinstance(cluster.sim, SanitizedSimulator)
        assert isinstance(cluster.recorder, SanitizedRecorder)

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        cluster = Cluster(small_config())
        assert cluster.sanitizer is None
        assert not isinstance(cluster.sim, SanitizedSimulator)


class TestIdentity:
    @pytest.mark.parametrize("coupling", ["gem", "pcl", "rdma"])
    def test_sanitized_run_is_bit_identical(self, coupling):
        config = small_config(coupling=coupling)
        plain = run_simulation(config)
        sanitized = run_simulation(config.replace(sanitize=True))
        assert comparable(plain) == comparable(sanitized)

    def test_healthy_run_reports_zero_violations(self):
        cluster = Cluster(small_config(sanitize=True))
        cluster.sim.run(until=1.0)
        report = cluster.sanitizer.finish(cluster)
        assert report.ok
        assert report.events_checked > 0
        assert report.resources_checked > 0
        assert report.lock_tables_checked > 0
        assert report.buffers_checked == 2


class TestMonotonicClock:
    def test_clock_rewind_is_caught(self):
        report = SanitizerReport()
        sim = SanitizedSimulator(report)
        sim.timeout(0.5)
        rewinder = sim.timeout(1.0)

        def rewind(_event):
            sim.now = 0.25

        rewinder.callbacks.append(rewind)
        sim.run(until=2.0)
        assert [v.check for v in report.violations] == ["monotonic-time"]
        assert "clock moved backwards" in report.violations[0].detail

    def test_clock_rewind_during_unbounded_run_is_caught(self):
        # The check sits on the clock write, so a run with no horizon
        # (and a rewind by model code mid-callback) is covered too.
        report = SanitizerReport()
        sim = SanitizedSimulator(report)
        sim.timeout(1.0)
        rewinder = sim.timeout(3.0)

        def rewind(_event):
            sim.now = 2.0

        rewinder.callbacks.append(rewind)
        sim.timeout(4.0)
        sim.run()
        assert [v.check for v in report.violations] == ["monotonic-time"]
        assert "3.0 -> 2.0" in report.violations[0].detail
        assert report.events_checked == 3
        assert sim.now == 4.0

    def test_normal_schedule_is_clean(self):
        report = SanitizerReport()
        sim = SanitizedSimulator(report)
        for delay in (0.1, 0.2, 0.7):
            sim.timeout(delay)
        sim.run(until=1.0)
        assert report.ok
        assert report.events_checked == 3
        assert sim.now == 1.0


class TestRecorderShadow:
    def test_balanced_spans_are_clean(self):
        report = SanitizerReport()
        recorder = SanitizedRecorder(NULL_RECORDER, report)
        recorder.txn_begin("t1", 0, 0.0)
        with recorder.span("t1", "cpu"):
            with recorder.span("t1", "io"):
                pass
        recorder.txn_end("t1", 1.0)
        assert report.ok
        assert report.spans_checked == 2

    def test_txn_end_with_open_span_is_caught(self):
        report = SanitizerReport()
        recorder = SanitizedRecorder(NULL_RECORDER, report)
        recorder.txn_begin("t1", 0, 0.0)
        recorder.span("t1", "cpu").__enter__()
        recorder.txn_end("t1", 1.0)
        assert [v.check for v in report.violations] == ["span-balance"]
        assert "open span" in report.violations[0].detail

    def test_mismatched_pop_order_is_caught(self):
        report = SanitizerReport()
        recorder = SanitizedRecorder(NULL_RECORDER, report)
        recorder.txn_begin("t1", 0, 0.0)
        outer = recorder.span("t1", "cpu").__enter__()
        inner = recorder.span("t1", "io").__enter__()
        outer.__exit__(None, None, None)  # pops "cpu" while "io" is open
        inner.__exit__(None, None, None)
        assert "span-balance" in [v.check for v in report.violations]
        assert any("innermost" in v.detail for v in report.violations)

    def test_double_exit_pops_with_nothing_open(self):
        report = SanitizerReport()
        recorder = SanitizedRecorder(NULL_RECORDER, report)
        recorder.txn_begin("t1", 0, 0.0)
        span = recorder.span("t1", "cpu").__enter__()
        span.__exit__(None, None, None)
        span.__exit__(None, None, None)
        assert any(
            "no span open" in v.detail for v in report.violations
        ), report.violations

    def test_interleaved_spans_without_a_transaction_are_not_shadowed(self):
        # Concurrent processes open txn-less spans, so they do not nest:
        # the recorder attributes nothing to them and the shadow agrees.
        report = SanitizerReport()
        recorder = SanitizedRecorder(NULL_RECORDER, report)
        first = recorder.span(None, "comm")
        second = recorder.span(None, "lock_global")
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        second.__exit__(None, None, None)
        assert report.ok, report.violations
        assert report.spans_checked == 0

    def test_backwards_interval_is_caught(self):
        report = SanitizerReport()
        recorder = SanitizedRecorder(NULL_RECORDER, report)
        recorder.interval(0, "cpu", 2.0, 1.0)
        assert [v.check for v in report.violations] == ["span-balance"]
        assert "ends before it starts" in report.violations[0].detail


class TestHorizonChecks:
    def run_cluster(self, **overrides):
        cluster = Cluster(small_config(sanitize=True, **overrides))
        cluster.sim.run(until=1.0)
        return cluster

    def test_overfull_resource_is_caught(self):
        cluster = self.run_cluster()
        mpl = cluster.nodes[0].mpl
        mpl._busy = mpl.capacity + 1
        with pytest.raises(SanitizerError) as excinfo:
            cluster.sanitizer.finish(cluster)
        checks = [v.check for v in excinfo.value.report.violations]
        assert "resource-accounting" in checks
        assert "outside [0," in str(excinfo.value)

    def test_phantom_blocked_txn_is_caught(self):
        cluster = self.run_cluster(coupling="gem")
        table = cluster.protocol.glt
        table._blocked[999_999] = next(iter(table._entries), "p0")
        with pytest.raises(SanitizerError) as excinfo:
            cluster.sanitizer.finish(cluster)
        assert any(
            v.check == "lock-grants" and "999999" in v.detail
            for v in excinfo.value.report.violations
        )

    def test_torn_rdma_install_is_caught(self):
        cluster = self.run_cluster(coupling="rdma")
        pool = cluster.protocol.store.pool
        assert pool, "rdma run must leave pages resident in the pool"
        page = next(iter(pool))
        pool[page] = cluster.ledger.committed_version(page) + 1
        with pytest.raises(SanitizerError) as excinfo:
            cluster.sanitizer.finish(cluster)
        assert any(
            v.check == "pool-ledger" and "torn install" in v.detail
            for v in excinfo.value.report.violations
        )

    def test_dirty_index_out_of_step_is_caught(self):
        cluster = self.run_cluster()
        buffer = cluster.nodes[1].buffer
        assert buffer._dirty, "run must leave dirty frames in the buffer"
        buffer._dirty.pop(next(iter(buffer._dirty)))
        with pytest.raises(SanitizerError) as excinfo:
            cluster.sanitizer.finish(cluster)
        assert [
            (v.check, v.where) for v in excinfo.value.report.violations
        ] == [("buffer-index", "node1.buffer")]
        assert "first differ at position 0" in str(excinfo.value)

    def test_lru_stamps_out_of_order_are_caught(self):
        cluster = self.run_cluster()
        buffer = cluster.nodes[0].buffer
        frames = list(buffer._frames.values())
        frames[0].stamp, frames[1].stamp = frames[1].stamp, frames[0].stamp
        with pytest.raises(SanitizerError) as excinfo:
            cluster.sanitizer.finish(cluster)
        violations = excinfo.value.report.violations
        assert [(v.check, v.where) for v in violations] == [
            ("buffer-index", "node0.buffer")
        ]
        assert "not above its predecessor" in violations[0].detail

    def test_sanitize_finish_is_a_no_op_without_the_sanitizer(self):
        cluster = Cluster(small_config())
        cluster.sim.run(until=1.0)
        cluster.sanitize_finish()  # must not raise

    def test_report_summary_lists_every_violation(self):
        report = SanitizerReport()
        report.record("resource-accounting", "node0.cpu", "busy count -1")
        report.record("lock-grants", "glt page 3", "held and waiting")
        summary = report.summary()
        assert "2 violation(s)" in summary
        assert "[resource-accounting] node0.cpu" in summary
        assert "[lock-grants] glt page 3" in summary
