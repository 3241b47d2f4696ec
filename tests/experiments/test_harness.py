"""Unit tests for the experiment harness (scales, tables, drivers)."""

import pytest

from repro.experiments import table41
from repro.experiments.common import (
    ExperimentResult,
    Scale,
    Series,
    format_table,
    sweep_all,
)
from repro.system.config import SystemConfig
from repro.system.results import RunResult


def fake_result(num_nodes, rt_ms):
    return RunResult(
        num_nodes=num_nodes,
        coupling="gem",
        routing="affinity",
        update_strategy="noforce",
        workload="debit_credit",
        buffer_pages_per_node=200,
        arrival_rate_per_node=100.0,
        measure_time=1.0,
        completed=100,
        mean_response_time=rt_ms / 1000.0,
        mean_response_time_artificial=rt_ms / 1000.0,
        throughput_total=100.0,
        mean_accesses_per_txn=3.0,
        cpu_utilization_per_node=[0.6] * num_nodes,
        gem_utilization=0.01,
        network_utilization=0.0,
        log_disk_utilization_max=0.4,
        disk_utilization_max=0.3,
        hit_ratios={"BRANCH_TELLER": 0.7},
        invalidations_per_txn={"BRANCH_TELLER": 0.0},
        local_lock_share=1.0,
        lock_requests_per_txn=2.0,
        remote_lock_requests_per_txn=0.0,
        mean_lock_wait_time=0.0,
        deadlocks=0,
        aborts=0,
        page_requests_per_txn=0.0,
        mean_page_request_delay=0.0,
        pages_supplied_with_grant_per_txn=0.0,
        messages_short_per_txn=0.0,
        messages_long_per_txn=0.0,
    )


class TestScales:
    def test_quick_and_full_scales(self):
        quick, full = Scale.quick(), Scale.full()
        assert max(quick.node_counts) == 10
        assert list(full.node_counts) == list(range(1, 11))
        assert full.measure_time > quick.measure_time
        assert full.trace_scale == 1.0

    def test_smoke_scale_is_tiny(self):
        smoke = Scale.smoke()
        assert max(smoke.node_counts) <= 2
        assert smoke.measure_time <= 2.0


class TestSeriesAndResult:
    def _result(self):
        series = [
            Series("a", [(1, fake_result(1, 70.0)), (2, fake_result(2, 72.0))]),
            Series("b", [(1, fake_result(1, 90.0)), (2, fake_result(2, 95.0))]),
        ]
        return ExperimentResult("Fig X", "demo", series)

    def test_series_lookup(self):
        result = self._result()
        assert result.series_by_label("b").label == "b"
        with pytest.raises(KeyError):
            result.series_by_label("zzz")

    def test_value_at(self):
        result = self._result()
        assert result.series_by_label("a").value_at(
            2, lambda r: r.response_time_ms
        ) == pytest.approx(72.0)
        with pytest.raises(KeyError):
            result.series_by_label("a").value_at(9, lambda r: 0)

    def test_table_renders_all_series(self):
        table = self._result().table()
        assert "Fig X" in table
        assert "a" in table and "b" in table
        assert "70.0" in table and "95.0" in table

    def test_format_table_alignment(self):
        text = format_table("T", [1, 10], {"col": [1.0, 2.0]})
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "#nodes" in lines[2]
        assert len(lines) == 6


class FakeRunner:
    """Stands in for a SweepRunner: one fake result per config, in order."""

    def __init__(self):
        self.calls = []

    def run_many(self, configs, label=""):
        self.calls.append((label, [config.num_nodes for config in configs]))
        return [fake_result(config.num_nodes, 50.0) for config in configs]


class TestSweep:
    def test_sweep_runs_each_node_count(self):
        runner = FakeRunner()
        specs = [("a", SystemConfig()), ("b", SystemConfig())]
        series = sweep_all(specs, [1, 3], runner=runner, label="fig")
        assert runner.calls == [("fig", [1, 3, 1, 3])]
        assert [s.label for s in series] == ["a", "b"]
        for one in series:
            assert [n for n, _ in one.points] == [1, 3]


class TestTable41:
    def test_parameter_rows_cover_table(self):
        rows = dict(table41.parameter_rows(SystemConfig()))
        assert "path length" in rows
        assert "250,000" in rows["path length"]
        assert "GEM parameters" in rows
        assert "50 us/page" in rows["GEM parameters"]
        assert "15 ms DB disks" in rows["avg. disk access time"]

    def test_validate_accepts_paper_consistent_result(self):
        result = fake_result(1, 75.0)
        result.hit_ratios = {"BRANCH_TELLER": 0.71, "HISTORY": 0.95}
        checks = table41.validate(result)
        assert all(checks.values()), checks

    def test_validate_flags_wrong_utilization(self):
        result = fake_result(1, 75.0)
        result.hit_ratios = {"BRANCH_TELLER": 0.71, "HISTORY": 0.95}
        result.cpu_utilization_per_node = [0.3]
        checks = table41.validate(result)
        assert not checks["cpu_utilization_at_least_62.5%"]


class TestDriverSmoke:
    def test_fig41_driver_smoke(self):
        from repro.experiments import fig41

        result = fig41.run(Scale.smoke())
        assert len(result.series) == 4
        table = result.table()
        assert "Fig 4.1" in table
        for series in result.series:
            assert len(series.points) == 2
            for _n, run in series.points:
                assert run.completed > 0
