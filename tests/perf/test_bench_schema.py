"""Schema, comparator and driver tests for the committed perf trajectory.

These tests never simulate or time anything: they validate the
committed schema-2 ``BENCH_*.json`` snapshots, check the comparator's
gates on synthetic snapshots, and drive the snapshot driver with
synthetic perfbench repetitions.  Test names that say "scale" or
"num_nodes" date from schema 1, whose rows were node counts; they test
the same property of a perfbench workload row.
"""

import json
from pathlib import Path

import pytest

from benchmarks.perf import driver
from benchmarks.perf.compare import (
    SCHEMA_VERSION,
    SnapshotFormatError,
    compare_snapshots,
    find_latest_snapshot,
    load_snapshot,
    main,
    snapshot_paths,
    validate_snapshot,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
DIGEST = "0123456789abcdef"


def make_snapshot(
    workloads=("dc-gem-affinity",), host_us_per_txn=150.0, events=65_882,
    code_version="v1", date="2026-10-19", **extra,
):
    row = {
        "host_us_per_txn": host_us_per_txn, "run_s": 5.0, "setup_s": 0.5,
        "peak_rss_mb": 60.0, "events": events, "committed": 1_777, "txns": 1_777,
        "events_per_txn": events / 1_777,
    }
    rows = {
        name: {**row, "digests": {cell.name: DIGEST for cell in driver.CELLS[name]}}
        for name in workloads
    }
    return {
        "schema": SCHEMA_VERSION, "date": date, "code_version": code_version,
        "workloads": rows, **extra,
    }


def write(tmp_path, name, snapshot):
    path = tmp_path / name
    path.write_text(json.dumps(snapshot), encoding="utf-8")
    return path


def run_compare(tmp_path, current, *committed):
    """``compare`` on ``current`` against committed snapshots, oldest first."""
    for day, snapshot in enumerate(committed, start=1):
        write(tmp_path, f"BENCH_2026-10-{day:02d}.json", snapshot)
    current = write(tmp_path, "now.json", current)
    return main([str(current), "--baseline-dir", str(tmp_path)])


class TestCommittedSnapshots:
    def test_at_least_one_snapshot_is_committed(self):
        assert find_latest_snapshot(REPO_ROOT) is not None

    def test_every_committed_snapshot_validates(self):
        # Schema-1 files are frozen history; every other one must load.
        current = snapshot_paths(REPO_ROOT)
        for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
            if path not in current:
                assert json.loads(path.read_text())["schema"] == 1
                continue
            snapshot = load_snapshot(path)  # raises on schema violations
            assert snapshot["seed"] == driver.SEED

    def test_snapshot_name_matches_embedded_date(self):
        # The name must lead with the embedded date (a short suffix may
        # disambiguate two snapshots taken the same day) so that the
        # lexical order find_latest_snapshot relies on stays date order.
        for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
            snapshot = json.loads(path.read_text())
            assert path.name.startswith(f"BENCH_{snapshot['date']}")
            assert path.name.endswith(".json")


class TestValidateSnapshot:
    def test_valid_snapshot_passes(self):
        validate_snapshot(make_snapshot(driver.CELLS))

    @pytest.mark.parametrize("missing", ["schema", "date", "code_version", "workloads"])
    def test_missing_top_level_key(self, missing):
        snapshot = make_snapshot()
        del snapshot[missing]
        with pytest.raises(SnapshotFormatError, match=missing):
            validate_snapshot(snapshot)

    def test_unknown_schema_version(self):
        snapshot = make_snapshot()
        snapshot["schema"] = 1
        with pytest.raises(SnapshotFormatError, match="schema version"):
            validate_snapshot(snapshot)

    @pytest.mark.parametrize("date", ["2026/08/08", "08-08-2026", "yesterday", 20260808])
    def test_malformed_date(self, date):
        snapshot = make_snapshot()
        snapshot["date"] = date
        with pytest.raises(SnapshotFormatError, match="YYYY-MM-DD"):
            validate_snapshot(snapshot)

    def test_empty_scales_rejected(self):
        snapshot = make_snapshot()
        snapshot["workloads"] = {}
        with pytest.raises(SnapshotFormatError, match="non-empty"):
            validate_snapshot(snapshot)

    def test_non_numeric_scale_key_rejected(self):
        snapshot = make_snapshot()
        snapshot["workloads"]["8"] = snapshot["workloads"].pop("dc-gem-affinity")
        with pytest.raises(SnapshotFormatError, match="not a perfbench workload"):
            validate_snapshot(snapshot)

    def test_num_nodes_mismatch_rejected(self):
        # A row's digests must name its own workload's cells.
        snapshot = make_snapshot()
        snapshot["workloads"]["dc-gem-affinity"]["digests"]["pcl-2pl"] = DIGEST
        with pytest.raises(SnapshotFormatError, match="not its cells"):
            validate_snapshot(snapshot)

    def test_missing_scale_field_rejected(self):
        snapshot = make_snapshot()
        del snapshot["workloads"]["dc-gem-affinity"]["peak_rss_mb"]
        with pytest.raises(SnapshotFormatError, match="peak_rss_mb"):
            validate_snapshot(snapshot)

    @pytest.mark.parametrize("field", ["events_per_txn", "events", "host_us_per_txn"])
    def test_nonpositive_measurements_rejected(self, field):
        snapshot = make_snapshot()
        snapshot["workloads"]["dc-gem-affinity"][field] = 0
        with pytest.raises(SnapshotFormatError, match=field):
            validate_snapshot(snapshot)


class TestCompareSnapshots:
    def test_within_tolerance_passes(self):
        rows = compare_snapshots(
            make_snapshot(host_us_per_txn=165.0), make_snapshot(host_us_per_txn=150.0)
        )
        assert len(rows) == 1
        assert not rows[0]["regressed"]
        assert rows[0]["changed"] == []

    def test_regression_beyond_tolerance_flagged(self):
        rows = compare_snapshots(
            make_snapshot(host_us_per_txn=200.0), make_snapshot(host_us_per_txn=150.0)
        )
        assert rows[0]["regressed"]
        assert rows[0]["ratio"] == pytest.approx(0.75)

    def test_improvement_never_flagged(self):
        rows = compare_snapshots(
            make_snapshot(host_us_per_txn=75.0), make_snapshot(host_us_per_txn=150.0)
        )
        assert not rows[0]["regressed"]
        assert rows[0]["ratio"] == pytest.approx(2.0)

    def test_tolerance_is_configurable(self):
        current = make_snapshot(host_us_per_txn=165.0)
        baseline = make_snapshot(host_us_per_txn=150.0)
        assert not compare_snapshots(current, baseline, tolerance=0.15)[0]["regressed"]
        assert compare_snapshots(current, baseline, tolerance=0.05)[0]["regressed"]

    @pytest.mark.parametrize("tolerance", [-0.1, 1.0, 2.0])
    def test_invalid_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            compare_snapshots(make_snapshot(), make_snapshot(), tolerance=tolerance)

    def test_scales_in_only_one_snapshot_are_skipped(self):
        rows = compare_snapshots(
            make_snapshot(("dc-gem-affinity", "dc-cc-matrix")),
            make_snapshot(("dc-gem-affinity", "trace-gem")),
        )
        assert [row["workload"] for row in rows] == ["dc-gem-affinity"]

    def test_event_count_drift_is_reported(self):
        rows = compare_snapshots(make_snapshot(events=65_883), make_snapshot())
        assert rows[0]["changed"] == ["events", "events_per_txn"]


class TestCompareCli:
    def test_missing_baseline_exits_zero(self, tmp_path, capsys):
        assert run_compare(tmp_path, make_snapshot()) == 0
        assert "no baseline" in capsys.readouterr().err

    def test_self_comparison_treated_as_no_baseline(self, tmp_path, capsys):
        current = write(tmp_path, "BENCH_2026-10-19.json", make_snapshot())
        assert main([str(current), "--baseline-dir", str(tmp_path)]) == 0
        assert "no baseline" in capsys.readouterr().err

    def test_regression_exits_one(self, tmp_path, capsys):
        slow = make_snapshot(host_us_per_txn=300.0)
        assert run_compare(tmp_path, slow, make_snapshot()) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_ok_comparison_exits_zero(self, tmp_path, capsys):
        close = make_snapshot(host_us_per_txn=155.0)
        assert run_compare(tmp_path, close, make_snapshot()) == 0
        assert "ok" in capsys.readouterr().out

    @pytest.mark.parametrize("counter", ["events", "committed", "digests"])
    def test_counter_change_within_version_exits_one(self, tmp_path, capsys, counter):
        changed = make_snapshot()
        row = changed["workloads"]["dc-gem-affinity"]
        row[counter] = {"gem-2pl": "f" * 16} if counter == "digests" else 1
        assert run_compare(tmp_path, changed, make_snapshot()) == 1
        assert f"COUNTERS CHANGED: {counter}" in capsys.readouterr().out

    def test_latest_baseline_wins(self, tmp_path):
        slow = make_snapshot(host_us_per_txn=300.0)
        # The older snapshot would flag a regression; the newest must win.
        assert run_compare(tmp_path, slow, make_snapshot(), slow) == 0

    def test_schema_one_files_are_not_baselines(self, tmp_path, capsys):
        assert run_compare(tmp_path, make_snapshot(), {"schema": 1}) == 0
        assert find_latest_snapshot(tmp_path) is None
        assert "no baseline" in capsys.readouterr().err

    def test_explicit_baseline_overrides_directory(self, tmp_path):
        current = write(tmp_path, "now.json", make_snapshot(host_us_per_txn=300.0))
        explicit = write(tmp_path, "base.json", make_snapshot())
        write(tmp_path, "BENCH_2026-10-18.json", make_snapshot(host_us_per_txn=300.0))
        assert main([str(current), "--baseline", str(explicit)]) == 1

    def test_no_common_scales_exits_zero(self, tmp_path, capsys):
        trace = make_snapshot(("trace-gem",))
        assert run_compare(tmp_path, make_snapshot(), trace) == 0
        assert "no common workloads" in capsys.readouterr().err

    def test_invalid_current_snapshot_raises(self, tmp_path):
        bad = make_snapshot()
        del bad["workloads"]
        with pytest.raises(SnapshotFormatError):
            run_compare(tmp_path, bad)


def make_child(**cell):
    """One synthetic dc-gem-affinity repetition that passes every check:
    100 us/txn at the reference speed, 50 events/txn."""
    half = {"events": 500, "txns": 10, "rt_ms": 90.0}
    record = {
        "cell": "gem-2pl", "digest": DIGEST, "events": 1000, "committed": 20,
        "txns": 20, "generated": 20, "cpu_util_max": 0.8, "buffers_filled": True,
        "breakdown_residual_ms": None, "halves": [half, half],
        "window_s_per_event": 2e-6, "run_s": 5.0,
    }
    record.update(cell)
    return {
        "workload": "dc-gem-affinity", "traced": False, "setup_s": 0.5,
        "peak_rss_mb": 60.0, "cells": [record],
    }


class TestDriver:
    @staticmethod
    def run_driver(monkeypatch, tmp_path, children):
        feed = iter(children)
        monkeypatch.setattr(driver.perfbench, "run_child", lambda *args: next(feed))
        out = tmp_path / "bench.json"
        status = driver.main([
            "--out", str(out), "--date", "2026-10-19",
            "--workloads", "dc-gem-affinity", "--repeats", str(len(children)),
        ])
        return status, out

    def test_writes_medians_and_counters(self, monkeypatch, tmp_path):
        children = [make_child(run_s=run_s) for run_s in (4.0, 9.0, 6.0)]
        assert self.run_driver(monkeypatch, tmp_path, children)[0] == 0
        row = load_snapshot(tmp_path / "bench.json")["workloads"]["dc-gem-affinity"]
        assert row["run_s"] == 6.0
        assert row["host_us_per_txn"] == pytest.approx(100.0)
        assert (row["events"], row["committed"], row["txns"]) == (1000, 20, 20)
        assert row["events_per_txn"] == 50.0
        assert row["digests"] == {"gem-2pl": DIGEST}

    @pytest.mark.parametrize(
        "bad", [{"generated": 40}, {"error": "RuntimeError: x"}, {"digest": "f" * 16}],
        ids=["unsteady", "raised", "digest-changed"],
    )
    def test_failed_check_writes_nothing(self, monkeypatch, tmp_path, capsys, bad):
        children = [make_child(), make_child(**bad)]
        status, out = self.run_driver(monkeypatch, tmp_path, children)
        assert status == 1
        assert not out.exists()
        assert "nothing written" in capsys.readouterr().err
