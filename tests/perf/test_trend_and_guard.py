"""Tests for the trend table, the re-anchor guard and the golden guard.

``benchmarks.perf.compare`` must refuse to compare snapshots across a
CODE_VERSION bump unless the newer snapshot documents the re-anchor,
and ``scripts/check_golden_version.py`` must reject diffs that
regenerate golden fixtures without bumping CODE_VERSION.
"""

import importlib.util
from pathlib import Path

import pytest

from benchmarks.perf.compare import crosses_reanchor, main, trend_rows, trend_table
from tests.perf.test_bench_schema import make_snapshot, run_compare, write

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_golden_version", REPO_ROOT / "scripts" / "check_golden_version.py"
)
golden_guard = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_guard)

DOCUMENTED = {"commit": "abc1234", "pairs": 10}
BASE = make_snapshot()


class TestCrossesReanchor:
    def test_same_version_does_not_cross(self):
        assert not crosses_reanchor(make_snapshot(), make_snapshot())

    def test_different_versions_cross(self):
        assert crosses_reanchor(make_snapshot(code_version="v2"), make_snapshot())

    def test_missing_version_counts_as_distinct_anchor(self):
        bare = make_snapshot()
        del bare["code_version"]
        assert crosses_reanchor(bare, make_snapshot())


class TestTrend:
    TRAJECTORY = [
        make_snapshot(date="2026-10-19"),
        make_snapshot(host_us_per_txn=145.0, date="2026-11-01"),
        make_snapshot(
            host_us_per_txn=140.0, events=60_000, code_version="v2",
            date="2026-12-01", baseline=DOCUMENTED,
        ),
    ]

    def test_rows_preserve_order_and_mark_reanchors(self):
        rows = trend_rows(self.TRAJECTORY)
        assert [row["date"] for row in rows] == [
            "2026-10-19", "2026-11-01", "2026-12-01",
        ]
        assert [row["reanchored"] for row in rows] == [False, False, True]
        assert rows[2]["baseline_commit"] == "abc1234"
        assert rows[2]["workloads"]["dc-gem-affinity"] == pytest.approx(
            (140.0, 60_000 / 1_777)
        )

    def test_first_row_is_never_a_reanchor(self):
        rows = trend_rows([make_snapshot()])
        assert rows == [rows[0]]
        assert not rows[0]["reanchored"]

    def test_table_marks_reanchor_boundary(self):
        lines = trend_table(self.TRAJECTORY).splitlines()
        marker = [line for line in lines if line.startswith("-- re-anchor")]
        assert len(marker) == 1
        # The marker sits between the second and third data rows.
        assert lines.index(marker[0]) == 4
        assert lines[3].startswith("2026-11-01")

    def test_table_handles_disjoint_scales(self):
        a = make_snapshot(("dc-gem-affinity",), date="2026-10-19")
        b = make_snapshot(("dc-gem-affinity", "trace-gem"), date="2026-11-01")
        table = trend_table([a, b])
        assert table.count("dc-gem-affinity") == 2
        assert table.count("trace-gem") == 1

    def test_trend_cli_lists_all_snapshots(self, tmp_path, capsys):
        for snap in self.TRAJECTORY:
            write(tmp_path, f"BENCH_{snap['date']}.json", snap)
        # Schema-1 history is not part of the trend.
        write(tmp_path, "BENCH_2026-10-18.json", {"schema": 1, "date": "2026-10-18"})
        assert main(["--trend", "--baseline-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2026-10-19" in out and "2026-12-01" in out
        assert "2026-10-18" not in out
        assert "re-anchor" in out

    def test_trend_cli_without_snapshots_exits_zero(self, tmp_path, capsys):
        assert main(["--trend", "--baseline-dir", str(tmp_path)]) == 0

    def test_committed_trajectory_renders(self, capsys):
        assert main(["--trend", "--baseline-dir", str(REPO_ROOT)]) == 0
        assert "dc-gem-affinity" in capsys.readouterr().out


class TestReanchorGuard:
    def test_undocumented_reanchor_fails(self, tmp_path, capsys):
        assert run_compare(tmp_path, make_snapshot(code_version="v2"), BASE) == 1
        err = capsys.readouterr().err
        assert "re-anchor" in err and "baseline" in err

    def test_documented_reanchor_passes(self, tmp_path, capsys):
        current = make_snapshot(events=60_000, code_version="v2", baseline=DOCUMENTED)
        assert run_compare(tmp_path, current, BASE) == 0
        assert "skipping the counter check" in capsys.readouterr().err

    def test_documented_reanchor_still_checks_time(self, tmp_path, capsys):
        current = make_snapshot(
            host_us_per_txn=300.0, code_version="v2", baseline=DOCUMENTED
        )
        assert run_compare(tmp_path, current, BASE) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_same_version_still_compared(self, tmp_path, capsys):
        # Half the baseline speed at the same anchor: a real regression.
        assert run_compare(tmp_path, make_snapshot(host_us_per_txn=300.0), BASE) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_current_required_without_trend(self):
        with pytest.raises(SystemExit):
            main([])


class TestGoldenGuard:
    def test_extracts_code_version(self):
        source = 'X = 1\nCODE_VERSION = "2026.08-4"\n'
        assert golden_guard.extract_code_version(source) == "2026.08-4"
        assert golden_guard.extract_code_version("X = 1\n") is None

    def test_extracts_from_real_version_file(self):
        source = (REPO_ROOT / golden_guard.VERSION_FILE).read_text()
        assert golden_guard.extract_code_version(source) is not None

    def test_golden_changes_filters_paths(self):
        changed = [
            "src/repro/sim/engine.py",
            "tests/golden/fig41_gem_affinity_noforce_n2.json",
            "tests/golden/README.md",
        ]
        assert golden_guard.golden_changes(changed) == [
            "tests/golden/fig41_gem_affinity_noforce_n2.json"
        ]

    def test_no_golden_changes_pass_without_bump(self):
        assert golden_guard.check(["src/repro/sim/engine.py"], "v1", "v1") == []

    def test_golden_change_without_bump_fails(self):
        errors = golden_guard.check(
            ["tests/golden/a.json"], "v1", "v1"
        )
        assert errors and "without a CODE_VERSION bump" in errors[0]

    def test_golden_change_with_bump_passes(self):
        assert golden_guard.check(["tests/golden/a.json"], "v1", "v2") == []

    def test_unreadable_version_fails_closed(self):
        errors = golden_guard.check(["tests/golden/a.json"], None, "v2")
        assert errors and "could not be read" in errors[0]

    def test_script_accepts_head_base(self):
        # End-to-end against the real repository: diffing HEAD against
        # the working tree exercises the git plumbing either way.
        status = golden_guard.main(["--base", "HEAD"])
        assert status in (0, 1)
