"""Baseline round-trips: adopt-now, fail-on-new-findings-only."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import Baseline, lint_paths, lint_sources
from repro.lint.baseline import BASELINE_SCHEMA_VERSION
from repro.lint.findings import Finding

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_SOURCE = textwrap.dedent(
    """\
    def walk(members: set):
        for member in members:
            print(member)
    """
)


def findings_for(source, path="pkg/mod.py"):
    findings, _files = lint_sources([(path, source)])
    return findings


class TestRoundTrip:
    def test_save_load_filter_accepts_existing_findings(self, tmp_path):
        findings = findings_for(BAD_SOURCE)
        assert findings, "fixture must produce findings"
        baseline = Baseline.from_findings(findings)
        baseline_file = tmp_path / "baseline.json"
        baseline.save(baseline_file)
        reloaded = Baseline.load(baseline_file)
        assert len(reloaded) == len(findings)
        assert reloaded.filter_new(findings) == []

    def test_new_finding_surfaces_while_old_stays_accepted(self, tmp_path):
        old = findings_for(BAD_SOURCE)
        baseline = Baseline.from_findings(old)
        grown = BAD_SOURCE + textwrap.dedent(
            """\


            def more(extra: set):
                return list(extra)
            """
        )
        new = baseline.filter_new(findings_for(grown))
        assert new, "the added finding must surface"
        assert all(f.line >= 6 for f in new)

    def test_line_shifts_do_not_invalidate_the_baseline(self):
        baseline = Baseline.from_findings(findings_for(BAD_SOURCE))
        shifted = "import os\n\n\n" + BAD_SOURCE.replace(
            "print(member)", "print(member, os.sep)"
        )
        assert baseline.filter_new(findings_for(shifted)) == []

    def test_duplicate_keys_consume_counts_earliest_first(self):
        base = [
            Finding("a.py", 10, 0, "DET001", "same message"),
        ]
        current = [
            Finding("a.py", 10, 0, "DET001", "same message"),
            Finding("a.py", 90, 0, "DET001", "same message"),
        ]
        new = Baseline.from_findings(base).filter_new(current)
        assert [(f.line) for f in new] == [90]

    def test_save_is_byte_stable(self, tmp_path):
        findings = findings_for(BAD_SOURCE)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        Baseline.from_findings(findings).save(first)
        Baseline.from_findings(list(reversed(findings))).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_load_rejects_wrong_schema_version(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError, match="schema version"):
            Baseline.load(bad)

    def test_load_rejects_non_positive_counts(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(
            json.dumps(
                {
                    "version": BASELINE_SCHEMA_VERSION,
                    "entries": [
                        {"path": "a.py", "rule": "DET001", "message": "m", "count": 0}
                    ],
                }
            )
        )
        with pytest.raises(ValueError, match="non-positive"):
            Baseline.load(bad)


class TestCommittedBaseline:
    def test_committed_baseline_equals_a_fresh_regeneration(
        self, tmp_path, monkeypatch
    ):
        """The committed ``tests/`` baseline holds exactly what simlint
        finds today: a finding that stops firing must leave the file
        (``--baseline-update``) rather than linger as unused credit."""
        monkeypatch.chdir(REPO_ROOT)
        findings, _files = lint_paths(["tests"])
        fresh = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(fresh)
        committed = REPO_ROOT / ".simlint-baseline.json"
        assert fresh.read_text(encoding="utf-8") == committed.read_text(
            encoding="utf-8"
        )


def run_simlint(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestCliBaselineFlags:
    def test_update_then_check_then_new_finding(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(BAD_SOURCE)
        baseline_file = tmp_path / "baseline.json"

        update = run_simlint(
            ["mod.py", "--baseline", "baseline.json", "--baseline-update"],
            cwd=tmp_path,
        )
        assert update.returncode == 0, update.stderr
        assert baseline_file.exists()

        check = run_simlint(
            ["mod.py", "--baseline", "baseline.json"], cwd=tmp_path
        )
        assert check.returncode == 0, check.stdout + check.stderr

        target.write_text(BAD_SOURCE + "\n\nbad = list({1, 2})\n")
        recheck = run_simlint(
            ["mod.py", "--baseline", "baseline.json"], cwd=tmp_path
        )
        assert recheck.returncode == 1
        assert "DET001" in recheck.stdout

    def test_baseline_update_requires_baseline(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        result = run_simlint(["mod.py", "--baseline-update"], cwd=tmp_path)
        assert result.returncode == 2
        assert "--baseline" in result.stderr

    def test_missing_baseline_file_reports_everything(self, tmp_path):
        (tmp_path / "mod.py").write_text(BAD_SOURCE)
        result = run_simlint(
            ["mod.py", "--baseline", "absent.json"], cwd=tmp_path
        )
        assert result.returncode == 1
        assert "DET001" in result.stdout
