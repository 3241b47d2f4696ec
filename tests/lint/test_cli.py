"""CLI behaviour: exit codes, JSON schema, select/ignore, meta-lint.

The meta test -- ``simlint`` over ``src/repro`` reports nothing -- is
the contract that keeps the tree hazard-free: any new unordered
iteration, unseeded randomness or unprotected grant wait fails CI
unless it carries a justified suppression.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import JSON_SCHEMA_VERSION, lint_paths
from repro.lint.cli import main

REPO = Path(__file__).resolve().parents[2]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", "x = 1\n")
        assert main([path]) == 0
        assert "clean" in capsys.readouterr().err

    def test_findings_exit_one(self, tmp_path, capsys):
        path = write(
            tmp_path, "bad.py", "import random\n\nx = random.random()\n"
        )
        assert main([path]) == 1
        out = capsys.readouterr().out
        assert f"{path}:3:" in out
        assert "DET002" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.txt")]) == 2

    def test_unknown_rule_id_exits_two(self, tmp_path):
        path = write(tmp_path, "clean.py", "x = 1\n")
        with pytest.raises(SystemExit) as exc:
            main([path, "--select", "BOGUS01"])
        assert exc.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = re.findall(r"^([A-Z]{3}\d{3})  ", out, flags=re.MULTILINE)
        assert {"DET001", "DET002", "SUP001"} <= set(listed)
        # The catalog and docs/LINTING.md's rule headings cannot drift.
        documented = re.findall(
            r"^### ([A-Z]{3}\d{3}) ",
            (REPO / "docs" / "LINTING.md").read_text(),
            flags=re.MULTILINE,
        )
        assert sorted(listed) == sorted(documented)
        assert len(set(documented)) == len(documented)

    def test_unparsable_file_exits_two_whatever_the_selection(
        self, tmp_path, capsys
    ):
        path = write(tmp_path, "broken.py", "def f(:\n    pass\n")
        for extra in ([], ["--ignore", "SUP001"], ["--select", "DET001"]):
            assert main([path, *extra]) == 2
            err = capsys.readouterr().err
            assert f"{path}:1:" in err and "does not parse" in err
            assert "clean" not in err

    def test_undecodable_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.py"
        path.write_bytes(b'x = "\xe9"\n')
        assert main([str(path)]) == 2
        assert "simlint: error:" in capsys.readouterr().err


class TestSelectIgnore:
    BAD = (
        "import random\n"
        "\n"
        "def f():\n"
        "    pending = {1, 2}\n"
        "    for x in pending:\n"
        "        print(random.random())\n"
    )

    def test_select_restricts_rules(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", self.BAD)
        assert main([path, "--select", "DET001"]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "DET002" not in out

    def test_ignore_drops_rules(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", self.BAD)
        assert main([path, "--ignore", "DET001,DET002"]) == 0


class TestJsonOutput:
    def test_schema_shape(self, tmp_path, capsys):
        path = write(
            tmp_path, "bad.py", "import random\n\nx = random.random()\n"
        )
        assert main([path, "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == JSON_SCHEMA_VERSION
        assert document["files_scanned"] == 1
        assert document["counts"] == {"DET002": 1}
        (finding,) = document["findings"]
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "DET002"
        assert finding["line"] == 3

    def test_clean_json_report(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", "x = 1\n")
        assert main([path, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["findings"] == []
        assert document["counts"] == {}


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        path = write(tmp_path, "clean.py", "x = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", path],
            capture_output=True,
            text=True,
            cwd=str(REPO),
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stderr


class TestMetaLint:
    def test_src_repro_is_hazard_free(self):
        findings, files_scanned = lint_paths([str(REPO / "src" / "repro")])
        assert files_scanned > 50
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}" for f in findings
        )

    def test_tests_tree_is_hazard_free(self):
        # No baseline: a test whose shape is its subject carries a
        # justified inline suppression instead.
        findings, files_scanned = lint_paths([str(REPO / "tests")])
        assert files_scanned > 50
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}" for f in findings
        )
