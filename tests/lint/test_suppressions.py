"""Suppression-comment semantics: justified disables, malformed ones."""

import textwrap

from repro.lint import lint_sources


def lint_src(source, path="fixture.py"):
    findings, _files = lint_sources([(path, textwrap.dedent(source))])
    return findings


class TestTrailingDisable:
    def test_justified_disable_suppresses(self):
        findings = lint_src(
            """\
            def f():
                pending = {1, 2}
                for x in pending:  # simlint: disable=DET001 -- drain order is irrelevant here
                    pending_done = x
            """
        )
        assert findings == []

    def test_disable_only_covers_named_rule(self):
        findings = lint_src(
            """\
            import random

            def f():
                pending = {1, 2}
                for x in pending:  # simlint: disable=DET002 -- wrong rule named
                    print(random.random())
            """
        )
        rules = {f.rule for f in findings}
        assert "DET001" in rules  # not suppressed: comment names DET002
        assert "DET002" in rules  # the call is on the next line anyway

    def test_multiple_rules_one_comment(self):
        findings = lint_src(
            """\
            import time

            def f():
                pending = {1.5, 2.5}
                return sum(pending), time.time()  # simlint: disable=DET001,DET002 -- display only
            """
        )
        assert findings == []


class TestDisableNext:
    def test_disable_next_targets_following_line(self):
        findings = lint_src(
            """\
            import time

            def f():
                # simlint: disable-next=DET002 -- host wall-clock display only
                return time.time()
            """
        )
        assert findings == []

    def test_disable_next_does_not_leak_past_one_line(self):
        findings = lint_src(
            """\
            import time

            def f():
                # simlint: disable-next=DET002 -- host wall-clock display only
                a = time.time()
                b = time.time()
                return a - b
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("DET002", 6)]


class TestMalformedSuppressions:
    def test_missing_justification_is_sup001_and_does_not_suppress(self):
        findings = lint_src(
            """\
            def f():
                pending = {1, 2}
                for x in pending:  # simlint: disable=DET001
                    print(x)
            """
        )
        rules = [f.rule for f in findings]
        assert "SUP001" in rules
        assert "DET001" in rules  # malformed comment suppresses nothing

    def test_unknown_rule_is_sup001(self):
        findings = lint_src(
            """\
            x = 1  # simlint: disable=NOPE999 -- not a rule
            """
        )
        assert [f.rule for f in findings] == ["SUP001"]

    def test_unparseable_comment_is_sup001(self):
        findings = lint_src(
            """\
            x = 1  # simlint: disable DET001 missing equals
            """
        )
        assert [f.rule for f in findings] == ["SUP001"]

    def test_simlint_in_string_is_not_a_suppression(self):
        findings = lint_src(
            '''\
            DOC = "# simlint: disable=DET001 -- this is data, not a comment"

            def f():
                pending = {1, 2}
                for x in pending:
                    print(x)
            '''
        )
        assert [f.rule for f in findings] == ["DET001"]
