"""Seeded fixtures for the path-sensitive RES resource-obligation rules.

Each bad fixture must fire the expected rule at the expected line and
column; each good fixture is the same hazard written the canonical way
and must stay clean.  The fixtures mirror the patterns in
``repro.sim.resources``: request/cancel/release (the MPL-slot shape),
hold/hold_cancel and the compound accesses with ``compound_cancel``.
"""

import textwrap

from repro.lint import lint_sources


def lint_src(source, path="fixture.py"):
    findings, _files = lint_sources([(path, textwrap.dedent(source))])
    return findings


def at(findings, rule):
    return [(f.line, f.col) for f in findings if f.rule == rule]


class TestRES001PendingEscape:
    def test_unguarded_request_wait_is_pending_on_interrupt(self):
        findings = lint_src(
            """\
            def use(resource):
                request = resource.request()
                yield request
                resource.release()
            """
        )
        # The obligation is created at the request() call site.
        assert (2, 14) in at(findings, "RES001")

    def test_unguarded_hold_wait_is_pending_on_interrupt(self):
        findings = lint_src(
            """\
            def pause(resource, duration):
                entry = resource.hold(duration)
                yield entry
            """
        )
        assert (2, 12) in at(findings, "RES001")

    def test_hold_guarded_by_cancel_is_clean(self):
        findings = lint_src(
            """\
            def pause(resource, duration):
                entry = resource.hold(duration)
                try:
                    yield entry
                except BaseException:
                    resource.hold_cancel(entry)
                    raise
            """
        )
        assert at(findings, "RES001") == []
        assert at(findings, "RES002") == []


class TestRES002HeldLeak:
    def test_missing_release_on_normal_path(self):
        findings = lint_src(
            """\
            def use(resource):
                request = resource.request()
                try:
                    yield request
                except BaseException:
                    resource.cancel(request)
                    raise
            """
        )
        assert (2, 14) in at(findings, "RES002")

    def test_missing_release_on_exception_path(self):
        findings = lint_src(
            """\
            def use(resource, duration):
                request = resource.request()
                try:
                    yield request
                except BaseException:
                    resource.cancel(request)
                    raise
                yield resource.hold(duration)
                resource.release()
            """
        )
        # The granted unit leaks if the hold wait is interrupted.
        assert (2, 14) in at(findings, "RES002")

    def test_grab_with_try_finally_release_is_clean(self):
        findings = lint_src(
            """\
            def use(resource):
                request = resource.request()
                try:
                    yield request
                except BaseException:
                    resource.cancel(request)
                    raise
                try:
                    work()
                finally:
                    resource.release()
            """
        )
        assert at(findings, "RES002") == []

    def test_request_cancel_release_canonical_shape_is_clean(self):
        findings = lint_src(
            """\
            def use(resource):
                request = resource.request()
                try:
                    yield request
                except BaseException:
                    resource.cancel(request)
                    raise
                resource.release()
            """
        )
        assert at(findings, "RES001") == []
        assert at(findings, "RES002") == []
        assert at(findings, "RES003") == []


class TestRES003DoubleCancel:
    def test_second_cancel_on_every_path_fires_at_the_cancel_site(self):
        findings = lint_src(
            """\
            def use(resource):
                request = resource.request()
                try:
                    yield request
                except BaseException:
                    resource.cancel(request)
                    resource.cancel(request)
                    raise
                resource.release()
            """
        )
        assert at(findings, "RES003") == [(7, 8)]

    def test_release_after_cancel_join_is_not_flagged(self):
        # Only one of the two paths reaching the release has completed
        # the obligation (the cancel path re-raises), so the release is
        # NOT a sure double-completion.
        findings = lint_src(
            """\
            def use(resource):
                request = resource.request()
                try:
                    yield request
                except BaseException:
                    resource.cancel(request)
                    raise
                resource.release()
            """
        )
        assert at(findings, "RES003") == []

    def test_double_release_fires(self):
        findings = lint_src(
            """\
            def use(resource):
                request = resource.request()
                try:
                    yield request
                except BaseException:
                    resource.cancel(request)
                    raise
                try:
                    work()
                finally:
                    resource.release()
                resource.release()
            """
        )
        assert (12, 4) in at(findings, "RES003")


class TestHeldChainHelpers:
    def test_held_chain_without_cancel_guard_fires(self):
        findings = lint_src(
            """\
            from repro.sim.resources import held_chain, compound_cancel


            def pipeline(resources, duration):
                chain = held_chain(resources, duration)
                yield chain
            """
        )
        assert (5, 12) in at(findings, "RES001")

    def test_held_chain_with_cancel_guard_is_clean(self):
        findings = lint_src(
            """\
            from repro.sim.resources import held_chain, compound_cancel


            def pipeline(resources, duration):
                chain = held_chain(resources, duration)
                try:
                    yield chain
                except BaseException:
                    compound_cancel(chain)
                    raise
            """
        )
        assert at(findings, "RES001") == []


class TestRESAcrossControlFlow:
    def test_leak_only_on_one_if_branch_still_fires(self):
        findings = lint_src(
            """\
            def use(resource, flag, duration):
                entry = resource.hold(duration)
                if flag:
                    yield entry
                else:
                    resource.hold_cancel(entry)
            """
        )
        # The taken branch leaves the obligation pending at exit.
        assert (2, 12) in at(findings, "RES001")

    def test_loop_reacquire_is_clean(self):
        findings = lint_src(
            """\
            def poll(resource, duration, times):
                for _ in range(times):
                    entry = resource.hold(duration)
                    try:
                        yield entry
                    except BaseException:
                        resource.hold_cancel(entry)
                        raise
            """
        )
        assert at(findings, "RES001") == []
        assert at(findings, "RES003") == []
