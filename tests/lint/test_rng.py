"""Seeded fixtures for RNG001, the stream-discipline rule."""

import textwrap

from repro.lint import lint_sources


def lint_src(source, path="fixture.py"):
    findings, _files = lint_sources([(path, textwrap.dedent(source))])
    return findings


def at(findings, rule):
    return [(f.line, f.col) for f in findings if f.rule == rule]


class TestRNG001RawGenerators:
    def test_raw_random_construction_fires(self):
        findings = lint_src(
            """\
            from random import Random


            def make_sampler(seed):
                return Random(seed)
            """
        )
        assert at(findings, "RNG001") == [(5, 11)]

    def test_system_random_fires(self):
        findings = lint_src(
            """\
            import random


            def token():
                return random.SystemRandom().random()
            """
        )
        assert (5, 11) in at(findings, "RNG001")

    def test_stream_layer_classes_are_exempt(self):
        findings = lint_src(
            """\
            from random import Random


            class Stream:
                def __init__(self, seed):
                    self._rng = Random(seed)


            class StreamRegistry:
                def fork(self, seed):
                    return Random(seed)
            """
        )
        assert at(findings, "RNG001") == []

    def test_drawing_from_a_registry_stream_is_clean(self):
        findings = lint_src(
            """\
            def think_time(streams):
                return streams.get("arrivals").expovariate(10.0)
            """
        )
        assert at(findings, "RNG001") == []
