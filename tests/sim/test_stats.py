"""Unit tests for statistics collectors."""

import json
import math

import pytest

from repro.sim import Counter, StatsRegistry, Tally, TimeWeighted


class TestCounter:
    def test_increment(self):
        c = Counter("n")
        c.increment()
        c.increment(4)
        assert c.count == 5

    def test_reset(self):
        c = Counter()
        c.increment(10)
        c.reset()
        assert c.count == 0


class TestTally:
    def test_empty_tally(self):
        t = Tally()
        assert t.count == 0
        assert t.mean == 0.0
        assert t.variance == 0.0

    def test_mean_min_max(self):
        t = Tally()
        for value in [2.0, 4.0, 6.0]:
            t.record(value)
        assert t.mean == pytest.approx(4.0)
        assert t.min == 2.0
        assert t.max == 6.0

    def test_variance_matches_textbook(self):
        t = Tally()
        data = [1.0, 2.0, 3.0, 4.0]
        for value in data:
            t.record(value)
        mean = sum(data) / len(data)
        expected = sum((x - mean) ** 2 for x in data) / (len(data) - 1)
        assert t.variance == pytest.approx(expected)
        assert t.stdev == pytest.approx(math.sqrt(expected))

    def test_single_observation_variance_zero(self):
        t = Tally()
        t.record(5.0)
        assert t.variance == 0.0

    def test_percentile_requires_samples(self):
        t = Tally()
        t.record(1.0)
        with pytest.raises(ValueError):
            t.percentile(0.5)

    def test_percentiles(self):
        t = Tally(keep_samples=True)
        for value in [10.0, 20.0, 30.0, 40.0, 50.0]:
            t.record(value)
        assert t.percentile(0.0) == 10.0
        assert t.percentile(1.0) == 50.0
        assert t.percentile(0.5) == 30.0
        assert t.percentile(0.25) == pytest.approx(20.0)

    def test_percentile_empty(self):
        t = Tally(keep_samples=True)
        assert t.percentile(0.5) == 0.0

    def test_reset(self):
        t = Tally(keep_samples=True)
        t.record(3.0)
        t.reset()
        assert t.count == 0
        assert t.mean == 0.0
        assert t.percentile(0.5) == 0.0


class TestTimeWeighted:
    def test_time_average_piecewise(self):
        tw = TimeWeighted(initial=0.0, now=0.0)
        tw.update(2.0, now=1.0)  # value 0 over [0,1)
        tw.update(4.0, now=3.0)  # value 2 over [1,3)
        # value 4 over [3,5)
        assert tw.time_average(now=5.0) == pytest.approx((0 * 1 + 2 * 2 + 4 * 2) / 5)

    def test_add_delta(self):
        tw = TimeWeighted(initial=1.0, now=0.0)
        tw.add(2.0, now=2.0)
        assert tw.value == 3.0
        assert tw.time_average(now=4.0) == pytest.approx((1 * 2 + 3 * 2) / 4)

    def test_max_tracking(self):
        tw = TimeWeighted(initial=0.0, now=0.0)
        tw.update(5.0, now=1.0)
        tw.update(2.0, now=2.0)
        assert tw.max == 5.0

    def test_time_backwards_rejected(self):
        tw = TimeWeighted(now=5.0)
        with pytest.raises(ValueError):
            tw.update(1.0, now=4.0)

    def test_zero_elapsed_returns_current_value(self):
        tw = TimeWeighted(initial=7.0, now=3.0)
        assert tw.time_average(now=3.0) == 7.0

    def test_reset_keeps_current_value(self):
        tw = TimeWeighted(initial=0.0, now=0.0)
        tw.update(10.0, now=1.0)
        tw.reset(now=1.0)
        assert tw.value == 10.0
        assert tw.time_average(now=2.0) == pytest.approx(10.0)
        assert tw.max == 10.0


class TestStatsRegistry:
    def test_collectors_are_memoized(self):
        reg = StatsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.tally("b") is reg.tally("b")
        assert reg.timeweighted("c") is reg.timeweighted("c")

    def test_reset_all(self):
        reg = StatsRegistry()
        reg.counter("a").increment(3)
        reg.tally("b").record(1.0)
        reg.timeweighted("c").update(5.0, now=1.0)
        reg.reset_all(now=2.0)
        assert reg.counter("a").count == 0
        assert reg.tally("b").count == 0
        assert reg.timeweighted("c").time_average(now=3.0) == pytest.approx(5.0)


class TestTallyJsonSafety:
    """Regression tests: empty tallies must serialize to valid JSON."""

    def test_empty_tally_min_max_are_none(self):
        t = Tally("rt")
        assert t.min is None
        assert t.max is None

    def test_empty_tally_summary_is_strict_json(self):
        # Pre-fix min/max were +/-inf, which json.dumps renders as the
        # non-standard Infinity token strict parsers reject.
        t = Tally("rt")
        text = json.dumps(t.summary())

        def reject(token):
            raise AssertionError(f"non-standard JSON constant {token!r}")

        decoded = json.loads(text, parse_constant=reject)
        assert decoded == {
            "count": 0, "mean": 0.0, "stdev": 0.0, "min": None, "max": None,
        }

    def test_summary_of_populated_tally(self):
        t = Tally("rt")
        for value in (2.0, 6.0, 4.0):
            t.record(value)
        summary = t.summary()
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(4.0)
        assert summary["min"] == 2.0
        assert summary["max"] == 6.0

    def test_reset_returns_to_none(self):
        t = Tally("rt")
        t.record(1.0)
        t.reset()
        assert t.min is None and t.max is None


class TestTimeWeightedIntegral:
    def test_integral_includes_open_segment(self):
        tw = TimeWeighted("busy")
        tw.update(2.0, 1.0)   # 0 for [0,1)
        tw.update(0.0, 3.0)   # 2 for [1,3)
        assert tw.integral(3.0) == pytest.approx(4.0)
        tw.update(1.0, 4.0)
        assert tw.integral(6.0) == pytest.approx(6.0)  # + 1 for [4,6)

    def test_reset_clears_area(self):
        tw = TimeWeighted("busy", initial=1.0)
        tw.reset(5.0)
        assert tw.integral(7.0) == pytest.approx(2.0)
