"""Unit tests for the shared timing helpers in :mod:`benchmarks.timing`."""

import pytest

from benchmarks.timing import TimingResult, time_best


class TestTimeBest:
    def test_calls_warmup_plus_repeats_times(self):
        calls = []
        result = time_best(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5
        assert len(result.runs) == 3

    def test_best_is_minimum_and_mean_is_average(self):
        result = time_best(lambda: None, repeats=4, warmup=0)
        assert result.best == min(result.runs)
        assert result.mean == pytest.approx(sum(result.runs) / 4)
        assert all(run >= 0.0 for run in result.runs)

    def test_median_property(self):
        result = TimingResult(best=1.0, mean=2.0, runs=(1.0, 2.0, 9.0))
        assert result.median == 2.0

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            time_best(lambda: None, repeats=0)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            time_best(lambda: None, warmup=-1)

