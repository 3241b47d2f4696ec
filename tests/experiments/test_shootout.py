"""Integration tests of the protocol shootout inside ``fig_regimes``.

One smoke-sized run of the grid's GEM/PCL x 2PL/MVCC/DGCC rows, then
the accounting invariant the decomposition promises: the per-phase
breakdown columns sum exactly to the mean response time -- the
``other`` phase absorbs any unattributed remainder, so a protocol
whose spans leak or double-count shows up as a broken sum.
"""

import math

import pytest

from repro.experiments import fig_regimes
from repro.experiments.common import Scale


@pytest.fixture(scope="module")
def result():
    return fig_regimes.run(
        Scale.smoke(), couplings=("gem", "pcl"), include_trace=False
    )


class TestShootout:
    def test_all_six_series_present(self, result):
        labels = [series.label for series in result.series]
        assert labels == [
            "gem/2pl", "gem/mvcc", "gem/dgcc",
            "pcl/2pl", "pcl/mvcc", "pcl/dgcc",
        ]
        for series in result.series:
            assert [n for n, _r in series.points] == [1, 2]

    def test_breakdown_sums_to_mean_response_time(self, result):
        for series in result.series:
            for _n, run in series.points:
                assert run.breakdown is not None, series.label
                total = math.fsum(run.breakdown.values())
                assert total == pytest.approx(
                    run.mean_response_time, rel=1e-9, abs=1e-12
                ), series.label

    def test_breakdown_table_renders_every_series(self, result):
        table = result.breakdown_table()
        for series in result.series:
            assert series.label in table

    def test_protocols_actually_differ(self, result):
        # DGCC's epoch admission delay must be visible: its response
        # time strictly exceeds 2PL's in the same regime.
        for coupling in ("gem", "pcl"):
            rt = {
                protocol: result.series_by_label(
                    f"{coupling}/{protocol}"
                ).points[-1][1].mean_response_time
                for protocol in ("2pl", "dgcc")
            }
            assert rt["dgcc"] > rt["2pl"], coupling

    def test_mvcc_aborts_by_validation_not_deadlock(self, result):
        for coupling in ("gem", "pcl"):
            run = result.series_by_label(f"{coupling}/mvcc").points[-1][1]
            assert run.deadlocks == 0
