"""The figure drivers honour their ``protocol`` parameter.

fig 4.1, fig 4.5 and fig 4.7 historically hard-wired strict 2PL; each
now accepts ``protocol=...`` like ``fig_regimes`` does.  Passing a flag
that silently falls back to 2PL would be worse than not having it, so
every driver is run once with a non-default protocol through a probing
runner that simulates in-process and keeps the protocol object of each
cluster: the protocol-specific counters (MVCC validations, DGCC
batches) must actually move.
"""

from typing import List

from repro.cc.dgcc import DgccProtocol
from repro.cc.mvcc import MvccProtocol
from repro.experiments import fig41, fig45, fig47, fig_failover
from repro.experiments.common import Scale
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.results import RunResult


class _ProtocolProbeRunner:
    """Duck-types SweepRunner.run_many but simulates in-process so each
    cluster's protocol object can be inspected after its run."""

    def __init__(self):
        self.protocols = []

    def run_many(self, configs: List[SystemConfig], label: str = "") -> List[RunResult]:
        results = []
        for config in configs:
            cluster = Cluster(config)
            cluster.sim.run(until=config.warmup_time)
            cluster.reset_stats()
            cluster.sim.run(until=config.warmup_time + config.measure_time)
            results.append(cluster.collect_results(config.measure_time))
            self.protocols.append(cluster.protocol)
        return results


class TestFig41Protocol:
    def test_mvcc_takes_effect(self):
        runner = _ProtocolProbeRunner()
        result = fig41.run(Scale.smoke(), runner=runner, protocol="mvcc")
        assert runner.protocols, "probe runner saw no simulations"
        for protocol in runner.protocols:
            assert isinstance(protocol, MvccProtocol)
        assert sum(p.commits_validated for p in runner.protocols) > 0
        assert all(s.label.endswith("/mvcc") for s in result.series)


class TestFig45Protocol:
    def test_dgcc_takes_effect(self):
        runner = _ProtocolProbeRunner()
        result = fig45.run(
            Scale.smoke(), buffer_sizes=(200,), runner=runner, protocol="dgcc"
        )
        assert runner.protocols, "probe runner saw no simulations"
        for protocol in runner.protocols:
            assert isinstance(protocol, DgccProtocol)
        assert sum(p.batches for p in runner.protocols) > 0
        assert all(s.label.endswith("/dgcc") for s in result.series)


class TestFig47Protocol:
    def test_mvcc_takes_effect(self):
        runner = _ProtocolProbeRunner()
        result = fig47.run(Scale.smoke(), runner=runner, protocol="mvcc")
        assert runner.protocols, "probe runner saw no simulations"
        for protocol in runner.protocols:
            assert isinstance(protocol, MvccProtocol)
        assert sum(p.commits_validated for p in runner.protocols) > 0
        assert all(s.label.endswith("/mvcc") for s in result.series)


class TestFig41DefaultLabelsUnchanged:
    def test_default_protocol_keeps_legacy_labels(self):
        # The 2PL default must not grow a suffix: the equivalence
        # goldens freeze the rendered tables byte-for-byte.
        runner = _ProtocolProbeRunner()
        result = fig41.run(Scale.smoke(), runner=runner)
        assert [s.label for s in result.series] == [
            "affinity/NOFORCE", "affinity/FORCE",
            "random/NOFORCE", "random/FORCE",
        ]


class TestFailoverProtocol:
    def test_failover_runs_mvcc_across_all_regimes(self):
        result = fig_failover.run(
            Scale.smoke(), couplings=("gem", "rdma"), protocol="mvcc"
        )
        assert [p.label for p in result.points] == ["GEM", "RDMA"]
        for point in result.points:
            assert point.result.crashes == 1
            assert point.result.mean_failover_seconds > 0
