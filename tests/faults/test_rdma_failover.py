"""Crash/failover/reintegration under the disaggregated-memory regime.

The RDMA regime's failure semantics differ from both paper regimes:
the pool survives a compute-node crash (no lock state is lost and
pool-resident pages need no REDO), but nobody can revoke a dead node's
one-sided lock words before its lease expires, and a restarted node
pays a fabric re-registration before issuing verbs again.  Net effect,
frozen by :class:`TestRegimeOrdering`: failover and reintegration both
land **between** GEM's and PCL's.
"""

import pytest

from repro.experiments import fig_failover
from repro.experiments.common import Scale
from repro.system.cluster import Cluster
from repro.system.runner import run_simulation

from tests.helpers import system_config

#: Restart CPU (0.5 s) plus the fabric re-registration (0.08 s).
EXPECTED_REINTEGRATION = 0.58


def crash_config(**overrides):
    overrides.setdefault("coupling", "rdma")
    overrides.setdefault("num_nodes", 3)
    overrides.setdefault("arrival_rate_per_node", 60.0)
    overrides.setdefault("warmup_time", 0.5)
    overrides.setdefault("measure_time", 3.0)
    overrides.setdefault(
        "faults", {"crashes": [{"node": 1, "time": 1.0, "down_time": 0.8}]}
    )
    return system_config(**overrides)


@pytest.mark.parametrize("protocol", ["2pl", "mvcc", "dgcc"])
class TestRdmaCrashCycle:
    def test_cycle_completes_and_is_accounted(self, protocol):
        result = run_simulation(crash_config(protocol=protocol))
        assert result.crashes == 1
        assert result.aborted_by_crash >= 1
        assert result.arrivals_redirected >= 10
        if protocol == "dgcc":
            # DGCC holds no locks: nothing to reclaim, no lease to sit
            # out -- failover is detection plus the (pool-trimmed) REDO.
            assert 0.0 < result.mean_failover_seconds < 0.2
        else:
            # Lock reclamation must wait out the dead node's lease.
            lease = crash_config().rdma_lock_lease_seconds
            assert lease < result.mean_failover_seconds < lease + 0.3
        assert result.mean_reintegration_seconds == pytest.approx(
            EXPECTED_REINTEGRATION, abs=0.2
        )
        assert result.completed > 300

    def test_deterministic_per_seed(self, protocol):
        config = crash_config(protocol=protocol)
        first = run_simulation(config).deterministic_dict()
        second = run_simulation(config).deterministic_dict()
        assert first == second


class TestPoolSurvivesTheCrash:
    def test_pool_resident_pages_leave_the_lost_set(self):
        config = crash_config()
        cluster = Cluster(config)
        helper = cluster.protocol.store
        trimmed = []
        real_trim = helper.trim_lost

        def probing_trim(record):
            before = len(record.lost)
            real_trim(record)
            trimmed.append((before, len(record.lost)))

        helper.trim_lost = probing_trim
        cluster.sim.run(until=config.warmup_time + config.measure_time)
        assert trimmed, "crash never reached the protocol hook"
        before, after = trimmed[0]
        # Under NOFORCE at 60 TPS the victim's committed-but-dirty
        # pages are pool-resident: REDO shrinks, the structural
        # advantage of disaggregation.
        assert after < before

    def test_lease_delays_lock_reclamation(self):
        config = crash_config(protocol="2pl")
        cluster = Cluster(config)
        crash_time = config.faults.crashes[0].time
        releases = []
        glt = cluster.protocol.glt
        real_release = glt.release

        def timed_release(txn, page):
            releases.append(cluster.sim.now)
            return real_release(txn, page)

        killed_ids = set()
        real_crash = cluster.protocol.crash_node

        def probing_crash(faults, record):
            killed_ids.update(t.txn_id for t in record.killed)
            glt.release = timed_release
            return real_crash(faults, record)

        cluster.protocol.crash_node = probing_crash
        cluster.sim.run(until=config.warmup_time + config.measure_time)
        assert killed_ids, "crash killed no transactions -- not meaningful"
        lease_expiry = crash_time + config.rdma_lock_lease_seconds
        # Every post-crash release (reclamation or surviving-txn
        # completion racing it) must respect the word semantics; the
        # reclamations themselves come after the lease expired.
        assert releases, "no lock was released after the crash"
        assert max(releases) >= lease_expiry - 1e-9


class TestRegimeOrdering:
    """Freeze the calibrated recovery ordering at fig_failover scale."""

    @pytest.fixture(scope="class")
    def points(self):
        result = fig_failover.run(Scale.smoke())
        return {p.label: p for p in result.points}

    def test_all_three_regimes_complete(self, points):
        assert set(points) == {"GEM", "PCL", "RDMA"}
        for point in points.values():
            assert point.result.crashes == 1
            assert point.recovered, point.label

    def test_failover_ordering(self, points):
        failover = {
            label: p.result.mean_failover_seconds for label, p in points.items()
        }
        # PCL's GLA takeover beats sitting out the RDMA lease; GEM's
        # REDO-dominated failover is the longest at this load.
        assert failover["PCL"] < failover["RDMA"] < failover["GEM"]

    def test_reintegration_ordering(self, points):
        reintegration = {
            label: p.result.mean_reintegration_seconds
            for label, p in points.items()
        }
        # GEM: restart CPU only.  RDMA: plus fabric re-registration.
        # PCL: plus the full GLA failback.
        assert (
            reintegration["GEM"]
            < reintegration["RDMA"]
            < reintegration["PCL"]
        )
