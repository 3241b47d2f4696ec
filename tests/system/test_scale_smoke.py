"""Scale smoke tests: 64 nodes, ~100k transactions, both protocols.

Marked ``slow`` (deselected by default; run with ``-m slow``).  These
are not performance measurements -- they assert that a large open-model
run completes, keeps its concurrency-control state consistent at the
horizon, and produces finite, sane statistics.  The wall-clock ceiling
is a last-resort guard against accidental quadratic behaviour at
scale, set far above normal run times so machine noise cannot trip it.
"""

import math
import time

import pytest

from repro.system.cluster import Cluster
from repro.system.config import SystemConfig

pytestmark = pytest.mark.slow

NUM_NODES = 64
ARRIVAL_RATE = 170.0
MEASURE_TIME = 9.0          # ~64 * 170 * 9 ~= 98k arrivals
EXPECTED_TXNS = NUM_NODES * ARRIVAL_RATE * MEASURE_TIME
WALL_CLOCK_CEILING_S = 600.0


@pytest.fixture(scope="module", params=["gem", "pcl"])
def scale_run(request):
    """One 64-node run per protocol, shared by every assertion below."""
    config = SystemConfig(
        num_nodes=NUM_NODES,
        coupling=request.param,
        routing="affinity",
        update_strategy="noforce",
        buffer_pages_per_node=1000,
        arrival_rate_per_node=ARRIVAL_RATE,
        warmup_time=0.25,
        measure_time=MEASURE_TIME,
        random_seed=42,
    )
    # simlint: disable-next=DET002 -- host wall clock is the measured quantity, not model time
    started = time.perf_counter()
    cluster = Cluster(config)
    cluster.sim.run(until=config.warmup_time)
    cluster.reset_stats()
    cluster.sim.run(until=config.warmup_time + config.measure_time)
    # simlint: disable-next=DET002 -- host wall clock is the measured quantity, not model time
    wall_clock = time.perf_counter() - started
    result = cluster.collect_results(config.measure_time)
    return cluster, result, wall_clock


def lock_tables(cluster):
    protocol = cluster.protocol
    if hasattr(protocol, "glt"):
        return [protocol.glt]          # GEM: one global lock table
    return list(protocol.tables)       # PCL: one table per GLA node


class TestScaleSmoke:
    def test_run_completes_about_100k_transactions(self, scale_run):
        _cluster, result, _wall = scale_run
        # Open model at a fixed rate: completions track arrivals with
        # some lag (the operating point sits near 80% CPU utilization,
        # so queues hold a tail of in-flight work; measured runs
        # complete ~90% of arrivals).  80% is far below any healthy
        # run and far above a stalled one.
        assert result.completed >= 0.8 * EXPECTED_TXNS
        assert result.throughput_total == pytest.approx(
            result.completed / MEASURE_TIME
        )

    def test_no_leaked_lock_grants_at_the_horizon(self, scale_run):
        cluster, result, _wall = scale_run
        holding_txns = set()
        for table in lock_tables(cluster):
            for page, entry in table._entries.items():
                holders = set(entry.holders)
                queued = {waiter.txn for waiter in entry.queue}
                # A transaction never waits for a page it already holds
                # (lock modes are acquired once and upgraded in place).
                assert not holders & queued, (page, holders, queued)
                holding_txns |= holders
            # Every blocked transaction is queued on the page the
            # blocked-index claims, and nothing else.
            for txn, page in table._blocked.items():
                entry = table.peek(page)
                assert entry is not None
                assert any(waiter.txn == txn for waiter in entry.queue)
        # Held locks belong to in-flight transactions only.  In-flight
        # population at 80% utilization is a few per node; orders of
        # magnitude below the ~100k transactions that ran through.
        assert len(holding_txns) <= 50 * NUM_NODES
        assert len(holding_txns) < 0.05 * result.completed

    def test_statistics_are_finite_and_sane(self, scale_run):
        _cluster, result, _wall = scale_run
        assert math.isfinite(result.mean_response_time)
        assert result.mean_response_time > 0.0
        assert math.isfinite(result.mean_lock_wait_time)
        assert result.mean_lock_wait_time >= 0.0
        assert len(result.cpu_utilization_per_node) == NUM_NODES
        for utilization in result.cpu_utilization_per_node:
            assert 0.0 <= utilization <= 1.0
        assert 0.0 <= result.gem_utilization <= 1.0
        assert 0.0 <= result.network_utilization <= 1.0
        for ratio in result.hit_ratios.values():
            assert 0.0 <= ratio <= 1.0
        assert result.aborts >= 0 and result.deadlocks >= 0
        assert result.events_processed > EXPECTED_TXNS  # many events per txn

    def test_wall_clock_stays_under_the_ceiling(self, scale_run):
        _cluster, _result, wall_clock = scale_run
        assert wall_clock < WALL_CLOCK_CEILING_S
