"""No cyclic garbage from a steady simulation.

:meth:`Simulator.run` suspends the cyclic garbage collector for the
whole event loop and relies on reference counting to reclaim the event
plumbing as it completes.  Any reference cycle a protocol, substrate or
resource leaves behind therefore piles up until the run ends and shows
up only as RSS drift.  This probe makes such a leak a test failure: for
every coupling x protocol cell, with and without a scripted crash and
restart, it collects after the warm-up, runs 2.5 simulated seconds and
asserts the collector finds nothing unreachable.
"""

from __future__ import annotations

import gc

import pytest

from repro.system.cluster import Cluster
from repro.system.config import SystemConfig

COUPLINGS = ("gem", "pcl", "rdma")
PROTOCOLS = ("2pl", "mvcc", "dgcc")
WARMUP = 0.5
WINDOW = 2.5


def probe_config(coupling: str, protocol: str, crash: bool) -> SystemConfig:
    faults = (
        {"crashes": [{"node": 1, "time": 1.0, "down_time": 0.8}]} if crash else None
    )
    return SystemConfig(
        num_nodes=3,
        coupling=coupling,
        protocol=protocol,
        routing="random",
        arrival_rate_per_node=40.0,
        warmup_time=WARMUP,
        measure_time=WINDOW,
        faults=faults,
    )


@pytest.mark.parametrize("crash", [False, True], ids=["steady", "crash"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("coupling", COUPLINGS)
def test_run_leaves_no_cyclic_garbage(coupling, protocol, crash):
    cluster = Cluster(probe_config(coupling, protocol, crash))
    cluster.sim.run(until=WARMUP)
    # Reclaim everything older than the window, including an earlier
    # cluster whose generator finalizers free more on a second pass.
    while gc.collect():
        pass
    cluster.sim.run(until=WARMUP + WINDOW)
    if crash:
        # The probe must cover the whole crash cycle.
        (record,) = cluster.faults.records
        assert record.reintegration_done is not None
    assert gc.collect() == 0
