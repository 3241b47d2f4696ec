"""Regression reproducers for coherency defects on the crash path.

Each full run below crashed with a :class:`CoherencyError` before its
fix: node 1 of a randomly routed cluster crashes at 1.0 s for 0.8 s
while the others keep committing.  Where no full-run reproducer is
known, the recovery step is driven directly on hand-built state.
"""

from __future__ import annotations

import pytest

from repro.db.pages import CoherencyError
from repro.faults.config import CrashSpec, FaultConfig
from repro.faults.manager import CrashRecord
from repro.system.config import SystemConfig
from repro.system.runner import run_simulation
from repro.workload.transaction import Transaction

from tests.helpers import drive_cluster, quiesced_cluster


def crash_config(coupling: str, protocol: str, num_nodes: int, seed: int) -> SystemConfig:
    return SystemConfig(
        num_nodes=num_nodes,
        coupling=coupling,
        protocol=protocol,
        routing="random",
        random_seed=seed,
        arrival_rate_per_node=90.0,
        warmup_time=0.5,
        measure_time=2.0,
        faults=FaultConfig(crashes=[CrashSpec(node=1, time=1.0, down_time=0.8)]),
    )


def crashed_run(coupling: str, protocol: str, num_nodes: int, seed: int) -> None:
    result = run_simulation(crash_config(coupling, protocol, num_nodes, seed))
    assert result.crashes == 1
    assert result.completed > 0


def far_crash_cluster(protocol: str):
    """A quiesced 3-node GEM cluster with the fault manager on and its
    only crash scheduled past any test's horizon."""
    return quiesced_cluster(
        num_nodes=3,
        protocol=protocol,
        faults={"crashes": [{"node": 1, "time": 1e6, "down_time": 1.0}]},
    )


class TestReclaimNamesNoOwner:
    """A dead committer installed version 2 in the ledger but crashed
    before publishing it; the entry still says version 1 at owner 2.
    Reclaim raises it to version 2, which only storage holds after
    REDO, so the entry must stop naming node 2."""

    PAGE = (0, 7)

    def test_gem_2pl_crash_run(self):
        # Raised "owner supplied page (0, 260) version 1, expected 2".
        crashed_run("gem", "2pl", 3, 16)

    def test_mvcc_reclaim(self):
        cluster = far_crash_cluster("mvcc")
        protocol = cluster.protocol
        entry = protocol._table_for(self.PAGE).entry(self.PAGE)
        entry.seqno, entry.owner = 1, 2
        cluster.ledger.install_commit(self.PAGE, 1)
        cluster.ledger.install_commit(self.PAGE, 2)
        protocol._reservations[self.PAGE] = 999
        drive_cluster(cluster, protocol._reclaim(cluster.faults, [999]))
        assert (entry.seqno, entry.owner) == (2, None)
        assert self.PAGE not in protocol._reservations

    def test_dgcc_recover(self):
        cluster = far_crash_cluster("dgcc")
        protocol = cluster.protocol
        protocol._seqnos[self.PAGE] = 1
        protocol._owners[self.PAGE] = 2
        cluster.ledger.install_commit(self.PAGE, 1)
        cluster.ledger.install_commit(self.PAGE, 2)
        dead = Transaction(999, [])
        dead.modified[self.PAGE] = 2
        record = CrashRecord(node=1, crash_time=0.0)
        record.killed.append(dead)
        drive_cluster(cluster, protocol.recover(cluster.faults, record))
        assert protocol._seqnos[self.PAGE] == 2
        assert self.PAGE not in protocol._owners


class TestReleaseToCrashedHost:
    """A PCL release resolved every partition host up front, then sent
    its groups one by one.  A host that crashed in between was sent the
    later groups' pages, which the committer had already marked clean;
    the crash-time orphan scan had seen the dirty copy, so nothing
    wrote or REDOne them."""

    def test_pcl_2pl_crash_run(self):
        # Raised "storage read of page (0, 105) returned version 1,
        # coherency control promised 2".
        crashed_run("pcl", "2pl", 4, 1)

    def test_pcl_mvcc_crash_run(self):
        # Raised "storage read of page (0, 118) returned version 0,
        # coherency control promised 2".
        crashed_run("pcl", "mvcc", 4, 16)


class TestGrantAcrossFailback:
    """Found, not fixed (see ROADMAP): a transaction on node 0 waited
    locally while node 0 was the interim host of partition 1.  Failback
    reopened the partition at node 1; a release then carried version 5
    to node 1 and granted the waiter, whose local grant says "read
    storage", which still holds version 4."""

    @pytest.mark.xfail(strict=True, raises=CoherencyError)
    def test_pcl_2pl_crash_run(self):
        # Raises "storage read of page (0, 152) returned version 4,
        # coherency control promised 5" at 2.443 s.
        crashed_run("pcl", "2pl", 4, 6)
