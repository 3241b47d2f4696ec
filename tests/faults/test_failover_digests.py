"""Byte-level pins on the loose-coupling failover and failback paths.

``tests/golden/equivalence_fig_failover.json`` freezes a crash cycle for
2PL only.  MVCC and DGCC under PCL, and PCL 2PL with the read
optimization, have their own failover code paths -- partition fencing,
the orphaned-stale-page scan, the state exchange, REDO, the failback
flush and the carried-page receive -- so each gets one crash-and-restart
run here whose whole :meth:`RunResult.deterministic_dict` is pinned by
its SHA-256 digest.  Random routing keeps most requests remote, so the
runs exercise page carries to the GLA and the failback flush loop.

These digests are semantic pins like the goldens: regenerate them
together with the goldens on a documented re-anchor (``CODE_VERSION``
bump), never to make a refactor pass.  This prints the ``DIGESTS``
entries to paste::

    PYTHONPATH=src:. python tests/faults/test_failover_digests.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from repro.system.config import SystemConfig
from repro.system.runner import run_simulation

#: cell -> SHA-256 of the run's deterministic result (sorted-key JSON).
DIGESTS = {
    "pcl-2pl-readopt": "970b9dd82db5a81af0d3426ff4baceeab81d1ff0e7c2fd11dc7b2e8e89728459",
    "pcl-mvcc": "9d89bb18494d646aab8f695e27e5a25179d68dd615289d4a28262a55d9bb7ef0",
    "pcl-dgcc": "ffd8fe389fa6053ea7b47c4ea3f13542884cbdca347d75d44376df3369dff081",
}

CELLS = {
    "pcl-2pl-readopt": dict(protocol="2pl", pcl_read_optimization=True),
    "pcl-mvcc": dict(protocol="mvcc"),
    "pcl-dgcc": dict(protocol="dgcc"),
}


def cell_config(cell: str) -> SystemConfig:
    """Smoke-size run with one scripted crash of node 1 and its restart."""
    return SystemConfig(
        num_nodes=3,
        coupling="pcl",
        routing="random",
        update_strategy="noforce",
        arrival_rate_per_node=60.0,
        warmup_time=0.5,
        measure_time=3.0,
        faults={"crashes": [{"node": 1, "time": 1.0, "down_time": 0.8}]},
        **CELLS[cell],
    )


def digest(cell: str) -> str:
    result = run_simulation(cell_config(cell))
    assert result.crashes == 1
    payload = json.dumps(result.deterministic_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_failover_digest_is_pinned(cell):
    assert digest(cell) == DIGESTS[cell]


if __name__ == "__main__":  # pragma: no cover
    if "--regen" not in sys.argv:
        sys.exit("usage: test_failover_digests.py --regen")
    for cell in sorted(CELLS):
        print(f'    "{cell}": "{digest(cell)}",')
