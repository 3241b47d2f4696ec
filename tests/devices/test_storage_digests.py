"""Byte-level pins on the storage access paths.

The goldens freeze figures 4.1 and 4.5, the failover runs and the
coupling regimes, all on disk-resident files with the log on log
disks.  None of them touches a GEM-resident file, the GEM write buffer,
the GEM-resident log or the page exchange through GEM.  Each of those
paths gets one run here whose whole :meth:`RunResult.deterministic_dict`
is pinned by its SHA-256 digest:

* one run per BRANCH/TELLER storage kind (``StorageKind``), with a
  small buffer so that NOFORCE write-backs reach the file;
* the GEM-resident log with one scripted crash, so REDO reads it;
* NOFORCE page transfer through GEM, with random routing;
* FORCE, so every commit writes its pages through the storage kind's
  write path.

These digests are semantic pins like the goldens: regenerate them
together with the goldens on a documented re-anchor (``CODE_VERSION``
bump), never to make a refactor pass.  This prints the ``DIGESTS``
entries to paste::

    PYTHONPATH=src:. python tests/devices/test_storage_digests.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from repro.db.schema import StorageKind
from repro.system.config import DebitCreditConfig, SystemConfig
from repro.system.runner import run_simulation

#: cell -> SHA-256 of the run's deterministic result (sorted-key JSON).
DIGESTS = {
    "bt-disk": "56fa6c1ee2eb90603198277b80da5c1160437bbf7b2235593ab79246dd52a944",
    "bt-disk_gem_wbuf": "3535da53464a0fd7a6a8b1980d2ad730e5380b58e65ab99b2221250ec438be9a",
    "bt-disk_nvcache": "0ee299a316e0c0bc07ebd9aa63080e149d0d351b933680c3c0fe274fbb983f59",
    "bt-disk_vcache": "4dbf5cb26025eda035b9de4f9b0bffe23df7f9df76aa6c8a98addb310754842f",
    "bt-gem": "fc66b5013a6c1f59d6da01eb4b0097ca08980ec46ad0f719a21dcb7591947bfc",
    "force-gem-wbuf": "5a0d0970b44d32fc7dd7764a8c98bf36d8f844b191fcc6a53e02904f680e0ea5",
    "log-in-gem-crash": "5946c2cf295c307bc6dea3e9bce9a63662489727ba5812eb6ffbdbc47f786038",
    "via-gem-random": "20f043159746564d8db7fefda83acb4c139903cd2acb3c51361ab7ccac32a417",
}

CELLS = {
    **{
        f"bt-{kind.value}": dict(
            debit_credit=DebitCreditConfig(branch_teller_storage=kind)
        )
        for kind in StorageKind
    },
    "log-in-gem-crash": dict(
        log_in_gem=True,
        faults={"crashes": [{"node": 1, "time": 0.8, "down_time": 0.6}]},
    ),
    "via-gem-random": dict(page_transfer_via_gem=True, routing="random"),
    "force-gem-wbuf": dict(
        update_strategy="force",
        debit_credit=DebitCreditConfig(
            branch_teller_storage=StorageKind.DISK_GEM_WRITE_BUFFER
        ),
    ),
}


def cell_config(cell: str) -> SystemConfig:
    """Smoke-size GEM-coupled run with a buffer small enough to evict."""
    return SystemConfig(
        num_nodes=3,
        coupling="gem",
        arrival_rate_per_node=60.0,
        buffer_pages_per_node=60,
        warmup_time=0.5,
        measure_time=2.0,
        **CELLS[cell],
    )


def digest(cell: str) -> str:
    result = run_simulation(cell_config(cell))
    assert result.completed > 0
    payload = json.dumps(result.deterministic_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_storage_digest_is_pinned(cell):
    assert digest(cell) == DIGESTS[cell]


if __name__ == "__main__":  # pragma: no cover
    if "--regen" not in sys.argv:
        sys.exit("usage: test_storage_digests.py --regen")
    for cell in sorted(CELLS):
        print(f'    "{cell}": "{digest(cell)}",')
