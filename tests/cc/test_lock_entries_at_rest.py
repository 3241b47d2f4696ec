"""Lock entries at rest hold no containers, in every protocol's tables.

After a short run, every empty holder map, wait queue and
authorization set of every lock table must be the table module's
shared immutable empty, so an entry with no holders, waiters or
authorizations shares all three.  The entries persist (their sequence
number and owner are coherency metadata), so an entry that kept its
own empty containers would cost memory for every page the run ever
touched.
"""

import pytest

from repro.node.lock_table import LockEntry
from repro.system.cluster import Cluster
from repro.system.config import TraceWorkloadConfig

from tests.helpers import system_config

AT_REST = LockEntry()
CONTAINERS = ("holders", "queue", "auth_nodes")
SHORT_RUN = {"arrival_rate_per_node": 40.0, "warmup_time": 0.2, "measure_time": 1.0}

CELLS = [
    ("gem", "2pl", {"gem_lock_authorizations": True, "routing": "random"}),
    (
        "pcl",
        "2pl",
        {
            "pcl_read_optimization": True,
            "workload": "trace",
            "trace": TraceWorkloadConfig(scale=0.05),
            "arrival_rate_per_node": 30.0,
            "buffer_pages_per_node": 500,
        },
    ),
    ("rdma", "2pl", {}),
    ("gem", "mvcc", {}),
    ("pcl", "mvcc", {}),
]


@pytest.mark.parametrize(
    "coupling,protocol,options", CELLS, ids=[f"{c}-{p}" for c, p, _ in CELLS]
)
def test_empty_containers_are_the_shared_empties(coupling, protocol, options):
    config = system_config(
        num_nodes=3, coupling=coupling, protocol=protocol, **{**SHORT_RUN, **options}
    )
    cluster = Cluster(config)
    cluster.sim.run(until=config.warmup_time + config.measure_time)
    idle = dict.fromkeys(CONTAINERS, 0)
    for table in cluster.protocol.lock_tables():
        for page, entry in sorted(table._entries.items()):
            for name in CONTAINERS:
                container = getattr(entry, name)
                if not container:
                    idle[name] += 1
                    assert container is getattr(AT_REST, name), (
                        f"{table.name} {page}: empty {name} is its own container"
                    )
    assert idle["holders"] > 100 and idle["queue"] > 100, idle
