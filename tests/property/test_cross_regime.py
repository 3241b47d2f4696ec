"""Cross-regime invariants: GEM, PCL and RDMA must agree.

The disaggregated-memory regime swaps the cost model (one-sided verbs
instead of GEM entry instructions or PCL messages) but not the
semantics: every coupling regime, under every concurrency-control
protocol, must produce a committed state equivalent to some serial
execution of the committed transactions.  On top of the serializable
shape shared with ``test_cross_protocol``, the RDMA regime adds two
obligations of its own:

* **No stale reads from the compute-side cache.**  Installing a commit
  into the memory pool invalidates every other node's unpinned cached
  copy; a frame that survived an invalidation while older than the
  pool's committed version would serve a superseded snapshot.
* **No leaked lock state.**  One-sided lock words have no server-side
  janitor, so a grant that outlives its transaction stays forever: at
  the drained horizon every lock entry must be holder-free and no
  requester may still be parked.

Determinism rides along: the RDMA regime must be bit-identical whether
the simulation runs in-process or inside a worker pool.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.store import RdmaStore
from repro.system.cluster import Cluster

from tests.helpers import make_rdma_cluster, system_config

PROTOCOLS = ("2pl", "mvcc", "dgcc")
COUPLINGS = ("gem", "pcl", "rdma")

combos = st.sampled_from(
    [(p, c) for p in PROTOCOLS for c in COUPLINGS]
)
seeds = st.integers(min_value=0, max_value=2**16)


def run_and_check(protocol, coupling, seed):
    config = system_config(
        num_nodes=3,
        coupling=coupling,
        protocol=protocol,
        arrival_rate_per_node=40.0,
        warmup_time=0.2,
        measure_time=1.0,
        random_seed=seed,
    )
    cluster = Cluster(config)
    installs = {}
    real_install = cluster.ledger.install_commit

    def counting_install(page, version):
        previous = cluster.ledger.committed_version(page)
        assert version == previous + 1, (
            f"page {page}: committed version jumped {previous} -> {version} "
            f"({protocol}/{coupling}, seed {seed})"
        )
        installs[page] = installs.get(page, 0) + 1
        real_install(page, version)

    cluster.ledger.install_commit = counting_install
    end = config.warmup_time + config.measure_time
    cluster.sim.run(until=end)
    # Drain in-flight transactions so every started commit finishes.
    cluster.source.stop()
    cluster.sim.run(until=end + 1.0)
    for page, count in sorted(installs.items()):
        committed = cluster.ledger.committed_version(page)
        assert committed == count, (
            f"page {page}: {count} commits installed but final version "
            f"is {committed} ({protocol}/{coupling}, seed {seed})"
        )
    assert installs, "run committed no updates -- not a meaningful example"
    return cluster


def _rdma_helper(cluster):
    helper = cluster.protocol.store
    assert isinstance(helper, RdmaStore)
    return helper


class TestSerializableEquivalence:
    @given(combo=combos, seed=seeds)
    @settings(max_examples=12, deadline=None)
    def test_committed_state_matches_a_serial_execution(self, combo, seed):
        protocol, coupling = combo
        run_and_check(protocol, coupling, seed)


class TestRdmaCacheCoherence:
    @given(seed=seeds, protocol=st.sampled_from(PROTOCOLS))
    @settings(max_examples=6, deadline=None)
    def test_no_stale_unpinned_frame_survives_an_install(self, seed, protocol):
        config = system_config(
            num_nodes=3,
            coupling="rdma",
            protocol=protocol,
            arrival_rate_per_node=40.0,
            warmup_time=0.2,
            measure_time=1.0,
            random_seed=seed,
        )
        cluster = Cluster(config)
        helper = _rdma_helper(cluster)
        installs = []
        real_install = helper.install

        def checking_install(node_id, updates):
            yield from real_install(node_id, updates)
            installs.append(len(updates))
            for page, version in updates:
                for node in cluster.nodes:
                    frame = node.buffer._frames.get(page)
                    if frame is not None and not frame.pins:
                        assert frame.version >= helper.pool.get(page, 0), (
                            f"node {node.node_id} kept stale {page} "
                            f"v{frame.version} after install of v{version}"
                        )

        helper.install = checking_install
        end = config.warmup_time + config.measure_time
        cluster.sim.run(until=end)
        cluster.source.stop()
        cluster.sim.run(until=end + 1.0)
        assert installs, "run installed no pool updates -- not meaningful"

    @given(seed=seeds, protocol=st.sampled_from(PROTOCOLS))
    @settings(max_examples=6, deadline=None)
    def test_pool_never_behind_the_ledger_at_horizon(self, seed, protocol):
        cluster = run_and_check(protocol, "rdma", seed)
        helper = _rdma_helper(cluster)
        for page, version in sorted(helper.pool.items()):
            committed = cluster.ledger.committed_version(page)
            assert version == committed, (
                f"pool holds {page} v{version} but committed is v{committed}"
            )


class TestRdmaNoLeakedLocks:
    @given(seed=seeds)
    @settings(max_examples=6, deadline=None)
    def test_drained_horizon_leaves_no_grants_or_waiters(self, seed):
        cluster = run_and_check("2pl", "rdma", seed)
        glt = cluster.protocol.glt
        assert glt.num_blocked() == 0
        for page, entry in sorted(glt._entries.items()):
            assert not entry.holders, (
                f"{page}: grant leaked to {sorted(entry.holders)}"
            )
            assert not entry.queue, f"{page}: waiter leaked"


class TestJobsDeterminism:
    """`--jobs 1` and `--jobs 4` must be bit-identical for RDMA."""

    def test_rdma_identical_across_worker_counts(self):
        from repro.system.parallel import SweepRunner

        configs = [
            system_config(
                num_nodes=2,
                coupling="rdma",
                protocol=protocol,
                arrival_rate_per_node=50.0,
                warmup_time=0.3,
                measure_time=1.2,
                random_seed=1234,
            )
            for protocol in PROTOCOLS
        ]
        with SweepRunner(jobs=1) as serial:
            a = serial.map_raw(configs)
        with SweepRunner(jobs=4) as pool:
            b = pool.map_raw(configs)
        for config, x, y in zip(configs, a, b):
            assert x.deterministic_dict() == y.deterministic_dict(), (
                config.protocol
            )


class TestRdmaHelperFixture:
    """make_rdma_cluster builds a quiesced RDMA cluster."""

    def test_fixture_shape(self):
        cluster = make_rdma_cluster()
        assert cluster.rdma is not None
        assert cluster.config.coupling.value == "rdma"
        helper = _rdma_helper(cluster)
        assert helper.pool == {}

    def test_fixture_accepts_protocol_override(self):
        cluster = make_rdma_cluster(protocol="mvcc")
        assert cluster.protocol.name == "mvcc"
        assert isinstance(cluster.protocol.store, RdmaStore)
