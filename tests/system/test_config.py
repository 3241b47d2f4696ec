"""Unit tests for SystemConfig validation and helpers."""

import pytest

from repro.system.config import (
    Coupling,
    RoutingStrategy,
    SystemConfig,
    UpdateStrategy,
)


class TestValidation:
    def test_defaults_match_table_41(self):
        config = SystemConfig()
        assert config.arrival_rate_per_node == 100.0
        assert config.cpus_per_node == 4
        assert config.mips_per_cpu == 10.0
        assert config.buffer_pages_per_node == 200
        assert config.gem_page_access_time == pytest.approx(50e-6)
        assert config.gem_entry_access_time == pytest.approx(2e-6)
        assert config.instructions_msg_short == 5000
        assert config.instructions_msg_long == 8000
        assert config.instructions_per_io == 3000
        assert config.instructions_per_gem_io == 300
        assert config.disk_time_db == pytest.approx(0.015)
        assert config.disk_time_log == pytest.approx(0.005)
        assert config.network_bandwidth == pytest.approx(10e6)
        assert config.debit_credit.branches_per_node == 100
        assert config.debit_credit.accounts_per_branch == 100_000
        assert config.debit_credit.account_blocking_factor == 10
        assert config.debit_credit.history_blocking_factor == 20
        assert config.debit_credit.account_local_probability == 0.85

    def test_path_length_matches_table_41(self):
        config = SystemConfig()
        # 4 record accesses -> the paper's 250k instructions.
        assert config.path_length(4) == pytest.approx(250_000)

    def test_enums_coerced_from_strings(self):
        config = SystemConfig(
            coupling="pcl", routing="random", update_strategy="force"
        )
        assert config.coupling is Coupling.PCL
        assert config.routing is RoutingStrategy.RANDOM
        assert config.update_strategy is UpdateStrategy.FORCE
        assert config.force and not config.noforce

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(num_nodes=0)
        with pytest.raises(ValueError):
            SystemConfig(arrival_rate_per_node=0)
        with pytest.raises(ValueError):
            SystemConfig(workload="nosuch")
        with pytest.raises(ValueError):
            SystemConfig(coupling="smelly")
        with pytest.raises(ValueError):
            SystemConfig(mpl_per_node=0)
        with pytest.raises(ValueError):
            SystemConfig(buffer_pages_per_node=1)

    def test_replace_creates_modified_copy(self):
        base = SystemConfig()
        changed = base.replace(num_nodes=5, coupling="pcl")
        assert changed.num_nodes == 5
        assert changed.coupling is Coupling.PCL
        assert base.num_nodes == 1  # original untouched

    def test_cpu_speed(self):
        assert SystemConfig().cpu_speed == pytest.approx(10e6)

    def test_total_arrival_rate(self):
        config = SystemConfig(num_nodes=4, arrival_rate_per_node=50.0)
        assert config.total_arrival_rate == pytest.approx(200.0)


class TestCouplingSpecificOptions:
    """Options that only one coupling (and protocol) implements are
    rejected elsewhere instead of being silently ignored."""

    @pytest.mark.parametrize(
        "coupling, protocol",
        [("pcl", "2pl"), ("rdma", "2pl"), ("gem", "mvcc"), ("gem", "dgcc")],
    )
    def test_gem_lock_authorizations_need_gem_2pl(self, coupling, protocol):
        with pytest.raises(ValueError, match="gem_lock_authorizations"):
            SystemConfig(
                coupling=coupling, protocol=protocol, gem_lock_authorizations=True
            )

    def test_gem_lock_authorizations_accepted_for_gem_2pl(self):
        config = SystemConfig(coupling="gem", gem_lock_authorizations=True)
        assert config.gem_lock_authorizations

    @pytest.mark.parametrize("coupling", ["pcl", "rdma"])
    def test_page_transfer_via_gem_needs_gem(self, coupling):
        with pytest.raises(ValueError, match="page_transfer_via_gem"):
            SystemConfig(coupling=coupling, page_transfer_via_gem=True)

    @pytest.mark.parametrize("protocol", ["2pl", "mvcc", "dgcc"])
    def test_page_transfer_via_gem_accepted_for_every_gem_protocol(self, protocol):
        config = SystemConfig(protocol=protocol, page_transfer_via_gem=True)
        assert config.page_transfer_via_gem

    def test_mvcc_honours_page_transfer_via_gem(self):
        from repro.system.cluster import Cluster

        def run(via_gem):
            config = SystemConfig(
                num_nodes=2,
                coupling="gem",
                protocol="mvcc",
                routing="random",
                update_strategy="noforce",
                arrival_rate_per_node=40.0,
                warmup_time=0.3,
                measure_time=1.0,
                page_transfer_via_gem=via_gem,
            )
            cluster = Cluster(config)
            kinds = []
            for node in cluster.nodes:
                real_send = node.comm.send

                def send(dst, kind, *args, _real=real_send, **kwargs):
                    kinds.append(kind)
                    return _real(dst, kind, *args, **kwargs)

                node.comm.send = send
            cluster.sim.run(until=config.warmup_time + config.measure_time)
            return cluster, kinds

        via_messages, kinds = run(False)
        assert via_messages.protocol.store.page_requests > 0
        assert "page_rsp" in kinds
        via_gem, kinds = run(True)
        assert via_gem.protocol.store.page_requests > 0
        # Two GEM page accesses (owner write, requester read) per
        # served transfer, and no page message at all.
        assert via_gem.gem.page_accesses > 0
        assert "page_req" not in kinds and "page_rsp" not in kinds
