"""Unit tests for the communication subsystem."""

import pytest

from repro.system.cluster import Cluster
from repro.system.config import SystemConfig

from tests.helpers import drive_cluster as drive


def make_cluster(num_nodes=2, **overrides):
    defaults = dict(
        num_nodes=num_nodes,
        coupling="gem",
        arrival_rate_per_node=1e-6,
        warmup_time=0.0,
        measure_time=1.0,
    )
    defaults.update(overrides)
    return Cluster(SystemConfig(**defaults))


class TestSend:
    def test_send_to_self_rejected(self):
        cluster = make_cluster()
        node = cluster.nodes[0]
        with pytest.raises(ValueError):
            list(node.comm.send(0, "x", {}))

    def test_short_message_counts(self):
        cluster = make_cluster()
        node = cluster.nodes[0]
        reply = cluster.sim.event()

        def proc():
            yield from node.comm.send(1, "lock_rsp", {"v": 1}, reply_event=reply)
            payload = yield reply  # delivered straight to the event
            return payload

        # Use a reply_event addressed at node 1... actually the message
        # itself carries the reply event; node 1's receive completes it.
        payload = drive(cluster, proc())
        assert payload == {"v": 1}
        assert node.comm.sent_short == 1
        assert node.comm.sent_long == 0
        assert cluster.network.messages == 1

    def test_long_message_slower_and_bigger(self):
        cluster = make_cluster()
        node = cluster.nodes[0]

        def send(long):
            reply = cluster.sim.event()
            yield from node.comm.send(1, "m", {}, long=long, reply_event=reply)
            yield reply
            return cluster.sim.now

        t_short = drive(cluster, send(False))
        start = cluster.sim.now
        t_long = drive(cluster, send(True)) - start
        assert t_long > t_short
        assert cluster.network.bytes_transmitted == 100 + 4096

    def test_sender_cpu_charged_before_return(self):
        cluster = make_cluster()
        node = cluster.nodes[0]

        def proc():
            yield from node.comm.send(1, "m", {}, reply_event=cluster.sim.event())
            return cluster.sim.now

        elapsed = drive(cluster, proc())
        # 5000 instructions at 10 MIPS = 0.5 ms of sender CPU.
        assert elapsed >= 5000 / 10e6 - 1e-12

    def test_receiver_cpu_charged(self):
        cluster = make_cluster()
        node = cluster.nodes[0]
        receiver_cpu = cluster.nodes[1].cpu
        before = receiver_cpu.instructions_executed
        reply = cluster.sim.event()

        def proc():
            yield from node.comm.send(1, "m", {}, reply_event=reply)
            yield reply

        drive(cluster, proc())
        assert receiver_cpu.instructions_executed >= before + 5000


class TestDeliveryToCrashedNode:
    def test_destination_crash_during_receiver_cpu_runs_no_handler(self):
        # The only scripted crash lies past the test's horizon; the
        # test crashes node 1 itself inside the receiver-CPU window.
        cluster = make_cluster(
            faults={"crashes": [{"node": 1, "time": 1e6, "down_time": 1.0}]}
        )
        receiver = cluster.nodes[1]
        received = []

        def handler(node, payload):
            received.append(node.node_id)
            return
            yield  # pragma: no cover

        receiver.register_handler("custom", handler)
        sender = cluster.nodes[0]
        before = receiver.cpu.instructions_executed

        def proc():
            yield from sender.comm.send(1, "custom", {})
            # Transmission done, the receiver's CPU has begun the message.
            while receiver.cpu.instructions_executed == before:
                yield cluster.sim.timeout(1e-6)
            cluster.faults._crash(1)
            yield cluster.sim.timeout(0.01)

        drive(cluster, proc())
        assert received == []
        assert receiver.mailbox.puts == 0


class TestDispatch:
    def test_mailbox_message_dispatched_to_handler(self):
        cluster = make_cluster()
        received = []

        def handler(node, payload):
            received.append((node.node_id, payload["x"]))
            return
            yield  # pragma: no cover

        cluster.nodes[1].register_handler("custom", handler)
        node = cluster.nodes[0]

        def proc():
            yield from node.comm.send(1, "custom", {"x": 42})
            yield cluster.sim.timeout(0.01)

        drive(cluster, proc())
        assert received == [(1, 42)]

    def test_unknown_message_kind_raises(self):
        cluster = make_cluster()
        node = cluster.nodes[0]

        def proc():
            yield from node.comm.send(1, "nosuch", {})
            yield cluster.sim.timeout(0.01)

        with pytest.raises(RuntimeError, match="no handler"):
            drive(cluster, proc())

    def test_handler_blocking_does_not_stall_dispatch(self):
        cluster = make_cluster()
        order = []
        gate = cluster.sim.event()

        def blocking_handler(node, payload):
            yield gate
            order.append("blocked-done")

        def fast_handler(node, payload):
            order.append("fast")
            return
            yield  # pragma: no cover

        cluster.nodes[1].register_handler("slow", blocking_handler)
        cluster.nodes[1].register_handler("fast", fast_handler)
        node = cluster.nodes[0]

        def proc():
            yield from node.comm.send(1, "slow", {})
            yield from node.comm.send(1, "fast", {})
            yield cluster.sim.timeout(0.05)
            gate.succeed()
            yield cluster.sim.timeout(0.01)

        drive(cluster, proc())
        assert order == ["fast", "blocked-done"]
