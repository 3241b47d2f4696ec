"""Per-node communication subsystem.

Sending or receiving a message costs CPU at the respective node: 5000
instructions for a short (100 B) control message, 8000 for a long
(4 KB) message carrying a database page (Table 4.1).  A send consists
of: sender CPU overhead (on the sending transaction's critical path),
network transmission, receiver CPU overhead, then delivery -- either
into the destination node's mailbox (dispatched to a protocol handler)
or directly into a waiting reply event for request/reply exchanges.
"""

from __future__ import annotations

from typing import Any, Generator, Mapping, Optional

from repro.sim.engine import Event, Simulator

__all__ = ["Message", "CommSubsystem"]


class Message:
    """A message exchanged between nodes."""

    __slots__ = ("kind", "src", "dst", "payload", "long", "reply_event")

    def __init__(
        self,
        kind: str,
        src: int,
        dst: int,
        payload: Mapping[str, Any],
        long: bool = False,
        reply_event: Optional[Event] = None,
    ) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload = payload
        self.long = long
        self.reply_event = reply_event

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        size = "long" if self.long else "short"
        return f"Message({self.kind!r}, {self.src}->{self.dst}, {size})"


class CommSubsystem:
    """Message send/receive processing for one node."""

    def __init__(self, sim: Simulator, node: "Node", cluster: "Cluster") -> None:
        self.sim = sim
        self.node = node
        self.cluster = cluster
        config = cluster.config
        self.instr_short = config.instructions_msg_short
        self.instr_long = config.instructions_msg_long
        self.bytes_short = config.short_message_bytes
        self.bytes_long = config.long_message_bytes
        self.sent_short = 0
        self.sent_long = 0

    def send(
        self,
        dst: int,
        kind: str,
        payload: Mapping[str, Any],
        long: bool = False,
        reply_event: Optional[Event] = None,
    ) -> Generator[Event, Any, None]:
        """Send a message; returns after the sender-side CPU overhead.

        Transmission and receiver-side processing continue in the
        background; the caller waits on ``reply_event`` if it expects
        an answer.
        """
        if dst == self.node.node_id:
            raise ValueError("send() must not target the sending node")
        message = Message(kind, self.node.node_id, dst, payload, long, reply_event)
        if long:
            self.sent_long += 1
        else:
            self.sent_short += 1
        yield from self.node.cpu.consume(
            self.instr_long if long else self.instr_short
        )
        self.sim.process(self._deliver(message), name=f"deliver-{kind}")

    def _deliver(self, message: Message) -> Generator[Event, Any, None]:
        network = self.cluster.network
        nbytes = self.bytes_long if message.long else self.bytes_short
        yield from network.transmit(nbytes)
        faults = self.cluster.faults
        if faults is not None and (
            faults.is_down(message.src) or faults.is_down(message.dst)
        ):
            # The message is lost: one of its endpoints crashed while
            # it was in flight.  Reply events watched by the fault
            # manager were already answered with a crash sentinel.
            return
        dst_node = self.cluster.nodes[message.dst]
        dst_comm = dst_node.comm
        yield from dst_node.cpu.consume(
            dst_comm.instr_long if message.long else dst_comm.instr_short
        )
        if faults is not None and faults.is_down(message.dst):
            # The receiver crashed while taking the message in: it dies
            # with the node.  A crashed sender no longer matters here,
            # the message was already received.
            return
        if message.reply_event is not None:
            if faults is not None and message.reply_event.triggered:
                # A crash sentinel already answered this request; drop
                # the late genuine reply.
                return
            message.reply_event.succeed(message.payload)
        else:
            dst_node.mailbox.put(message)

    def reset_stats(self) -> None:
        self.sent_short = 0
        self.sent_long = 0
