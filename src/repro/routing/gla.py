"""GLA (global lock authority) assignment for primary copy locking.

To keep the share of locally processable lock requests high, GLA and
workload allocation should be coordinated (section 3.2).  Given a
routing table for a trace, each page segment's lock authority is
assigned to the node whose routed transactions reference it most,
subject to a balance cap so every node carries a comparable share of
the lock traffic.

(The debit-credit workload uses the closed-form BRANCH-based GLA
assignment in :meth:`repro.db.debitcredit.DebitCreditLayout.gla_of_page`
instead.)
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Tuple

from repro.db.pages import PageId
from repro.routing.routing_table import RoutingTable, SegmentCounts

__all__ = ["SegmentGlaMap", "build_gla_map"]

Segment = Tuple[int, int]


class SegmentGlaMap:
    """Maps pages to their lock-authority node via fixed segments."""

    def __init__(
        self, assignment: Dict[Segment, int], segment_size: int, num_nodes: int
    ):
        self.assignment = dict(assignment)
        self.segment_size = segment_size
        self.num_nodes = num_nodes

    def __call__(self, page: PageId) -> int:
        segment = (page[0], page[1] // self.segment_size)
        node = self.assignment.get(segment)
        if node is None:
            # Unreferenced segments: deterministic spread.
            return hash(segment) % self.num_nodes
        return node

    def share_of(self, node: int) -> float:
        if not self.assignment:
            return 0.0
        return sum(1 for n in self.assignment.values() if n == node) / len(
            self.assignment
        )


def build_gla_map(
    counts: SegmentCounts,
    routing_table: RoutingTable,
    num_nodes: int,
    balance_slack: float = 1.3,
) -> SegmentGlaMap:
    """Assign each referenced segment to the node referencing it most.

    Reference counts are the trace's segment counts (the ones the
    routing table was built from) under the given routing: each type's
    references accrue to its routed node.  A balance cap prevents one
    node from owning a disproportionate share of the lock traffic.
    """
    # Segments and, within one, nodes keyed in first-encounter order:
    # the stable sorts below break ties by it.
    segment_refs: Dict[Segment, Counter] = {}
    for (type_id, segment), count in counts.counts.items():
        per_node = segment_refs.get(segment)
        if per_node is None:
            per_node = segment_refs[segment] = Counter()
        per_node[routing_table.node_for(type_id)] += count
    total_refs = sum(sum(c.values()) for c in segment_refs.values())
    cap = (total_refs / num_nodes * balance_slack) if num_nodes > 1 else float("inf")
    node_load = [0.0] * num_nodes
    assignment: Dict[Segment, int] = {}
    # Hot segments first so they land on their best node before caps bind.
    ordered = sorted(
        segment_refs.items(), key=lambda item: -sum(item[1].values())
    )
    for segment, per_node in ordered:
        weight = sum(per_node.values())
        candidates = sorted(per_node.items(), key=lambda kv: -kv[1])
        chosen = None
        for node, _count in candidates:
            if node_load[node] + weight <= cap:
                chosen = node
                break
        if chosen is None:
            chosen = min(range(num_nodes), key=lambda n: node_load[n])
        assignment[segment] = chosen
        node_load[chosen] += weight
    return SegmentGlaMap(assignment, counts.segment_size, num_nodes)
