"""Routing tables for trace workloads and the affinity heuristic.

The paper determines affinity-based workload allocations for traces
with "iterative heuristics that use the reference distribution of the
workload and the number of nodes as input parameters" [Ra92b].  This
module implements a greedy variant of that scheme:

1. Build a reference vector per transaction type over page *segments*
   (fixed-size ranges of each file's page space).
2. Process types in descending reference-volume order; assign each
   type to the node whose already-assigned segment set it overlaps
   most, subject to a load-balance cap.

The result is a :class:`RoutingTable` (type -> node) used by the
affinity router, and the same segment statistics (one
:class:`SegmentCounts`) drive the GLA assignment
(:mod:`repro.routing.gla`).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Dict, List, Tuple

from repro.workload.trace import Trace, TraceReference

__all__ = ["RoutingTable", "SegmentCounts", "build_routing_table"]

Segment = Tuple[int, int]  # (file_id, page_no // segment_size)


class RoutingTable:
    """Per-type node assignment for trace workloads."""

    def __init__(self, assignment: Dict[int, int], num_nodes: int):
        if any(not 0 <= node < num_nodes for node in assignment.values()):
            raise ValueError("assignment references an invalid node")
        self.assignment = dict(assignment)
        self.num_nodes = num_nodes

    def node_for(self, type_id: int) -> int:
        node = self.assignment.get(type_id)
        if node is None:
            # Unknown types fall back to a deterministic spread.
            return type_id % self.num_nodes
        return node

    def types_of(self, node: int) -> List[int]:
        return sorted(t for t, n in self.assignment.items() if n == node)


class SegmentCounts:
    """A trace's references per (transaction type, page segment).

    The one count behind both heuristics: the routing table reads the
    per-type vectors, the GLA assignment the per-segment totals of each
    routed node.  ``counts`` maps ``(type_id, segment)`` to a reference
    count, keyed in first-encounter order (trace order, and reference
    order within a transaction); ``types`` lists the type ids in the
    order of their first transaction, empty ones included.  Both
    heuristics break ties with stable sorts, so these orders are part
    of their output.
    """

    __slots__ = ("segment_size", "types", "counts")

    def __init__(self, trace: Trace, segment_size: int = 256):
        if segment_size < 1:
            raise ValueError("segment_size must be >= 1")
        self.segment_size = segment_size
        # Each type's references in trace order, with the start of each
        # of its transactions there and that transaction's trace index.
        per_type: Dict[int, Tuple[List[TraceReference], List[int], List[int]]] = {}
        for index, txn in enumerate(trace):
            lists = per_type.get(txn.type_id)
            if lists is None:
                lists = per_type[txn.type_id] = ([], [], [])
            references, starts, txn_indices = lists
            starts.append(len(references))
            txn_indices.append(index)
            references += txn.references
        self.types: List[int] = list(per_type)
        # One C-level count per type.  References hash by value and the
        # trace is skewed, so a type's distinct references are few and
        # folding them into segments is cheap; the fold keeps each
        # segment's first reference, which locates (``index`` from the
        # previous one, then the transaction starts) the segment's first
        # encounter in the trace.
        firsts = []
        for type_id, (references, starts, txn_indices) in per_type.items():
            segments: Dict[Segment, List] = {}
            for ref, count in Counter(references).items():
                segment = (ref.file_id, ref.page_no // segment_size)
                entry = segments.get(segment)
                if entry is None:
                    segments[segment] = [count, ref]
                else:
                    entry[0] += count
            position = 0
            for segment, (count, ref) in segments.items():
                position = references.index(ref, position)
                txn = bisect_right(starts, position) - 1
                trace_position = (txn_indices[txn], position - starts[txn])
                firsts.append((trace_position, type_id, segment, count))
        firsts.sort()
        self.counts: Dict[Tuple[int, Segment], int] = {
            (type_id, segment): count for _, type_id, segment, count in firsts
        }

    def vectors(self) -> Tuple[Dict[int, Counter], Dict[int, int]]:
        """``(vectors, volumes)``: references per segment of each type
        (every type in :attr:`types`) and each referencing type's total."""
        vectors: Dict[int, Counter] = {type_id: Counter() for type_id in self.types}
        volumes: Dict[int, int] = {}
        for (type_id, segment), count in self.counts.items():
            vectors[type_id][segment] = count
            volumes[type_id] = volumes.get(type_id, 0) + count
        return vectors, volumes


def build_routing_table(
    counts: SegmentCounts, num_nodes: int, balance_slack: float = 1.25
) -> RoutingTable:
    """Greedy affinity clustering of transaction types onto nodes, from
    the trace's segment counts (shared with
    :func:`repro.routing.gla.build_gla_map`)."""
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    vectors, volumes = counts.vectors()
    if num_nodes == 1:
        return RoutingTable({t: 0 for t in vectors}, 1)
    total_volume = sum(volumes.values())
    cap = total_volume / num_nodes * balance_slack
    node_segments: List[Counter] = [Counter() for _ in range(num_nodes)]
    node_load = [0.0] * num_nodes
    assignment: Dict[int, int] = {}
    for type_id in sorted(volumes, key=lambda t: -volumes[t]):
        vector = vectors[type_id]
        volume = volumes[type_id]
        best_node, best_score = None, None
        for node in range(num_nodes):
            if node_load[node] + volume > cap:
                continue
            overlap = sum(
                min(count, node_segments[node][seg]) for seg, count in vector.items()
            )
            # Prefer overlap; break ties toward the least-loaded node.
            score = (overlap, -node_load[node])
            if best_score is None or score > best_score:
                best_node, best_score = node, score
        if best_node is None:
            best_node = min(range(num_nodes), key=lambda n: node_load[n])
        assignment[type_id] = best_node
        node_load[best_node] += volume
        node_segments[best_node].update(vector)
    return RoutingTable(assignment, num_nodes)
