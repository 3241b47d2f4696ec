"""Unit tests for the trace routing-table heuristic and GLA assignment."""

import pytest

from repro.routing.gla import build_gla_map
from repro.routing.routing_table import (
    RoutingTable,
    SegmentCounts,
    build_routing_table,
)
from repro.workload.trace import Trace, TraceReference, TraceTransaction
from tests.helpers import generated_trace, sha256_of


def make_trace(spec):
    """spec: list of (type_id, [(file, page), ...]) tuples."""
    transactions = [
        TraceTransaction(
            type_id, [TraceReference(f, p, False) for f, p in refs]
        )
        for type_id, refs in spec
    ]
    num_files = 1 + max(
        (ref.file_id for t in transactions for ref in t.references), default=0
    )
    return Trace(transactions, num_files)


def make_counts(spec, segment_size=256):
    return SegmentCounts(make_trace(spec), segment_size)


class TestRoutingTable:
    def test_node_for_known_and_unknown_types(self):
        table = RoutingTable({0: 1, 1: 0}, num_nodes=2)
        assert table.node_for(0) == 1
        assert table.node_for(1) == 0
        assert table.node_for(7) == 7 % 2  # deterministic fallback

    def test_invalid_assignment_rejected(self):
        with pytest.raises(ValueError):
            RoutingTable({0: 5}, num_nodes=2)

    def test_types_of(self):
        table = RoutingTable({0: 1, 1: 0, 2: 1}, num_nodes=2)
        assert table.types_of(1) == [0, 2]


class TestSegmentVectors:
    def test_vectors_count_references(self):
        counts = make_counts([(0, [(0, 1), (0, 2), (1, 300)])], segment_size=256)
        vectors, volumes = counts.vectors()
        assert volumes[0] == 3
        assert vectors[0][(0, 0)] == 2
        assert vectors[0][(1, 1)] == 1

    def test_invalid_segment_size(self):
        with pytest.raises(ValueError):
            make_counts([(0, [(0, 1)])], segment_size=0)


class TestBuildRoutingTable:
    def test_single_node_maps_everything_to_zero(self):
        table = build_routing_table(make_counts([(0, [(0, 1)]), (1, [(0, 2)])]), 1)
        assert table.node_for(0) == 0
        assert table.node_for(1) == 0

    def test_overlapping_types_colocated(self):
        # Types 0 and 1 share segment (0,0); types 2 and 3 share (1,0).
        counts = make_counts(
            [
                (0, [(0, 1)] * 10),
                (1, [(0, 2)] * 10),
                (2, [(1, 1)] * 10),
                (3, [(1, 2)] * 10),
            ],
            segment_size=256,
        )
        table = build_routing_table(counts, 2)
        assert table.node_for(0) == table.node_for(1)
        assert table.node_for(2) == table.node_for(3)
        assert table.node_for(0) != table.node_for(2)

    def test_load_balance_cap_prevents_hot_node(self):
        # Four equally sized disjoint types over two nodes: two each.
        counts = make_counts([(t, [(t, 1)] * 10) for t in range(4)])
        table = build_routing_table(counts, 2)
        assignments = [table.node_for(t) for t in range(4)]
        assert assignments.count(0) == 2
        assert assignments.count(1) == 2

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            build_routing_table(make_counts([(0, [(0, 1)])]), 0)


class TestGlaMap:
    def test_gla_follows_dominant_referencing_node(self):
        counts = make_counts(
            [
                (0, [(0, 1)] * 20),  # routed to some node n0
                (1, [(1, 1)] * 20),  # routed to the other node
            ]
        )
        table = build_routing_table(counts, 2)
        gla = build_gla_map(counts, table, 2)
        assert gla((0, 1)) == table.node_for(0)
        assert gla((1, 1)) == table.node_for(1)

    def test_unreferenced_segment_deterministic(self):
        counts = make_counts([(0, [(0, 1)])])
        table = build_routing_table(counts, 2)
        gla = build_gla_map(counts, table, 2)
        assert gla((5, 99999)) == gla((5, 99999))
        assert gla((5, 99999)) in (0, 1)

    def test_balance_cap_spreads_lock_load(self):
        # One type generates all references; without the cap every
        # segment would land on its node.
        refs = [(0, p) for p in range(0, 256 * 8, 256)] * 5
        counts = make_counts([(0, refs)])
        table = build_routing_table(counts, 2)
        gla = build_gla_map(counts, table, 2, balance_slack=1.0)
        nodes = {gla((0, p)) for p in range(0, 256 * 8, 256)}
        assert nodes == {0, 1}

    def test_share_of(self):
        counts = make_counts([(0, [(0, 1)] * 4), (1, [(1, 1)] * 4)])
        table = build_routing_table(counts, 2)
        gla = build_gla_map(counts, table, 2)
        assert gla.share_of(0) + gla.share_of(1) == pytest.approx(1.0)


#: Pinned ``(routing, GLA)`` assignments, as SHA-256 of their ordered
#: items, for the generated traces per ``(seed, scale, num_nodes)``.
#: The heuristics' stable sorts break ties by first-encounter order, so
#: the item order is part of the output.
ASSIGNMENT_PINS = {
    (42, 1.0, 1): (
        "8549e70779f968b8cb2f71be63b80a4293f80eaa183cd93bcdfc9b7007abdce1",
        "81fcbff4cf4ad448ba7111eac7d213578cc49a694d8e0c56b919998b89763007",
    ),
    (42, 1.0, 3): (
        "39eca1ebb980a9c9d07c3f39907d7686087edc9247bb9ec5bf379f26cfbea8e0",
        "f170e8c390dc4961560e0e202ef871ce148e85d47dc9f828f41fa11e0173f92e",
    ),
    (42, 1.0, 4): (
        "7b6147d66a2ba4c96ea049482c4e08105b3396d1858d89d5246f7408ea55caae",
        "c705d40a17abdb8b9c9280ef9c29d349ec0d781c383ba43ed9614b4729433bf9",
    ),
    (42, 1.0, 8): (
        "f29ea8f3e2b6aa06e3d07abf03cfcc9ccc05c1e64e908336e5aa4fa188ae596c",
        "eebaef6879ba51098f94974ef214325ce20451261a0e0cf5e6cd68abc6a801ca",
    ),
    (7, 0.2, 1): (
        "09a045704158fccc5117eecd0599cc42140022a65700b1be2deacd2d3aa566a7",
        "3990ef53c526bc7e3a556ad8f8d133461ac3bccb7ea643f39b7806258bb99429",
    ),
    (7, 0.2, 3): (
        "e7a25b10d3ee437720fdd27af5ec31e59784af2522b4c799e039094f44172376",
        "66d7e42115d5ebb5ad45a2b81788807b058709977a0c765303cfbb3cb15d1d7b",
    ),
    (7, 0.2, 4): (
        "93742c25531bbd5087d00bdcb7d123a79a7093c4f020dacebd4146cce1a93d27",
        "3597f0c8ce226d71ac814d12303cf6c063201b4c181b4e101f5779a3e227138f",
    ),
    (7, 0.2, 8): (
        "dd4b939074c8b18460a2107e3dca2665242372e65d7df1811ceacf1fcbe93e27",
        "59c1185cf29e680da96a2b75ffd0c63c5abfcc7c3105744b0cc7cefe3bb32dfb",
    ),
    (9091, 0.5, 1): (
        "5294b14bb09935996acb17bfcc3b0b916ba09bcea9c2ced510ba44f730264412",
        "a29d22334b6505e8ea125fc9d274ed11411abf05813822e793f47e505b7a5393",
    ),
    (9091, 0.5, 3): (
        "f47e21d58c680a1d520c4a0570e866087d3c4129351441a1f0f2b96eb458ba34",
        "3c421969917c66762fa2bf5a87b22ea6a2c2dae9a077680516e0871d31365e4a",
    ),
    (9091, 0.5, 4): (
        "051e8ac10642c916245b7f59e62288bd4a7fdf242403452b91101c8ada047dca",
        "a66a74ece5da1239029df526db60010a065134c341164ff73db023b93b9c150b",
    ),
    (9091, 0.5, 8): (
        "160a8f6a12efbab8fe1f98099d0909345360868c41d787d9ea3937030ad77f34",
        "8ea298246707efdea88878db6ebfd35d6463242b2909faeebdaeaeadfe6cfb07",
    ),
}


class TestPinnedAssignments:
    @pytest.mark.parametrize("seed,scale,num_nodes", list(ASSIGNMENT_PINS))
    def test_assignments_pinned(self, seed, scale, num_nodes):
        trace, _next_draw = generated_trace(seed, scale)
        counts = SegmentCounts(trace)
        table = build_routing_table(counts, num_nodes)
        gla = build_gla_map(counts, table, num_nodes)
        assert (
            sha256_of(repr(list(table.assignment.items()))),
            sha256_of(repr(list(gla.assignment.items()))),
        ) == ASSIGNMENT_PINS[(seed, scale, num_nodes)]
