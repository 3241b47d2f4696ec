"""Trace workload world: database, replay generator, routing and GLA.

Binds the synthetic trace to the simulation: builds one partition per
trace file (the database size stays *constant* in the number of nodes,
unlike debit-credit -- section 4.6), computes the affinity routing
table and the coordinated GLA assignment, and replays the trace's
transactions cyclically as fresh :class:`Transaction` objects.
"""

from __future__ import annotations

from typing import Optional

from repro.db.pages import PageId
from repro.db.schema import Database, Partition
from repro.routing.gla import build_gla_map
from repro.routing.routing_table import SegmentCounts, build_routing_table
from repro.sim.rng import StreamRegistry
from repro.system.config import SystemConfig
from repro.workload.trace import Trace
from repro.workload.tracegen import generate_trace
from repro.workload.transaction import PageAccess, Transaction

__all__ = ["TraceWorld", "TraceReplayGenerator"]


class TraceWorld:
    """Everything the cluster needs to run a trace workload."""

    def __init__(
        self,
        config: SystemConfig,
        streams: StreamRegistry,
        trace: Optional[Trace] = None,
    ):
        self.config = config
        if trace is None:
            trace, self.profiles, self.file_sizes = generate_trace(
                config.trace, streams.stream("tracegen")
            )
        else:
            self.profiles = None
            extents = trace.pages_per_file()
            self.file_sizes = [
                extents.get(f, 0) + 1 for f in range(trace.num_files)
            ]
        self.trace = trace
        trace_config = config.trace.scaled()
        # Disk budget apportioned to the files by reference share (the
        # file sizes are generated proportionally to their traffic, so
        # they serve as the weight here).
        budget = max(
            trace.num_files,
            trace_config.disks_per_file_per_node * trace.num_files * config.num_nodes,
        )
        total_size = sum(self.file_sizes) or 1
        disks_for = [
            max(1, round(budget * size / total_size)) for size in self.file_sizes
        ]
        self.database = Database(
            [
                Partition(
                    f"FILE{file_id}",
                    index=file_id,
                    num_pages=max(1, self.file_sizes[file_id]),
                    blocking_factor=1,
                    disks=disks_for[file_id],
                )
                for file_id in range(trace.num_files)
            ]
        )
        counts = SegmentCounts(trace)
        self.routing_table = build_routing_table(counts, config.num_nodes)
        self._gla = build_gla_map(counts, self.routing_table, config.num_nodes)

    def gla_of_page(self, page: PageId) -> int:
        return self._gla(page)

    def make_generator(self) -> "TraceReplayGenerator":
        return TraceReplayGenerator(self.trace)


class TraceReplayGenerator:
    """Replays trace transactions cyclically.

    Every submission materializes a *fresh* :class:`Transaction` so
    runtime state never leaks between replays of the same recorded
    transaction.
    """

    def __init__(self, trace: Trace):
        if not len(trace):
            raise ValueError("empty trace")
        self.trace = trace
        self._position = 0
        self._next_id = 0
        self.replays = 0

    def next_transaction(self) -> Transaction:
        recorded = self.trace.transactions[self._position]
        self._position += 1
        if self._position >= len(self.trace.transactions):
            self._position = 0
            self.replays += 1
        self._next_id += 1
        accesses = [
            PageAccess((file_id, page_no), write)
            for file_id, page_no, write in recorded.references
        ]
        return Transaction(self._next_id, accesses, type_id=recorded.type_id)
