"""The simsan runtime checks.

Five invariant families, mirroring the static RES/SIM rule catalog at
runtime (the linter proves the *code shape* is safe; the sanitizer
checks the *executed run* actually was):

* **monotonic sim time** -- the clock never moves backwards
  (:class:`SanitizedSimulator` runs the same fast event loop as a
  plain run and checks every write to the clock, so a rewind is caught
  when it happens, whether the loop or model code made it).
* **balanced recorder spans** -- every span pushed on a transaction is
  popped in LIFO order before the transaction ends
  (:class:`SanitizedRecorder` shadows the span stack of whatever real
  recorder is installed, including the null one).
* **no leaked lock grants at the horizon** -- nobody holds and waits
  for the same page, and the blocked-transaction index agrees with the
  wait queues (the scale-smoke invariants, promoted into the library).
* **resource accounting** -- every resource keeps ``0 <= busy <=
  capacity`` and stays work-conserving (a non-empty wait queue with an
  idle unit is a lost grant); after a run to event-list exhaustion all
  units are back.  Under ``coupling="rdma"`` the pool residency map
  must never run *ahead* of the version ledger (a pool-resident
  version that was never committed is a torn install).
* **buffer index** -- each node's dirty index holds exactly the dirty
  frames of its buffer, in the buffer's LRU order, and LRU stamps
  strictly ascend along that order (the write-back daemon's candidate
  lookup relies on both).

Violations are collected into a structured :class:`SanitizerReport`;
:meth:`SimSanitizer.finish` raises :class:`SanitizerError` carrying the
report so CI fails loudly with every violation listed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator

__all__ = [
    "SanitizedRecorder",
    "SanitizedSimulator",
    "SanitizerError",
    "SanitizerReport",
    "SimSanitizer",
    "Violation",
    "sanitize_enabled",
]

#: Environment variable that force-enables the sanitizer.
ENV_FLAG = "REPRO_SIMSAN"


def sanitize_enabled(config_flag: bool) -> bool:
    """Sanitizer on? ``SystemConfig.sanitize`` or ``REPRO_SIMSAN=1``."""
    return bool(config_flag) or os.environ.get(ENV_FLAG, "") == "1"


@dataclass(frozen=True)
class Violation:
    """One invariant violation: which check, where, and the evidence."""

    check: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.where}: {self.detail}"


@dataclass
class SanitizerReport:
    """Structured result of a sanitized run."""

    violations: List[Violation] = field(default_factory=list)
    events_checked: int = 0
    spans_checked: int = 0
    resources_checked: int = 0
    lock_tables_checked: int = 0
    pool_pages_checked: int = 0
    buffers_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, check: str, where: str, detail: str) -> None:
        self.violations.append(Violation(check, where, detail))

    def summary(self) -> str:
        head = (
            f"simsan: {len(self.violations)} violation(s); "
            f"{self.events_checked} events, {self.spans_checked} spans, "
            f"{self.resources_checked} resources, "
            f"{self.lock_tables_checked} lock tables, "
            f"{self.pool_pages_checked} pool pages, "
            f"{self.buffers_checked} buffers checked"
        )
        lines = [head] + [f"  {v}" for v in self.violations]
        return "\n".join(lines)


class SanitizerError(AssertionError):
    """A sanitized run violated a simulator invariant."""

    def __init__(self, report: SanitizerReport) -> None:
        super().__init__(report.summary())
        self.report = report


class SanitizedSimulator(Simulator):
    """A :class:`Simulator` whose clock is checked where it is written.

    It runs the one :meth:`Simulator.run` loop unchanged, so a
    sanitized run executes the same code as the run it vouches for and
    its results are bit-identical by construction.  ``now`` becomes a
    property: a write below the current value -- by the run loop or by
    model code in the middle of a callback -- is recorded as a
    ``monotonic-time`` violation the moment it happens.  A plain
    :class:`Simulator` keeps ``now`` as an attribute and pays nothing.
    """

    def __init__(self, report: SanitizerReport) -> None:
        self.report = report
        self._now = 0.0
        super().__init__()

    @property
    def now(self) -> float:
        return self._now

    @now.setter
    def now(self, value: float) -> None:
        if value < self._now:
            self.report.record(
                "monotonic-time",
                "simulator",
                f"clock moved backwards: {self._now!r} -> {value!r}",
            )
        self._now = value

    def run(self, until: Optional[float] = None) -> None:
        start = self.events_processed
        try:
            super().run(until)
        finally:
            self.report.events_checked += self.events_processed - start


class _ShadowSpan:
    """Context manager pairing the shadow push/pop with the real span."""

    __slots__ = ("_recorder", "_inner", "_txn_id", "_phase")

    def __init__(
        self, recorder: "SanitizedRecorder", inner: Any, txn_id: Any, phase: str
    ) -> None:
        self._recorder = recorder
        self._inner = inner
        self._txn_id = txn_id
        self._phase = phase

    def __enter__(self) -> "_ShadowSpan":
        self._recorder._shadow_push(self._txn_id, self._phase)
        self._inner.__enter__()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self._inner.__exit__(exc_type, exc, tb)
        self._recorder._shadow_pop(self._txn_id, self._phase)
        return False


class SanitizedRecorder:
    """Wrap any recorder with an independent span-balance shadow stack.

    Forwards every hook to the wrapped recorder (which may be the
    null recorder), while keeping its own per-transaction stack of
    open phase names.  Spans without a transaction (``txn_id`` None)
    are forwarded unshadowed, as the recorder attributes nothing to
    them.  A pop that does not match the top of the stack,
    or a transaction that ends with spans still open, is a violation:
    both corrupt the response-time breakdown silently when they happen
    in an unsanitized run.
    """

    def __init__(self, inner: Any, report: SanitizerReport) -> None:
        self._inner = inner
        self._report = report
        self._stacks: Dict[Any, List[str]] = {}

    @property
    def enabled(self) -> bool:
        return self._inner.enabled

    # -- forwarded hooks with shadow tracking ---------------------------

    def txn_begin(self, txn_id: Any, node_id: int, now: float) -> None:
        self._stacks[txn_id] = []
        self._inner.txn_begin(txn_id, node_id, now)

    def txn_end(self, txn_id: Any, now: float, committed: bool = True) -> None:
        stack = self._stacks.pop(txn_id, None)
        if stack:
            self._report.record(
                "span-balance",
                f"txn {txn_id}",
                f"transaction ended with open span(s): {stack}",
            )
        self._inner.txn_end(txn_id, now, committed)

    def span(self, txn_id: Any, phase: str) -> Any:
        inner = self._inner.span(txn_id, phase)
        if txn_id is None:
            # No transaction, nothing attributed: concurrent processes
            # open these, so they share no stack to balance.
            return inner
        return _ShadowSpan(self, inner, txn_id, phase)

    def interval(self, node_id: int, phase: str, start: float, end: float) -> None:
        if end < start:
            self._report.record(
                "span-balance",
                f"node {node_id}",
                f"interval {phase!r} ends before it starts "
                f"({start!r} -> {end!r})",
            )
        self._inner.interval(node_id, phase, start, end)

    def reset(self) -> None:
        self._inner.reset()

    def breakdown(self) -> Dict[str, float]:
        return self._inner.breakdown()

    # -- shadow stack ----------------------------------------------------

    def _shadow_push(self, txn_id: Any, phase: str) -> None:
        # A span on a transaction the recorder never saw begin is
        # tracked under its own key, so its balance is still checked.
        self._stacks.setdefault(txn_id, []).append(phase)
        self._report.spans_checked += 1

    def _shadow_pop(self, txn_id: Any, phase: str) -> None:
        stack = self._stacks.get(txn_id)
        if not stack:
            self._report.record(
                "span-balance",
                f"txn {txn_id}",
                f"span {phase!r} popped with no span open",
            )
            return
        top = stack.pop()
        if top != phase:
            self._report.record(
                "span-balance",
                f"txn {txn_id}",
                f"span {phase!r} popped while {top!r} is innermost",
            )


class SimSanitizer:
    """Owns the report and runs the horizon checks over a cluster."""

    def __init__(self) -> None:
        self.report = SanitizerReport()

    # -- horizon checks --------------------------------------------------

    def check_horizon(self, cluster: Any) -> None:
        """Run end-of-run invariant checks (no model mutation)."""
        drained = cluster.sim.peek() == float("inf")
        for name, resource in self._resources(cluster):
            self._check_resource(name, resource, drained)
        for name, table in self._lock_tables(cluster):
            self._check_lock_table(name, table)
        self._check_pool(cluster)
        for node in cluster.nodes:
            self._check_buffer_index(f"node{node.node_id}.buffer", node.buffer)

    def finish(self, cluster: Any) -> SanitizerReport:
        """Horizon checks, then raise if anything was violated."""
        self.check_horizon(cluster)
        if not self.report.ok:
            raise SanitizerError(self.report)
        return self.report

    # -- resource accounting --------------------------------------------

    @staticmethod
    def _resources(cluster: Any) -> List[Tuple[str, Any]]:
        out: List[Tuple[str, Any]] = []
        for node in cluster.nodes:
            out.append((f"node{node.node_id}.cpu", node.cpu.resource))
            out.append((f"node{node.node_id}.mpl", node.mpl))
        out.append(("gem", cluster.gem.server))
        out.append(("network", cluster.network.server))
        if cluster.rdma is not None:
            out.append(("rdma", cluster.rdma.channel))
        for name in sorted(cluster.disk_arrays):
            array = cluster.disk_arrays[name]
            out.append((f"disk.{name}.controllers", array.controllers))
            for index, disk in enumerate(array.disks):
                out.append((f"disk.{name}.{index}", disk))
        return out

    def _check_resource(self, name: str, resource: Any, drained: bool) -> None:
        report = self.report
        report.resources_checked += 1
        busy = resource.busy
        capacity = resource.capacity
        queued = resource.queue_length
        if not 0 <= busy <= capacity:
            report.record(
                "resource-accounting",
                name,
                f"busy count {busy} outside [0, {capacity}]",
            )
        if queued and busy < capacity:
            report.record(
                "resource-accounting",
                name,
                f"{queued} waiter(s) queued with only {busy}/{capacity} "
                "unit(s) busy (lost grant)",
            )
        if drained and (busy or queued):
            report.record(
                "resource-accounting",
                name,
                f"event list exhausted with {busy} unit(s) still busy "
                f"and {queued} waiter(s) queued (leaked unit)",
            )

    # -- lock tables ------------------------------------------------------

    @staticmethod
    def _lock_tables(cluster: Any) -> List[Tuple[str, Any]]:
        protocol = cluster.protocol
        if hasattr(protocol, "glt"):
            return [("glt", protocol.glt)]
        if hasattr(protocol, "tables"):
            return [
                (f"table[{index}]", table)
                for index, table in enumerate(protocol.tables)
            ]
        return []

    def _check_lock_table(self, name: str, table: Any) -> None:
        report = self.report
        report.lock_tables_checked += 1
        for page, entry in table._entries.items():
            holders = set(entry.holders)
            queued = {waiter.txn for waiter in entry.queue}
            overlap = holders & queued
            if overlap:
                report.record(
                    "lock-grants",
                    f"{name} page {page}",
                    f"txn(s) {sorted(overlap)} both hold and wait for "
                    "the same page",
                )
        for txn, page in table._blocked.items():
            entry = table.peek(page)
            if entry is None or not any(
                waiter.txn == txn for waiter in entry.queue
            ):
                report.record(
                    "lock-grants",
                    f"{name} page {page}",
                    f"blocked index says txn {txn} waits here but it is "
                    "not in the wait queue",
                )

    # -- RDMA pool vs ledger ----------------------------------------------

    def _check_pool(self, cluster: Any) -> None:
        store = getattr(cluster.protocol, "store", None)
        if store is None or not hasattr(store, "pool"):
            return
        report = self.report
        ledger = cluster.ledger
        for page, version in store.pool.items():
            report.pool_pages_checked += 1
            committed = ledger.committed_version(page)
            if version > committed:
                report.record(
                    "pool-ledger",
                    f"pool page {page}",
                    f"pool holds version {version} but only {committed} "
                    "is committed (torn install)",
                )

    # -- buffer LRU order and dirty index ----------------------------------

    def _check_buffer_index(self, name: str, buffer: Any) -> None:
        report = self.report
        report.buffers_checked += 1
        expected = [
            (page, frame) for page, frame in buffer._frames.items() if frame.dirty
        ]
        indexed = list(buffer._dirty.items())
        if indexed != expected:
            pairs = zip(indexed, expected)
            at = next(
                (i for i, (got, want) in enumerate(pairs) if got != want),
                min(len(indexed), len(expected)),
            )
            report.record(
                "buffer-index",
                name,
                f"dirty index holds {len(indexed)} frame(s), the buffer "
                f"{len(expected)} dirty one(s); they first differ at "
                f"position {at} of the LRU order",
            )
        previous: Optional[int] = None
        for page, frame in buffer._frames.items():
            if previous is not None and frame.stamp <= previous:
                report.record(
                    "buffer-index",
                    name,
                    f"page {page} has LRU stamp {frame.stamp}, not above "
                    f"its predecessor's {previous}",
                )
                break
            previous = frame.stamp
