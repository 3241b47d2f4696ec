"""Global deadlock detection.

Both protocols register blocked transactions here.  On every new block
the detector searches the system-wide waits-for graph for a cycle
through the newly blocked transaction; if one exists, the *youngest*
transaction in the cycle (highest sequence number) is aborted via the
abort callback supplied at registration.

The debit-credit workload is deadlock-free by construction (all
transactions acquire locks in the same partition order), so this
machinery only fires for the trace workload and in targeted tests.  The
paper does not charge messages for its (unspecified) detection scheme;
neither do we -- detection is modelled as an oracle, which is
conservative in favour of the loosely coupled configurations.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.node.lock_table import LockTable

__all__ = ["DeadlockDetector"]


class DeadlockDetector:
    """System-wide waits-for graph and victim selection."""

    def __init__(self) -> None:
        # txn -> (lock table it waits in or None, abort callback, kind)
        self._blocked: Dict[
            int, Tuple[Optional[LockTable], Callable[[], None], str]
        ] = {}
        self.deadlocks_detected = 0
        self.victims: List[int] = []

    def register_block(
        self,
        txn: int,
        table: Optional[LockTable],
        abort: Callable[[], None],
        kind: str = "lock",
    ) -> Optional[int]:
        """Record that ``txn`` blocked in ``table``.

        Runs cycle detection and aborts the youngest participant of
        every cycle found.  The return value tells the *caller* whether
        its own wait was broken: the victim's id if ``txn`` itself was
        part of a resolved cycle (possibly ``txn``), else None.  The DFS
        can surface cycles that do not contain ``txn`` at all -- those
        are resolved too, but must not be reported as the caller's.

        ``kind`` distinguishes genuine lock-queue waits (``"lock"``,
        the default) from waits that cannot deadlock -- MVCC commit
        validation (``"validation"``) and DGCC epoch barriers
        (``"barrier"``).  Non-lock waits are registered only so the
        crash path (:meth:`abort_blocked`) can cancel them: they
        contribute no waits-for edges, trigger no cycle search and are
        never selected as deadlock victims.  ``table`` may be None for
        such waits.
        """
        self._blocked[txn] = (table, abort, kind)
        if kind != "lock":
            # A wait with no outgoing waits-for edges cannot close a
            # cycle; misclassifying it as a lock wait could victimize a
            # validating/barrier-parked transaction that holds no locks.
            return None
        caller_victim: Optional[int] = None
        while True:
            cycle = self._find_cycle(txn)
            if cycle is None:
                return caller_victim
            self.deadlocks_detected += 1
            victim = max(cycle)  # youngest = largest sequence number
            self.victims.append(victim)
            table_cb = self._blocked.get(victim)
            if table_cb is None:
                # Cycle members are blocked by construction; if the
                # victim somehow is not, bail out rather than re-finding
                # the same cycle forever.
                return victim if txn in cycle else caller_victim
            _table, abort_cb, _kind = table_cb
            self.clear(victim)
            abort_cb()
            if txn in cycle and caller_victim is None:
                caller_victim = victim
            if victim == txn or not self.is_blocked(txn):
                return caller_victim

    def clear(self, txn: int) -> None:
        """Forget ``txn`` (granted, cancelled or aborted)."""
        self._blocked.pop(txn, None)

    def abort_blocked(self, txn: int) -> bool:
        """Invoke ``txn``'s abort callback if it is blocked (fault path).

        Used when a node crash kills a transaction that is queued for a
        lock: the callback cancels the table registration and fails the
        waiter event, so GLA-side handler processes acting for the dead
        transaction unwind instead of waiting forever.
        """
        entry = self._blocked.pop(txn, None)
        if entry is None:
            return False
        entry[1]()
        return True

    def is_blocked(self, txn: int) -> bool:
        return txn in self._blocked

    def _edges_from(self, txn: int) -> Set[int]:
        entry = self._blocked.get(txn)
        if entry is None:
            return set()
        table, _abort, kind = entry
        if kind != "lock" or table is None:
            return set()
        return table.waiting_for(txn)

    def _find_cycle(self, start: int) -> Optional[List[int]]:
        """DFS for a cycle containing ``start`` in the waits-for graph.

        A method rather than a nested closure: a self-referencing
        closure is a reference cycle, and the simulator runs with the
        cyclic collector suspended, so every lock wait would leak one.
        """
        return self._dfs(start, start, [], set(), set())

    def _dfs(
        self,
        txn: int,
        start: int,
        path: List[int],
        on_path: Set[int],
        visited: Set[int],
    ) -> Optional[List[int]]:
        path.append(txn)
        on_path.add(txn)
        # Sorted so the DFS -- and therefore victim selection when a
        # transaction participates in several cycles -- does not
        # depend on set iteration order.
        for blocker in sorted(self._edges_from(txn)):
            if blocker == start:
                return list(path)
            if blocker in on_path:
                # A cycle not through `start`: report the sub-path.
                index = path.index(blocker)
                return path[index:]
            if blocker not in visited:
                result = self._dfs(blocker, start, path, on_path, visited)
                if result is not None:
                    return result
        path.pop()
        on_path.discard(txn)
        visited.add(txn)
        return None
