"""Strict two-phase lock table with page-level S/X locks.

This pure (simulation-agnostic) data structure implements the lock
state machine used in two places:

* as the **global lock table (GLT)** held in GEM for the closely
  coupled configurations -- the GEM protocol charges entry-access
  delays around each operation;
* as the **local lock table of a global lock authority (GLA)** node for
  primary copy locking -- the PCL protocol charges messages around
  remote operations.

Grant discipline is FIFO with two classic refinements: compatible
requests at the queue head are granted in batches, and lock *upgrades*
(S -> X by a current holder) jump to the front of the queue.

Every lock entry also carries the coherency-control metadata the paper
stores alongside lock state: the page sequence number, the current
page owner (NOFORCE) and read-authorization node sets (PCL read
optimization).  Metadata persists after all locks are released, so a
table keeps one entry for every page it has seen.

An entry's containers exist only while in use.  At rest its holders,
queue and authorizations are the shared immutable empties below; the
first grant, wait or authorization allocates the real container, and
the release, promotion, cancel or de-authorization that empties it
puts the shared empty back.  An entry at rest is then the size of the
paper's fixed GLT record (lock state, sequence number, owner) rather
than three empty containers.  Only :class:`LockTable` and the
authorization methods of :class:`LockEntry` mutate the containers;
since the empties are immutable, a mutation anywhere else raises
instead of changing state shared by every entry at rest.
"""

from __future__ import annotations

import enum
from collections import deque
from types import MappingProxyType
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.db.pages import PageId

__all__ = ["LockMode", "LockEntry", "LockTable"]


class LockMode(str, enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


def _compatible(mode: LockMode, held_modes: Iterable[LockMode]) -> bool:
    if mode is LockMode.SHARED:
        return all(m is LockMode.SHARED for m in held_modes)
    return not held_modes


class _Request:
    __slots__ = ("txn", "mode", "on_grant", "upgrade")

    def __init__(self, txn: int, mode: LockMode, on_grant: Callable, upgrade: bool) -> None:
        self.txn = txn
        self.mode = mode
        self.on_grant = on_grant
        self.upgrade = upgrade


#: The containers of every entry at rest (see the module docstring).
_NO_HOLDERS: Mapping[int, LockMode] = MappingProxyType({})
_NO_QUEUE: Tuple[_Request, ...] = ()
_NO_AUTH: FrozenSet[int] = frozenset()


class LockEntry:
    """Lock state plus coherency metadata for one page."""

    __slots__ = ("holders", "queue", "seqno", "owner", "auth_nodes")

    def __init__(self) -> None:
        #: Lock holders: a dict while any, else the shared empty.
        self.holders: Mapping[int, LockMode] = _NO_HOLDERS
        #: Waiting requests: a deque while any, else the shared empty.
        self.queue: Sequence[_Request] = _NO_QUEUE
        #: Page sequence number: incremented for every modification.
        self.seqno: int = 0
        #: Node holding the current page copy (NOFORCE), else None.
        self.owner: Optional[int] = None
        #: Nodes holding a read authorization (PCL read optimization):
        #: a set while any, else the shared empty.
        self.auth_nodes: AbstractSet[int] = _NO_AUTH

    def authorize(self, node: int) -> None:
        """Grant ``node`` a read authorization."""
        auth = self.auth_nodes
        if isinstance(auth, set):
            auth.add(node)
        else:
            self.auth_nodes = {node}

    def authorize_only(self, node: int) -> None:
        """Make ``node`` the one authorized node (sole interest)."""
        auth = self.auth_nodes
        if isinstance(auth, set):
            auth.clear()
            auth.add(node)
        else:
            self.auth_nodes = {node}

    def deauthorize(self, *nodes: int) -> None:
        """Void the read authorizations of ``nodes``."""
        auth = self.auth_nodes
        if isinstance(auth, set):
            auth.difference_update(nodes)
            if not auth:
                self.auth_nodes = _NO_AUTH

    def catch_up(self, committed: int) -> None:
        """Crash reclaim: raise the entry to ``committed``, a version a
        dead transaction installed in the ledger but never published
        here.  Storage holds that version after REDO and no surviving
        buffer does, so the entry names no owner."""
        if committed > self.seqno:
            self.seqno = committed
            self.owner = None


def _grant(entry: LockEntry, txn: int, mode: LockMode) -> None:
    """Record ``txn`` as a holder of ``entry`` in ``mode``."""
    holders = entry.holders
    if isinstance(holders, dict):
        holders[txn] = mode
    else:
        entry.holders = {txn: mode}


class LockTable:
    """Lock entries for a set of pages."""

    def __init__(
        self,
        name: str = "locktable",
        seqno_init: Optional[Callable[[PageId], int]] = None,
    ) -> None:
        self.name = name
        #: Sequence number of a freshly created entry.  A table built
        #: during crash recovery must not promise seqno 0 for pages it
        #: has never seen -- it initializes entries from the committed
        #: ledger state instead.
        self._seqno_init = seqno_init
        self._entries: Dict[PageId, LockEntry] = {}
        self._blocked: Dict[int, PageId] = {}  # txn -> page it waits on
        self.requests = 0
        self.immediate_grants = 0
        self.waits = 0

    # -- entry access ----------------------------------------------------

    def entry(self, page: PageId) -> LockEntry:
        entry = self._entries.get(page)
        if entry is None:
            entry = LockEntry()
            if self._seqno_init is not None:
                entry.seqno = self._seqno_init(page)
            self._entries[page] = entry
        return entry

    def peek(self, page: PageId) -> Optional[LockEntry]:
        return self._entries.get(page)

    def holds(self, txn: int, page: PageId) -> Optional[LockMode]:
        entry = self._entries.get(page)
        return entry.holders.get(txn) if entry else None

    def is_blocked(self, txn: int) -> bool:
        return txn in self._blocked

    def blocked_page(self, txn: int) -> Optional[PageId]:
        return self._blocked.get(txn)

    # -- locking protocol --------------------------------------------------

    def request(
        self, txn: int, page: PageId, mode: LockMode, on_grant: Callable[[], None]
    ) -> bool:
        """Request a lock.

        Returns True if the lock was granted immediately.  Otherwise
        the request is queued and ``on_grant`` will be invoked when the
        lock is eventually granted.
        """
        if txn in self._blocked:
            raise RuntimeError(f"txn {txn} already blocked on {self._blocked[txn]}")
        self.requests += 1
        entry = self.entry(page)
        held = entry.holders.get(txn)
        if held is not None:
            if mode is LockMode.SHARED or held is LockMode.EXCLUSIVE:
                # Re-request of an already covered mode.
                self.immediate_grants += 1
                return True
            # Upgrade S -> X.
            if len(entry.holders) == 1:
                _grant(entry, txn, LockMode.EXCLUSIVE)
                self.immediate_grants += 1
                return True
            self._wait(entry, page, _Request(txn, mode, on_grant, upgrade=True))
            return False
        if not entry.queue and _compatible(mode, entry.holders.values()):
            _grant(entry, txn, mode)
            self.immediate_grants += 1
            return True
        self._wait(entry, page, _Request(txn, mode, on_grant, upgrade=False))
        return False

    def _wait(self, entry: LockEntry, page: PageId, request: _Request) -> None:
        """Queue ``request``: an upgrade at the front, else at the back."""
        queue = entry.queue
        if not isinstance(queue, deque):
            entry.queue = deque((request,))
        elif request.upgrade:
            queue.appendleft(request)
        else:
            queue.append(request)
        self._blocked[request.txn] = page
        self.waits += 1

    def release(self, txn: int, page: PageId) -> List[Tuple[int, LockMode]]:
        """Release ``txn``'s lock on ``page``.

        Returns the list of ``(txn, mode)`` newly granted as a result;
        their ``on_grant`` callbacks have already been invoked.
        """
        entry = self._entries.get(page)
        if entry is None or txn not in entry.holders:
            raise KeyError(f"txn {txn} holds no lock on page {page}")
        holders = entry.holders
        if isinstance(holders, dict) and len(holders) > 1:
            del holders[txn]
        else:
            # ``txn`` was the only holder.
            entry.holders = _NO_HOLDERS
        return self._promote(entry)

    def cancel(self, txn: int, page: PageId) -> List[Tuple[int, LockMode]]:
        """Remove ``txn``'s *queued* request for ``page`` (abort path)."""
        entry = self._entries.get(page)
        if entry is None:
            return []
        queue = entry.queue
        if not isinstance(queue, deque):
            return []
        for request in queue:
            if request.txn == txn:
                break
        else:
            return []
        queue.remove(request)
        self._blocked.pop(txn, None)
        return self._promote(entry)

    def _promote(self, entry: LockEntry) -> List[Tuple[int, LockMode]]:
        queue = entry.queue
        if not isinstance(queue, deque):
            return []
        granted: List[Tuple[int, LockMode]] = []
        while queue:
            head = queue[0]
            if head.upgrade:
                others = [t for t in entry.holders if t != head.txn]
                if others:
                    break
                _grant(entry, head.txn, LockMode.EXCLUSIVE)
            else:
                if not _compatible(head.mode, entry.holders.values()):
                    break
                _grant(entry, head.txn, head.mode)
            queue.popleft()
            self._blocked.pop(head.txn, None)
            granted.append((head.txn, head.mode))
            head.on_grant()
        if not queue:
            entry.queue = _NO_QUEUE
        return granted

    # -- deadlock support --------------------------------------------------

    def waiting_for(self, txn: int) -> Set[int]:
        """Transactions that ``txn`` currently waits for in this table.

        A blocked transaction waits for all incompatible current
        holders of its page plus all incompatible requests queued ahead
        of it.
        """
        page = self._blocked.get(txn)
        if page is None:
            return set()
        entry = self._entries[page]
        position = None
        my_mode = None
        for index, request in enumerate(entry.queue):
            if request.txn == txn:
                position = index
                my_mode = request.mode
                break
        if position is None:
            return set()
        blockers: Set[int] = set()
        for holder, held_mode in entry.holders.items():
            if holder == txn:
                continue
            if my_mode is LockMode.EXCLUSIVE or held_mode is LockMode.EXCLUSIVE:
                blockers.add(holder)
        for request in list(entry.queue)[:position]:
            if request.txn == txn:
                continue
            if my_mode is LockMode.EXCLUSIVE or request.mode is LockMode.EXCLUSIVE:
                blockers.add(request.txn)
        return blockers

    # -- introspection -----------------------------------------------------

    def held_pages(self, txn: int) -> List[PageId]:
        """All pages on which ``txn`` currently holds a lock (slow scan)."""
        return [
            page for page, entry in self._entries.items() if txn in entry.holders
        ]

    def num_blocked(self) -> int:
        """Number of transactions currently waiting in this table."""
        return len(self._blocked)
