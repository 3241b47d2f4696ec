"""Transaction execution control (section 3.2).

The transaction manager admits transactions up to the node's
multiprogramming level (MPL); beyond that they wait in the input
queue.  A transaction's execution requests CPU service at begin of
transaction, for every record access, and at end of transaction
(exponentially distributed instruction counts).  Each record access
acquires the page lock from the concurrency-control protocol (unless
already held) and drives the buffer manager.  Commit processing has
two phases: phase 1 writes log data and -- under FORCE -- forces all
modified pages to permanent storage; phase 2 publishes the new page
sequence numbers and releases the locks through the protocol.

Deadlock victims are rolled back, wait a short back-off, and restart.
"""

from __future__ import annotations

from math import log
from typing import Any, Dict, Generator, Tuple, TYPE_CHECKING

from repro.cc.base import LockGrant
from repro.errors import NodeCrashed, TransactionAborted
from repro.obs import phases
from repro.sim.engine import Event, Process
from repro.workload.transaction import PageAccess, Transaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.node.node import Node

__all__ = ["TransactionManager"]

#: Marker page number for "append to this node's HISTORY cursor".
HISTORY_APPEND = -1


class TransactionManager:
    """Executes the transactions routed to one node."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.sim = node.sim
        self.stream = node.cluster.streams.stream(f"tm-{node.node_id}")
        profile = node.cluster.instruction_profile
        self.instr_bot, self.instr_per_access, self.instr_eot = profile
        if min(profile) < 0:
            raise ValueError(f"negative instruction count in profile: {profile!r}")
        #: In-flight transactions: txn_id -> (txn, lifecycle process).
        #: The fault manager interrupts these when the node crashes.
        self.active: Dict[int, Tuple[Transaction, Process]] = {}

    def submit(self, txn: Transaction) -> None:
        """Accept a transaction from the SOURCE/router."""
        txn.node = self.node.node_id
        txn.arrival_time = self.sim.now
        self.node.arrivals.increment()
        self.node.recorder.txn_begin(txn.txn_id, self.node.node_id, self.sim.now)
        proc = self.sim.process(self._lifecycle(txn), name=f"txn-{txn.txn_id}")
        if proc.is_alive:
            self.active[txn.txn_id] = (txn, proc)

    def _lifecycle(self, txn: Transaction) -> Generator[Event, Any, None]:
        # Admission, the execute/restart loop and commit are one flat
        # generator: this frame is resumed for every event the
        # transaction waits on, and each level of ``yield from``
        # delegation adds a frame walk to every resume.
        node = self.node
        sim = self.sim
        recorder = node.recorder
        try:
            request = node.mpl.request()
            try:
                with recorder.span(txn.txn_id, phases.INPUT_QUEUE):
                    yield request
            except BaseException:
                node.mpl.cancel(request)
                raise
            try:
                txn.start_time = sim.now
                cpu = node.cpu
                buffer = node.buffer
                held_locks = txn.held_locks  # cleared in place on restart
                grants = txn.grants
                # The three CPU phases below draw an exponential
                # number of instructions around its mean inline: the
                # draw ``-log(1 - U) * mean`` consumes the same uniform
                # from the CPU's stream as ``Stream.exponential(mean)``
                # (``expovariate(1 / mean)``), minus the method-call and
                # division overhead.  Each slice is coalesced
                # (Resource.hold): one slice-end entry, one resume,
                # whether or not the CPU is contended.  The per-access
                # phase -- the hottest span site in the simulator --
                # skips the span context manager entirely when the
                # recorder is disabled.
                cpu_res = cpu.resource
                cpu_hold = cpu_res.hold
                speed = cpu.speed
                rnd = cpu.stream.random
                mean_bot = self.instr_bot
                mean_access = self.instr_per_access
                mean_eot = self.instr_eot
                tracing = recorder.enabled
                while True:
                    try:
                        with recorder.span(txn.txn_id, phases.CPU):
                            instr = -log(1.0 - rnd()) * mean_bot if mean_bot else 0.0
                            cpu.instructions_executed += instr
                            if instr:
                                entry = cpu_hold(instr / speed)
                                try:
                                    yield entry
                                except BaseException:
                                    cpu_res.hold_cancel(entry)
                                    raise
                        for access in txn.accesses:
                            if access.page[1] == HISTORY_APPEND:
                                self._materialize_history(access)
                            if tracing:
                                with recorder.span(txn.txn_id, phases.CPU):
                                    instr = (
                                        -log(1.0 - rnd()) * mean_access
                                        if mean_access
                                        else 0.0
                                    )
                                    cpu.instructions_executed += instr
                                    if instr:
                                        entry = cpu_hold(instr / speed)
                                        try:
                                            yield entry
                                        except BaseException:
                                            cpu_res.hold_cancel(entry)
                                            raise
                            else:
                                instr = (
                                    -log(1.0 - rnd()) * mean_access
                                    if mean_access
                                    else 0.0
                                )
                                cpu.instructions_executed += instr
                                if instr:
                                    entry = cpu_hold(instr / speed)
                                    try:
                                        yield entry
                                    except BaseException:
                                        cpu_res.hold_cancel(entry)
                                        raise
                            grant = None
                            if access.lockable:
                                # Held-lock fast path: no protocol call,
                                # no yield, no extra generator.
                                held = held_locks.get(access.page)
                                if held is not None and (held or not access.write):
                                    grant = grants[access.page]
                                else:
                                    grant = yield from self._lock(txn, access)
                            yield from buffer.access(txn, access, grant)
                        # Commit processing: EOT CPU, log (and FORCE
                        # force-writes), sequence-number publication and
                        # lock release.
                        with recorder.span(txn.txn_id, phases.COMMIT):
                            instr = -log(1.0 - rnd()) * mean_eot if mean_eot else 0.0
                            cpu.instructions_executed += instr
                            if instr:
                                entry = cpu_hold(instr / speed)
                                try:
                                    yield entry
                                except BaseException:
                                    cpu_res.hold_cancel(entry)
                                    raise
                            # Commit phase 0: optimistic protocols
                            # validate here and raise TransactionAborted
                            # into the rollback/restart path below.  A
                            # no-op (zero events) for locking protocols.
                            yield from node.protocol.prepare_commit(txn)
                            yield from buffer.commit_phase1(txn)
                            # The modified versions become the globally
                            # committed ones.
                            for page, version in txn.modified.items():
                                node.cluster.ledger.install_commit(page, version)
                            yield from node.protocol.commit_release(txn)
                            buffer.finish_commit(txn)
                        break
                    except TransactionAborted:
                        node.aborts.increment()
                        txn.restarts += 1
                        with recorder.span(txn.txn_id, phases.BACKOFF):
                            yield from self._rollback(txn)
                            yield sim.timeout(self.stream.exponential(0.01))
                        txn.reset_runtime()
                node.record_completion(txn, sim.now - txn.arrival_time)
            finally:
                node.mpl.release()
        except NodeCrashed:
            # The node died under this transaction.  The unwound
            # finally blocks already returned its resources; the work
            # is lost (not restarted -- the arrival itself is gone).
            recorder.txn_end(txn.txn_id, sim.now, committed=False)
        finally:
            self.active.pop(txn.txn_id, None)

    def _lock(
        self, txn: Transaction, access: PageAccess
    ) -> Generator[Event, Any, LockGrant]:
        """Acquire the page lock unless an adequate one is held."""
        node = self.node
        page = access.page
        held = txn.held_locks.get(page)
        if held is not None and (held or not access.write):
            return txn.grants[page]
        cached = node.buffer.cached_version(page)
        if page in txn.modified:
            # Our own modified copy is by definition current; tell the
            # protocol the pre-modification seqno so it does not ship a
            # page we already have.
            cached = txn.modified[page] - 1
        # The claimed copy must survive until the grant arrives: the
        # protocol decides page shipping based on it (PCL), so protect
        # it against capacity eviction for the duration of the request.
        protected = cached is not None and node.buffer.protect(page)
        try:
            grant = yield from node.protocol.acquire(txn, page, access.write, cached)
        finally:
            if protected:
                node.buffer.unprotect(page)
        txn.grants[page] = grant
        return grant

    def _materialize_history(self, access: PageAccess) -> None:
        """Resolve the per-node HISTORY append cursor on first touch."""
        if access.page[1] == HISTORY_APPEND:
            partition = self.node.database.by_index(access.page[0])
            access.page = self.node.next_history_page(
                partition.index, partition.blocking_factor
            )

    def _rollback(self, txn: Transaction) -> Generator[Event, Any, None]:
        self.node.buffer.rollback(txn)
        yield from self.node.protocol.abort_release(txn)
