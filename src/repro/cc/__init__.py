"""Concurrency and coherency control protocols.

Each protocol is written once against the coupling substrate, which
decides what reaching the coordinated state costs:

* :mod:`repro.cc.store` -- the substrate interface and the shared
  store of close coupling: a passive store every node accesses
  synchronously, with the CPU held throughout.
  :class:`~repro.cc.store.GemStore` is the paper's GEM (entry read +
  Compare&Swap write-back), :class:`~repro.cc.store.RdmaStore` a
  disaggregated memory pool reached by one-sided verbs.  The store
  also decides where a NOFORCE page comes from (the owner's buffer,
  or the pool) and what a node crash leaves to recover.
* :mod:`repro.cc.partitions` -- the substrate of loose coupling: the
  state is partitioned into global lock authorities (GLA), requests
  to a remote partition travel as messages, NOFORCE pages ride along
  with releases and grants, and a crashed node's partition fails over
  to a survivor and back.
* :class:`~repro.cc.store_locking.StoreLockingProtocol` -- 2PL with
  the global lock table in the shared store (section 3.2); page
  sequence numbers and page-owner tracking ride in the same entries.
* :class:`~repro.cc.pcl.PrimaryCopyProtocol` -- 2PL on the GLA
  partitions (primary copy locking).  An optional read optimization
  processes read locks locally.
* :class:`~repro.cc.mvcc.MvccProtocol` and
  :class:`~repro.cc.dgcc.DgccProtocol` -- multi-version optimistic CC
  and dependency-graph batching, on whichever substrate the coupling
  provides.

All share the :class:`~repro.node.lock_table.LockTable` state machine
and the global :class:`~repro.cc.deadlock.DeadlockDetector`.
"""

from repro.cc.base import CCProtocol, LockGrant, PageSource
from repro.cc.deadlock import DeadlockDetector

__all__ = ["CCProtocol", "DeadlockDetector", "LockGrant", "PageSource"]
