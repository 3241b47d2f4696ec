"""Concurrency and coherency control protocols.

Each protocol is written once against the coupling:

* :mod:`repro.cc.store` -- the shared-store substrate of close
  coupling: a passive store every node accesses synchronously, with
  the CPU held throughout.  :class:`~repro.cc.store.GemStore` is the
  paper's GEM (entry read + Compare&Swap write-back),
  :class:`~repro.cc.store.RdmaStore` a disaggregated memory pool
  reached by one-sided verbs.  The store also decides where a NOFORCE
  page comes from (the owner's buffer, or the pool) and what a node
  crash leaves to recover.
* :class:`~repro.cc.store_locking.StoreLockingProtocol` -- 2PL with
  the global lock table in the shared store (section 3.2); page
  sequence numbers and page-owner tracking ride in the same entries.
* :class:`~repro.cc.pcl.PrimaryCopyProtocol` -- loose coupling: the
  database is partitioned into global lock authorities (GLA), remote
  lock requests travel as messages, and update propagation under
  NOFORCE piggybacks page transfers on lock grant/release messages.
  An optional read optimization processes read locks locally.
* :class:`~repro.cc.mvcc.MvccProtocol` and
  :class:`~repro.cc.dgcc.DgccProtocol` -- multi-version optimistic CC
  and dependency-graph batching, with their directory respectively
  batch area in the shared store, or message-passing under PCL.

All share the :class:`~repro.node.lock_table.LockTable` state machine
and the global :class:`~repro.cc.deadlock.DeadlockDetector`.
"""

from repro.cc.base import CCProtocol, LockGrant, PageSource
from repro.cc.deadlock import DeadlockDetector

__all__ = ["CCProtocol", "DeadlockDetector", "LockGrant", "PageSource"]
