"""Experiment drivers regenerating the paper's evaluation section.

One module per figure:

============  ==============================================================
Module        Content
============  ==============================================================
fig41         Influence of workload allocation and update strategy (GEM locking)
fig42         Influence of buffer size (random routing)
fig43         Influence of database allocation (BRANCH/TELLER on disk vs GEM)
fig44         Use of disk caches for the BRANCH/TELLER partition (FORCE)
fig45         Primary copy locking vs GEM locking (response times)
fig46         Throughput per node at 80 % CPU utilization
fig47         PCL vs GEM locking for the real-life (trace) workload
fig_failover  Node crash and recovery timeline (not in the paper)
fig_regimes   GEM vs PCL vs RDMA x 2PL/MVCC/DGCC (not in the paper)
table41       Parameter-setting validation (Table 4.1 single-node anchor run)
============  ==============================================================

Every driver exposes ``run(scale)`` returning an
:class:`~repro.experiments.common.ExperimentResult` whose ``table()``
renders the same rows/series the paper plots.  There is one way to run
them: ``python -m repro experiments <name>`` runs one driver and
``python -m repro experiments all`` writes every table to a results
directory (:func:`~repro.experiments.run_all.run_all`).  Scales:
``quick()`` for CI-sized runs, ``full()`` for paper-sized runs.
"""

from repro.experiments.common import ExperimentResult, Scale, Series

__all__ = ["ExperimentResult", "Scale", "Series"]
