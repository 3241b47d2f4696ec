"""Discrete-event simulation kernel.

This subpackage is a from-scratch replacement for the DeNet simulation
language used by the paper.  It provides a process-oriented
discrete-event simulation core in the style familiar from SimPy:

* :class:`~repro.sim.engine.Simulator` -- the event loop and clock.
* :class:`~repro.sim.engine.Event` / :class:`~repro.sim.engine.Timeout` --
  one-shot occurrences that processes wait on.
* :class:`~repro.sim.engine.Process` -- a Python generator driven by the
  event loop; ``yield`` an event to wait for it.
* :class:`~repro.sim.resources.Resource` -- a multi-server FCFS station
  with built-in utilization and queue-length statistics.
* :class:`~repro.sim.resources.Store` -- an unbounded mailbox used for
  message passing between model components.
* :class:`~repro.sim.rng.StreamRegistry` -- named, independently seeded
  random-number streams so that model components draw from decoupled
  sequences and runs are reproducible.
* :mod:`~repro.sim.stats` -- tallies, counters and time-weighted
  statistics used throughout the model.
"""

from repro.sim.engine import (
    AllOf,
    Event,
    Interrupted,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import Resource, Store
from repro.sim.rng import StreamRegistry
from repro.sim.stats import Counter, StatsRegistry, Tally, TimeWeighted

__all__ = [
    "AllOf",
    "Counter",
    "Event",
    "Interrupted",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "StatsRegistry",
    "Store",
    "StreamRegistry",
    "Tally",
    "Timeout",
    "TimeWeighted",
]
