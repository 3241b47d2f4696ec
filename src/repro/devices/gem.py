"""Global Extended Memory device model.

GEM is a non-volatile, shared semiconductor store with a page- and
entry-oriented access interface (section 2).  Accesses are synchronous:
the accessing node's CPU stays busy for the complete access, including
any queuing delay at the GEM server.  The *caller* is therefore
responsible for holding a CPU unit around each access (entry accesses
are chained CPU-then-server by :class:`repro.cc.store.GemStore`); this
module only models the GEM server itself.
"""

from __future__ import annotations

from typing import Iterator

from repro.sim.engine import Event, Simulator
from repro.sim.resources import Resource

__all__ = ["GemDevice"]


class GemDevice:
    """The shared GEM store: a multi-server queued resource.

    Parameters mirror Table 4.1: one server, 50 microseconds per page
    access, 2 microseconds per entry access.  Service times are
    deterministic (semiconductor memory has no mechanical variance).
    """

    def __init__(
        self,
        sim: Simulator,
        servers: int = 1,
        page_access_time: float = 50e-6,
        entry_access_time: float = 2e-6,
    ):
        if page_access_time < 0 or entry_access_time < 0:
            raise ValueError("access times must be non-negative")
        self.sim = sim
        self.page_access_time = page_access_time
        self.entry_access_time = entry_access_time
        self.server = Resource(sim, capacity=servers, name="gem")
        self.page_accesses = 0
        self.entry_accesses = 0

    def access_page(self) -> Iterator[Event]:
        """One synchronous page read or write (caller holds its CPU).

        Returns the server's acquire generator directly (callers
        delegate with ``yield from``); the wrapper frame would be
        resumed on every event otherwise.
        """
        self.page_accesses += 1
        return self.server.acquire(self.page_access_time)

    def utilization(self) -> float:
        return self.server.utilization()

    def busy_time(self, now=None) -> float:
        """Accumulated busy server-seconds since the last reset."""
        return self.server.busy_time(now)

    def reset_stats(self) -> None:
        self.server.reset_stats()
        self.page_accesses = 0
        self.entry_accesses = 0
