"""Global Extended Memory device model.

GEM is a non-volatile, shared semiconductor store with a page- and
entry-oriented access interface (section 2).  Accesses are synchronous:
the accessing node's CPU stays busy for the complete access, including
any queuing delay at the GEM server.  Both kinds are one
:meth:`~repro.node.cpu.CpuPool.synchronous` access: page accesses
through :meth:`GemDevice.page_access`, entry accesses through
:class:`repro.cc.store.GemStore`.
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

from repro.sim.engine import Event, Simulator
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.node.cpu import CpuPool

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

    def page_access(
        self, cpu: "CpuPool", instructions: float
    ) -> Generator[Event, Any, None]:
        """One synchronous page read or write: ``instructions`` to
        initiate it on one of ``cpu``'s CPUs, then the page access with
        that CPU still held."""
        self.page_accesses += 1
        return cpu.synchronous(self.server, instructions, self.page_access_time)

    def utilization(self) -> float:
        return self.server.utilization()

    def busy_time(self, now=None) -> float:
        """Accumulated busy server-seconds since the last reset."""
        return self.server.busy_time(now)

    def reset_stats(self) -> None:
        self.server.reset_stats()
        self.page_accesses = 0
        self.entry_accesses = 0
