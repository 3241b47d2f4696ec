"""CPU server pool of a processing node.

A node has ``num_cpus`` identical CPUs of ``mips`` million instructions
per second each, modelled as a multi-server FCFS resource.  All CPU
demand in the model -- transaction path length, message send/receive
overhead, I/O overhead -- is expressed in instructions and converted to
service time here.

A synchronous access -- a GEM page or entry access, an RDMA verb --
keeps the CPU busy for the complete access, queuing at the accessed
server included (section 2).  :meth:`CpuPool.synchronous` is the one
implementation of it: every CPU-held access in the model goes through
it.
"""

from __future__ import annotations

from typing import Any, Generator, Iterator, Optional

from repro.sim.engine import Event, Simulator
from repro.sim.resources import Resource, compound_cancel, held_chain
from repro.sim.rng import Stream

__all__ = ["CpuPool"]


class CpuPool:
    """The CPUs of one processing node."""

    def __init__(
        self,
        sim: Simulator,
        num_cpus: int,
        mips: float,
        stream: Stream,
        name: str = "cpu",
    ) -> None:
        if num_cpus < 1:
            raise ValueError("num_cpus must be >= 1")
        if mips <= 0:
            raise ValueError("mips must be positive")
        self.sim = sim
        self.speed = mips * 1e6  # instructions per second
        self.stream = stream
        self.resource = Resource(sim, capacity=num_cpus, name=name)
        self.instructions_executed = 0.0

    def consume(self, instructions: float) -> Iterator[Event]:
        """Execute a fixed number of instructions on one CPU.

        Returns the resource's acquire generator directly rather than
        wrapping it: every caller delegates with ``yield from``, and the
        extra generator frame would be resumed on every event.  The
        zero-work case returns an empty iterator, which ``yield from``
        exhausts without ever suspending (so no value is ever sent into
        the non-generator iterator).
        """
        if instructions < 0:
            raise ValueError("instructions must be non-negative")
        if instructions == 0:
            return iter(())
        self.instructions_executed += instructions
        return self.resource.acquire(instructions / self.speed)

    def synchronous(
        self, server: Resource, instructions: float, service_time: float
    ) -> Generator[Event, Any, None]:
        """One synchronous access to ``server``.

        ``instructions`` on one CPU, then ``service_time`` at
        ``server`` with that CPU still held -- one chained entry
        (:func:`~repro.sim.resources.held_chain`), whatever queuing
        happens at either, so the caller suspends once per access.
        """
        self.instructions_executed += instructions
        done = held_chain(
            self.resource, server, instructions / self.speed, service_time
        )
        try:
            yield done
        except BaseException:
            compound_cancel(done)
            raise

    # -- statistics -----------------------------------------------------

    def utilization(self) -> float:
        return self.resource.utilization()

    def busy_time(self, now: Optional[float] = None) -> float:
        """Accumulated busy CPU-seconds since the last reset."""
        return self.resource.busy_time(now)

    def reset_stats(self) -> None:
        self.resource.reset_stats()
        self.instructions_executed = 0.0
