"""Host-speed reference: a fixed event loop timed beside the simulator.

The shared VM this benchmark runs on changes speed by up to 2x, for
tenths of a second to minutes at a time, as other tenants load the host.
The same seed's measured window then costs 230 or 400 us of CPU per
transaction depending on when it runs, and no statistic over a run
removes a shift that outlasts it.  So the benchmark times a fixed piece
of reference work next to every slice of simulation and scales the
slice's time by ``REFERENCE_S / reference time``: the result is what the
slice would have cost while the host ran at its reference speed.

The reference work is a small discrete-event loop -- a heap of pending
wake-ups, generator resumes, attribute updates on slot objects and dict
lookups -- so that it leans on the interpreter the way the simulator
does.  It is the benchmark's own code: a change to the program cannot
move it.  It allocates no object the cyclic garbage collector tracks,
so it never triggers a collection of the simulator's heap and leaves
the collector's counters as the program left them.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Iterable, List, Tuple

__all__ = ["REFERENCE_S", "ROUNDS", "reference", "sample", "spin"]

#: Wake-ups processed by one reference sample.
ROUNDS = 4000

#: CPU (and wall) seconds that ``spin(ROUNDS)`` takes at the reference
#: speed: the fast phase of a 2-vCPU Intel Xeon VM running CPython
#: 3.11.7.  It only fixes the scale of the normalized figures.
REFERENCE_S = 0.0042

_PROCESSES = 64
_RESOURCES = 1024
_PAGES = 16384


class _Resource:
    __slots__ = ("busy", "served", "queue")

    def __init__(self) -> None:
        self.busy = 0.0
        self.served = 0
        self.queue = 0


_RESOURCE_TABLE = [_Resource() for _ in range(_RESOURCES)]
_PAGE_TABLE = {page * 13: page for page in range(_PAGES)}
_HEAP: List[float] = []


def _process(ident: int):
    """A simulated process: touch a resource and a page, then sleep."""
    resources = _RESOURCE_TABLE
    pages = _PAGE_TABLE
    x = ident * 2654435761 & 0x7FFFFFFF
    while True:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        resource = resources[x & (_RESOURCES - 1)]
        resource.served += 1
        resource.busy += (x & 255) * 1e-6
        if pages.get((x & (_PAGES - 1)) * 13, 0) & 1:
            resource.queue += 1
        else:
            resource.queue -= 1
        yield (x & 4095) + 1


# Created once: resuming a generator allocates nothing, creating one does.
_PROCESS_TABLE = [_process(ident) for ident in range(_PROCESSES)]


def spin(rounds: int) -> float:
    """Process ``rounds`` wake-ups; return the final clock value.

    Heap entries are floats that carry the wake-up time in their upper
    part and the process number in their low six bits.
    """
    heap = _HEAP
    processes = _PROCESS_TABLE
    push = heapq.heappush
    pop = heapq.heappop
    del heap[:]
    for ident in range(_PROCESSES):
        push(heap, float(ident))
    now = 0.0
    for _ in range(rounds):
        now = pop(heap)
        ident = int(now) & (_PROCESSES - 1)
        delay = next(processes[ident])
        push(heap, float((int(now) // _PROCESSES + delay) * _PROCESSES + ident))
    return now


def sample() -> Tuple[float, float]:
    """Time one reference run: (CPU seconds, wall seconds)."""
    cpu = time.process_time()
    wall = time.perf_counter()
    spin(ROUNDS)
    return time.process_time() - cpu, time.perf_counter() - wall


def reference(samples: Iterable[Tuple[float, float]]) -> Tuple[float, float]:
    """Median (CPU, wall) reference time of a few samples."""
    samples = list(samples)
    return (
        statistics.median(cpu for cpu, _ in samples),
        statistics.median(wall for _, wall in samples),
    )
