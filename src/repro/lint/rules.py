"""Rule catalog for ``simlint``.

Every rule carries a structured identifier, a one-line summary and the
rationale that ties it to the repository's determinism guarantee (see
docs/LINTING.md for the full catalog and the suppression policy).

Rule identifiers are grouped by family:

* ``DET0xx`` -- nondeterminism hazards (ordering, wall clock, global
  randomness) that can break byte-identical reproduction across seeds,
  job counts and fresh interpreters.
* ``SIM0xx`` -- simulation-protocol safety (span stack corruption,
  heap tie-break hazards).
* ``RES0xx`` -- path-sensitive resource-obligation tracking over the
  control-flow graph (acquisitions whose release is not guaranteed on
  every path, including interrupt/exception edges; double release).
* ``MSG0xx`` -- cross-file protocol conformance against the
  ``WIRE_FORMATS`` declaration in ``repro.cc.messages`` (unknown
  kinds, payload shape, handler coverage).
* ``RNG0xx`` -- stream discipline (raw generator construction,
  replicate-variant guarded draws).
* ``SUP0xx`` -- problems with suppression comments themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Rule", "RULES", "is_known_rule"]


@dataclass(frozen=True)
class Rule:
    """One lint rule: identifier, summary and rationale."""

    id: str
    summary: str
    rationale: str


_RULE_LIST = [
    Rule(
        "DET001",
        "iteration over an unordered collection",
        "Iterating a set (or an OS-ordered listing such as os.listdir or "
        "glob) feeds arbitrary, process-dependent ordering into event "
        "scheduling, message delivery or victim selection.  Wrap the "
        "iterable in sorted() with a total-order key, or use an "
        "insertion-ordered dict.",
    ),
    Rule(
        "DET002",
        "wall clock, global randomness, or id()-based ordering",
        "The global random module, time.time/perf_counter, uuid and "
        "id()-keyed ordering differ across interpreters and runs.  Model "
        "code must draw from the seeded sim.rng streams and order by "
        "explicit sequence numbers.",
    ),
    Rule(
        "DET003",
        "float accumulation over an unordered iterable",
        "sum() of floats is not associative: summing over a set (or other "
        "unordered source) makes the total depend on iteration order.  "
        "Sort the iterable first, or use math.fsum for an exact, "
        "order-independent sum.",
    ),
    Rule(
        "SIM002",
        "PhaseRecorder span used without a with-statement",
        "A span pushed outside a with-statement is not popped when an "
        "exception unwinds the process, corrupting the span stack and the "
        "response-time breakdown.  Always use `with recorder.span(...)`.",
    ),
    Rule(
        "SIM003",
        "heap entry without a total-order tie-break key",
        "heapq compares tuple elements left to right; a tuple ending in an "
        "arbitrary object with no unique sequence number before it falls "
        "back to object comparison on timestamp ties -- a TypeError at "
        "best, id()-dependent ordering at worst.  Put a monotonic sequence "
        "number before any non-comparable element.",
    ),
    Rule(
        "RES001",
        "resource obligation not cancelled on every path",
        "hold()/held_chain()/hold_seq()/request() return an entry that "
        "must either complete (yield it) or be cancelled.  A path -- "
        "including the interrupt thrown into a suspension point by a "
        "deadlock abort or node crash -- that escapes the function while "
        "the entry is pending leaks the queued unit forever.  Guard the "
        "wait with try/except BaseException: cancel; raise.",
    ),
    Rule(
        "RES002",
        "held resource not released on every path",
        "After a completed request() wait the unit is held; every exit "
        "from the function -- normal or exceptional -- must release() it.  "
        "A missing release on an exception path shrinks the resource's "
        "capacity for the rest of the run, silently serialising the "
        "simulated system.  Use try/finally.",
    ),
    Rule(
        "RES003",
        "double release of a resource obligation",
        "Releasing or cancelling an obligation that is already discharged "
        "on every incoming path grants a unit that was never acquired, "
        "inflating capacity and corrupting queue accounting.  Release "
        "exactly once; idempotent multi-owner teardown belongs in "
        "abort_release, which re-checks ownership before each pop.",
    ),
    Rule(
        "MSG001",
        "undeclared message kind",
        "Every message kind must be declared in WIRE_FORMATS "
        "(repro.cc.messages) with its payload TypedDict and receivers.  "
        "Sending an undeclared kind raises in the dispatcher at "
        "simulation time; registering a handler for one is dead code "
        "hiding a misspelling.",
    ),
    Rule(
        "MSG002",
        "payload does not match the declared wire format",
        "A send payload is checked field-by-field against the kind's "
        "TypedDict: a missing required field is a KeyError in the "
        "handler at simulation time, an unknown field is a silent "
        "protocol drift, and a mis-annotated payload type defeats mypy's "
        "checking at the construction site.",
    ),
    Rule(
        "MSG003",
        "handler coverage drift",
        "WIRE_FORMATS declares which protocol classes receive each kind.  "
        "A declared receiver that never registers the handler turns the "
        "first such message into a RuntimeError mid-simulation; a "
        "handler registered by an undeclared class means the declaration "
        "no longer describes the protocol.  Keep both in sync.",
    ),
    Rule(
        "RNG001",
        "raw random generator constructed outside the stream layer",
        "random.Random()/Stream() built ad hoc either shares global "
        "state or invents a seed, breaking the derive-seed discipline "
        "that keeps replicates bit-identical across job counts.  Draw "
        "from a named stream via StreamRegistry.stream(name).",
    ),
    Rule(
        "RNG002",
        "stream draw guarded by cross-replicate state",
        "A draw inside a conditional on worker count, environment or "
        "host identity desynchronises the stream between --jobs 1 and "
        "--jobs N runs even though every draw is seeded: the *number* "
        "of draws differs.  Hoist the draw out of the guard or give the "
        "conditional code its own named stream.",
    ),
    Rule(
        "SUP001",
        "malformed simlint suppression",
        "A `# simlint: disable=...` comment must name known rule ids and "
        "carry a justification after ` -- `.  A malformed suppression is "
        "reported and does not suppress anything.",
    ),
]

#: rule id -> Rule, in catalog order.
RULES: Dict[str, Rule] = {rule.id: rule for rule in _RULE_LIST}


def is_known_rule(rule_id: str) -> bool:
    return rule_id in RULES
