"""Rule catalog for ``simlint``.

Every rule carries a structured identifier and a one-line summary; the
rationale for each lives in docs/LINTING.md, next to the suppression
policy.

Rule identifiers are grouped by family:

* ``DET0xx`` -- nondeterminism hazards (ordering, wall clock, global
  randomness) that can break byte-identical reproduction across seeds,
  job counts and fresh interpreters.
* ``RES0xx`` -- path-sensitive resource-obligation tracking over the
  control-flow graph (acquisitions whose release is not guaranteed on
  every path, including interrupt/exception edges; double release).
* ``MSG0xx`` -- cross-file protocol conformance against the
  ``WIRE_FORMATS`` declaration in ``repro.cc.messages`` (unknown
  kinds, payload shape, handler coverage).
* ``RNG0xx`` -- stream discipline (raw generator construction).
* ``SUP0xx`` -- problems with suppression comments themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Rule", "RULES", "is_known_rule"]


@dataclass(frozen=True)
class Rule:
    """One lint rule: identifier and summary."""

    id: str
    summary: str


_RULE_LIST = [
    Rule("DET001", "iteration over an unordered collection"),
    Rule("DET002", "wall clock, global randomness, or id()-based ordering"),
    Rule("RES001", "resource obligation not cancelled on every path"),
    Rule("RES002", "held resource not released on every path"),
    Rule("RES003", "double release of a resource obligation"),
    Rule("MSG001", "undeclared message kind"),
    Rule("MSG002", "payload does not match the declared wire format"),
    Rule("MSG003", "handler coverage drift"),
    Rule("RNG001", "raw random generator constructed outside the stream layer"),
    Rule("SUP001", "malformed simlint suppression"),
]

#: rule id -> Rule, in catalog order.
RULES: Dict[str, Rule] = {rule.id: rule for rule in _RULE_LIST}


def is_known_rule(rule_id: str) -> bool:
    return rule_id in RULES
