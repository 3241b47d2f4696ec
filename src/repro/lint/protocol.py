"""MSG rules: cross-file conformance of the message/handler surface.

The wire formats are *declared* in ``repro.cc.messages``: the
``WIRE_FORMATS`` mapping names every message kind, the TypedDict shape
of its payload, and the protocol classes expected to register a
handler for it (reply-event-only kinds declare no receivers).  This
module reads that declaration -- and the TypedDict field lists --
straight from the scanned ASTs, then checks every use site:

* **MSG001** -- a ``send``/``register_handler`` call names a kind that
  is not declared in ``WIRE_FORMATS`` (at simulation time this is a
  ``RuntimeError`` in the dispatcher, or a silently dropped message).
* **MSG002** -- a ``send`` payload literal does not match the kind's
  TypedDict field-by-field (missing required key, unknown key, or the
  annotated payload type is not the declared one).
* **MSG003** -- handler coverage drift: a class declared as a receiver
  of a kind never registers a handler for it, or a class registers a
  handler for a kind that does not declare it as a receiver.

All checks are skipped when no ``WIRE_FORMATS`` declaration is among
the scanned files (linting a partial tree or a fixture directory that
does not model the protocol layer).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.analyzer import terminal_name
from repro.lint.findings import Finding

__all__ = [
    "WireRegistry",
    "collect_wire_registry",
    "msg_findings_for_file",
    "msg_cross_file_findings",
]


@dataclass(frozen=True)
class WireSpec:
    """One declared message kind."""

    payload: str
    handled_by: Tuple[str, ...]
    path: str
    line: int


@dataclass(frozen=True)
class TypedDictInfo:
    """Field lists of one TypedDict payload declaration."""

    required: Tuple[str, ...]
    optional: Tuple[str, ...]

    def all_fields(self) -> Set[str]:
        return set(self.required) | set(self.optional)


@dataclass
class WireRegistry:
    """Everything the MSG rules know about the protocol surface."""

    kinds: Dict[str, WireSpec] = field(default_factory=dict)
    payload_types: Dict[str, TypedDictInfo] = field(default_factory=dict)
    #: class name -> {kind: line of its register_handler call}.
    handlers: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: class name -> (path, line) of the class definition.
    class_sites: Dict[str, Tuple[str, int]] = field(default_factory=dict)

    @property
    def enabled(self) -> bool:
        return bool(self.kinds)


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# --------------------------------------------------------------------------
# Registry collection (pass A)
# --------------------------------------------------------------------------


def _collect_typed_dict(node: ast.ClassDef, registry: WireRegistry) -> None:
    if not any(terminal_name(base) == "TypedDict" for base in node.bases):
        return
    total = True
    for kw in node.keywords:
        if kw.arg == "total" and isinstance(kw.value, ast.Constant):
            total = bool(kw.value.value)
    required: List[str] = []
    optional: List[str] = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(
            stmt.target, ast.Name
        ):
            continue
        name = stmt.target.id
        wrapper = terminal_name(
            stmt.annotation.value
            if isinstance(stmt.annotation, ast.Subscript)
            else stmt.annotation
        )
        if wrapper == "NotRequired" or (total is False and wrapper != "Required"):
            optional.append(name)
        else:
            required.append(name)
    registry.payload_types[node.name] = TypedDictInfo(
        tuple(required), tuple(optional)
    )


def _collect_wire_formats(path: str, stmt: ast.stmt, registry: WireRegistry) -> None:
    if isinstance(stmt, ast.AnnAssign):
        target: Optional[ast.expr] = stmt.target
        value = stmt.value
    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        value = stmt.value
    else:
        return
    if (
        not isinstance(target, ast.Name)
        or target.id != "WIRE_FORMATS"
        or not isinstance(value, ast.Dict)
    ):
        return
    for key_node, value_node in zip(value.keys, value.values):
        kind = _const_str(key_node) if key_node is not None else None
        if kind is None or not isinstance(value_node, ast.Call):
            continue
        payload: Optional[str] = None
        handled: Tuple[str, ...] = ()
        args = list(value_node.args)
        if args:
            payload = terminal_name(args[0])
        if len(args) >= 2 and isinstance(args[1], (ast.Tuple, ast.List)):
            handled = tuple(
                s for s in (_const_str(e) for e in args[1].elts) if s is not None
            )
        for kw in value_node.keywords:
            if kw.arg == "payload":
                payload = terminal_name(kw.value)
            elif kw.arg == "handled_by" and isinstance(
                kw.value, (ast.Tuple, ast.List)
            ):
                handled = tuple(
                    s
                    for s in (_const_str(e) for e in kw.value.elts)
                    if s is not None
                )
        if payload is not None:
            registry.kinds[kind] = WireSpec(
                payload, handled, path, key_node.lineno
            )


def _collect_class(path: str, node: ast.ClassDef, registry: WireRegistry) -> None:
    registry.class_sites.setdefault(node.name, (path, node.lineno))
    kinds = registry.handlers.setdefault(node.name, {})
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "register_handler"
            and sub.args
        ):
            kind = _const_str(sub.args[0])
            if kind is not None and kind not in kinds:
                kinds[kind] = sub.lineno


def collect_wire_registry(
    parsed: Sequence[Tuple[str, ast.AST]],
) -> WireRegistry:
    """Extract the wire-format declaration from the scanned trees."""
    registry = WireRegistry()
    for path, tree in parsed:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                _collect_typed_dict(node, registry)
                _collect_class(path, node, registry)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                _collect_wire_formats(path, node, registry)
    return registry


# --------------------------------------------------------------------------
# Per-file checks (pass B)
# --------------------------------------------------------------------------


def _is_comm_send(call: ast.Call) -> bool:
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "send"):
        return False
    recv = func.value
    if isinstance(recv, ast.Attribute) and recv.attr == "comm":
        return True
    if isinstance(recv, ast.Name) and recv.id == "comm":
        return True
    return False


def _function_ann_payloads(func: ast.AST) -> Dict[str, Tuple[str, ast.Dict]]:
    """``name -> (annotated type, dict literal)`` for payload locals."""
    out: Dict[str, Tuple[str, ast.Dict]] = {}
    for sub in ast.walk(func):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not func:
            continue
        if (
            isinstance(sub, ast.AnnAssign)
            and isinstance(sub.target, ast.Name)
            and isinstance(sub.value, ast.Dict)
        ):
            type_name = terminal_name(sub.annotation)
            if type_name is not None:
                out[sub.target.id] = (type_name, sub.value)
    return out


def _dict_literal_keys(node: ast.Dict) -> Optional[Set[str]]:
    keys: Set[str] = set()
    for key in node.keys:
        if key is None:  # **spread: shape unknowable statically
            return None
        value = _const_str(key)
        if value is None:
            return None
        keys.add(value)
    return keys


def _check_payload_fields(
    path: str,
    kind: str,
    spec: WireSpec,
    registry: WireRegistry,
    dict_node: ast.Dict,
    findings: List[Finding],
) -> None:
    info = registry.payload_types.get(spec.payload)
    if info is None:
        return
    keys = _dict_literal_keys(dict_node)
    if keys is None:
        return
    missing = sorted(set(info.required) - keys)
    unknown = sorted(keys - info.all_fields())
    if missing:
        findings.append(
            Finding(
                path,
                dict_node.lineno,
                dict_node.col_offset,
                "MSG002",
                f"payload for {kind!r} is missing required "
                f"{spec.payload} field(s): {', '.join(missing)}",
            )
        )
    if unknown:
        findings.append(
            Finding(
                path,
                dict_node.lineno,
                dict_node.col_offset,
                "MSG002",
                f"payload for {kind!r} has field(s) not declared on "
                f"{spec.payload}: {', '.join(unknown)}",
            )
        )


def _check_send(
    path: str,
    call: ast.Call,
    registry: WireRegistry,
    ann_payloads: Dict[str, Tuple[str, ast.Dict]],
    findings: List[Finding],
) -> None:
    if len(call.args) < 3:
        return
    kind = _const_str(call.args[1])
    if kind is None:
        return
    spec = registry.kinds.get(kind)
    if spec is None:
        findings.append(
            Finding(
                path,
                call.lineno,
                call.col_offset,
                "MSG001",
                f"send of undeclared message kind {kind!r}; declare it in "
                "WIRE_FORMATS (repro.cc.messages) with its payload shape",
            )
        )
        return
    payload = call.args[2]
    if isinstance(payload, ast.Dict):
        _check_payload_fields(path, kind, spec, registry, payload, findings)
    elif isinstance(payload, ast.Name):
        annotated = ann_payloads.get(payload.id)
        if annotated is None:
            return
        type_name, dict_node = annotated
        if type_name != spec.payload:
            findings.append(
                Finding(
                    path,
                    call.lineno,
                    call.col_offset,
                    "MSG002",
                    f"payload for {kind!r} is annotated as {type_name} but "
                    f"WIRE_FORMATS declares {spec.payload}",
                )
            )
            return
        _check_payload_fields(path, kind, spec, registry, dict_node, findings)


def _enclosing_class_name(
    node: ast.AST, class_stack: Dict[ast.AST, str]
) -> Optional[str]:
    return class_stack.get(node)


def msg_findings_for_file(
    path: str, tree: ast.AST, registry: WireRegistry
) -> List[Finding]:
    """MSG001/MSG002 at send sites, MSG001/MSG003 at registration sites."""
    if not registry.enabled:
        return []
    findings: List[Finding] = []
    #: call node -> enclosing class name (for registration drift).
    #: AST nodes hash by identity, so they key these maps directly.
    owner: Dict[ast.AST, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    owner.setdefault(sub, node.name)
    #: send sites are checked with their function's annotated payloads.
    seen: Set[ast.AST] = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        ann_payloads = _function_ann_payloads(func)
        for sub in ast.walk(func):
            if isinstance(sub, ast.Call) and _is_comm_send(sub):
                if sub in seen:
                    continue
                seen.add(sub)
                _check_send(path, sub, registry, ann_payloads, findings)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_comm_send(node):
            if node not in seen:  # module-level send (fixtures)
                _check_send(path, node, registry, {}, findings)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "register_handler"
            and node.args
        ):
            kind = _const_str(node.args[0])
            if kind is None:
                continue
            spec = registry.kinds.get(kind)
            if spec is None:
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        node.col_offset,
                        "MSG001",
                        f"handler registered for undeclared message kind "
                        f"{kind!r}; declare it in WIRE_FORMATS "
                        "(repro.cc.messages)",
                    )
                )
                continue
            cls = _enclosing_class_name(node, owner)
            if cls is not None and cls not in spec.handled_by:
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        node.col_offset,
                        "MSG003",
                        f"{cls} registers a handler for {kind!r} but "
                        f"WIRE_FORMATS does not declare it a receiver "
                        f"(declared: {', '.join(spec.handled_by) or 'none'})",
                    )
                )
    return findings


# --------------------------------------------------------------------------
# Cross-file coverage (after pass B)
# --------------------------------------------------------------------------


def msg_cross_file_findings(registry: WireRegistry) -> List[Finding]:
    """MSG003: every declared receiver class registers every kind."""
    if not registry.enabled:
        return []
    findings: List[Finding] = []
    for kind in sorted(registry.kinds):
        spec = registry.kinds[kind]
        for cls in spec.handled_by:
            site = registry.class_sites.get(cls)
            if site is None:
                # Partial scan: the class is outside the linted tree.
                continue
            if kind not in registry.handlers.get(cls, {}):
                path, line = site
                findings.append(
                    Finding(
                        path,
                        line,
                        0,
                        "MSG003",
                        f"{cls} is declared a receiver of {kind!r} in "
                        "WIRE_FORMATS but never calls "
                        f"register_handler({kind!r}, ...): the message "
                        "would raise in the dispatcher at simulation time",
                    )
                )
    return findings
