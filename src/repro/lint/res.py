"""RES rules: path-sensitive resource-obligation tracking.

The simulator's resource layer hands out *obligations*:

* ``entry = res.hold(d)`` / ``held_chain(...)`` / ``hold_seq(...)``
  return an entry that must either complete (``yield entry``) or be
  cancelled (``res.hold_cancel(entry)`` / ``compound_cancel(entry)``)
  -- otherwise the queued slice leaks when an interrupt tears the
  process off the wait.
* ``req = res.request()`` is the same until the yield succeeds -- and
  *then* the unit is held and must be given back with
  ``res.release()`` on **every** path out of the function.  A request
  yielded directly (``yield res.request()``) is never bound, so no
  path can cancel it: it is always RES001 at the ``request()`` call,
  whatever ``try`` surrounds it (a ``finally: release()`` there would
  give back a unit the process was never granted).

The analysis runs the dataflow framework over the function's CFG.
Facts are ``(status, kind, receiver, line, col)`` tuples per tracked
name; ``status`` moves ``pending -> done`` (entry completed/cancelled)
or ``pending -> held -> done`` (request granted, then released).  The
CFG's ``"except"`` edges model interrupts thrown at suspension points, so a
``yield entry`` guarded by ``try/except BaseException: cancel; raise``
is clean while an unguarded one reaches the raise exit still pending.

Escapes are conservative: an obligation returned, yielded as a value
inside a container, stored into an attribute, or passed to any
function other than a cancel drops out of the analysis (no alias
tracking -- see docs/LINTING.md).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.cfg import CFGNode, build_cfg
from repro.lint.dataflow import State, run_dataflow
from repro.lint.findings import Finding

__all__ = ["ResAnalyzer"]

#: Acquisition helpers called as free functions.
_FREE_ACQUIRERS = {"held_chain": "held_chain", "hold_seq": "hold_seq"}
#: Cancel helpers called as free functions, one obligation argument.
_FREE_CANCELS = {"compound_cancel"}
#: Cancel methods: ``recv.hold_cancel(entry)`` / ``recv.cancel(entry)``.
_METHOD_CANCELS = {"hold_cancel", "cancel"}

_PENDING = "pending"
_HELD = "held"
_DONE = "done"

Fact = Tuple[str, str, str, int, int]  # (status, kind, receiver, line, col)


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return "<expr>"


def _effect_roots(stmt: ast.stmt) -> List[ast.AST]:
    """The parts of ``stmt`` whose effects happen *at this CFG node*.

    Compound statements (``try``/``if``/``while``/``with``/...) own
    only their header expression: their nested bodies are separate CFG
    nodes with their own transfers.  Walking the whole subtree here
    would apply, say, a ``finally:`` release at the ``try`` header --
    discharging the obligation before the body even runs.
    """
    if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
        return []
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    return [stmt]


def _walk_roots(roots: List[ast.AST]):
    """Walk every root, skipping the bodies of nested defs/lambdas."""
    for root in roots:
        stack = [root]
        while stack:
            sub = stack.pop()
            if sub is not root and isinstance(
                sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            yield sub
            stack.extend(reversed(list(ast.iter_child_nodes(sub))))


class ResAnalyzer:
    """Run the RES dataflow over every generator function of a module."""

    def __init__(self, path: str, tree: ast.AST):
        self.path = path
        self.tree = tree
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._is_generator(node):
                    _FunctionAnalysis(self.path, node, self.findings).run()
        self.findings.sort()
        return self.findings

    @staticmethod
    def _is_generator(func: ast.AST) -> bool:
        for sub in ast.walk(func):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                if sub is not func:
                    continue
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                owner = _owning_function(sub, func)
                if owner is func:
                    return True
        return False


def _owning_function(node: ast.AST, root: ast.AST) -> ast.AST:
    """The innermost function containing ``node`` (parent-map free).

    ``ast.walk`` has no parents, so ownership is recomputed by a scan:
    a yield belongs to ``root`` unless some nested def contains it.
    """
    for sub in ast.walk(root):
        if sub is root:
            continue
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(sub):
                if inner is node:
                    return sub
    return root


class _FunctionAnalysis:
    def __init__(self, path: str, func: ast.AST, findings: List[Finding]):
        self.path = path
        self.func = func
        self.findings = findings
        #: name -> (kind, receiver src) for ``h = res.hold`` style aliases.
        self.method_aliases: Dict[str, Tuple[str, str]] = {}
        self._collect_aliases()
        self._reported: Set[Tuple[int, int, str]] = set()

    def run(self) -> None:
        cfg = build_cfg(self.func)
        in_states = run_dataflow(cfg, self._transfer)
        # Collection pass: re-apply transfers against the fixpoint to
        # surface RES003 (double release) and overwrite leaks, then
        # inspect the exit states for RES001/RES002.
        for node in cfg.nodes:
            if node.stmt is None or node.node_id not in in_states:
                continue
            self._transfer(node, in_states[node.node_id], collect=True)
        self._check_exit(in_states.get(cfg.exit.node_id), interrupted=False)
        self._check_exit(in_states.get(cfg.raise_exit.node_id), interrupted=True)
        self._check_unbound_requests()

    # -- alias collection ----------------------------------------------

    def _collect_aliases(self) -> None:
        for stmt in ast.walk(self.func):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            value = stmt.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Attribute)
                and value.attr == "hold"
            ):
                self.method_aliases[target.id] = ("hold", _unparse(value.value))

    # -- fact plumbing --------------------------------------------------

    def _flag(self, line: int, col: int, rule: str, message: str) -> None:
        key = (line, col, rule)
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(Finding(self.path, line, col, rule, message))

    def _check_exit(self, state: Optional[State], interrupted: bool) -> None:
        if not state:
            return
        how = "an interrupt/exception path" if interrupted else "a normal path"
        for facts in state.values():
            for status, kind, receiver, line, col in sorted(facts):
                if status == _PENDING:
                    self._flag(
                        line,
                        col,
                        "RES001",
                        f"{kind} obligation can escape the function on "
                        f"{how} while still pending: guard the wait with "
                        "try/except BaseException and cancel "
                        "(hold_cancel/compound_cancel/cancel) before "
                        "re-raising",
                    )
                elif status == _HELD:
                    self._flag(
                        line,
                        col,
                        "RES002",
                        f"{kind} of {receiver!r} is not released on "
                        f"{how}: every exit after the grant must call "
                        f"{receiver}.release() (use try/finally)",
                    )

    def _check_unbound_requests(self) -> None:
        for sub in _walk_roots([self.func]):
            if not isinstance(sub, ast.Yield) or sub.value is None:
                continue
            acquired = self._acquisition_of(sub.value)
            if acquired is None or acquired[0] != "request":
                continue
            self._flag(
                sub.value.lineno,
                sub.value.col_offset,
                "RES001",
                f"{acquired[1]}.request() is yielded without being bound, "
                "so nothing can cancel it: an interrupt while it is queued "
                "leaks the unit.  Bind it and guard the wait with "
                "try/except BaseException: cancel; raise (or use acquire())",
            )

    # -- the transfer function ------------------------------------------

    def _transfer(
        self, node: CFGNode, state: State, collect: bool = False
    ) -> Tuple[State, State]:
        stmt = node.stmt
        assert stmt is not None
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return state, state

        normal: Dict[str, FrozenSet[Fact]] = dict(state)
        # The except edge sees cancel/release effects (bookkeeping calls
        # are modelled as non-raising) but not yield completions or new
        # acquisitions.
        exceptional: Dict[str, FrozenSet[Fact]] = dict(state)

        roots = _effect_roots(stmt)
        for call in self._calls(roots):
            self._apply_cancel(call, normal, exceptional, collect)
        self._apply_escapes(roots, normal, exceptional)
        self._apply_yield_completion(roots, normal)
        self._apply_acquisition(stmt, normal, collect)
        return normal, exceptional

    def _calls(self, roots: List[ast.AST]) -> List[ast.Call]:
        return [sub for sub in _walk_roots(roots) if isinstance(sub, ast.Call)]

    def _apply_cancel(
        self,
        call: ast.Call,
        normal: Dict[str, FrozenSet[Fact]],
        exceptional: Dict[str, FrozenSet[Fact]],
        collect: bool,
    ) -> None:
        func = call.func
        # Cancel of a tracked obligation variable.
        cancelled_var: Optional[str] = None
        if (
            isinstance(func, ast.Name)
            and func.id in _FREE_CANCELS
            and len(call.args) == 1
            and isinstance(call.args[0], ast.Name)
        ):
            cancelled_var = call.args[0].id
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _METHOD_CANCELS
            and len(call.args) == 1
            and isinstance(call.args[0], ast.Name)
        ):
            cancelled_var = call.args[0].id
        if cancelled_var is not None:
            key = f"var:{cancelled_var}"
            facts = normal.get(key)
            if facts:
                if collect and all(f[0] == _DONE for f in facts):
                    self._flag(
                        call.lineno,
                        call.col_offset,
                        "RES003",
                        f"{cancelled_var!r} is already completed or "
                        "cancelled on every path reaching this cancel; "
                        "a second cancel corrupts the resource queue",
                    )
                done = frozenset((_DONE, k, r, ln, c) for _s, k, r, ln, c in facts)
                normal[key] = done
                exceptional[key] = done
            return
        # recv.release(): discharge held obligations of that receiver.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "release"
            and not call.args
            and not call.keywords
        ):
            receiver = _unparse(func.value)
            for key, facts in list(normal.items()):
                if not any(f[2] == receiver for f in facts):
                    continue
                if collect and facts and all(f[0] == _DONE for f in facts):
                    self._flag(
                        call.lineno,
                        call.col_offset,
                        "RES003",
                        f"{receiver}.release() is reached with the unit "
                        "already released on every path; a double release "
                        "grants a unit that was never acquired",
                    )
                done = frozenset((_DONE, k, r, ln, c) for _s, k, r, ln, c in facts)
                normal[key] = done
                exceptional[key] = done

    def _apply_yield_completion(
        self, roots: List[ast.AST], normal: Dict[str, FrozenSet[Fact]]
    ) -> None:
        for sub in _walk_roots(roots):
            if not isinstance(sub, ast.Yield) or not isinstance(sub.value, ast.Name):
                continue
            key = f"var:{sub.value.id}"
            facts = normal.get(key)
            if not facts:
                continue
            moved = set()
            for status, kind, receiver, line, col in facts:
                if status == _PENDING:
                    # A completed request() wait holds the unit; a
                    # completed hold/chain entry is fully discharged.
                    status = _HELD if kind == "request" else _DONE
                moved.add((status, kind, receiver, line, col))
            normal[key] = frozenset(moved)

    def _apply_escapes(
        self,
        roots: List[ast.AST],
        normal: Dict[str, FrozenSet[Fact]],
        exceptional: Dict[str, FrozenSet[Fact]],
    ) -> None:
        escaped: Set[str] = set()
        for sub in _walk_roots(roots):
            # Returned or delegated: the caller owns the obligation now.
            if isinstance(sub, (ast.Return, ast.YieldFrom)):
                value = sub.value
                if value is not None:
                    for name in ast.walk(value):
                        if isinstance(name, ast.Name):
                            escaped.add(name.id)
            # Stored into an attribute/subscript: outlives the frame.
            if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                if any(
                    isinstance(t, (ast.Attribute, ast.Subscript)) for t in targets
                ):
                    for name in ast.walk(sub.value or ast.Pass()):
                        if isinstance(name, ast.Name):
                            escaped.add(name.id)
            # Passed to a non-cancel call: no alias tracking, drop it.
            if isinstance(sub, ast.Call):
                func_name = (
                    sub.func.attr
                    if isinstance(sub.func, ast.Attribute)
                    else sub.func.id
                    if isinstance(sub.func, ast.Name)
                    else None
                )
                if func_name in _FREE_CANCELS or func_name in _METHOD_CANCELS:
                    continue
                for arg in [*sub.args, *[k.value for k in sub.keywords]]:
                    for name in ast.walk(arg):
                        if isinstance(name, ast.Name):
                            escaped.add(name.id)
        for name in sorted(escaped):
            normal.pop(f"var:{name}", None)
            exceptional.pop(f"var:{name}", None)

    def _apply_acquisition(
        self, stmt: ast.stmt, normal: Dict[str, FrozenSet[Fact]], collect: bool
    ) -> None:
        # ``name = <acquisition call>``
        value: Optional[ast.expr]
        targets: List[ast.expr]
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value, targets = stmt.value, [stmt.target]
        else:
            return
        if len(targets) != 1 or not isinstance(targets[0], ast.Name):
            return
        acquired = self._acquisition_of(value)
        if acquired is None:
            return
        kind, receiver = acquired
        key = f"var:{targets[0].id}"
        old = normal.get(key)
        if collect and old and any(f[0] in (_PENDING, _HELD) for f in old):
            self._flag(
                value.lineno,
                value.col_offset,
                "RES001",
                f"{targets[0].id!r} is reassigned while a previous "
                f"{kind} obligation may still be pending; the old entry "
                "can no longer be cancelled",
            )
        normal[key] = frozenset(
            {(_PENDING, kind, receiver, value.lineno, value.col_offset)}
        )

    def _acquisition_of(self, value: ast.expr) -> Optional[Tuple[str, str]]:
        """(kind, receiver source) when ``value`` acquires an obligation."""
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        if isinstance(func, ast.Name):
            if func.id in _FREE_ACQUIRERS:
                return _FREE_ACQUIRERS[func.id], func.id
            alias = self.method_aliases.get(func.id)
            if alias is not None:
                return alias
            return None
        if isinstance(func, ast.Attribute):
            receiver = _unparse(func.value)
            if func.attr == "hold" and value.args:
                return "hold", receiver
            if func.attr == "request" and not value.args and not value.keywords:
                return "request", receiver
        return None
