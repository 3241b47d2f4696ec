"""RNG rules: stream discipline for reproducible randomness.

Every random draw in the simulator must come from a *named,
per-purpose* stream (:meth:`repro.sim.rng.StreamRegistry.stream`):
the name feeds a seed derivation, so adding a consumer never perturbs
the draws of existing ones, and replicates are bit-identical however
the sweep is parallelised.

* **RNG001** -- a raw generator is constructed outside the stream
  layer: ``random.Random(...)`` / ``SystemRandom`` or a direct
  ``Stream(...)`` call.  Ad-hoc generators either share global state
  or invent seeds, both of which break cross-run identity.  (The
  module that *defines* ``Stream``/``StreamRegistry`` is exempt -- it
  is the stream layer.)
* **RNG002** -- a stream draw sits inside a conditional guarded by
  cross-replicate state (worker counts, environment variables, host
  identity).  Even though the draw itself is seeded, making *whether*
  it happens depend on ``--jobs`` desynchronises the stream between
  ``--jobs 1`` and ``--jobs 4`` runs -- the exact class of bug the
  per-purpose streams exist to prevent.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.lint.findings import Finding

__all__ = ["RngAnalyzer"]

#: Draw methods of repro.sim.rng.Stream (and its bound draws).
_DRAW_METHODS = {
    "random",
    "getrandbits",
    "uniform",
    "exponential",
    "expovariate",
    "randint",
    "choice",
    "shuffle",
    "bernoulli",
    "weighted_index",
    "geometric",
    "zipf",
}

#: Identifier fragments that mark a value as cross-replicate state:
#: process/worker topology, environment, host identity -- anything
#: that differs between a ``--jobs 1`` and a ``--jobs 4`` run of the
#: same replicate.
_REPLICATE_VARIANT_FRAGMENTS = (
    "jobs",
    "worker",
    "nproc",
    "cpu_count",
    "environ",
    "getenv",
    "getpid",
    "hostname",
    "thread",
)


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _mentions_stream(node: ast.AST) -> bool:
    """Does the receiver expression look like a stream/rng object?"""
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is not None:
            lowered = name.lower()
            if "stream" in lowered or "rng" in lowered or lowered == "rnd":
                return True
    return False


def _is_replicate_variant(test: ast.AST) -> bool:
    for sub in ast.walk(test):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is not None:
            lowered = name.lower()
            if any(frag in lowered for frag in _REPLICATE_VARIANT_FRAGMENTS):
                return True
    return False


class RngAnalyzer(ast.NodeVisitor):
    """Emit RNG findings for one module."""

    def __init__(self, path: str, tree: ast.AST):
        self.path = path
        self.tree = tree
        self.findings: List[Finding] = []
        self.module_aliases: Dict[str, str] = {}
        self.random_imports: Dict[str, str] = {}  # local name -> random member
        #: Local aliases of bound stream draw methods
        #: (``rnd = cpu.stream.random``).
        self.draw_aliases: Dict[str, str] = {}
        #: The stream layer itself is exempt from RNG001.
        self.defines_stream_layer = any(
            isinstance(node, ast.ClassDef)
            and node.name in {"Stream", "StreamRegistry"}
            for node in ast.walk(tree)
        )
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def run(self) -> List[Finding]:
        self.visit(self.tree)
        self.findings.sort()
        return self.findings

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(
                self.path,
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                rule,
                message,
            )
        )

    # -- imports and aliases --------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                self.random_imports[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in _DRAW_METHODS
            and _mentions_stream(node.value)
        ):
            self.draw_aliases[node.targets[0].id] = node.value.attr
        self.generic_visit(node)

    # -- RNG001 / RNG002 ------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_raw_generator(node)
        self._check_guarded_draw(node)
        self.generic_visit(node)

    def _check_raw_generator(self, node: ast.Call) -> None:
        if self.defines_stream_layer:
            return
        func = node.func
        constructed: Optional[str] = None
        if isinstance(func, ast.Attribute):
            module = self.module_aliases.get(
                func.value.id if isinstance(func.value, ast.Name) else ""
            )
            if module == "random" and func.attr in {"Random", "SystemRandom"}:
                constructed = f"random.{func.attr}"
        elif isinstance(func, ast.Name):
            member = self.random_imports.get(func.id)
            if member in {"Random", "SystemRandom"}:
                constructed = f"random.{member}"
            elif func.id == "Stream":
                constructed = "Stream"
        if constructed is not None:
            self._flag(
                node,
                "RNG001",
                f"raw generator construction ({constructed}(...)); draw "
                "from a named per-purpose stream via "
                "StreamRegistry.stream(name) so seed derivation stays "
                "centralised",
            )

    def _check_guarded_draw(self, node: ast.Call) -> None:
        func = node.func
        is_draw = False
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _DRAW_METHODS
            and _mentions_stream(func.value)
        ):
            is_draw = True
        elif isinstance(func, ast.Name) and func.id in self.draw_aliases:
            is_draw = True
        if not is_draw:
            return
        current: Optional[ast.AST] = node
        while current is not None:
            parent = self._parents.get(current)
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            if isinstance(parent, (ast.If, ast.While)) and (
                current in parent.body or current in parent.orelse
            ):
                if _is_replicate_variant(parent.test):
                    self._flag(
                        node,
                        "RNG002",
                        "stream draw guarded by cross-replicate state: "
                        "whether this draw happens depends on worker/"
                        "host configuration, desynchronising the stream "
                        "between --jobs 1 and --jobs N runs",
                    )
                    return
            current = parent
