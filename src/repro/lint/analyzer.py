"""AST analysis implementing the simlint rule set.

The analyzer runs in two passes:

* **Pass A** (:func:`build_registry`) scans *all* files under analysis
  and records, by name, which attributes and variables are declared as
  sets (``self.auth_nodes: Set[int]``, ``node.gem_auth = set()``),
  which dict attributes hold sets as values, and which functions are
  annotated to return sets.  Names are matched without receiver types
  -- a deliberate over-approximation: in a simulator whose core
  guarantee is determinism, anything *named* like a set is treated as
  one, and false positives are handled by ``sorted()`` or an explicit
  suppression.

* **Pass B** (:class:`FileAnalyzer`) walks each file with the global
  registry and emits findings for the DET rules and RNG001.

The rules are heuristics with precise, documented trigger conditions
(docs/LINTING.md); they are tuned to the idioms of this codebase.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.lint.findings import Finding

__all__ = ["Registry", "build_registry", "FileAnalyzer", "terminal_name"]


# --------------------------------------------------------------------------
# Annotation helpers
# --------------------------------------------------------------------------

_SET_TYPE_NAMES = {"Set", "FrozenSet", "set", "frozenset", "AbstractSet", "MutableSet"}
_DICT_TYPE_NAMES = {
    "Dict",
    "dict",
    "DefaultDict",
    "defaultdict",
    "Mapping",
    "MutableMapping",
    "OrderedDict",
}
_WRAPPER_TYPE_NAMES = {"Optional", "Union", "Final", "ClassVar", "Annotated"}

#: Builtins whose result does not depend on argument iteration order.
_ORDER_INSENSITIVE = {
    "sorted",
    "set",
    "frozenset",
    "len",
    "any",
    "all",
    "min",
    "max",
    "sum",
    "fsum",
}

_SET_METHOD_NAMES = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
}

#: time-module members that read the host wall clock.
_TIME_MEMBERS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "clock",
}

#: random-module classes that build a generator (RNG001, not DET002).
_RAW_GENERATORS = {"Random", "SystemRandom"}


def terminal_name(node: ast.AST) -> Optional[str]:
    """Rightmost identifier of a Name / Attribute chain, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _resolve_annotation(node: Optional[ast.AST]) -> Optional[ast.AST]:
    """Unquote string annotations so they can be inspected as AST."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    return node


def _is_set_annotation(node: Optional[ast.AST]) -> bool:
    node = _resolve_annotation(node)
    if node is None:
        return False
    name = terminal_name(node)
    if name in _SET_TYPE_NAMES:
        return True
    if isinstance(node, ast.Subscript):
        base = terminal_name(node.value)
        if base in _SET_TYPE_NAMES:
            return True
        if base in _WRAPPER_TYPE_NAMES:
            slice_node = node.slice
            args = (
                list(slice_node.elts)
                if isinstance(slice_node, ast.Tuple)
                else [slice_node]
            )
            return any(_is_set_annotation(arg) for arg in args)
    return False


def _is_dict_of_set_annotation(node: Optional[ast.AST]) -> bool:
    node = _resolve_annotation(node)
    if not isinstance(node, ast.Subscript):
        return False
    base = terminal_name(node.value)
    if base in _WRAPPER_TYPE_NAMES:
        slice_node = node.slice
        args = (
            list(slice_node.elts)
            if isinstance(slice_node, ast.Tuple)
            else [slice_node]
        )
        return any(_is_dict_of_set_annotation(arg) for arg in args)
    if base not in _DICT_TYPE_NAMES:
        return False
    slice_node = node.slice
    if isinstance(slice_node, ast.Tuple) and len(slice_node.elts) == 2:
        return _is_set_annotation(slice_node.elts[1])
    return False


# --------------------------------------------------------------------------
# Pass A: the cross-file registry
# --------------------------------------------------------------------------


@dataclass
class Registry:
    """Names known (from declarations anywhere in the tree) to be sets.

    Only *attribute* names (``self.auth_nodes: Set[int]``) and function
    names (``def waiting_for(...) -> Set[int]``) are shared across
    files: they name a stable API surface.  Bare variable names stay
    module-local (see :class:`FileAnalyzer`) -- a local ``nodes =
    set()`` in one module must not taint an unrelated ``cluster.nodes``
    list elsewhere.
    """

    set_attrs: Set[str] = field(default_factory=set)
    dict_of_set_attrs: Set[str] = field(default_factory=set)
    set_returning: Set[str] = field(default_factory=set)


class _RegistryCollector(ast.NodeVisitor):
    def __init__(self, registry: Registry):
        self.registry = registry

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Attribute):
            if _is_set_annotation(node.annotation):
                self.registry.set_attrs.add(node.target.attr)
            elif _is_dict_of_set_annotation(node.annotation):
                self.registry.dict_of_set_attrs.add(node.target.attr)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_display(node.value):
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    self.registry.set_attrs.add(target.attr)
        self.generic_visit(node)

    def _visit_function(self, node) -> None:
        if _is_set_annotation(node.returns):
            self.registry.set_returning.add(node.name)
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function


class _LocalNameCollector(ast.NodeVisitor):
    """Module-local variable names declared or assigned as sets."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()
        self.dict_of_set_names: Set[str] = set()

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            if _is_set_annotation(node.annotation):
                self.set_names.add(node.target.id)
            elif _is_dict_of_set_annotation(node.annotation):
                self.dict_of_set_names.add(node.target.id)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_display(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_names.add(target.id)
        self.generic_visit(node)

    def _visit_function(self, node) -> None:
        for arg in [*node.args.args, *node.args.kwonlyargs]:
            if _is_set_annotation(arg.annotation):
                self.set_names.add(arg.arg)
            elif _is_dict_of_set_annotation(arg.annotation):
                self.dict_of_set_names.add(arg.arg)
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function


def _is_set_display(node: ast.AST) -> bool:
    """A syntactic set constructor: ``{..}``, ``set(..)``, comprehension."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return terminal_name(node.func) in {"set", "frozenset"}
    return False


def build_registry(trees: Sequence[ast.AST]) -> Registry:
    """Collect set declarations across all parsed modules."""
    registry = Registry()
    collector = _RegistryCollector(registry)
    for tree in trees:
        collector.visit(tree)
    return registry


# --------------------------------------------------------------------------
# Pass B: per-file analysis
# --------------------------------------------------------------------------


class FileAnalyzer(ast.NodeVisitor):
    """Emit findings for one module, given the cross-file registry."""

    def __init__(self, path: str, tree: ast.AST, registry: Registry):
        self.path = path
        self.tree = tree
        self.registry = registry
        self.findings: List[Finding] = []
        #: module alias -> real module name ('import random as rnd').
        self.module_aliases: Dict[str, str] = {}
        #: local name -> random-module member ('from random import Random').
        self.random_imports: Dict[str, str] = {}
        local = _LocalNameCollector()
        local.visit(tree)
        self.set_names = local.set_names
        self.dict_of_set_names = local.dict_of_set_names
        #: The module defining the stream layer is exempt from RNG001.
        self.defines_stream_layer = False
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            if isinstance(parent, ast.ClassDef) and parent.name in {
                "Stream",
                "StreamRegistry",
            }:
                self.defines_stream_layer = True
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    # -- plumbing -------------------------------------------------------

    def run(self) -> List[Finding]:
        self.visit(self.tree)
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

    def _parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def _module_of(self, node: ast.AST) -> Optional[str]:
        """Real module name if ``node`` is a bare module reference."""
        if isinstance(node, ast.Name):
            return self.module_aliases.get(node.id)
        return None

    # -- set-typed expression inference --------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if _is_set_display(node):
            return True
        if isinstance(node, ast.IfExp):
            return self._is_set_expr(node.body) or self._is_set_expr(node.orelse)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Attribute):
            return node.attr in self.registry.set_attrs
        if isinstance(node, ast.Subscript):
            return self._is_dict_of_set(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            func_name = terminal_name(func)
            if func_name in {"set", "frozenset"}:
                return True
            if func_name in self.registry.set_returning:
                return True
            if isinstance(func, ast.Attribute):
                if func.attr in _SET_METHOD_NAMES and self._is_set_expr(func.value):
                    return True
                if func.attr == "copy" and self._is_set_expr(func.value):
                    return True
                if func.attr in {"get", "pop", "setdefault"}:
                    # dict-of-set lookup, or any lookup whose default
                    # argument is a set (``d.pop(k, set())``).
                    if self._is_dict_of_set(func.value):
                        return True
                    if len(node.args) >= 2 and self._is_set_expr(node.args[1]):
                        return True
            if func_name == "iter" and node.args:
                return self._is_set_expr(node.args[0])
        return False

    def _is_dict_of_set(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.dict_of_set_names
        if isinstance(node, ast.Attribute):
            return node.attr in self.registry.dict_of_set_attrs
        return False

    def _is_fs_listing(self, node: ast.AST) -> bool:
        """A call returning entries in OS-dependent order."""
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute):
            module = self._module_of(func.value)
            if module == "os" and func.attr in {"listdir", "scandir"}:
                return True
            if module == "glob" and func.attr in {"glob", "iglob"}:
                return True
            if func.attr in {"iterdir", "glob", "rglob", "scandir"}:
                return True
        elif isinstance(func, ast.Name):
            if func.id in {"listdir", "scandir", "iglob"}:
                return True
        return False

    def _is_unordered(self, node: ast.AST) -> bool:
        return self._is_set_expr(node) or self._is_fs_listing(node)

    def _order_insensitive_context(self, node: ast.AST) -> bool:
        """True if ``node`` is consumed where iteration order cannot matter."""
        parent = self._parent(node)
        if isinstance(parent, ast.Call) and node in parent.args:
            if terminal_name(parent.func) in _ORDER_INSENSITIVE:
                return True
        if isinstance(parent, ast.Compare):
            # Membership / equality tests are order-free.
            return True
        return False

    def _describe(self, node: ast.AST) -> str:
        name = terminal_name(node)
        if isinstance(node, ast.Call):
            name = terminal_name(node.func)
            return f"call to {name}()" if name else "call"
        return repr(name) if name else "expression"

    # -- imports (aliases, DET002 on from-imports) ----------------------

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
            bad = [a.name for a in node.names if a.name not in _RAW_GENERATORS]
            if bad:
                self._flag(
                    node,
                    "DET002",
                    f"import of global random state ({', '.join(bad)}); draw "
                    "from a seeded repro.sim.rng.Stream instead",
                )
        elif node.module == "time":
            bad = [a.name for a in node.names if a.name in _TIME_MEMBERS]
            if bad:
                self._flag(
                    node,
                    "DET002",
                    f"import of wall-clock function ({', '.join(bad)}); "
                    "simulation time must come from sim.now",
                )
        elif node.module == "uuid":
            self._flag(
                node,
                "DET002",
                "uuid identifiers are process-dependent; use explicit "
                "sequence numbers",
            )
        self.generic_visit(node)

    # -- DET001: unordered iteration ------------------------------------

    def _check_iteration(self, iter_node: ast.AST, where: ast.AST) -> None:
        if self._is_unordered(iter_node):
            self._flag(
                where,
                "DET001",
                f"iteration over unordered {self._describe(iter_node)}; "
                "wrap in sorted() with a total-order key",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def _check_comprehension(self, node) -> None:
        # Building a set from a set is order-free; everything else
        # materialises the arbitrary order (unless consumed by an
        # order-insensitive builtin such as sorted()).
        if isinstance(node, ast.SetComp):
            self.generic_visit(node)
            return
        if not self._order_insensitive_context(node):
            for generator in node.generators:
                self._check_iteration(generator.iter, node)
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    # -- calls: most rules trigger here ---------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        func_name = terminal_name(func)

        # DET001: arbitrary-element pick / order materialisation.
        if func_name == "iter" and node.args and self._is_set_expr(node.args[0]):
            self._flag(
                node,
                "DET001",
                "iter() over a set picks an arbitrary element; use "
                "min()/max() with a total-order key",
            )
        elif (
            func_name in {"list", "tuple"}
            and node.args
            and self._is_unordered(node.args[0])
            and not self._order_insensitive_context(node)
        ):
            self._flag(
                node,
                "DET001",
                f"{func_name}() materialises unordered "
                f"{self._describe(node.args[0])}; use sorted()",
            )
        elif func_name == "sum" and node.args and self._sums_unordered(node.args[0]):
            self._flag(
                node,
                "DET001",
                "sum() over an unordered iterable makes float totals "
                "order-dependent; sort first or use math.fsum",
            )
        elif self._is_fs_listing(node) and not self._order_insensitive_context(
            node
        ):
            parent = self._parent(node)
            inside_sorted = (
                isinstance(parent, ast.Call)
                and terminal_name(parent.func) == "sorted"
            )
            if not inside_sorted and not self._iterated_by_checked_node(node):
                self._flag(
                    node,
                    "DET001",
                    f"{self._describe(node)} returns entries in "
                    "OS-dependent order; wrap in sorted()",
                )

        # DET002: global randomness / wall clock / uuid; RNG001: raw
        # generators.
        if isinstance(func, ast.Attribute):
            module = self._module_of(func.value)
            if module == "random" and func.attr in _RAW_GENERATORS:
                self._flag_raw_generator(node, f"random.{func.attr}")
            elif module == "random":
                self._flag(
                    node,
                    "DET002",
                    f"random.{func.attr}() uses global, unseeded state; "
                    "draw from a seeded repro.sim.rng.Stream",
                )
            elif module == "time" and func.attr in _TIME_MEMBERS:
                self._flag(
                    node,
                    "DET002",
                    f"time.{func.attr}() reads the host wall clock; "
                    "simulated time must come from sim.now",
                )
            elif module == "uuid" and func.attr.startswith("uuid"):
                self._flag(
                    node,
                    "DET002",
                    f"uuid.{func.attr}() is process-dependent; use explicit "
                    "sequence numbers",
                )
            elif func.attr in {"utcnow", "now", "today"} and (
                module == "datetime"
                or terminal_name(func.value) in {"datetime", "date"}
            ):
                self._flag(
                    node,
                    "DET002",
                    f"{func.attr}() reads the host wall clock; simulation "
                    "results must not depend on it",
                )
        elif isinstance(func, ast.Name):
            member = self.random_imports.get(func.id)
            if member in _RAW_GENERATORS:
                self._flag_raw_generator(node, f"random.{member}")
            elif func.id == "Stream":
                self._flag_raw_generator(node, "Stream")

        # DET002: id()-based ordering.
        if func_name == "id" and isinstance(func, ast.Name) and node.args:
            if self._in_ordering_context(node):
                self._flag(
                    node,
                    "DET002",
                    "id() differs across interpreters; order by an explicit "
                    "sequence number instead",
                )

        self.generic_visit(node)

    def _sums_unordered(self, arg: ast.AST) -> bool:
        """Does ``sum(arg)`` add in set or OS order?

        ``sum(1 for ...)`` only counts: integers add associatively.
        """
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            elt = arg.elt
            if isinstance(elt, ast.Constant) and isinstance(elt.value, int):
                return False
            return any(self._is_unordered(g.iter) for g in arg.generators)
        return self._is_unordered(arg)

    def _flag_raw_generator(self, node: ast.Call, constructed: str) -> None:
        if not self.defines_stream_layer:
            self._flag(
                node,
                "RNG001",
                f"raw generator construction ({constructed}(...)); draw "
                "from a named per-purpose stream via "
                "StreamRegistry.stream(name) so seed derivation stays "
                "centralised",
            )

    def _iterated_by_checked_node(self, node: ast.AST) -> bool:
        """True when a For/comprehension already reports this iterable."""
        parent = self._parent(node)
        if isinstance(parent, (ast.For, ast.AsyncFor)) and parent.iter is node:
            return True
        if isinstance(parent, ast.comprehension) and parent.iter is node:
            return True
        return False

    def _in_ordering_context(self, node: ast.AST) -> bool:
        current: Optional[ast.AST] = node
        while current is not None:
            parent = self._parent(current)
            if isinstance(parent, ast.keyword) and parent.arg == "key":
                return True
            if isinstance(parent, ast.Compare):
                return True
            if isinstance(parent, ast.Call):
                name = terminal_name(parent.func)
                if name in {"heappush", "heappushpop", "heapreplace"}:
                    return True
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            current = parent
        return False
