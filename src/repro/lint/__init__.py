"""simlint: determinism & protocol-safety static analysis.

The repository's headline guarantee -- byte-identical results across
seeds, job counts and fresh interpreters -- is enforced dynamically by
golden snapshots and cross-process determinism tests.  ``simlint``
moves that verification left: an AST pass that catches the hazard
classes *before* a golden diff fires.  See docs/LINTING.md for the rule
catalog and the suppression policy.

Programmatic use::

    from repro.lint import lint_paths
    findings, files = lint_paths(["src/repro"])
"""

from repro.lint.analyzer import FileAnalyzer, Registry, build_registry
from repro.lint.cfg import CFG, CFGNode, build_cfg
from repro.lint.dataflow import merge_states, run_dataflow
from repro.lint.findings import JSON_SCHEMA_VERSION, Finding, render_json, render_text
from repro.lint.protocol import collect_wire_registry, msg_findings_for_file
from repro.lint.res import ResAnalyzer
from repro.lint.rules import RULES, Rule, is_known_rule
from repro.lint.runner import collect_files, lint_paths, lint_sources

__all__ = [
    "CFG",
    "CFGNode",
    "FileAnalyzer",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "Registry",
    "RULES",
    "ResAnalyzer",
    "Rule",
    "build_cfg",
    "build_registry",
    "collect_files",
    "collect_wire_registry",
    "is_known_rule",
    "lint_paths",
    "lint_sources",
    "merge_states",
    "msg_findings_for_file",
    "render_json",
    "render_text",
    "run_dataflow",
]
