"""File collection and the two-pass lint driver."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.lint.analyzer import FileAnalyzer, build_registry
from repro.lint.findings import Finding
from repro.lint.protocol import (
    collect_wire_registry,
    msg_cross_file_findings,
    msg_findings_for_file,
)
from repro.lint.res import ResAnalyzer
from repro.lint.suppressions import parse_suppressions

__all__ = ["collect_files", "lint_paths", "lint_sources"]


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Python files under ``paths``, in deterministic (sorted) order."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {raw}")
    seen = set()
    unique: List[Path] = []
    for path in files:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def lint_sources(
    sources: Iterable[Tuple[str, str]],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], int]:
    """Lint ``(path, source)`` pairs; returns (findings, files scanned).

    Pass A parses everything and builds the cross-file set registry;
    pass B analyses each file against it.  Suppression comments filter
    findings per line; malformed suppressions surface as SUP001.  A
    file that does not parse raises ``SyntaxError``: nothing in it was
    analysed, so no rule selection may report it clean.
    """
    parsed = [
        (path, source, ast.parse(source, filename=path)) for path, source in sources
    ]
    registry = build_registry([tree for _, _, tree in parsed])
    wire_registry = collect_wire_registry([(p, t) for p, _, t in parsed])
    tables = {}
    findings: List[Finding] = []
    for path, source, tree in parsed:
        raw = FileAnalyzer(path, tree, registry).run()
        raw.extend(ResAnalyzer(path, tree).run())
        raw.extend(msg_findings_for_file(path, tree, wire_registry))
        table = parse_suppressions(source, path)
        tables[path] = table
        findings.extend(table.errors)
        findings.extend(
            f for f in raw if not table.is_suppressed(f.line, f.rule)
        )
    # Cross-file handler-coverage findings attach to the class-def site;
    # that file's suppression table still applies.
    for finding in msg_cross_file_findings(wire_registry):
        table = tables.get(finding.path)
        if table is None or not table.is_suppressed(finding.line, finding.rule):
            findings.append(finding)
    if select:
        wanted = set(select)
        findings = [f for f in findings if f.rule in wanted]
    if ignore:
        unwanted = set(ignore)
        findings = [f for f in findings if f.rule not in unwanted]
    return sorted(findings), len(parsed)


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], int]:
    """Collect files under ``paths`` and lint them."""
    files = collect_files(paths)
    sources = [(str(path), path.read_text(encoding="utf-8")) for path in files]
    return lint_sources(sources, select=select, ignore=ignore)
