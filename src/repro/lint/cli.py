"""``simlint`` command line interface (also ``python -m repro.lint``).

Exit codes: 0 clean, 1 findings reported, 2 usage or I/O error (a
scanned file that does not parse included).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint.findings import render_json, render_text
from repro.lint.rules import RULES, is_known_rule
from repro.lint.runner import lint_paths

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description=(
            "Determinism & protocol-safety static analysis for the "
            "simulator (see docs/LINTING.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report (stable schema, for CI)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to report exclusively",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to drop from the report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _split_rules(raw: Optional[str], parser: argparse.ArgumentParser) -> Optional[List[str]]:
    if raw is None:
        return None
    rules = [r.strip() for r in raw.split(",") if r.strip()]
    unknown = [r for r in rules if not is_known_rule(r)]
    if unknown:
        parser.error(f"unknown rule id(s): {', '.join(unknown)}")
    return rules


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.id}  {rule.summary}")
        print("\nRationale and fixes per rule: docs/LINTING.md")
        return 0
    select = _split_rules(args.select, parser)
    ignore = _split_rules(args.ignore, parser)
    paths = args.paths or ["src/repro"]
    try:
        findings, files_scanned = lint_paths(paths, select=select, ignore=ignore)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"simlint: error: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(
            f"simlint: error: {exc.filename}:{exc.lineno}:{exc.offset}: "
            f"file does not parse: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(render_json(findings, files_scanned))
    elif findings:
        print(render_text(findings))
        print(
            f"\nsimlint: {len(findings)} finding(s) in {files_scanned} file(s)",
            file=sys.stderr,
        )
    else:
        print(f"simlint: clean ({files_scanned} file(s))", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
