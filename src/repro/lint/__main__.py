"""CLI entry point: ``python -m repro.lint [PATHS ...]``.

Exit status: 0 when the tree is clean (no unsuppressed findings), 1 when
findings remain, 2 on usage errors — including a ``--select`` naming an
unknown rule or selecting nothing at all.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from . import ALL_RULES, UNSUPPRESSABLE, run_lint


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant linter for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/ if it exists, "
        "else the current directory)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the machine-readable report to PATH "
        "(parent directories are created)",
    )
    parser.add_argument(
        "--select",
        metavar="RULE[,RULE...]",
        help="run only the named rules (parse/pragma built-ins always run)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print analysis statistics (files, functions, call edges, "
        "slowest rules)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also print suppressed findings with their justifications",
    )
    return parser


def _list_rules() -> str:
    width = max(len(name) for name in ALL_RULES)
    lines = []
    for name, rule in ALL_RULES.items():
        tag = "  [built-in, unsuppressable]" if name in UNSUPPRESSABLE else ""
        lines.append(f"{name.ljust(width)}  {rule.description}{tag}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    select = (
        [s.strip() for s in args.select.split(",") if s.strip()]
        if args.select is not None
        else None
    )
    if select is not None and not select:
        print(
            "error: --select named no rules (see --list-rules)",
            file=sys.stderr,
        )
        return 2
    try:
        report = run_lint(paths, select=select)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(report.render(verbose=args.verbose, show_stats=args.stats))
    if args.json:
        out = report.write_json(args.json)
        print(f"json report: {out}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
