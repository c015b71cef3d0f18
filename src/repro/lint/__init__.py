"""repro.lint — AST-based invariant linter for this codebase (PR 8).

Seven PRs grew the reproduction into a multi-layer concurrent system
whose correctness rests on conventions a type checker cannot see: one
coordinator thread owns the engine internals, shared-memory leases and
pool checkouts must be released, shard tasks must pickle, the canonical
cache-key layout is frozen, and worker errors must never be silently
swallowed.  This package turns those conventions into machine-checked
rules (stdlib :mod:`ast` only — no new dependencies) so they fail at
review time instead of under production load.

The checks are a whole-program analysis on one shared symbol table and
conservative call graph (:mod:`repro.lint.callgraph`), one rule per
invariant: event-loop reachability (:mod:`repro.lint.domains`),
lock-order cycle detection (:mod:`repro.lint.locks`), and
pickle-boundary taint tracking (:mod:`repro.lint.taint`) — so the
coordinator-ownership, blocking and pickle rules see across files, not
just local call sites.

Usage::

    python -m repro.lint [PATHS ...]      # default: src/
    python -m repro.lint --list-rules
    python -m repro.lint --json out.json --stats --verbose src/

Findings are suppressed per-line with a justified pragma::

    risky()  # repro-lint: disable=rule-name -- why this one is safe

The programmatic entry point is :func:`run_lint`; rules live in
:mod:`repro.lint.rules`, the data model in :mod:`repro.lint.model`,
reporters in :mod:`repro.lint.report`.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

from .model import Finding, Pragma, Project, SourceFile, load_project
from .report import LintReport
from .rules import ALL_RULES, UNSUPPRESSABLE, Rule

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintReport",
    "Pragma",
    "Project",
    "Rule",
    "SourceFile",
    "UNSUPPRESSABLE",
    "load_project",
    "run_lint",
]


def run_lint(
    paths: Iterable[str | Path],
    select: Sequence[str] | None = None,
) -> LintReport:
    """Lint every ``*.py`` under ``paths`` and resolve suppressions.

    ``select`` restricts the run to the named rules (the ``parse`` and
    ``pragma`` built-ins always run; their findings are unsuppressable).
    Raises :class:`KeyError` for an unknown rule name.  After every rule
    ran, ``pragma`` also reports each pragma that suppressed nothing.
    """
    import time

    project = load_project(paths)
    if select is None:
        names = list(ALL_RULES)
    else:
        unknown = [n for n in select if n not in ALL_RULES]
        if unknown:
            raise KeyError(f"unknown rule(s): {', '.join(unknown)}")
        names = list(dict.fromkeys(list(select) + sorted(UNSUPPRESSABLE)))

    by_display = {f.display: f for f in project}
    used: set[tuple[str, int]] = set()  # (path, line) of pragmas that fired
    report = LintReport(files_checked=len(project.files), rules_run=names)
    timings: dict[str, float] = {}
    for name in names:
        started = time.perf_counter()
        for finding in ALL_RULES[name].run(project):
            file = by_display.get(finding.path)
            pragma = (
                file.pragma_for(finding.line) if file is not None else None
            )
            if (
                pragma is not None
                and finding.rule in pragma.rules
                and finding.rule not in UNSUPPRESSABLE
            ):
                used.add((finding.path, pragma.line))
                report.suppressed.append(
                    replace(finding, justification=pragma.justification)
                )
            else:
                report.findings.append(finding)
        timings[name] = time.perf_counter() - started
    report.findings.extend(ALL_RULES["pragma"].stale(project, used, names))
    analysis = project._analysis  # populated only if a rule needed it
    report.stats = {
        **(analysis.stats() if analysis is not None else
           {"files": len(project.files)}),
        "rule_seconds": {
            name: round(secs, 4) for name, secs in timings.items()
        },
    }
    return report
