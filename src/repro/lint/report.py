"""Human and JSON reporters for lint results.

JSON schema history:

``schema_version: 1``
    ``ok`` / ``rules`` / ``findings`` / ``suppressed`` / ``summary``.
``schema_version: 2`` (PR 10)
    Adds ``stats`` — file/function/call-edge counts from the shared
    program analysis plus per-rule wall-clock timings
    (``rule_seconds``) — and ``baselined``.
``schema_version: 3``
    Drops ``baselined`` and ``summary.baselined`` with the
    ``--baseline`` flag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .model import Finding
from .rules import ALL_RULES

__all__ = ["LintReport", "sorted_findings"]

SCHEMA_VERSION = 3


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)  # active
    suppressed: list[Finding] = field(default_factory=list)  # pragma'd
    files_checked: int = 0
    rules_run: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self, verbose: bool = False, show_stats: bool = False) -> str:
        """The human-readable report (one ``path:line:col`` per line)."""
        lines = [f.format() for f in sorted_findings(self.findings)]
        if verbose:
            lines.extend(
                f"{f.format()}  [suppressed: {f.justification}]"
                for f in sorted_findings(self.suppressed)
            )
        noun = "finding" if len(self.findings) == 1 else "findings"
        lines.append(
            f"{len(self.findings)} {noun} "
            f"({len(self.suppressed)} suppressed) in "
            f"{self.files_checked} files, "
            f"{len(self.rules_run)} rules"
        )
        if show_stats and self.stats:
            timings = self.stats.get("rule_seconds", {})
            slowest = sorted(timings.items(), key=lambda kv: -kv[1])[:3]
            parts = [
                f"files={self.stats.get('files', self.files_checked)}",
                f"functions={self.stats.get('functions', 0)}",
                f"call_edges={self.stats.get('call_edges', 0)}",
                f"analysis={self.stats.get('build_seconds', 0.0):.3f}s",
            ]
            parts.extend(f"{name}={secs:.3f}s" for name, secs in slowest)
            lines.append("stats: " + " ".join(parts))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "ok": self.ok,
            "rules": [
                {"name": name, "description": ALL_RULES[name].description}
                for name in self.rules_run
            ],
            "findings": [f.to_dict() for f in sorted_findings(self.findings)],
            "suppressed": [
                f.to_dict() for f in sorted_findings(self.suppressed)
            ],
            "summary": {
                "files_checked": self.files_checked,
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
            },
            "stats": self.stats,
        }

    def write_json(self, path: str | Path) -> Path:
        """Write the JSON report, creating parent directories."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        return out


def sorted_findings(findings: list[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
