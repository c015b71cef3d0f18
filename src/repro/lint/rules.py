"""The rule registry: the stack's invariants as AST checks.

This module holds the per-file rules and the built-in meta-rules; the
call-graph rules live in :mod:`~repro.lint.domains`
(``no-blocking-in-async``, ``coordinator-only``),
:mod:`~repro.lint.taint` (``pickle-boundary``) and
:mod:`~repro.lint.locks` (``lock-order``).  Each rule class documents
the contract it enforces.  Rules are deliberately heuristic — they key
on the project's own naming conventions (``ckey``, ``*pool*.submit``,
``lease_shared``) rather than attempting type inference — and every
rule except the built-in ``parse``/``pragma`` meta-rules can be
suppressed per-line with a justified pragma::

    # repro-lint: disable=rule-name -- one-line reason it is safe
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .base import Rule
from .callgraph import last_name, walk_scope
from .model import Finding, Project, SourceFile

__all__ = ["ALL_RULES", "Rule", "UNSUPPRESSABLE"]

# Findings from these rules cannot be pragma-suppressed: the first is a
# broken file, the second polices the pragmas themselves.
UNSUPPRESSABLE = frozenset({"parse", "pragma"})


# --------------------------------------------------------------------------
# shared AST helpers


def _contains_name(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == name for n in ast.walk(node)
    )


def _func_scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """The module plus every (async) function definition in it."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# --------------------------------------------------------------------------
# R2


class LeaseLifecycle(Rule):
    """Shared-memory leases and pool checkouts must have an owner.

    Invariant (PRs 1–3): ``lease_shared()`` / ``SharedStoreLease(...)``
    pin POSIX shared-memory segments and
    ``*.acquire(...)`` checks a resource out of its pool; each
    result must be bound into a ``with`` block, released/closed in the
    binding scope, handed to another call or object that owns its close
    path, returned/yielded to the caller, or referenced from a
    ``try/finally``.  A bare-expression acquisition (or a binding with
    none of those escape paths) leaks the segment until interpreter
    exit — on real networks that is hundreds of MB of /dev/shm.
    The escape analysis is per-scope and name-based, so exotic flows
    (rebinding through containers, conditional aliasing) may need a
    justified pragma.
    """

    name = "lease-lifecycle"

    _ACQUIRE_ATTRS = frozenset({"lease_shared", "acquire"})
    _CLOSERS = frozenset(
        {"close", "release", "unlink", "shutdown", "terminate", "detach", "free"}
    )

    def _is_acquisition(self, node: ast.AST) -> str | None:
        if not isinstance(node, ast.Call):
            return None
        name = last_name(node.func)
        if name in self._ACQUIRE_ATTRS or name == "SharedStoreLease":
            return name
        return None

    def run(self, project: Project) -> Iterator[Finding]:
        for file in project:
            if file.tree is None:
                continue
            for scope in _func_scopes(file.tree):
                yield from self._check_scope(file, scope)

    def _check_scope(self, file: SourceFile, scope: ast.AST) -> Iterator[Finding]:
        body = list(getattr(scope, "body", []))
        nodes = list(walk_scope(body))
        for node in nodes:
            if isinstance(node, ast.Expr):
                name = self._is_acquisition(node.value)
                if name is not None:
                    yield self.finding(
                        file, node,
                        f"result of {name}(...) discarded — bind it and "
                        "release it (with block, try/finally, or owner object)",
                    )
            elif isinstance(node, ast.Assign):
                acq = self._is_acquisition(node.value)
                if acq is None:
                    continue
                if len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue  # stored on an object/container that owns it
                if not isinstance(target, ast.Name):
                    continue
                if not self._escapes(nodes, node, target.id):
                    yield self.finding(
                        file, node,
                        f"'{target.id}' = {acq}(...) is never entered, "
                        "released, returned, stored, or passed on in this "
                        "scope — the lease/checkout leaks",
                    )

    def _escapes(
        self, nodes: list[ast.AST], assign: ast.Assign, name: str
    ) -> bool:
        for node in nodes:
            if isinstance(node, ast.withitem) and _contains_name(
                node.context_expr, name
            ):
                return True
            if isinstance(node, ast.Call) and node is not assign.value:
                if any(_contains_name(a, name) for a in node.args):
                    return True
                if any(_contains_name(k.value, name) for k in node.keywords):
                    return True
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._CLOSERS
                    and _contains_name(node.func.value, name)
                ):
                    return True
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None and _contains_name(node.value, name):
                    return True
            if isinstance(node, ast.Assign) and node is not assign:
                if any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in node.targets
                ) and _contains_name(node.value, name):
                    return True
            if isinstance(node, ast.Try) and any(
                _contains_name(s, name) for s in node.finalbody
            ):
                return True
        return False


# --------------------------------------------------------------------------
# R5


class CkeyLayout(Rule):
    """Integer subscripts into canonical-key tuples are forbidden
    outside ``repro/core/miner.py``.

    Invariant (PR 2, frozen in PRs 5–6): the canonical key —
    ``MinerConfig.canonical_key`` — is the stack-wide cache/dedup
    identity, and its field order is decoded by delta migration.
    Positional pokes like ``ckey[4]`` scattered across layers make the
    layout impossible to evolve; all decoding must go through
    ``config_from_canonical_key`` in the layout-owning module.
    Detection is name-based: subscripts with a literal integer index
    (or slice) on names matching ``ckey``/``canonical_key`` (with
    ``*_``/``_*`` variants) or on a direct ``.canonical_key`` call
    result.
    """

    name = "ckey-layout"

    _ALLOWED = frozenset({"repro/core/miner.py"})

    @staticmethod
    def _is_ckey_name(name: str) -> bool:
        return (
            name in ("ckey", "canonical_key")
            or name.endswith(("_ckey", "_canonical_key"))
            or name.startswith("ckey_")
        )

    def _is_ckey_base(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return self._is_ckey_name(node.id)
        if isinstance(node, ast.Attribute):
            return self._is_ckey_name(node.attr)
        if isinstance(node, ast.Call):
            return last_name(node.func) == "canonical_key"
        return False

    @staticmethod
    def _is_int_index(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return True
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, int)
        ):
            return True
        if isinstance(node, ast.Slice):
            bounds = [b for b in (node.lower, node.upper) if b is not None]
            return bool(bounds) and all(
                CkeyLayout._is_int_index(b) for b in bounds
            )
        return False

    def run(self, project: Project) -> Iterator[Finding]:
        for file in project:
            if file.tree is None or file.rel in self._ALLOWED:
                continue
            for node in ast.walk(file.tree):
                if (
                    isinstance(node, ast.Subscript)
                    and self._is_ckey_base(node.value)
                    and self._is_int_index(node.slice)
                ):
                    yield self.finding(
                        file, node,
                        "integer subscript into a canonical key outside the "
                        "layout-owning module; use config_from_canonical_key",
                    )


# --------------------------------------------------------------------------
# R6


class SwallowedException(Rule):
    """A broad handler in ``repro/parallel/``, ``repro/serve/`` or
    ``repro/engine/`` must re-raise or read the exception it caught.

    Invariant (PRs 1 and 4): worker, scheduler and engine failures must
    re-raise, log, record, or degrade explicitly — a silently swallowed
    broad exception in the fleet, the serving loop or a cache migration
    turns a crashed shard into a hung job, a wrong (partial) answer or
    a silent purge.  So a bare ``except:`` or ``except Exception`` /
    ``BaseException`` handler fires unless its body raises or reads the
    name it bound the exception to: ``except Exception: pass`` fires,
    and so does ``except Exception: status = "fallback"``.  Narrow
    except clauses (``except FileNotFoundError: pass``) are fine.
    Genuine best-effort sites must carry a justified pragma.
    """

    name = "swallowed-exception"

    _BROAD = frozenset({"Exception", "BaseException"})

    def _is_broad(self, h: ast.ExceptHandler) -> bool:
        if h.type is None:
            return True
        types = h.type.elts if isinstance(h.type, ast.Tuple) else [h.type]
        return any(
            isinstance(t, ast.Name) and t.id in self._BROAD for t in types
        )

    @staticmethod
    def _handles(h: ast.ExceptHandler) -> bool:
        """Whether the body re-raises or reads the caught exception."""
        for stmt in h.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise) or (
                    isinstance(node, ast.Name)
                    and node.id == h.name
                    and isinstance(node.ctx, ast.Load)
                ):
                    return True
        return False

    def run(self, project: Project) -> Iterator[Finding]:
        for file in project.files_under(
            "repro/parallel/", "repro/serve/", "repro/engine/"
        ):
            if file.tree is None:
                continue
            for node in ast.walk(file.tree):
                if (
                    isinstance(node, ast.ExceptHandler)
                    and self._is_broad(node)
                    and not self._handles(node)
                ):
                    what = "bare except" if node.type is None else "broad except"
                    yield self.finding(
                        file, node,
                        f"{what} that neither re-raises nor reads the error it "
                        "caught — re-raise, log, or record the failure (or "
                        "pragma with a justification)",
                    )


# --------------------------------------------------------------------------
# built-in meta-rules


class ParseFailure(Rule):
    """A file the linter cannot parse is itself a finding.

    Built-in, unsuppressable: every rule silently skips unparseable
    files, so without this the brokenest file would be the cleanest.
    """

    name = "parse"

    def run(self, project: Project) -> Iterator[Finding]:
        for file in project:
            if file.error is not None:
                yield Finding(
                    rule=self.name,
                    path=file.display,
                    line=file.error.lineno or 1,
                    col=(file.error.offset or 1) - 1,
                    message=f"syntax error: {file.error.msg}",
                )


class PragmaHygiene(Rule):
    """Every suppression pragma must name known rules, carry a
    ``-- justification``, and suppress a finding.

    Built-in, unsuppressable: the acceptance bar for this tool is that
    every shipped suppression is a reviewed, written-down decision —
    an unexplained, misspelled, or stale pragma is silent rot.  A
    pragma is stale when it suppressed nothing in a run where every
    rule it names ran (see :meth:`stale`): the finding it was written
    for moved or no longer exists.
    """

    name = "pragma"

    def run(self, project: Project) -> Iterator[Finding]:
        known = set(ALL_RULES)
        for file in project:
            for pragma in file.pragmas.values():
                loc = dict(rule=self.name, path=file.display, line=pragma.line, col=0)
                if not pragma.rules:
                    yield Finding(
                        message="pragma names no rules "
                        "(use disable=rule[,rule...])",
                        **loc,
                    )
                for rule in pragma.rules:
                    if rule not in known:
                        yield Finding(
                            message=f"pragma names unknown rule '{rule}'",
                            **loc,
                        )
                if not pragma.justification:
                    yield Finding(
                        message="pragma is missing its '-- justification'",
                        **loc,
                    )

    def stale(
        self,
        project: Project,
        used: set[tuple[str, int]],
        ran: Iterable[str],
    ) -> Iterator[Finding]:
        """Pragmas that suppressed nothing although every rule they name
        ran; ``used`` holds the ``(path, line)`` of each pragma that
        suppressed a finding."""
        ran = set(ran)
        for file in project:
            for pragma in file.pragmas.values():
                if (
                    pragma.rules
                    and ran.issuperset(pragma.rules)
                    and (file.display, pragma.line) not in used
                ):
                    yield Finding(
                        rule=self.name, path=file.display, line=pragma.line,
                        col=0,
                        message=(
                            "pragma suppresses nothing: no "
                            f"{', '.join(pragma.rules)} finding on the line "
                            "it governs — delete it"
                        ),
                    )


from .domains import CoordinatorOwnership, NoBlockingInAsync  # noqa: E402
from .locks import LockOrder  # noqa: E402
from .taint import PickleBoundary  # noqa: E402

ALL_RULES: dict[str, Rule] = {
    rule.name: rule
    for rule in (
        NoBlockingInAsync(),
        LeaseLifecycle(),
        CoordinatorOwnership(),
        PickleBoundary(),
        CkeyLayout(),
        SwallowedException(),
        LockOrder(),
        ParseFailure(),
        PragmaHygiene(),
    )
}

