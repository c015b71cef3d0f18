"""Lock-order analysis: the ``lock-order`` rule.

Collects every lock the project creates (``self.x = threading.Lock()``
/ ``RLock()`` — identity is ``(enclosing class, attribute)``; plus
module-level ``x = threading.Lock()`` — identity ``(module, name)``),
every acquisition site (``with lock:`` bodies and ``lock.acquire()``
calls), and the *held-across* relation: while holding lock A, a
function acquires lock B either directly or through any synchronous
call chain (closure over the shared call graph).  Edges ``A → B`` form
the global lock-order graph; a cycle means two threads can acquire the
participating locks in opposite orders — a potential deadlock.  A
self-cycle (re-acquiring the same lock while holding it) is reported
only for plain ``Lock``s: an ``RLock`` is re-entrant by design, which
is exactly why the engine cache uses one.

Lock identity resolution: ``with self._lock:`` inside class ``C``
binds to the lock created in ``C`` (or a base/subclass of ``C``); an
acquisition on a receiver the analysis cannot type (``other._lock``)
gets a per-attribute-name bucket so unrelated objects' locks are not
merged into false cycles.

Soundness envelope: acquisitions through aliases (``l = self._lock;
with l:``), locks stored in containers, and ``acquire``/``release``
pairs split across functions are not tracked; the closure follows only
synchronous ``call``/``partial`` edges, so a lock held across a
*dispatch* (``_run_coord``, executor futures that the caller then
blocks on) is invisible.  Conversely the conservative call graph may
close over chains no real execution takes — a reported cycle is a
"review this ordering", not a proof of deadlock.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import Rule
from .callgraph import FunctionInfo, ProgramAnalysis, dotted, walk_scope
from .model import Finding, Project

__all__ = ["LockOrder"]

_LOCK_CTORS = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "lock",
    "Semaphore": "lock",
    "BoundedSemaphore": "lock",
}

#: A lock identity: ("cls", class name, attr) / ("mod", module, name) /
#: ("attr", "?", attr) for untyped receivers.
LockId = tuple[str, str, str]


def _lock_kind(node: ast.AST) -> str | None:
    """'lock' / 'rlock' when ``node`` constructs a threading lock."""
    if not isinstance(node, ast.Call):
        return None
    d = dotted(node.func)
    if d is None:
        return None
    parts = d.split(".")
    if parts[0] in ("threading", "multiprocessing", "mp") or len(parts) == 1:
        return _LOCK_CTORS.get(parts[-1])
    return None


class _LockTable:
    """Every lock creation in the project, keyed by identity."""

    def __init__(self, analysis: ProgramAnalysis):
        self.kinds: dict[LockId, str] = {}
        # module bodies last: a module-level lock wins a name clash
        infos = sorted(
            analysis.functions.values(), key=lambda f: f.name == "<module>"
        )
        for info in infos:
            for node in walk_scope(info.node.body):
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                kind = _lock_kind(node.value)
                if kind is None:
                    continue
                target = node.targets[0]
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and info.cls is not None
                ):
                    lock_id: LockId = ("cls", info.cls, target.attr)
                elif isinstance(target, ast.Name):
                    lock_id = ("mod", info.module, target.id)
                else:
                    continue
                self.kinds[lock_id] = kind

    def resolve(
        self, analysis: ProgramAnalysis, info: FunctionInfo, expr: ast.AST
    ) -> LockId | None:
        """The identity of the lock object ``expr`` refers to, or None
        when ``expr`` does not look like a lock at all."""
        d = dotted(expr)
        if d is None:
            return None
        parts = d.split(".")
        attr = parts[-1]
        if parts[0] == "self" and len(parts) == 2 and info.cls is not None:
            for cls in analysis.related_classes(info.cls):
                lock_id: LockId = ("cls", cls, attr)
                if lock_id in self.kinds:
                    return lock_id
            # self.<attr> with no recorded creation: treat as a
            # class-private lock of unknown kind.
            if "lock" in attr.lower():
                return ("cls", info.cls, attr)
            return None
        if len(parts) == 1:
            lock_id = ("mod", info.module, attr)
            if lock_id in self.kinds:
                return lock_id
            if "lock" in attr.lower():
                return ("mod", info.module, attr)
            return None
        # foreign receiver: bucket by attribute name only when it is
        # recognisably a lock, never merged with typed identities.
        if "lock" in attr.lower():
            return ("attr", "?", attr)
        return None


class LockOrder(Rule):
    """No cycles in the global lock-order graph (potential deadlocks).

    Invariant (PRs 3–9 accumulated five ``threading.Lock``/``RLock``
    objects across cache, pool, metrics and tracer; the transport
    refactor will add more): if any execution holds lock A while
    acquiring lock B, no other execution may hold B while acquiring A.
    This rule closes per-function ``with lock:`` / ``.acquire()``
    nestings over the call graph and reports every cycle in the
    resulting lock-order graph, including same-lock re-entry on a
    non-re-entrant plain ``Lock``.  See the module docstring for the
    soundness envelope.
    """

    name = "lock-order"

    def run(self, project: Project) -> Iterator[Finding]:
        analysis = project.analysis()
        table = _LockTable(analysis)

        # Per-function: locks acquired anywhere in the body, and
        # (held lock -> acquired-or-called) facts from with-nesting.
        acquires: dict[str, set[LockId]] = {}
        held_edges: list[tuple[LockId, LockId, str, int, str]] = []
        held_calls: list[tuple[LockId, str, str, int, str]] = []
        for info in analysis.functions.values():
            if not isinstance(info.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            direct: set[LockId] = set()
            self._scan(
                analysis, table, info, info.node.body, (), direct,
                held_edges, held_calls,
            )
            if direct:
                acquires[info.qname] = direct

        # Transitive acquired-set per function over call/partial edges.
        closure: dict[str, set[LockId]] = {
            q: set(locks) for q, locks in acquires.items()
        }
        changed = True
        while changed:
            changed = False
            for edge in analysis.edges:
                if edge.kind not in ("call", "partial"):
                    continue
                callee_locks = closure.get(edge.callee)
                if not callee_locks:
                    continue
                mine = closure.setdefault(edge.caller, set())
                before = len(mine)
                mine |= callee_locks
                if len(mine) != before:
                    changed = True

        # Build the lock-order graph: direct nesting edges plus
        # held-lock -> everything a called function may acquire.
        graph: dict[LockId, dict[LockId, tuple[str, int, str]]] = {}
        for held, acquired, path, line, where in held_edges:
            graph.setdefault(held, {}).setdefault(acquired, (path, line, where))
        for held, callee, path, line, where in held_calls:
            for acquired in closure.get(callee, ()):
                graph.setdefault(held, {}).setdefault(acquired, (path, line, where))

        yield from self._report_cycles(table, graph)

    # -- body scan -------------------------------------------------------

    def _scan(
        self,
        analysis: ProgramAnalysis,
        table: _LockTable,
        info: FunctionInfo,
        body,
        held: tuple[LockId, ...],
        direct: set[LockId],
        held_edges: list,
        held_calls: list,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = held
                for item in stmt.items:
                    lock_id = table.resolve(analysis, info, item.context_expr)
                    if lock_id is not None:
                        direct.add(lock_id)
                        for h in inner:
                            held_edges.append(
                                (h, lock_id, info.file.display, stmt.lineno,
                                 info.name)
                            )
                        inner = inner + (lock_id,)
                self._scan(
                    analysis, table, info, stmt.body, inner, direct,
                    held_edges, held_calls,
                )
                continue
            # Expressions of this statement (not its compound bodies).
            self._scan_exprs(
                analysis, table, info, stmt, held, direct,
                held_edges, held_calls,
            )
            # Compound bodies keep the same held set.
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, attr, None)
                if sub:
                    self._scan(
                        analysis, table, info, sub, held, direct,
                        held_edges, held_calls,
                    )
            for handler in getattr(stmt, "handlers", []):
                self._scan(
                    analysis, table, info, handler.body, held, direct,
                    held_edges, held_calls,
                )

    def _scan_exprs(
        self,
        analysis: ProgramAnalysis,
        table: _LockTable,
        info: FunctionInfo,
        stmt: ast.AST,
        held: tuple[LockId, ...],
        direct: set[LockId],
        held_edges: list,
        held_calls: list,
    ) -> None:
        todo = [
            c for c in ast.iter_child_nodes(stmt) if not isinstance(c, ast.stmt)
        ]
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            todo.extend(
                c for c in ast.iter_child_nodes(node)
                if not isinstance(c, ast.stmt)
            )
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr == "acquire":
                lock_id = table.resolve(analysis, info, node.func.value)
                if lock_id is not None:
                    direct.add(lock_id)
                    for h in held:
                        held_edges.append(
                            (h, lock_id, info.file.display, node.lineno,
                             info.name)
                        )
            if held:
                for edge in analysis.edges_by_caller.get(info.qname, []):
                    if edge.kind in ("call", "partial") and edge.line == node.lineno:
                        for h in held:
                            held_calls.append(
                                (h, edge.callee, info.file.display,
                                 node.lineno, info.name)
                            )

    # -- cycle detection -------------------------------------------------

    @staticmethod
    def _label(lock_id: LockId) -> str:
        scope, owner, attr = lock_id
        if scope == "cls":
            return f"{owner}.{attr}"
        if scope == "mod":
            return f"{owner}:{attr}"
        return f"<any>.{attr}"

    def _report_cycles(
        self,
        table: _LockTable,
        graph: dict[LockId, dict[LockId, tuple[str, int, str]]],
    ) -> Iterator[Finding]:
        # Self-cycles: re-acquiring a held lock (deadlock on plain Lock).
        reported: set[tuple[LockId, ...]] = set()
        for lock_id, targets in sorted(graph.items()):
            site = targets.get(lock_id)
            if site is None:
                continue
            if table.kinds.get(lock_id, "lock") == "rlock":
                continue
            path, line, where = site
            yield Finding(
                rule=self.name, path=path, line=line, col=0,
                message=(
                    f"'{self._label(lock_id)}' is re-acquired while already "
                    f"held (in '{where}'); a plain threading.Lock "
                    "self-deadlocks here — use an RLock or restructure"
                ),
            )
            reported.add((lock_id,))
        # Multi-lock cycles via DFS from every node.
        for start in sorted(graph):
            cycle = self._find_cycle(graph, start)
            if cycle is None:
                continue
            key = tuple(sorted(cycle))
            if key in reported or len(cycle) < 2:
                continue
            reported.add(key)
            path, line, where = graph[cycle[0]][cycle[1 % len(cycle)]]
            order = " -> ".join(self._label(l) for l in [*cycle, cycle[0]])
            yield Finding(
                rule=self.name, path=path, line=line, col=0,
                message=(
                    f"lock-order cycle {order} (edge recorded in '{where}'); "
                    "two threads taking these locks in opposite orders can "
                    "deadlock — impose a global acquisition order"
                ),
            )

    @staticmethod
    def _find_cycle(
        graph: dict[LockId, dict[LockId, tuple]], start: LockId
    ) -> list[LockId] | None:
        stack: list[tuple[LockId, list[LockId]]] = [(start, [start])]
        seen: set[LockId] = set()
        while stack:
            node, trail = stack.pop()
            for nxt in graph.get(node, {}):
                if nxt == start and len(trail) > 1:
                    return trail
                if nxt in seen or nxt == node:
                    continue
                seen.add(nxt)
                stack.append((nxt, trail + [nxt]))
        return None
