"""Pickle-boundary taint analysis: the ``pickle-boundary`` rule.

Values reaching ``ShardTask`` fields or pool/fleet
``submit``/``apply_async`` arguments are traced through assignments,
``with``/``for`` bindings, attribute fields (``self.x = ...`` anywhere
in the class), function returns, and calls, back to *poisoned sources*:
lambdas and locally-defined functions/classes,
``threading``/``multiprocessing`` primitives, sockets, ``asyncio``
primitives, and shared-memory leases (``SharedStoreLease(...)`` /
``lease_shared()``).  Every function body and every module body is
walked.

Expression rules: a call that resolves to a project function carries
that function's return taint, with its parameters substituted by the
call-site arguments; a call that resolves to no project function
(``partial(...)``, stdlib and third-party calls, unknown callables)
passes on the taint of its arguments, except ``callback=`` /
``error_callback=``.  Any expression the engine does not model
otherwise — subscripts, comprehensions, f-strings, operators —
carries the taint of its parts.  ``.handle`` access *sanitizes*: a
``SharedStoreHandle`` is picklable by design and legitimately crosses
the on-box worker boundary.  The ``callback=`` / ``error_callback=``
keywords of ``submit`` stay parent-side and are exempt.

Soundness envelope: the engine unions taint over all assignments to a
name (flow- and path-insensitive), tracks containers as a whole (one
tainted element taints the tuple), does not track aliasing through
mutation (``d["k"] = lease; use(d)`` is missed), and resolves calls
through the conservative call graph — so it can both miss taint routed
through dynamic dispatch and report taint along call-graph edges no
real execution takes.  Interprocedural depth is bounded by a fixpoint
over return-taint and sink-parameter summaries, so helper indirection
(``def _send(task): pool.submit(task)``) is followed at any depth.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import Rule
from .callgraph import (
    FunctionInfo,
    ProgramAnalysis,
    dotted,
    last_name,
    walk_scope,
)
from .model import Finding, Project

__all__ = ["PickleBoundary"]

_THREADING_PRIMS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event",
     "Barrier"}
)
_ASYNCIO_PRIMS = frozenset(
    {"Queue", "LifoQueue", "PriorityQueue", "Event", "Lock", "Condition",
     "Semaphore", "BoundedSemaphore", "Future"}
)
_PARENT_KWARGS = frozenset({"callback", "error_callback"})
_SANITIZE_ATTR = "handle"
_BINDERS = (ast.Assign, ast.AnnAssign, ast.With, ast.AsyncWith, ast.For, ast.AsyncFor)
_LAMBDA = "a lambda closure"


def _call_source(call: ast.Call) -> str | None:
    d = dotted(call.func)
    name = last_name(call.func)
    if d is not None:
        parts = d.split(".")
        if (
            parts[0] in ("threading", "multiprocessing", "mp")
            and parts[-1] in _THREADING_PRIMS
        ):
            return f"a {parts[0]} primitive ({d}())"
        if parts[0] == "asyncio" and parts[-1] in _ASYNCIO_PRIMS:
            return f"an asyncio primitive ({d}())"
        if d == "socket.socket":
            return "a socket"
    if name in ("SharedStoreLease", "lease_shared"):
        return f"a shared-memory lease ({name}(...))"
    return None


def _pickled_args(call: ast.Call) -> list[ast.AST]:
    return list(call.args) + [
        kw.value for kw in call.keywords if kw.arg not in _PARENT_KWARGS
    ]


def _sink(info: FunctionInfo, call: ast.Call) -> tuple[str, list[ast.AST]] | None:
    """``(sink description, expressions pickled)`` or None."""
    func = call.func
    if last_name(func) == "ShardTask":
        exprs = list(call.args) + [kw.value for kw in call.keywords]
        return "a ShardTask field", exprs
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr not in ("submit", "apply_async"):
        return None
    receiver = (dotted(func.value) or "").lower()
    pooled = "pool" in receiver or "fleet" in receiver
    if not pooled and receiver in ("self", "cls") and info.cls is not None:
        cls = info.cls.lower()
        pooled = "pool" in cls or "fleet" in cls
    if not pooled:
        return None
    return f"a {func.attr}() worker-pool argument", _pickled_args(call)


class _TaintEngine:
    """Taint summaries and findings for one project.  A taint is either
    a human-readable source description (str) or a parameter marker
    ("param", index) used for interprocedural summaries."""

    _ROUNDS = 4  # interprocedural fixpoint bound

    def __init__(self, analysis: ProgramAnalysis):
        self.analysis = analysis
        self.return_taint: dict[str, set] = {}
        self.field_taint: dict[tuple[str, str], set[str]] = {}
        self.sink_params: dict[str, set[int]] = {}
        self.findings: list[tuple[str, int, int, str]] = []
        # (caller qname, line, col) -> project functions that call runs
        self.callees: dict[tuple[str, int, int], list[FunctionInfo]] = {}
        for edge in analysis.edges:
            if edge.kind == "call":
                self.callees.setdefault(
                    (edge.caller, edge.line, edge.col), []
                ).append(analysis.functions[edge.callee])
        scopes = [self._scope(info) for info in analysis.functions.values()]
        for _ in range(self._ROUNDS):
            before = self._summary_size()
            for scope in scopes:
                self._process(*scope, record=False)
            if self._summary_size() == before:
                break
        for scope in scopes:
            self._process(*scope, record=True)

    def _summary_size(self) -> tuple[int, int, int]:
        return (
            sum(len(v) for v in self.return_taint.values()),
            sum(len(v) for v in self.field_taint.values()),
            sum(len(v) for v in self.sink_params.values()),
        )

    # -- per-function ----------------------------------------------------

    @staticmethod
    def _params(info: FunctionInfo) -> list[str]:
        if isinstance(info.node, ast.Module):
            return []
        args = info.node.args
        return [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]

    def _callees(self, info: FunctionInfo, call: ast.Call) -> list[FunctionInfo]:
        return self.callees.get((info.qname, call.lineno, call.col_offset), [])

    @staticmethod
    def _scope(info: FunctionInfo) -> tuple:
        """``(info, local defs, binding statements, other interesting
        nodes)`` of one body, walked once."""
        nodes = list(walk_scope(info.node.body))
        # module-level definitions are importable by name on the worker
        local_defs = set() if isinstance(info.node, ast.Module) else {
            n.name
            for n in nodes
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        binds = [n for n in nodes if isinstance(n, _BINDERS)]
        uses = [n for n in nodes if isinstance(n, (ast.Return, ast.Assign, ast.Call))]
        return info, local_defs, binds, uses

    def _process(self, info, local_defs, binds, uses, record: bool) -> None:
        env: dict[str, set] = {}
        for i, name in enumerate(self._params(info)):
            env[name] = {("param", i)}
        # Bindings, to a local fixpoint (out-of-order def/use tolerant).
        for _ in range(3):
            changed = False
            for node in binds:
                changed |= self._bind(info, env, local_defs, node)
            if not changed:
                break
        # Sinks, returns, field stores, interprocedural propagation.
        for node in uses:
            if isinstance(node, ast.Return):
                if node.value is not None:
                    taints = self._eval(info, env, local_defs, node.value)
                    if taints:
                        self.return_taint.setdefault(info.qname, set()).update(taints)
            elif isinstance(node, ast.Assign):
                self._field_store(info, env, local_defs, node)
            else:
                self._check_call(info, env, local_defs, node, record)

    def _bind(self, info, env, local_defs, node) -> bool:
        def assign(target: ast.AST, taints: set) -> bool:
            if isinstance(target, ast.Name):
                dest = env.setdefault(target.id, set())
                before = len(dest)
                dest.update(taints)
                return len(dest) != before
            if isinstance(target, (ast.Tuple, ast.List)):
                return any(assign(t, taints) for t in list(target.elts))
            return False

        changed = False
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if value is None:
                return False
            taints = self._eval(info, env, local_defs, value)
            if not taints:
                return False
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                changed |= assign(target, taints)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is None:
                    continue
                taints = self._eval(info, env, local_defs, item.context_expr)
                if taints:
                    changed |= assign(item.optional_vars, taints)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            taints = self._eval(info, env, local_defs, node.iter)
            if taints:
                changed |= assign(node.target, taints)
        return changed

    def _field_store(self, info, env, local_defs, node: ast.Assign) -> None:
        if info.cls is None:
            return
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                strings = {
                    t
                    for t in self._eval(info, env, local_defs, node.value)
                    if isinstance(t, str)
                }
                if strings:
                    self.field_taint.setdefault(
                        (info.cls, target.attr), set()
                    ).update(strings)

    # -- expression taint ------------------------------------------------

    def _eval(self, info, env, local_defs, expr: ast.AST) -> set:
        if isinstance(expr, ast.Name):
            taints = set(env.get(expr.id, ()))
            if expr.id in local_defs:
                taints.add(f"locally-defined '{expr.id}'")
            return taints
        if isinstance(expr, ast.Lambda):
            return {_LAMBDA}
        if isinstance(expr, ast.Attribute):
            if expr.attr == _SANITIZE_ATTR:
                return set()
            taints: set = set()
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                if info.cls is not None:
                    for cls in self.analysis.related_classes(info.cls):
                        taints |= self.field_taint.get((cls, expr.attr), set())
            taints |= self._eval(info, env, local_defs, expr.value)
            return taints
        if isinstance(expr, ast.Call):
            source = _call_source(expr)
            if source is not None:
                return {source}
            # a call on a sanitizing attribute (lease.handle()) is clean
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr == _SANITIZE_ATTR
            ):
                return set()
            callees = self._callees(info, expr)
            if not callees:
                taints = set()
                for arg in _pickled_args(expr):
                    taints |= self._eval(info, env, local_defs, arg)
                return taints
            taints = set()
            for callee in callees:
                for t in self.return_taint.get(callee.qname, ()):
                    if isinstance(t, str):
                        taints.add(t)
                    else:  # ("param", i): substitute the call-site arg
                        arg = self._arg_at(callee, expr, t[1])
                        if arg is not None:
                            taints |= self._eval(info, env, local_defs, arg)
            return taints
        # anything else carries the taint of its parts
        taints = set()
        for child in ast.iter_child_nodes(expr):
            taints |= self._eval(info, env, local_defs, child)
        return taints

    @staticmethod
    def _arg_at(callee: FunctionInfo, call: ast.Call, index: int) -> ast.AST | None:
        offset = 1 if callee.cls is not None else 0
        positional = index - offset
        if 0 <= positional < len(call.args):
            return call.args[positional]
        args = callee.node.args
        names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        if 0 <= index < len(names):
            wanted = names[index]
            for kw in call.keywords:
                if kw.arg == wanted:
                    return kw.value
        return None

    # -- sinks -----------------------------------------------------------

    def _check_call(self, info, env, local_defs, call: ast.Call, record: bool):
        sink = _sink(info, call)
        if sink is not None:
            desc, exprs = sink
            for expr in exprs:
                for t in self._eval(info, env, local_defs, expr):
                    if not isinstance(t, str):
                        self.sink_params.setdefault(info.qname, set()).add(t[1])
                    elif record:
                        self.findings.append((
                            info.file.display, expr.lineno, expr.col_offset,
                            f"{t} flows into {desc} in '{info.name}' — it "
                            "cannot cross this boundary",
                        ))
        # propagation into callees whose parameters reach a sink
        for callee in self._callees(info, call):
            for index in self.sink_params.get(callee.qname, ()):
                arg = self._arg_at(callee, call, index)
                if arg is None:
                    continue
                for t in self._eval(info, env, local_defs, arg):
                    if not isinstance(t, str):
                        self.sink_params.setdefault(info.qname, set()).add(t[1])
                    elif record:
                        self.findings.append((
                            info.file.display, arg.lineno, arg.col_offset,
                            f"{t} flows into a boundary sink inside "
                            f"'{callee.name}' ({callee.where()}) via this "
                            f"call in '{info.name}'",
                        ))


class PickleBoundary(Rule):
    """Unpicklable values must not *flow* into the worker boundary —
    ``ShardTask`` fields and pool/fleet submit arguments are traced
    back through assignments, fields, returns, and calls to closure /
    lock / socket / asyncio / shared-memory-lease sources.

    Invariant: shard tasks cross a process boundary and are pickled;
    lambdas, closures, classes defined inside a function, locks,
    sockets and leases fail to pickle (or worse, unpickle against a
    stale module on the worker).  The rule catches a lambda written at the call site, the
    same lambda bound to a variable three assignments earlier, a lease
    stored on ``self`` and submitted from another method, and a helper
    whose parameter ends up in a ``ShardTask`` field.  ``.handle``
    sanitizes (a ``SharedStoreHandle`` is picklable by design);
    ``callback=``/``error_callback=`` stay parent-side and are exempt.
    See the module docstring for the soundness envelope.
    """

    name = "pickle-boundary"

    def run(self, project: Project) -> Iterator[Finding]:
        engine = _TaintEngine(project.analysis())
        seen: set[tuple] = set()
        for path, line, col, message in engine.findings:
            key = (path, line, message)
            if key in seen:
                continue
            seen.add(key)
            yield Finding(
                rule=self.name, path=path, line=line, col=col, message=message
            )
