"""Event-loop reachability: ``no-blocking-in-async`` and ``coordinator-only``.

Both rules walk the call graph from every *event-loop entry*: each
``async def`` in ``repro/serve/`` and each function handed to
``call_soon`` / ``call_soon_threadsafe`` / ``call_later`` / ``call_at``
/ ``create_task`` / ``ensure_future`` (a ``loop`` edge).  The walk
follows synchronous ``call``/``partial`` edges — the callee runs on the
caller's thread — and never enters a ``@coordinator_only`` function:
reaching one is precisely what ``coordinator-only`` reports.  A
reference handed to ``Scheduler._run_coord`` or ``run_in_executor``
produces no edge, so legal dispatch ends a chain.

``no-blocking-in-async`` checks the entry's own body and every
synchronous function the walk reaches for a *blocking call*:
``time.sleep``, ``sqlite3.*``, ``subprocess.*``, ``open()``,
non-awaited ``.acquire()``/``.wait()``, and observability persistence
(a persistence verb such as ``dump``/``flush``/``write_text`` on a
receiver whose name says metrics/registry/tracer/history).  Only a function's own body counts:
nested ``def``s and ``lambda``s run whenever, and on whichever thread,
they are invoked.

``coordinator-only`` reports chains that reach a marked function, plus
a direct, name-based check of ``repro/serve/``: a call to any marked
name from an unmarked function other than ``_run_coord`` (or from
module level) fires even where the call graph cannot resolve the
receiver.  Calls inside a ``lambda`` count as part of the enclosing
function, and ``await``-ed calls are exempt — marked functions are
synchronous, so an awaited name is the scheduler's async wrapper.
Layers below serve are not constrained directly: in blocking
``engine.sweep()``/``hub.mine()`` use the calling thread *is* the
coordinator.

A finding below the entry prints the full call chain, one
``name (file:line)`` hop at a time, and is anchored at the call site of
the final hop so a pragma on that line can suppress it.

Soundness envelope: inherits the call graph's blindness to dynamic
dispatch (``getattr``, function tables, monkey-patching) — a chain
routed through one produces no finding.  Conversely, conservative
attribute resolution may follow a same-named method on an unrelated
class; such chains are real code paths *somewhere* in the project but
possibly not reachable from the reported entry, and warrant a pragma
with the reasoning written down.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import Rule
from .callgraph import (
    CallEdge,
    FunctionInfo,
    ProgramAnalysis,
    awaited_call_ids,
    dotted,
    last_name,
    walk_scope,
)
from .model import Finding, Project

__all__ = ["CoordinatorOwnership", "NoBlockingInAsync"]

_BLOCKING_ATTRS = frozenset({"acquire", "wait"})
_OBS_PERSIST_VERBS = frozenset(
    {"write", "write_text", "write_bytes", "write_json", "dump", "save",
     "flush", "persist", "append_row"}
)
_OBS_TOKENS = ("metric", "registry", "tracer", "trace", "history")

#: parent pointers of one walk: callee qname -> (caller qname, edge)
Parents = dict[str, tuple[str, CallEdge]]


def _loop_entries(analysis: ProgramAnalysis) -> list[FunctionInfo]:
    entries = {
        f.qname: f
        for f in analysis.functions.values()
        if f.is_async and f.file.rel.startswith("repro/serve/")
    }
    for edge in analysis.edges:
        if edge.kind == "loop":
            entries.setdefault(edge.callee, analysis.functions[edge.callee])
    return list(entries.values())


def _reach(
    analysis: ProgramAnalysis, entry: FunctionInfo
) -> Iterator[tuple[CallEdge, FunctionInfo, Parents]]:
    """Breadth-first over call/partial edges from ``entry``: yields every
    edge into a marked function (not entered) and every edge into a
    function not visited before, with the parent pointers so far."""
    parents: Parents = {}
    visited = {entry.qname}
    frontier = [entry.qname]
    while frontier:
        next_frontier: list[str] = []
        for qname in frontier:
            for edge in analysis.edges_by_caller.get(qname, ()):
                if edge.kind == "loop":
                    continue
                callee = analysis.functions[edge.callee]
                if callee.is_marked:
                    yield edge, callee, parents
                    continue
                if edge.callee in visited:
                    continue
                visited.add(edge.callee)
                parents[edge.callee] = (qname, edge)
                yield edge, callee, parents
                next_frontier.append(edge.callee)
        frontier = next_frontier


def _chain(
    analysis: ProgramAnalysis,
    entry: FunctionInfo,
    parents: Parents,
    final: CallEdge,
) -> str:
    """``entry (file:line) -> ... -> target (file:line)``: each hop is
    located at the call it makes, the target at its definition."""
    target = analysis.functions[final.callee]
    hops = [f"{target.name} ({target.where()})"]
    qname, edge = final.caller, final
    while True:
        hops.append(f"{analysis.functions[qname].name} ({edge.path}:{edge.line})")
        if qname == entry.qname:
            return " -> ".join(reversed(hops))
        qname, edge = parents[qname]


def _entry_label(entry: FunctionInfo) -> str:
    return f"{'async def' if entry.is_async else 'loop callback'} {entry.name}"


class NoBlockingInAsync(Rule):
    """Blocking calls are forbidden on the event loop: in an ``async
    def`` in ``repro/serve/``, in a ``call_soon*``/``create_task``
    target, and in any synchronous function they reach.

    Invariant: the asyncio event loop owns only scheduling state;
    anything that can block — sleeps, sqlite, file I/O, subprocesses,
    bare lock acquires and waits, writing metrics/traces/bench history
    to disk — must run on the single coordinator thread via
    ``Scheduler._run_coord`` so one slow job cannot stall admission,
    cancellation, and deadline handling for every other client.
    In-memory metric and span emission is free and allowed.  See the
    module docstring for the walk and its soundness envelope.
    """

    name = "no-blocking-in-async"

    def run(self, project: Project) -> Iterator[Finding]:
        analysis = project.analysis()
        sites: dict[str, list[tuple[ast.Call, str]]] = {}

        def blocking(info: FunctionInfo) -> list[tuple[ast.Call, str]]:
            if info.qname not in sites:
                sites[info.qname] = _blocking_sites(info.node)
            return sites[info.qname]

        reported: set[tuple[str, int, str]] = set()
        for entry in _loop_entries(analysis):
            label = _entry_label(entry)
            for call, what in blocking(entry):
                yield self.finding(
                    entry.file, call,
                    f"{what} inside '{label}' blocks the event loop; await "
                    "an asyncio variant or route it through the "
                    "coordinator (_run_coord)",
                )
            for edge, callee, parents in _reach(analysis, entry):
                if callee.is_marked or callee.is_async:
                    continue
                found = blocking(callee)
                key = (edge.path, edge.line, edge.callee)
                if not found or key in reported:
                    continue
                reported.add(key)
                yield Finding(
                    rule=self.name, path=edge.path, line=edge.line,
                    col=edge.col,
                    message=(
                        f"event-loop entry '{label}' reaches {found[0][1]} "
                        f"inside '{callee.name}' via "
                        f"{_chain(analysis, entry, parents, edge)}; blocking "
                        "work must run on the coordinator (_run_coord)"
                    ),
                )


def _blocking_sites(func: ast.AST) -> list[tuple[ast.Call, str]]:
    """``(call, description)`` for each blocking call in ``func``'s own
    body, in source order."""
    awaited = awaited_call_ids(func)
    sites: list[tuple[ast.Call, str]] = []
    for node in walk_scope(func.body):
        if not isinstance(node, ast.Call):
            continue
        d = dotted(node.func)
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
        if d == "time.sleep":
            what = "time.sleep()"
        elif d is not None and d.startswith(("sqlite3.", "subprocess.")):
            what = f"blocking {d}()"
        elif d == "open":
            what = "file I/O via open()"
        elif attr in _BLOCKING_ATTRS and id(node) not in awaited:
            what = f"non-awaited .{attr}()"
        elif attr in _OBS_PERSIST_VERBS and _obs_receiver(dotted(node.func.value)):
            what = (
                f"persisting .{attr}() on observability object "
                f"'{dotted(node.func.value)}'"
            )
        else:
            continue
        sites.append((node, what))
    return sorted(sites, key=lambda s: (s[0].lineno, s[0].col_offset))


def _obs_receiver(receiver: str | None) -> bool:
    parts = (receiver or "").lower().split(".")
    return any(token in part for part in parts for token in _OBS_TOKENS)


class CoordinatorOwnership(Rule):
    """Functions marked ``@coordinator_only`` may not be reached from
    the event loop: not called in ``repro/serve/`` outside marked
    functions and the dispatch shim, and not reached through any
    synchronous call chain from an event-loop entry.

    Invariant: one coordinator thread owns every engine/hub/cache
    internal — planning, leases and pins, result caches, serial
    execution.  The event loop reaches them exclusively by
    handing a function *reference* to ``Scheduler._run_coord``, so a
    serve coroutine that reaches a marked engine internal through an
    unmarked wrapper in *any* layer fires, with the full chain printed.
    See the module docstring for the direct check, the walk, and its
    soundness envelope.
    """

    name = "coordinator-only"

    def run(self, project: Project) -> Iterator[Finding]:
        analysis = project.analysis()
        marked: dict[str, FunctionInfo] = {}
        for info in analysis.functions.values():
            if info.is_marked:
                marked.setdefault(info.name, info)
        if not marked:
            return
        reported: set[tuple[str, int, str]] = set()
        for info in analysis.functions.values():
            if info.file.rel.startswith("repro/serve/"):
                for finding, key in self._direct(info, marked):
                    if key not in reported:
                        reported.add(key)
                        yield finding
        for entry in _loop_entries(analysis):
            for edge, callee, parents in _reach(analysis, entry):
                key = (edge.path, edge.line, callee.name)
                if not callee.is_marked or key in reported:
                    continue
                reported.add(key)
                yield Finding(
                    rule=self.name, path=edge.path, line=edge.line,
                    col=edge.col,
                    message=(
                        f"event-loop entry '{_entry_label(entry)}' reaches "
                        f"@coordinator_only '{callee.name}' via "
                        f"{_chain(analysis, entry, parents, edge)}; route the "
                        "chain through Scheduler._run_coord or mark the "
                        "intermediate callers @coordinator_only"
                    ),
                )

    def _direct(
        self, info: FunctionInfo, marked: dict[str, FunctionInfo]
    ) -> Iterator[tuple[Finding, tuple[str, int, str]]]:
        """Calls to marked names in ``info``'s own body, lambdas
        included, unless ``info`` may make them."""
        if info.is_marked or info.name == "_run_coord":
            return
        where = (
            "module level" if info.name == "<module>"
            else f"unmarked function '{info.name}'"
        )
        awaited = awaited_call_ids(info.node)
        stack = list(info.node.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # its own FunctionInfo
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call) or id(node) in awaited:
                continue
            name = last_name(node.func)
            target = marked.get(name)
            if target is None:
                continue
            yield (
                self.finding(
                    info.file, node,
                    f"coordinator-owned '{name}' (defined at "
                    f"{target.where()}) called from {where}; route through "
                    "Scheduler._run_coord or mark the caller "
                    "@coordinator_only",
                ),
                (info.file.display, node.lineno, name),
            )
