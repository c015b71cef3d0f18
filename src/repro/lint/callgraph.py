"""Project-wide symbol table and conservative call graph.

This is the shared substrate for every interprocedural rule
(:mod:`~repro.lint.domains`, :mod:`~repro.lint.locks`,
:mod:`~repro.lint.taint`): one pass over the project builds a symbol
table (every function/method/class, with decorators and markers), an
import map (including relative imports and re-exports through package
``__init__`` files — both ``from .mod import name`` and the PEP 562
``_LAZY`` table ``repro.serve`` uses), and a call graph whose edges
carry the *kind* of each call site:

``call``
    An ordinary synchronous call — runs on the caller's thread.
``partial``
    ``functools.partial(f, ...)`` — conservatively assumed to be
    invoked on the caller's thread.
``loop``
    A reference handed to ``call_soon`` / ``call_soon_threadsafe`` /
    ``call_later`` / ``call_at`` / ``create_task`` / ``ensure_future``
    — runs on the event loop, so its target is an event-loop entry.

A function *reference* handed anywhere else — ``Scheduler._run_coord``,
``run_in_executor``, pool ``submit``/``apply_async`` targets and
callbacks — produces no edge: it runs on another thread or process,
so no rule follows the caller's thread into it.  Calls written inside a
``lambda`` body produce no edge either: they run whenever, and on
whichever thread, the lambda is invoked.

Soundness envelope (what the conservative analysis can miss): name
resolution is static and name-based — ``getattr(obj, name)()``, calls
through containers or dictionaries of functions, monkey-patched
attributes, and ``eval``-style dispatch produce **no** edges, so chains
routed through them are invisible to every downstream rule.  Receivers
of the form ``self.x`` are resolved through *field-type inference*:
``self.x = ClassName(...)`` assignments, ``self.x: T`` annotations, and
annotated ``__init__`` parameters type the field, and the call then
resolves only to methods of related classes; a field typed exclusively
by non-project values (stdlib constructors, literals, ``None``)
resolves to nothing.  ``super().m()`` resolves only to project base
classes.  Everything else falls back to *every* project method of that
name (over-approximate, never under-approximate, except for the
dynamic cases above); ``await``-ed attribute calls resolve only to
``async def`` candidates when any exist, matching the stack's
convention that a marked synchronous internal is never awaited
directly.
"""

from __future__ import annotations

import ast
import re
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .model import Project, SourceFile

__all__ = [
    "CallEdge",
    "ClassInfo",
    "FunctionInfo",
    "ProgramAnalysis",
    "awaited_call_ids",
    "dotted",
    "last_name",
    "walk_scope",
]

MARKER = "coordinator_only"

#: Attribute names whose reference arguments run on the event loop.
_LOOP_DISPATCH = frozenset(
    {"call_soon", "call_soon_threadsafe", "call_later", "call_at",
     "create_task", "ensure_future"}
)


# --------------------------------------------------------------------------
# shared AST helpers


def walk_scope(body: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested def/lambda bodies."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def last_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _decorator_names(node: ast.AST) -> tuple[str, ...]:
    names = []
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = last_name(target)
        if name is not None:
            names.append(name)
    return tuple(names)


def awaited_call_ids(tree: ast.AST) -> set[int]:
    """ids of Call nodes that are the direct operand of ``await``."""
    return {
        id(n.value)
        for n in ast.walk(tree)
        if isinstance(n, ast.Await) and isinstance(n.value, ast.Call)
    }


def module_name(file: SourceFile) -> str:
    """Dotted module name from the package-relative path."""
    rel = file.rel
    if rel.endswith(".py"):
        rel = rel[:-3]
    parts = [p for p in rel.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "<root>"


# --------------------------------------------------------------------------
# symbol table


@dataclass
class FunctionInfo:
    """One function/method/nested def (or a module's top-level body)."""

    qname: str
    name: str
    module: str
    cls: str | None
    file: SourceFile
    node: ast.AST  # FunctionDef / AsyncFunctionDef / Module
    is_async: bool
    decorators: tuple[str, ...] = ()
    parent: str | None = None  # enclosing function qname (nested defs)

    @property
    def is_marked(self) -> bool:
        return MARKER in self.decorators

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 1)

    def where(self) -> str:
        return f"{self.file.display}:{self.line}"


@dataclass
class ClassInfo:
    name: str
    module: str
    file: SourceFile
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass(frozen=True)
class CallEdge:
    """One call (or dispatch) site: ``caller`` may run ``callee``."""

    caller: str  # FunctionInfo qname
    callee: str  # FunctionInfo qname
    path: str  # caller file display path (finding anchor)
    line: int
    col: int
    kind: str  # call | partial | loop


@dataclass
class _FieldType:
    """Evidence about what ``self.<attr>`` can hold on one class."""

    types: set[str] = field(default_factory=set)  # project class names
    nonproject: bool = False  # stdlib objects / literals / None
    unknown: bool = False  # something we cannot classify


class _ModuleTable:
    """Per-module names: defs, classes, imports, lazy re-exports."""

    def __init__(self) -> None:
        self.defs: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        # alias -> dotted module ("import a.b" binds "a" -> "a")
        self.module_aliases: dict[str, str] = {}
        # local name -> (source module, original name)
        self.imports: dict[str, tuple[str, str]] = {}
        # PEP 562: exported name -> submodule (from a literal _LAZY dict)
        self.lazy: dict[str, str] = {}


class ProgramAnalysis:
    """The symbol table + call graph, built once per :class:`Project`.

    Obtain via :meth:`Project.analysis` so every interprocedural rule
    shares one build.
    """

    def __init__(self, project: Project):
        self.project = project
        self.functions: dict[str, FunctionInfo] = {}
        self.by_name: dict[str, list[FunctionInfo]] = {}
        self.classes: dict[str, list[ClassInfo]] = {}
        self.modules: dict[str, _ModuleTable] = {}
        self.edges: list[CallEdge] = []
        self.edges_by_caller: dict[str, list[CallEdge]] = {}
        self._related_cache: dict[str, frozenset[str]] = {}
        # (class name, attr) -> _FieldType evidence from assignments
        self.field_types: dict[tuple[str, str], _FieldType] = {}
        self.build_seconds = 0.0
        started = time.perf_counter()
        for file in project:
            if file.tree is not None:
                self._index_file(file)
        self._infer_field_types()
        for file in project:
            if file.tree is not None:
                self._extract_calls(file)
        self.build_seconds = time.perf_counter() - started

    # -- stats ----------------------------------------------------------

    def stats(self) -> dict:
        return {
            "files": len(self.project.files),
            "functions": sum(
                1 for f in self.functions.values() if f.name != "<module>"
            ),
            "call_edges": len(self.edges),
            "build_seconds": round(self.build_seconds, 4),
        }

    # -- pass 1: symbols -------------------------------------------------

    def _add_function(self, info: FunctionInfo) -> None:
        self.functions[info.qname] = info
        self.by_name.setdefault(info.name, []).append(info)

    def _index_file(self, file: SourceFile) -> None:
        module = module_name(file)
        table = self.modules.setdefault(module, _ModuleTable())
        mod_info = FunctionInfo(
            qname=f"{module}.<module>",
            name="<module>",
            module=module,
            cls=None,
            file=file,
            node=file.tree,
            is_async=False,
        )
        self._add_function(mod_info)
        self._index_scope(file, module, table, file.tree.body, cls=None, parent=None)

    def _index_scope(
        self,
        file: SourceFile,
        module: str,
        table: _ModuleTable,
        body: Iterable[ast.AST],
        cls: str | None,
        parent: str | None,
        prefix: str = "",
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{module}.{prefix}{node.name}"
                info = FunctionInfo(
                    qname=qname,
                    name=node.name,
                    module=module,
                    cls=cls,
                    file=file,
                    node=node,
                    is_async=isinstance(node, ast.AsyncFunctionDef),
                    decorators=_decorator_names(node),
                    parent=parent,
                )
                self._add_function(info)
                if cls is not None and parent is None:
                    table_cls = table.classes.get(cls)
                    if table_cls is not None:
                        table_cls.methods[node.name] = info
                elif cls is None and parent is None:
                    table.defs[node.name] = info
                self._index_scope(
                    file, module, table, node.body,
                    cls=cls, parent=qname, prefix=f"{prefix}{node.name}.",
                )
            elif isinstance(node, ast.ClassDef) and parent is None:
                info = ClassInfo(
                    name=node.name,
                    module=module,
                    file=file,
                    node=node,
                    bases=tuple(
                        n for n in (last_name(b) for b in node.bases) if n
                    ),
                )
                table.classes[node.name] = info
                self.classes.setdefault(node.name, []).append(info)
                self._index_scope(
                    file, module, table, node.body,
                    cls=node.name, parent=None, prefix=f"{prefix}{node.name}.",
                )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    table.module_aliases[bound] = target
            elif isinstance(node, ast.ImportFrom):
                source = self._resolve_from(module, file, node)
                if source is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    table.imports[alias.asname or alias.name] = (source, alias.name)
            elif isinstance(node, ast.Assign) and cls is None and parent is None:
                self._maybe_lazy_table(table, node)
            elif isinstance(node, (ast.If, ast.Try)):
                # Imports guarded by TYPE_CHECKING / try-except fallbacks.
                for sub in ast.iter_child_nodes(node):
                    if isinstance(sub, (ast.Import, ast.ImportFrom)):
                        self._index_scope(
                            file, module, table, [sub], cls, parent, prefix
                        )

    @staticmethod
    def _maybe_lazy_table(table: _ModuleTable, node: ast.Assign) -> None:
        if len(node.targets) != 1:
            return
        target = node.targets[0]
        if not (isinstance(target, ast.Name) and target.id == "_LAZY"):
            return
        if not isinstance(node.value, ast.Dict):
            return
        for key, value in zip(node.value.keys, node.value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                table.lazy[key.value] = value.value

    @staticmethod
    def _resolve_from(
        module: str, file: SourceFile, node: ast.ImportFrom
    ) -> str | None:
        if node.level == 0:
            return node.module
        parts = module.split(".")
        if not file.rel.endswith("__init__.py"):
            parts = parts[:-1]  # the package containing this module
        parts = parts[: len(parts) - (node.level - 1)]
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts) if parts else None

    # -- pass 1.5: field types -------------------------------------------

    def _infer_field_types(self) -> None:
        for infos in self.classes.values():
            for cls in infos:
                table = self.modules[cls.module]
                for stmt in cls.node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        self._apply_annotation(
                            self._field(cls, stmt.target.id), stmt.annotation
                        )
                for method in cls.methods.values():
                    annotations = {
                        a.arg: a.annotation
                        for a in (
                            *method.node.args.posonlyargs,
                            *method.node.args.args,
                            *method.node.args.kwonlyargs,
                        )
                        if a.annotation is not None
                    }
                    for node in walk_scope(method.node.body):
                        targets: list[tuple[ast.AST, ast.AST | None]] = []
                        if isinstance(node, ast.Assign):
                            targets = [(t, node.value) for t in node.targets]
                        elif isinstance(node, ast.AnnAssign):
                            targets = [(node.target, node.value)]
                        for target, value in targets:
                            if not (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                continue
                            ft = self._field(cls, target.attr)
                            if isinstance(node, ast.AnnAssign):
                                self._apply_annotation(ft, node.annotation)
                            if value is not None:
                                self._classify_value(ft, table, value, annotations)

    def _field(self, cls: ClassInfo, attr: str) -> _FieldType:
        return self.field_types.setdefault((cls.name, attr), _FieldType())

    def _annotation_project(self, annotation: ast.AST) -> set[str]:
        """Project class names mentioned in a type annotation."""
        names = {
            n.id for n in ast.walk(annotation) if isinstance(n, ast.Name)
        } | {n.attr for n in ast.walk(annotation) if isinstance(n, ast.Attribute)}
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", annotation.value))
        return names & self.classes.keys()

    def _apply_annotation(self, ft: _FieldType, annotation: ast.AST) -> None:
        project = self._annotation_project(annotation)
        if project:
            ft.types |= project
        else:
            ft.nonproject = True

    def _classify_value(
        self,
        ft: _FieldType,
        table: _ModuleTable,
        value: ast.AST,
        annotations: dict[str, ast.AST],
    ) -> None:
        for part in self._value_parts(value):
            if isinstance(part, ast.Call):
                name = last_name(part.func)
                root = (dotted(part.func) or "").split(".")[0]
                if name in self.classes:
                    ft.types.add(name)
                elif root in ("self", "cls") or root == "":
                    ft.unknown = True  # a method call: return type unknown
                elif root in table.module_aliases:
                    target = table.module_aliases[root].split(".")[0]
                    if any(m.split(".")[0] == target for m in self.modules):
                        ft.unknown = True
                    else:
                        ft.nonproject = True  # asyncio.Queue(), mp.Pool(), ...
                elif name in table.imports:
                    source, _orig = table.imports[name]
                    if any(
                        m == source or m.startswith(source + ".")
                        for m in self.modules
                    ):
                        ft.unknown = True
                    else:
                        ft.nonproject = True  # deque(), OrderedDict(), ...
                elif name in table.defs:
                    ft.unknown = True
                else:
                    ft.nonproject = True  # builtins: dict(), set(), open()...
            elif isinstance(
                part,
                (ast.Constant, ast.Dict, ast.List, ast.Set, ast.Tuple,
                 ast.DictComp, ast.ListComp, ast.SetComp, ast.JoinedStr,
                 ast.BinOp, ast.UnaryOp, ast.Compare, ast.Lambda),
            ):
                ft.nonproject = True
            elif isinstance(part, ast.Name):
                annotation = annotations.get(part.id)
                if annotation is not None:
                    self._apply_annotation(ft, annotation)
                else:
                    ft.unknown = True
            else:
                ft.unknown = True

    @staticmethod
    def _value_parts(value: ast.AST) -> list[ast.AST]:
        """Unwrap await/ternary/or-chains to the values a field may hold."""
        if isinstance(value, ast.Await):
            return ProgramAnalysis._value_parts(value.value)
        if isinstance(value, ast.IfExp):
            return [
                *ProgramAnalysis._value_parts(value.body),
                *ProgramAnalysis._value_parts(value.orelse),
            ]
        if isinstance(value, ast.BoolOp):
            out: list[ast.AST] = []
            for v in value.values:
                out.extend(ProgramAnalysis._value_parts(v))
            return out
        return [value]

    # -- name resolution -------------------------------------------------

    def resolve_export(
        self, module: str, name: str, _depth: int = 0
    ) -> FunctionInfo | ClassInfo | None:
        """Resolve ``name`` as defined in / re-exported by ``module``.

        Chases ``from .sub import name`` chains and PEP 562 ``_LAZY``
        tables through package ``__init__`` files (bounded depth).
        """
        if _depth > 8:
            return None
        table = self.modules.get(module)
        if table is None:
            return None
        if name in table.defs:
            return table.defs[name]
        if name in table.classes:
            return table.classes[name]
        if name in table.imports:
            source, orig = table.imports[name]
            return self.resolve_export(source, orig, _depth + 1)
        if name in table.lazy:
            return self.resolve_export(f"{module}.{table.lazy[name]}", name, _depth + 1)
        return None

    def related_classes(self, name: str) -> frozenset[str]:
        """Bare names of classes related to ``name`` by declared bases
        (transitively, in both directions)."""
        cached = self._related_cache.get(name)
        if cached is not None:
            return cached
        related = {name}
        changed = True
        while changed:
            changed = False
            for cls_name, infos in self.classes.items():
                for info in infos:
                    if cls_name in related and any(
                        b not in related and b in self.classes for b in info.bases
                    ):
                        related.update(b for b in info.bases if b in self.classes)
                        changed = True
                    if cls_name not in related and any(b in related for b in info.bases):
                        related.add(cls_name)
                        changed = True
        result = frozenset(related)
        self._related_cache[name] = result
        return result

    def _methods(
        self, attr: str, within: frozenset[str] | None = None
    ) -> list[FunctionInfo]:
        """Methods named ``attr``: of the classes ``within``, or of every
        project class (the untyped fallback)."""
        return [
            f
            for f in self.by_name.get(attr, [])
            if f.cls is not None
            and f.parent is None
            and (within is None or f.cls in within)
        ]

    # -- pass 2: call edges ----------------------------------------------

    def _extract_calls(self, file: SourceFile) -> None:
        module = module_name(file)
        awaited = awaited_call_ids(file.tree)
        for info in self.functions.values():
            if info.file is file:
                for node in walk_scope(info.node.body):
                    if isinstance(node, ast.Call):
                        self._edge_from_call(
                            info, module, node, id(node) in awaited
                        )

    def _add_edge(
        self,
        caller: FunctionInfo,
        callee: FunctionInfo,
        node: ast.AST,
        kind: str,
    ) -> None:
        edge = CallEdge(
            caller=caller.qname,
            callee=callee.qname,
            path=caller.file.display,
            line=node.lineno,
            col=node.col_offset,
            kind=kind,
        )
        self.edges.append(edge)
        self.edges_by_caller.setdefault(edge.caller, []).append(edge)

    def _reference_candidates(
        self, caller: FunctionInfo, module: str, node: ast.AST
    ) -> list[FunctionInfo]:
        if isinstance(node, ast.Name):
            resolved = self._resolve_direct(caller, module, node.id)
            return [resolved] if isinstance(resolved, FunctionInfo) else []
        if isinstance(node, ast.Attribute):
            return self._attr_candidates(caller, module, node)
        return []

    def _base_classes(self, name: str) -> frozenset[str]:
        """Transitive *project* base classes of ``name`` (upward only)."""
        out: set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for info in self.classes.get(current, []):
                for base in info.bases:
                    if base in self.classes and base not in out:
                        out.add(base)
                        frontier.append(base)
        return frozenset(out)

    def _field_classes(
        self, classes: frozenset[str], attr: str
    ) -> frozenset[str] | str | None:
        """What ``<one of classes>.attr`` holds: a set of project class
        names, ``"nonproject"``, or None (no usable evidence)."""
        types: set[str] = set()
        nonproject = False
        seen = False
        for cls in classes:
            ft = self.field_types.get((cls, attr))
            if ft is None:
                continue
            seen = True
            if ft.unknown:
                return None
            types |= ft.types
            nonproject |= ft.nonproject
        if types:
            return frozenset().union(*map(self.related_classes, types))
        if seen and nonproject:
            return "nonproject"
        return None

    def _name_classes(
        self, caller: FunctionInfo, module: str, name: str
    ) -> frozenset[str] | str | None:
        """What the local/parameter ``name`` can hold in ``caller``:
        related project class names, ``"nonproject"``, or None."""
        node = caller.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.arg != name:
                continue
            if arg.annotation is None:
                return None
            project = self._annotation_project(arg.annotation)
            if not project:
                return "nonproject"
            return frozenset().union(*map(self.related_classes, project))
        table = self.modules.get(module)
        if table is None:
            return None
        ft = _FieldType()
        seen = False
        for sub in walk_scope(node.body):
            if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                if not any(
                    isinstance(t, ast.Name) and t.id == name for t in targets
                ):
                    continue
                seen = True
                if isinstance(sub, ast.AnnAssign) and sub.annotation is not None:
                    self._apply_annotation(ft, sub.annotation)
                if sub.value is not None:
                    self._classify_value(ft, table, sub.value, {})
        if not seen or ft.unknown:
            return None
        if ft.types:
            return frozenset().union(*map(self.related_classes, ft.types))
        if ft.nonproject:
            return "nonproject"
        return None

    def _attr_candidates(
        self, caller: FunctionInfo, module: str, node: ast.Attribute
    ) -> list[FunctionInfo]:
        """Candidate targets for an attribute reference/call."""
        # super().m() dispatches only to project base classes
        if (
            isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "super"
            and caller.cls is not None
        ):
            return self._methods(node.attr, self._base_classes(caller.cls))
        recv = dotted(node.value)
        if recv is None:
            return self._methods(node.attr)
        root, *hops = recv.split(".")
        if root in ("self", "cls") and caller.cls is not None:
            classes = self.related_classes(caller.cls)
        else:
            mod = self._receiver_module(module, recv)
            if mod is not None:
                resolved = self.resolve_export(mod, node.attr)
                if isinstance(resolved, ClassInfo):
                    resolved = resolved.methods.get("__init__")
                return [resolved] if resolved is not None else []
            classes = self._name_classes(caller, module, root)
        for hop in hops:
            if classes is None or classes == "nonproject":
                break
            classes = self._field_classes(classes, hop)
        if classes is None:
            return self._methods(node.attr)
        if classes == "nonproject":
            return []
        return self._methods(node.attr, classes)

    def _resolve_direct(
        self, caller: FunctionInfo, module: str, name: str
    ) -> FunctionInfo | ClassInfo | None:
        # nested defs of the enclosing function chain first
        scope: FunctionInfo | None = caller
        while scope is not None:
            nested = self.functions.get(f"{scope.qname}.{name}")
            if nested is not None:
                return nested
            scope = self.functions.get(scope.parent) if scope.parent else None
        # then the class body (rare: calling an unbound sibling), then module
        if caller.cls is not None:
            table = self.modules.get(module)
            if table is not None:
                cls = table.classes.get(caller.cls)
                if cls is not None and name in cls.methods:
                    return cls.methods[name]
        return self.resolve_export(module, name)

    def _receiver_module(self, module: str, recv: str) -> str | None:
        table = self.modules.get(module)
        if table is None:
            return None
        parts = recv.split(".")
        if parts[0] in table.module_aliases:
            return ".".join([table.module_aliases[parts[0]], *parts[1:]])
        if len(parts) == 1 and parts[0] in table.imports:
            source, orig = table.imports[parts[0]]
            candidate = f"{source}.{orig}"
            if candidate in self.modules:
                return candidate
        return None

    def _edge_from_call(
        self,
        caller: FunctionInfo,
        module: str,
        node: ast.Call,
        awaited: bool,
    ) -> None:
        func = node.func
        name = last_name(func)

        # -- references handed to the loop, or to partial() ------------
        if name in _LOOP_DISPATCH:
            for arg in node.args:
                for target in self._reference_candidates(caller, module, arg):
                    self._add_edge(caller, target, node, "loop")
        elif name == "partial" and node.args:
            for target in self._reference_candidates(
                caller, module, node.args[0]
            ):
                self._add_edge(caller, target, node, "partial")

        # -- the call itself ---------------------------------------------
        if isinstance(func, ast.Name):
            resolved = self._resolve_direct(caller, module, func.id)
            if isinstance(resolved, ClassInfo):
                resolved = resolved.methods.get("__init__")
            if resolved is not None:
                self._add_edge(caller, resolved, node, "call")
        elif isinstance(func, ast.Attribute):
            candidates = self._attr_candidates(caller, module, func)
            if awaited and any(c.is_async for c in candidates):
                candidates = [c for c in candidates if c.is_async]
            for target in candidates:
                self._add_edge(caller, target, node, "call")
