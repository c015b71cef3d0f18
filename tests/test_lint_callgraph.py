"""repro.lint.callgraph — the whole-program analysis substrate.

Covers the resolution machinery every interprocedural rule leans on:
import chasing (including re-exports through package ``__init__`` files
and the PEP 562 ``_LAZY`` table), edge kinds (call / partial / loop, and
no edge for references dispatched to another thread or process),
field-type inference for ``self.x`` receivers, ``super()`` dispatch, and
the documented misses (dynamic ``getattr`` dispatch).
Each case is a paired fires/clean fixture: an edge the graph must have,
next to a same-shaped construct it must *not* over-resolve.
"""

import time
from pathlib import Path

from repro.lint import load_project

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def analysis_of(tmp_path, files):
    """Materialize ``files`` under ``repro/`` and build the analysis."""
    for rel, code in files.items():
        path = tmp_path / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(code, encoding="utf-8")
    return load_project([tmp_path]).analysis()


def edges_from(analysis, caller_suffix):
    return [
        (e.callee, e.kind)
        for e in analysis.edges
        if e.caller.endswith(caller_suffix)
    ]


class TestResolution:
    def test_module_function_call(self, tmp_path):
        analysis = analysis_of(tmp_path, {
            "a.py": "def target():\n    return 1\n"
                    "def caller():\n    return target()\n",
        })
        assert ("repro.a.target", "call") in edges_from(analysis, ".caller")

    def test_import_chasing_across_modules(self, tmp_path):
        analysis = analysis_of(tmp_path, {
            "impl.py": "def thing():\n    return 1\n",
            "user.py": "from repro.impl import thing\n"
                       "def caller():\n    return thing()\n",
        })
        assert ("repro.impl.thing", "call") in edges_from(analysis, ".caller")

    def test_reexport_through_package_init(self, tmp_path):
        analysis = analysis_of(tmp_path, {
            "pkg/__init__.py": "from .impl import thing\n",
            "pkg/impl.py": "def thing():\n    return 1\n",
            "user.py": "from repro.pkg import thing\n"
                       "def caller():\n    return thing()\n",
        })
        assert ("repro.pkg.impl.thing", "call") in edges_from(
            analysis, "user.caller"
        )

    def test_pep562_lazy_reexport(self, tmp_path):
        analysis = analysis_of(tmp_path, {
            "pkg/__init__.py": (
                '_LAZY = {"Thing": "impl"}\n'
                "def __getattr__(name):\n"
                "    raise AttributeError(name)\n"
            ),
            "pkg/impl.py": (
                "class Thing:\n"
                "    def __init__(self):\n"
                "        self.x = 1\n"
            ),
            "user.py": "from repro.pkg import Thing\n"
                       "def caller():\n    return Thing()\n",
        })
        assert ("repro.pkg.impl.Thing.__init__", "call") in edges_from(
            analysis, "user.caller"
        )

    def test_decorator_wrapped_call_site(self, tmp_path):
        analysis = analysis_of(tmp_path, {
            "a.py": (
                "def deco(fn):\n"
                "    def inner(*a):\n"
                "        return fn(*a)\n"
                "    return inner\n"
                "@deco\n"
                "def target():\n"
                "    return 1\n"
                "def caller():\n"
                "    return target()\n"
            ),
        })
        assert ("repro.a.target", "call") in edges_from(analysis, "a.caller")
        info = analysis.functions["repro.a.target"]
        assert info.decorators == ("deco",)

    def test_functools_partial_site(self, tmp_path):
        analysis = analysis_of(tmp_path, {
            "a.py": (
                "from functools import partial\n"
                "def target(x):\n    return x\n"
                "def caller():\n    return partial(target, 1)\n"
            ),
        })
        assert ("repro.a.target", "partial") in edges_from(analysis, ".caller")

    def test_async_generator_body_is_walked(self, tmp_path):
        analysis = analysis_of(tmp_path, {
            "a.py": (
                "def helper():\n    return 1\n"
                "async def agen():\n"
                "    yield helper()\n"
            ),
        })
        assert ("repro.a.helper", "call") in edges_from(analysis, ".agen")
        assert analysis.functions["repro.a.agen"].is_async

    def test_dynamic_getattr_dispatch_is_a_documented_miss(self, tmp_path):
        analysis = analysis_of(tmp_path, {
            "a.py": (
                "def target():\n    return 1\n"
                "def caller(obj, name):\n"
                "    return getattr(obj, name)()\n"
            ),
        })
        assert edges_from(analysis, ".caller") == []


class TestDispatchKinds:
    def test_submit_callback_kwarg_is_any(self, tmp_path):
        """A ``callback=`` runs on the pool's result-handler thread, so
        the reference makes no edge; the direct call beside it does."""
        analysis = analysis_of(tmp_path, {
            "a.py": (
                "def on_done(r):\n    return r\n"
                "def caller(pool, task):\n"
                "    pool.submit(task, callback=on_done)\n"
                "    return on_done(task)\n"
            ),
        })
        assert edges_from(analysis, ".caller") == [("repro.a.on_done", "call")]

    def test_apply_async_target_is_worker(self, tmp_path):
        """An ``apply_async`` target runs in a worker process, so the
        reference makes no edge; the direct call beside it does."""
        analysis = analysis_of(tmp_path, {
            "a.py": (
                "def run(t):\n    return t\n"
                "def caller(pool, task):\n"
                "    pool.apply_async(run, (task,))\n"
                "    return run(task)\n"
            ),
        })
        assert edges_from(analysis, ".caller") == [("repro.a.run", "call")]

    def test_call_soon_reference_is_loop(self, tmp_path):
        analysis = analysis_of(tmp_path, {
            "a.py": (
                "def tick():\n    return 1\n"
                "def caller(loop):\n"
                "    loop.call_soon_threadsafe(tick)\n"
            ),
        })
        assert ("repro.a.tick", "loop") in edges_from(analysis, ".caller")

    def test_run_coord_reference_is_coord(self, tmp_path):
        """A reference handed to ``_run_coord`` runs on the coordinator
        thread: the shim call is an edge, the reference is not."""
        analysis = analysis_of(tmp_path, {
            "a.py": (
                "def work():\n    return 1\n"
                "class S:\n"
                "    async def go(self):\n"
                "        await self._run_coord(work)\n"
                "    def _run_coord(self, fn):\n"
                "        return fn\n"
            ),
        })
        assert edges_from(analysis, ".go") == [("repro.a.S._run_coord", "call")]

    def test_calls_inside_a_lambda_make_no_edge(self, tmp_path):
        """A call inside a lambda runs whenever, and on whichever thread,
        the lambda is invoked, so no rule may follow the caller into it."""
        analysis = analysis_of(tmp_path, {
            "a.py": (
                "def work():\n    return 1\n"
                "def caller():\n"
                "    work()\n"
                "    return lambda: work()\n"
            ),
        })
        assert edges_from(analysis, ".caller") == [("repro.a.work", "call")]


class TestFieldTypes:
    def test_constructor_assignment_types_the_receiver(self, tmp_path):
        analysis = analysis_of(tmp_path, {
            "a.py": (
                "class Real:\n"
                "    def go(self):\n        return 1\n"
                "class Decoy:\n"
                "    def go(self):\n        return 2\n"
                "class Holder:\n"
                "    def __init__(self):\n"
                "        self.r = Real()\n"
                "    def caller(self):\n"
                "        return self.r.go()\n"
            ),
        })
        out = edges_from(analysis, "Holder.caller")
        assert ("repro.a.Real.go", "call") in out
        assert ("repro.a.Decoy.go", "call") not in out

    def test_stdlib_typed_field_resolves_to_nothing(self, tmp_path):
        analysis = analysis_of(tmp_path, {
            "a.py": (
                "import asyncio\n"
                "class Decoy:\n"
                "    def close(self):\n        return 2\n"
                "class Holder:\n"
                "    def __init__(self):\n"
                "        self._server: asyncio.AbstractServer | None = None\n"
                "    def caller(self):\n"
                "        self._server.close()\n"
            ),
        })
        assert edges_from(analysis, "Holder.caller") == []

    def test_annotated_parameter_types_a_bare_receiver(self, tmp_path):
        analysis = analysis_of(tmp_path, {
            "a.py": (
                "class Real:\n"
                "    def go(self):\n        return 1\n"
                "class Decoy:\n"
                "    def go(self):\n        return 2\n"
                "def caller(r: Real):\n"
                "    return r.go()\n"
            ),
        })
        out = edges_from(analysis, "a.caller")
        assert ("repro.a.Real.go", "call") in out
        assert ("repro.a.Decoy.go", "call") not in out

    def test_untyped_receiver_over_approximates_to_all(self, tmp_path):
        analysis = analysis_of(tmp_path, {
            "a.py": (
                "class Real:\n"
                "    def go(self):\n        return 1\n"
                "class Decoy:\n"
                "    def go(self):\n        return 2\n"
                "def caller(r):\n"
                "    return r.go()\n"
            ),
        })
        out = edges_from(analysis, "a.caller")
        assert ("repro.a.Real.go", "call") in out
        assert ("repro.a.Decoy.go", "call") in out

    def test_super_resolves_only_to_project_bases(self, tmp_path):
        analysis = analysis_of(tmp_path, {
            "a.py": (
                "class Base:\n"
                "    def setup(self):\n        return 1\n"
                "class Unrelated:\n"
                "    def setup(self):\n        return 2\n"
                "class Child(Base):\n"
                "    def setup(self):\n"
                "        return super().setup()\n"
            ),
        })
        out = edges_from(analysis, "Child.setup")
        assert ("repro.a.Base.setup", "call") in out
        assert ("repro.a.Unrelated.setup", "call") not in out

    def test_exception_super_init_resolves_to_nothing(self, tmp_path):
        analysis = analysis_of(tmp_path, {
            "a.py": (
                "class Holder:\n"
                "    def __init__(self, x):\n        self.x = x\n"
                "class Boom(Exception):\n"
                "    def __init__(self, what):\n"
                "        super().__init__(what)\n"
            ),
        })
        assert edges_from(analysis, "Boom.__init__") == []


class TestRealTree:
    def test_analysis_builds_fast_and_reports_stats(self):
        started = time.perf_counter()
        analysis = load_project([SRC]).analysis()
        elapsed = time.perf_counter() - started
        stats = analysis.stats()
        assert stats["files"] >= 60
        assert stats["functions"] >= 400
        assert stats["call_edges"] >= 500
        assert elapsed < 10.0
