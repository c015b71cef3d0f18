"""The call-graph halves of the rules: chains from event-loop entries
(``coordinator-only``, ``no-blocking-in-async``), ``lock-order``, and
the taint tracking of ``pickle-boundary``.

The headline cases are shapes a per-file check cannot see — a marked
call site outside ``repro/serve/``, a blocking call one helper away, a
lambda bound to a variable — so the value of the whole-program analysis
is pinned by a test, not a claim.  Every rule also has a compliant twin
(no false positive) and a pragma case (suppression still works on
analysis-produced findings).
"""

from repro.lint import run_lint


def lint_files(tmp_path, files, select=None):
    for rel, code in files.items():
        path = tmp_path / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(code, encoding="utf-8")
    return run_lint([tmp_path], select=select)


def rules_fired(report):
    return {f.rule for f in report.findings}


# ---------------------------------------------------------------------------
# coordinator-only / no-blocking-in-async: chains from event-loop entries

_TRANSITIVE_MARKED = {
    "serve/app.py": (
        "from repro.engine.layer import do_work\n"
        "async def handler():\n"
        "    return do_work()\n"
    ),
    "engine/layer.py": (
        "def coordinator_only(fn):\n"
        "    return fn\n"
        "def do_work():\n"
        "    return _internal()\n"
        "@coordinator_only\n"
        "def _internal():\n"
        "    return 1\n"
    ),
}


class TestCoordinatorOnlyTransitive:
    def test_fires_on_marked_call_outside_serve(self, tmp_path):
        """The acceptance fixture: the marked call site is in
        ``repro/engine/``, where no direct name check looks; only the
        walk from the serve coroutine sees the loop reach it."""
        report = lint_files(tmp_path, _TRANSITIVE_MARKED)
        assert rules_fired(report) == {"coordinator-only"}
        (finding,) = report.findings
        assert finding.path.endswith("repro/engine/layer.py")
        assert finding.line == 4  # the final hop: do_work -> _internal

    def test_transitive_rule_fires_with_full_chain(self, tmp_path):
        report = lint_files(
            tmp_path,
            _TRANSITIVE_MARKED,
            select=["coordinator-only"],
        )
        assert rules_fired(report) == {"coordinator-only"}
        message = report.findings[0].message
        assert "handler" in message and "_internal" in message
        assert "->" in message  # the chain is printed hop by hop
        assert "repro/serve/app.py" in message

    def test_fires_on_transitive_blocking_primitive(self, tmp_path):
        report = lint_files(
            tmp_path,
            {
                "serve/app.py": (
                    "from repro.engine.helpers import crunch\n"
                    "async def handler():\n"
                    "    return crunch()\n"
                ),
                "engine/helpers.py": (
                    "import time\n"
                    "def crunch():\n"
                    "    time.sleep(1)\n"
                ),
            },
            select=["no-blocking-in-async"],
        )
        assert rules_fired(report) == {"no-blocking-in-async"}
        (finding,) = report.findings
        assert "time.sleep" in finding.message and "->" in finding.message
        assert finding.path.endswith("repro/serve/app.py")

    def test_quiet_when_routed_through_run_coord(self, tmp_path):
        report = lint_files(
            tmp_path,
            {
                "serve/app.py": (
                    "from repro.engine.layer import do_work\n"
                    "class S:\n"
                    "    async def handler(self):\n"
                    "        return await self._run_coord(do_work)\n"
                    "    def _run_coord(self, fn):\n"
                    "        return fn\n"
                ),
                "engine/layer.py": _TRANSITIVE_MARKED["engine/layer.py"],
            },
            select=["coordinator-only"],
        )
        assert report.ok

    def test_pragma_suppresses_at_the_final_call_site(self, tmp_path):
        files = dict(_TRANSITIVE_MARKED)
        files["engine/layer.py"] = files["engine/layer.py"].replace(
            "    return _internal()",
            "    return _internal()  # repro-lint: "
            "disable=coordinator-only -- fixture justification",
        )
        report = lint_files(tmp_path, files, select=["coordinator-only"])
        assert report.ok
        assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# lock-order


class TestLockOrder:
    def test_fires_on_opposite_nesting_orders(self, tmp_path):
        report = lint_files(
            tmp_path,
            {
                "engine/locks.py": (
                    "import threading\n"
                    "class S:\n"
                    "    def __init__(self):\n"
                    "        self.a = threading.Lock()\n"
                    "        self.b = threading.Lock()\n"
                    "    def one(self):\n"
                    "        with self.a:\n"
                    "            with self.b:\n"
                    "                pass\n"
                    "    def two(self):\n"
                    "        with self.b:\n"
                    "            with self.a:\n"
                    "                pass\n"
                ),
            },
            select=["lock-order"],
        )
        assert rules_fired(report) == {"lock-order"}
        assert "S.a" in report.findings[0].message
        assert "S.b" in report.findings[0].message

    def test_fires_on_interprocedural_cycle(self, tmp_path):
        report = lint_files(
            tmp_path,
            {
                "engine/locks.py": (
                    "import threading\n"
                    "class S:\n"
                    "    def __init__(self):\n"
                    "        self.a = threading.Lock()\n"
                    "        self.b = threading.Lock()\n"
                    "    def one(self):\n"
                    "        with self.a:\n"
                    "            self.grab_b()\n"
                    "    def grab_b(self):\n"
                    "        with self.b:\n"
                    "            pass\n"
                    "    def two(self):\n"
                    "        with self.b:\n"
                    "            self.grab_a()\n"
                    "    def grab_a(self):\n"
                    "        with self.a:\n"
                    "            pass\n"
                ),
            },
            select=["lock-order"],
        )
        assert rules_fired(report) == {"lock-order"}

    def test_plain_lock_self_nesting_fires_rlock_does_not(self, tmp_path):
        code = (
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self.a = threading.{KIND}()\n"
            "    def f(self):\n"
            "        with self.a:\n"
            "            self.g()\n"
            "    def g(self):\n"
            "        with self.a:\n"
            "            pass\n"
        )
        fires = lint_files(
            tmp_path / "lock",
            {"engine/locks.py": code.format(KIND="Lock")},
            select=["lock-order"],
        )
        assert rules_fired(fires) == {"lock-order"}
        assert "re-acquir" in fires.findings[0].message
        clean = lint_files(
            tmp_path / "rlock",
            {"engine/locks.py": code.format(KIND="RLock")},
            select=["lock-order"],
        )
        assert clean.ok

    def test_quiet_on_consistent_order(self, tmp_path):
        report = lint_files(
            tmp_path,
            {
                "engine/locks.py": (
                    "import threading\n"
                    "class S:\n"
                    "    def __init__(self):\n"
                    "        self.a = threading.Lock()\n"
                    "        self.b = threading.Lock()\n"
                    "    def one(self):\n"
                    "        with self.a:\n"
                    "            with self.b:\n"
                    "                pass\n"
                    "    def two(self):\n"
                    "        with self.a:\n"
                    "            with self.b:\n"
                    "                pass\n"
                ),
            },
            select=["lock-order"],
        )
        assert report.ok


# ---------------------------------------------------------------------------
# pickle-boundary: taint tracking


class TestPickleTaint:
    def test_fires_on_lambda_bound_to_a_variable(self, tmp_path):
        report = lint_files(
            tmp_path,
            {
                "engine/x.py": (
                    "def f(pool):\n"
                    "    cb = lambda: 1\n"
                    "    pool.submit(cb)\n"
                ),
            },
            select=["pickle-boundary"],
        )
        assert rules_fired(report) == {"pickle-boundary"}

    def test_fires_on_lease_stored_on_self_and_submitted_later(self, tmp_path):
        report = lint_files(
            tmp_path,
            {
                "engine/x.py": (
                    "class Engine:\n"
                    "    def open(self, store):\n"
                    "        self._lease = store.lease_shared()\n"
                    "    def go(self, pool):\n"
                    "        pool.submit(self._lease)\n"
                ),
            },
            select=["pickle-boundary"],
        )
        assert rules_fired(report) == {"pickle-boundary"}
        assert "lease" in report.findings[0].message

    def test_fires_on_taint_through_a_return_value(self, tmp_path):
        report = lint_files(
            tmp_path,
            {
                "engine/x.py": (
                    "import threading\n"
                    "def make():\n"
                    "    return threading.Lock()\n"
                    "def f(pool):\n"
                    "    pool.submit(make())\n"
                ),
            },
            select=["pickle-boundary"],
        )
        assert rules_fired(report) == {"pickle-boundary"}

    def test_fires_through_a_helper_parameter(self, tmp_path):
        report = lint_files(
            tmp_path,
            {
                "engine/x.py": (
                    "def send(pool, item):\n"
                    "    pool.submit(item)\n"
                    "def f(pool):\n"
                    "    bad = lambda: 2\n"
                    "    send(pool, bad)\n"
                ),
            },
            select=["pickle-boundary"],
        )
        assert rules_fired(report) == {"pickle-boundary"}
        assert "send" in report.findings[0].message

    def test_handle_access_sanitizes(self, tmp_path):
        report = lint_files(
            tmp_path,
            {
                "engine/x.py": (
                    "def f(pool, store):\n"
                    "    lease = store.lease_shared()\n"
                    "    pool.submit(lease.handle)\n"
                ),
            },
            select=["pickle-boundary"],
        )
        assert report.ok

    def test_callback_kwargs_are_exempt(self, tmp_path):
        report = lint_files(
            tmp_path,
            {
                "engine/x.py": (
                    "def f(pool, task):\n"
                    "    cb = lambda r: r\n"
                    "    pool.submit(task, callback=cb)\n"
                ),
            },
            select=["pickle-boundary"],
        )
        assert report.ok
