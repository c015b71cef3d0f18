"""repro.lint — the invariant linter that gates this codebase's contracts.

Three layers of coverage:

1. **Paired fixtures per rule** — every rule fires on a minimal
   violating snippet and stays quiet on the compliant twin, so a rule
   can neither rot into a no-op nor creep into false positives.
   Fixtures are materialized under a ``repro/...`` directory inside
   ``tmp_path`` because several rules are path-scoped.
2. **Pragma machinery** — justified suppressions hide findings (and
   surface them as ``suppressed`` with the justification attached);
   unjustified, unknown-rule, or stale pragmas are themselves
   unsuppressable findings.
3. **The tree itself** — ``src/repro`` lints clean (the PR-8 sweep must
   never regress) and the linter lints *itself*, wiring the self-check
   into tier-1.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, UNSUPPRESSABLE, run_lint
from repro.lint.__main__ import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def lint_snippet(tmp_path, rel, code, select=None):
    """Materialize ``code`` at ``repro/<rel>`` under tmp and lint it."""
    path = tmp_path / "repro" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(code, encoding="utf-8")
    return run_lint([tmp_path], select=select)


def rules_fired(report):
    return {f.rule for f in report.findings}


# ---------------------------------------------------------------------------
# R1: no-blocking-in-async


class TestNoBlockingInAsync:
    def test_fires_on_time_sleep_in_async_def(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/app.py",
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1)\n",
        )
        assert rules_fired(report) == {"no-blocking-in-async"}
        assert report.findings[0].line == 3

    def test_fires_on_bare_open_and_nonawaited_acquire(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/app.py",
            "async def handler(lock):\n"
            "    lock.acquire()\n"
            "    open('x')\n",
            select=["no-blocking-in-async"],
        )
        assert len(report.findings) == 2
        assert rules_fired(report) == {"no-blocking-in-async"}

    def test_fires_in_a_call_soon_threadsafe_callback_body(self, tmp_path):
        # A sync function handed to the loop runs on it: its own body is
        # an event-loop entry, checked like a coroutine's.
        report = lint_snippet(
            tmp_path,
            "serve/app.py",
            "import time\n"
            "def tick():\n"
            "    time.sleep(1)\n"
            "def schedule(loop):\n"
            "    loop.call_soon_threadsafe(tick)\n",
        )
        assert rules_fired(report) == {"no-blocking-in-async"}
        assert report.findings[0].line == 3
        assert "loop callback tick" in report.findings[0].message

    def test_fires_on_obs_persistence_reached_through_a_sync_helper(
        self, tmp_path
    ):
        report = lint_snippet(
            tmp_path,
            "serve/app.py",
            "class Handler:\n"
            "    async def handler(self, path):\n"
            "        self._snapshot(path)\n"
            "    def _snapshot(self, path):\n"
            "        self.tracer.dump(path)\n",
        )
        assert rules_fired(report) == {"no-blocking-in-async"}
        (finding,) = report.findings
        assert finding.line == 3  # the call into the helper
        assert "self.tracer" in finding.message and "->" in finding.message

    def test_quiet_on_awaited_wait_and_async_sleep(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/app.py",
            "import asyncio\n"
            "async def handler(event):\n"
            "    await event.wait()\n"
            "    await asyncio.sleep(0)\n",
        )
        assert report.ok

    def test_quiet_on_blocking_call_in_nested_sync_def(self, tmp_path):
        # A nested `def` runs on whatever thread calls it (typically the
        # coordinator); only the coroutine's own body is constrained.
        report = lint_snippet(
            tmp_path,
            "serve/app.py",
            "import time\n"
            "async def handler():\n"
            "    def on_coord():\n"
            "        time.sleep(1)\n"
            "    return on_coord\n",
        )
        assert report.ok

    def test_quiet_outside_serve(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "bench/app.py",
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1)\n",
        )
        assert report.ok


# ---------------------------------------------------------------------------
# R2: lease-lifecycle


class TestLeaseLifecycle:
    def test_fires_on_discarded_acquisition(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "engine/x.py",
            "def f(store):\n"
            "    store.lease_shared()\n",
        )
        assert rules_fired(report) == {"lease-lifecycle"}

    def test_fires_on_binding_without_release(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "engine/x.py",
            "def f(pool):\n"
            "    bus = pool.acquire()\n"
            "    return None\n",
        )
        assert rules_fired(report) == {"lease-lifecycle"}

    @pytest.mark.parametrize(
        "body",
        [
            # with-block ownership
            "    with store.lease_shared() as lease:\n        return lease.handle\n",
            # explicit release on an error path
            "    bus = pool.acquire()\n"
            "    try:\n        use(bus)\n"
            "    finally:\n        pool.release(bus)\n",
            # handed to an owner object
            "    bus = pool.acquire()\n    return Prepared(bus=bus)\n",
            # stored on an owner attribute
            "    self._lease = store.lease_shared()\n",
        ],
        ids=["with", "try-finally", "owner-call", "attribute"],
    )
    def test_quiet_on_owned_acquisitions(self, tmp_path, body):
        report = lint_snippet(
            tmp_path,
            "engine/x.py",
            "def f(self, store, pool, use, Prepared):\n" + body,
        )
        assert report.ok, [f.message for f in report.findings]


# ---------------------------------------------------------------------------
# R3: coordinator-only


_MARKED_DEF = (
    "from repro.serve.markers import coordinator_only\n"
    "@coordinator_only\n"
    "def prepare_query(engine):\n"
    "    return engine\n"
)


class TestCoordinatorOnly:
    def test_fires_on_unmarked_caller_in_serve(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/sched.py",
            _MARKED_DEF + "def event_loop_side(engine):\n"
            "    return prepare_query(engine)\n",
        )
        assert rules_fired(report) == {"coordinator-only"}
        assert "prepare_query" in report.findings[0].message

    def test_quiet_when_caller_is_marked(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/sched.py",
            _MARKED_DEF + "@coordinator_only\n"
            "def also_coordinator(engine):\n"
            "    return prepare_query(engine)\n",
        )
        assert report.ok

    def test_quiet_inside_the_dispatch_shim(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/sched.py",
            _MARKED_DEF + "def _run_coord(engine):\n"
            "    return lambda: prepare_query(engine)\n",
        )
        assert report.ok

    def test_quiet_on_awaited_async_sibling(self, tmp_path):
        # Scheduler.append_edges (async) shares its name with the
        # marked hub/engine method; awaited calls are the async wrapper.
        report = lint_snippet(
            tmp_path,
            "serve/sched.py",
            "from repro.serve.markers import coordinator_only\n"
            "@coordinator_only\n"
            "def append_edges(hub):\n"
            "    return hub\n"
            "async def handler(scheduler):\n"
            "    return await scheduler.append_edges()\n",
        )
        assert report.ok

    def test_reference_into_run_coord_is_not_a_call(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/sched.py",
            _MARKED_DEF + "async def handler(self, engine):\n"
            "    return await self._run_coord(prepare_query, engine)\n",
        )
        assert report.ok

    def test_marked_defs_outside_serve_constrain_serve_callers(self, tmp_path):
        (tmp_path / "repro" / "engine").mkdir(parents=True)
        (tmp_path / "repro" / "engine" / "eng.py").write_text(_MARKED_DEF)
        (tmp_path / "repro" / "serve").mkdir(parents=True)
        (tmp_path / "repro" / "serve" / "sched.py").write_text(
            "def loop_side(engine):\n    return engine.prepare_query()\n"
        )
        report = run_lint([tmp_path])
        assert rules_fired(report) == {"coordinator-only"}

    def test_engine_layer_callers_are_unconstrained(self, tmp_path):
        # Blocking engine.sweep()/hub.mine() paths: the calling thread
        # *is* the coordinator there.
        report = lint_snippet(
            tmp_path,
            "engine/eng.py",
            _MARKED_DEF + "def sweep(engine):\n"
            "    return prepare_query(engine)\n",
        )
        assert report.ok


# ---------------------------------------------------------------------------
# R4: pickle-boundary


class TestPickleBoundary:
    def test_fires_on_lambda_into_pool_submit(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "engine/x.py",
            "def f(pool):\n"
            "    pool.submit(lambda: 1)\n",
        )
        assert rules_fired(report) == {"pickle-boundary"}

    def test_fires_on_local_def_into_shard_task(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "engine/x.py",
            "def f():\n"
            "    def helper():\n"
            "        return 1\n"
            "    return ShardTask(shard_id=0, config=helper)\n",
        )
        assert rules_fired(report) == {"pickle-boundary"}
        assert "helper" in report.findings[0].message

    # A call that resolves to no project function passes on its
    # arguments' taint, and unmodelled expressions carry their parts'.
    @pytest.mark.parametrize(
        "code",
        [
            "from functools import partial\n"
            "def f(pool):\n"
            "    pool.submit(partial(lambda x: x, 1))\n",
            "def f(pool, wrap):\n"
            "    def helper():\n"
            "        return 1\n"
            "    pool.submit(wrap(helper))\n",
            "def f(make):\n"
            "    return ShardTask(shard_id=0, config=make(lambda: 1))\n",
            "def f(pool, tbl):\n"
            "    def helper():\n"
            "        return 1\n"
            "    pool.submit(tbl[helper])\n",
            "def f(pool):\n"
            "    pool.submit([lambda: i for i in range(3)])\n",
            "def f(pool):\n"
            "    class LocalClass:\n"
            "        pass\n"
            "    pool.submit(f\"{LocalClass}\")\n",
            "from repro.parallel.pool import pool\n"
            "pool.submit(lambda: 1)\n",
        ],
        ids=["partial-lambda", "unresolved-wrap", "unresolved-make",
             "subscript", "listcomp", "fstring", "module-level"],
    )
    def test_fires_through_opaque_expressions(self, tmp_path, code):
        report = lint_snippet(tmp_path, "engine/x.py", code)
        assert rules_fired(report) == {"pickle-boundary"}

    def test_callback_kwargs_stay_in_parent_and_are_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/x.py",
            "def f(self, task):\n"
            "    self._fleet.submit(task, callback=lambda r: r,\n"
            "                       error_callback=lambda e: e)\n",
        )
        assert report.ok

    def test_quiet_on_module_level_payloads(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "engine/x.py",
            "def shard_fn():\n"
            "    return 1\n"
            "def f(pool, task):\n"
            "    pool.submit(task)\n"
            "    return ShardTask(shard_id=0, config=shard_fn)\n",
        )
        assert report.ok

    def test_non_pool_submit_is_ignored(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "engine/x.py",
            "def f(executor):\n"
            "    executor.submit(lambda: 1)\n",
        )
        assert report.ok


# ---------------------------------------------------------------------------
# R5: ckey-layout


class TestCkeyLayout:
    def test_fires_on_integer_subscript(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/x.py",
            "def f(ckey):\n"
            "    return ckey[4]\n",
        )
        assert rules_fired(report) == {"ckey-layout"}

    def test_fires_on_slice_and_variant_names(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "engine/x.py",
            "def f(seed_ckey, request):\n"
            "    a = seed_ckey[1:]\n"
            "    b = request.canonical_key(None, 0)[0]\n"
            "    return a, b\n",
        )
        assert len(report.findings) == 2
        assert rules_fired(report) == {"ckey-layout"}

    def test_layout_owning_modules_are_exempt(self, tmp_path):
        """Only the module that defines the layout may index it."""
        snippet = "def f(ckey):\n    return ckey[4]\n"
        assert lint_snippet(tmp_path, "core/miner.py", snippet).ok
        report = lint_snippet(tmp_path, "engine/request.py", snippet)
        assert rules_fired(report) == {"ckey-layout"}

    def test_quiet_on_named_constants_and_other_tuples(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "engine/x.py",
            "def f(ckey, row, CKEY_K):\n"
            "    return ckey[CKEY_K], row[0]\n",
        )
        assert report.ok


# ---------------------------------------------------------------------------
# R6: swallowed-exception


class TestSwallowedException:
    @pytest.mark.parametrize(
        "clause", ["except:", "except Exception:", "except (ValueError, Exception):"]
    )
    def test_fires_on_broad_pass(self, tmp_path, clause):
        report = lint_snippet(
            tmp_path,
            "parallel/x.py",
            f"def f():\n    try:\n        g()\n    {clause}\n        pass\n",
        )
        assert rules_fired(report) == {"swallowed-exception"}

    def test_quiet_on_narrow_except_pass(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "parallel/x.py",
            "def f():\n    try:\n        g()\n"
            "    except FileNotFoundError:\n        pass\n",
        )
        assert report.ok

    def test_quiet_on_broad_except_with_a_body(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/x.py",
            "def f(log):\n    try:\n        g()\n"
            "    except Exception as exc:\n        log.warning(exc)\n",
        )
        assert report.ok

    def test_fires_on_a_handler_that_drops_the_cause(self, tmp_path):
        """The shape that hid a broken delta migrator: the body does
        work, but neither re-raises nor reads what it caught."""
        report = lint_snippet(
            tmp_path,
            "engine/x.py",
            "def f(entry):\n"
            "    try:\n"
            "        status, combined = g(entry)\n"
            "    except Exception:\n"
            "        status, combined = 'fallback', None\n"
            "    return status, combined\n",
        )
        assert rules_fired(report) == {"swallowed-exception"}

    def test_fires_when_the_bound_name_is_only_rebound(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "engine/x.py",
            "def f():\n    try:\n        g()\n"
            "    except Exception as exc:\n        exc = None\n",
        )
        assert rules_fired(report) == {"swallowed-exception"}

    def test_quiet_on_broad_except_that_reraises(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "engine/x.py",
            "def f(lock):\n    try:\n        g()\n"
            "    except BaseException:\n        lock.release()\n        raise\n",
        )
        assert report.ok

    def test_quiet_outside_parallel_and_serve(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "data/x.py",
            "def f():\n    try:\n        g()\n    except Exception:\n        pass\n",
        )
        assert report.ok


# ---------------------------------------------------------------------------
# R1, observability persistence: in-memory emission is free on the loop


class TestObsNonblocking:
    def test_fires_on_persistence_verb_on_obs_receiver(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/x.py",
            "async def handler(self, path):\n"
            "    self.tracer.dump(path)\n",
        )
        assert rules_fired(report) == {"no-blocking-in-async"}

    def test_fires_on_registry_flush_and_history_write(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/x.py",
            "async def handler(metrics_registry, history_file):\n"
            "    metrics_registry.flush()\n"
            "    history_file.write_text('row')\n",
        )
        assert rules_fired(report) == {"no-blocking-in-async"}
        assert len(report.findings) == 2

    def test_fires_on_direct_record_bench_run(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/x.py",
            "from repro.bench.history import record_bench_run\n"
            "async def handler(payload):\n"
            "    record_bench_run('serve', payload, 'out', headline={})\n",
        )
        assert rules_fired(report) == {"no-blocking-in-async"}

    def test_quiet_on_in_memory_emission(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/x.py",
            "async def handler(REGISTRY, tracer, counter):\n"
            "    counter.inc()\n"
            "    tracer.span('job-1', 'plan', 0.0, 1.0)\n"
            "    return REGISTRY.render_prometheus()\n",
        )
        assert report.ok

    def test_quiet_on_non_obs_receiver(self, tmp_path):
        # The SSE path writes to the *socket* from a coroutine — that is
        # the endpoint's job, not observability persistence.
        report = lint_snippet(
            tmp_path,
            "serve/x.py",
            "async def handler(writer, data):\n"
            "    writer.write(data)\n"
            "    await writer.drain()\n",
        )
        assert report.ok

    def test_quiet_in_sync_def_and_outside_serve(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/x.py",
            "def snapshot(self, path):\n"
            "    self.tracer.dump(path)\n",
        )
        assert report.ok
        report = lint_snippet(
            tmp_path,
            "bench/x.py",
            "async def handler(self, path):\n"
            "    self.tracer.dump(path)\n",
        )
        assert report.ok


# ---------------------------------------------------------------------------
# pragma machinery


class TestPragmas:
    def test_justified_pragma_suppresses_and_records_why(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "parallel/x.py",
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    # repro-lint: disable=swallowed-exception -- teardown is best-effort\n"
            "    except Exception:\n"
            "        pass\n",
        )
        assert report.ok
        assert len(report.suppressed) == 1
        assert report.suppressed[0].justification == "teardown is best-effort"

    def test_same_line_pragma_suppresses(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/x.py",
            "import time\n"
            "async def f():\n"
            "    time.sleep(0)  # repro-lint: disable=no-blocking-in-async -- test fixture\n",
        )
        assert report.ok and len(report.suppressed) == 1

    def test_pragma_without_justification_is_a_finding(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "parallel/x.py",
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    # repro-lint: disable=swallowed-exception\n"
            "    except Exception:\n"
            "        pass\n",
        )
        # The violation *is* suppressed, but the naked pragma is flagged.
        assert rules_fired(report) == {"pragma"}

    def test_unknown_rule_in_pragma_is_a_finding(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "data/x.py",
            "x = 1  # repro-lint: disable=no-such-rule -- oops\n",
        )
        assert rules_fired(report) == {"pragma"}
        assert "no-such-rule" in report.findings[0].message

    def test_pragma_findings_cannot_be_self_suppressed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "data/x.py",
            "x = 1  # repro-lint: disable=pragma,no-such-rule -- nice try\n",
        )
        assert rules_fired(report) == {"pragma"}

    def test_pragma_only_suppresses_named_rules(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/x.py",
            "import time\n"
            "async def f():\n"
            "    time.sleep(0)  # repro-lint: disable=ckey-layout -- wrong rule\n",
        )
        # the finding stays active, and the misnamed pragma is stale
        assert [f.rule for f in report.findings] == [
            "no-blocking-in-async", "pragma",
        ]
        assert not report.suppressed

    def test_pragma_that_suppresses_nothing_is_a_finding(self, tmp_path):
        # a narrow except is never flagged, so this pragma is dead weight
        code = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    # repro-lint: disable=swallowed-exception -- peer went away\n"
            "    except ConnectionError:\n"
            "        pass\n"
        )
        report = lint_snippet(tmp_path, "serve/x.py", code)
        assert rules_fired(report) == {"pragma"}
        (finding,) = report.findings
        assert finding.line == 4 and "suppresses nothing" in finding.message

    def test_stale_check_waits_for_every_named_rule(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/x.py",
            "x = 1  # repro-lint: disable=swallowed-exception -- fixture\n",
            select=["ckey-layout"],
        )
        assert report.ok

    def test_pragma_inside_string_literal_is_inert(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "data/x.py",
            'DOC = "# repro-lint: disable=bogus-rule"\n',
        )
        assert report.ok


# ---------------------------------------------------------------------------
# runner, reporters, CLI


class TestRunnerAndReporters:
    def test_parse_failure_is_an_unsuppressable_finding(self, tmp_path):
        report = lint_snippet(tmp_path, "data/x.py", "def broken(:\n")
        assert rules_fired(report) == {"parse"}

    def test_select_restricts_rules(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/x.py",
            "import time\n"
            "async def f(ckey):\n"
            "    time.sleep(0)\n"
            "    return ckey[0]\n",
            select=["ckey-layout"],
        )
        assert rules_fired(report) == {"ckey-layout"}

    def test_select_unknown_rule_raises(self, tmp_path):
        with pytest.raises(KeyError):
            lint_snippet(tmp_path, "data/x.py", "x = 1\n", select=["nope"])

    def test_json_report_shape(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "serve/x.py",
            "import time\n"
            "async def f():\n"
            "    time.sleep(0)\n",
        )
        out = report.write_json(tmp_path / "deep" / "nested" / "lint.json")
        data = json.loads(out.read_text())
        assert data["ok"] is False
        assert data["summary"]["findings"] == 1
        (finding,) = data["findings"]
        assert finding["rule"] == "no-blocking-in-async"
        assert finding["line"] == 3
        assert {r["name"] for r in data["rules"]} == set(ALL_RULES)

    def test_cli_exit_codes_and_json(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "repro" / "serve" / "x.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nasync def f():\n    time.sleep(0)\n")
        json_path = tmp_path / "out" / "report.json"
        assert lint_main([str(tmp_path), "--json", str(json_path)]) == 1
        assert json.loads(json_path.read_text())["ok"] is False
        bad.write_text("import asyncio\nasync def f():\n    await asyncio.sleep(0)\n")
        assert lint_main([str(tmp_path)]) == 0
        assert lint_main([str(tmp_path), "--select", "definitely-not-a-rule"]) == 2
        capsys.readouterr()

    def test_json_schema_version_is_3_with_stats(self, tmp_path):
        report = lint_snippet(tmp_path, "data/x.py", "x = 1\n")
        data = report.to_dict()
        assert data["schema_version"] == 3
        assert "baselined" not in data
        assert "baselined" not in data["summary"]
        assert "rule_seconds" in data["stats"]
        assert set(data["stats"]["rule_seconds"]) == set(ALL_RULES)

    def test_cli_empty_select_exits_2(self, tmp_path, capsys):
        (tmp_path / "x.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path), "--select", ","]) == 2
        assert "named no rules" in capsys.readouterr().err

    def test_cli_stats_and_json(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "serve" / "x.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nasync def f():\n    time.sleep(0)\n")
        json_path = tmp_path / "out" / "report.json"
        code = lint_main(
            [str(tmp_path / "repro"), "--stats", "--json", str(json_path)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "stats:" in out and "call_edges=" in out
        assert json.loads(json_path.read_text())["summary"]["findings"] == 1

    def test_removed_flags_are_usage_errors(self, capsys):
        for flag in ("--cache", "--baseline", "--sarif"):
            with pytest.raises(SystemExit) as exc:
                lint_main(["src", flag, "x"])
            assert exc.value.code == 2
        capsys.readouterr()

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in ALL_RULES:
            assert name in out
        assert "unsuppressable" in out

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "coordinator-only" in proc.stdout


# ---------------------------------------------------------------------------
# the tree itself


class TestTreeIsClean:
    def test_src_repro_lints_clean(self):
        report = run_lint([SRC / "repro"])
        assert report.ok, "\n" + "\n".join(f.format() for f in report.findings)

    def test_every_shipped_pragma_is_justified(self):
        report = run_lint([SRC / "repro"])
        assert all(f.justification for f in report.suppressed)

    def test_linter_lints_itself(self):
        """Tier-1 self-check: the tool cannot rot silently."""
        report = run_lint([SRC / "repro" / "lint"])
        assert report.ok, "\n" + "\n".join(f.format() for f in report.findings)
        assert report.files_checked >= 5

    def test_unsuppressable_set_matches_registry(self):
        assert UNSUPPRESSABLE <= set(ALL_RULES)
        assert "parse" in UNSUPPRESSABLE and "pragma" in UNSUPPRESSABLE
