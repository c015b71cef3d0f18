"""repro.serve: async serving semantics over one shared fleet.

The serving layer's contract, on top of the hub's:

1. **Exactness under any interleaving** — every served answer equals
   the serial oracle, no matter how many concurrent jobs' shards the
   scheduler interleaves, in what order they were submitted, at what
   priorities, or across worker counts; cache sharing included.
2. **Priorities** — a high-priority job submitted *after* a bulk batch
   completes before the batch does.
3. **Cancellation hygiene** — a cancelled job stops submitting shards,
   drains in-flight ones, releases its lease pin only after the drain,
   and never corrupts another job's results (asserted by exactness of
   everything else, including jobs that run after it on the same
   workers).
4. **Safety rails** — deadlines expire jobs; ``close()`` during an
   in-flight pooled job fails fast instead of deadlocking its gatherer;
   lease-budget eviction stays correct while two networks' shards are
   interleaved (pinned leases are not evicted from under queued tasks).
"""

import asyncio
import json
import logging
import queue
import random
import re
import time

import numpy as np
import pytest

import repro.parallel.pool as pool_module
from repro.datasets.random_graphs import random_attributed_network, random_schema
from repro.engine import EngineHub, MineRequest, MiningEngine
from repro.parallel.pool import PersistentWorkerPool
from repro.serve import JobCancelled, JobState, Scheduler, ServeHTTP

from oracles import oracle


def _signature(result):
    return [(str(m.gr), round(m.score, 9), m.metrics.support_count) for m in result]


def _make_network(seed: int, num_edges: int = 100):
    schema = random_schema(
        num_node_attrs=3, num_edge_attrs=1, max_domain=3, num_homophily=2, seed=seed
    )
    return random_attributed_network(
        schema, num_nodes=20, num_edges=num_edges, homophily_strength=0.5, seed=seed
    )


def _delta(network, count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, network.num_nodes, count)
    dst = rng.integers(0, network.num_nodes, count)
    edge_codes = {
        name: rng.integers(
            1, network.schema.edge_attribute(name).domain_size + 1, count
        )
        for name in network.schema.edge_attribute_names
    }
    return src, dst, edge_codes


async def _wait_for(predicate, timeout: float = 30.0, interval: float = 0.005):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("timed out waiting for serving condition")
        await asyncio.sleep(interval)


class TestServeEquivalence:
    """Acceptance: concurrent served results are GR-for-GR equal to the
    blocking hub/fresh miners for the same requests, across submission
    interleavings and worker counts."""

    REQUESTS = [
        MineRequest(k=10, min_support=2, min_nhp=0.3, workers=2),
        MineRequest(k=5, min_support=1, min_nhp=0.5, rank_by="confidence", workers=2),
        MineRequest(k=6, min_support=2, min_nhp=0.4),  # the whole fleet
        MineRequest(k=4, min_support=2, min_nhp=0.4, workers=1),  # one shard
    ]

    @pytest.mark.parametrize("order_seed", [0, 1])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_interleaved_two_network_traffic(self, order_seed, workers):
        nets = {"a": _make_network(1), "b": _make_network(2)}
        baseline = {
            (name, i): _signature(oracle(network, request))
            for name, network in nets.items()
            for i, request in enumerate(self.REQUESTS)
        }
        stream = [
            (name, i, request)
            for name in nets
            for i, request in enumerate(self.REQUESTS)
        ]
        random.Random(order_seed).shuffle(stream)

        async def scenario():
            with EngineHub(workers=workers) as hub:
                for name, network in nets.items():
                    hub.register(name, network)
                async with Scheduler(hub) as scheduler:
                    jobs = [
                        (name, i, scheduler.submit(name, request, priority=i % 3))
                        for name, i, request in stream
                    ]
                    return [
                        (name, i, _signature(await job)) for name, i, job in jobs
                    ]

        for name, i, signature in asyncio.run(scenario()):
            assert signature == baseline[(name, i)], (
                f"served result diverged on {name}: {self.REQUESTS[i].describe()}"
            )

    def test_cache_sharing_under_concurrency(self):
        network = _make_network(3)
        request = MineRequest(k=8, min_support=2, min_nhp=0.3, workers=2)
        reference = _signature(oracle(network, request))

        async def scenario():
            with EngineHub(workers=2) as hub:
                hub.register("n", network)
                async with Scheduler(hub) as scheduler:
                    first = await scheduler.mine("n", request)
                    again = scheduler.submit("n", request)
                    result = await again
                    return _signature(first), _signature(result), again.cached

        first, second, cached = asyncio.run(scenario())
        assert first == reference and second == reference
        assert cached  # the repeat was served from the shared cache

    def test_sweep_convenience_matches_hub_sweep(self):
        network = _make_network(4)
        requests = [
            MineRequest(k=5, min_support=2, min_nhp=0.3, workers=2),
            MineRequest(k=5, min_support=2, min_nhp=0.3, workers=2),  # dup
            MineRequest(k=3, min_support=2, min_nhp=0.5),
        ]
        with EngineHub(workers=2) as ref:
            ref.register("n", _make_network(4))
            expected = [_signature(r) for r in ref.sweep("n", requests)]

        async def scenario():
            with EngineHub(workers=2) as hub:
                hub.register("n", network)
                async with Scheduler(hub) as scheduler:
                    results = await scheduler.sweep("n", requests)
                    return [_signature(r) for r in results]

        assert asyncio.run(scenario()) == expected


class TestPriorities:
    def test_high_priority_overtakes_earlier_bulk(self):
        """Acceptance: a later-submitted high-priority request completes
        ahead of an earlier-submitted bulk sweep."""
        nets = {"bulk": _make_network(5), "urgent": _make_network(6)}
        bulk_requests = [
            MineRequest(k=k, min_support=1, min_nhp=nhp, workers=2)
            for k in (5, 10, 15)
            for nhp in (0.2, 0.3, 0.4)
        ]
        urgent_request = MineRequest(k=5, min_support=2, min_nhp=0.3, workers=2)

        async def scenario():
            with EngineHub(workers=2) as hub:
                for name, network in nets.items():
                    hub.register(name, network)
                async with Scheduler(hub) as scheduler:
                    bulk = [
                        scheduler.submit("bulk", request, priority=0)
                        for request in bulk_requests
                    ]
                    urgent = scheduler.submit("urgent", urgent_request, priority=10)
                    await urgent
                    unfinished_bulk = sum(not job.done for job in bulk)
                    await asyncio.gather(*bulk)
                    last_bulk = max(job.finished_at for job in bulk)
                    return urgent.finished_at, last_bulk, unfinished_bulk

        urgent_done, last_bulk, unfinished = asyncio.run(scenario())
        assert urgent_done < last_bulk
        # The urgent job really did overtake queued bulk work rather
        # than just running after it drained.
        assert unfinished > 0

    def test_weights_and_validation(self):
        async def scenario():
            with EngineHub(workers=1) as hub:
                hub.register("n", _make_network(7))
                async with Scheduler(hub) as scheduler:
                    scheduler.set_weight("n", 4.0)
                    with pytest.raises(ValueError):
                        scheduler.set_weight("n", 0)
                    assert scheduler.stats()["slots"] == 1

        asyncio.run(scenario())


class TestCancellation:
    def test_cancel_mid_flight_frees_bus_and_preserves_others(self):
        nets = {"a": _make_network(8), "b": _make_network(9)}
        request = MineRequest(k=10, min_support=1, min_nhp=0.2, workers=2)
        baseline = {
            name: _signature(oracle(network, request))
            for name, network in nets.items()
        }
        follow_up = MineRequest(k=6, min_support=2, min_nhp=0.3, workers=2)
        follow_base = {
            name: _signature(oracle(network, follow_up))
            for name, network in nets.items()
        }

        async def scenario():
            with EngineHub(workers=2) as hub:
                for name, network in nets.items():
                    hub.register(name, network)
                async with Scheduler(hub) as scheduler:
                    victim = scheduler.submit("a", request)
                    survivors = [
                        scheduler.submit(name, request) for name in ("b", "a", "b")
                    ]
                    # Cancel once the victim has shards in flight so the
                    # drain-then-release path actually runs (fall back to
                    # an early cancel if it finished too fast to catch).
                    try:
                        await _wait_for(
                            lambda: victim.execution is not None
                            and victim.execution.inflight > 0
                            or victim.done,
                            timeout=10,
                        )
                    except AssertionError:
                        pass
                    victim.cancel()
                    cancelled = False
                    try:
                        await victim
                    except JobCancelled:
                        cancelled = True
                    outcomes = [_signature(await job) for job in survivors]
                    # Jobs after the cancellation run on the same
                    # workers and must stay exact.
                    reused = [
                        _signature(await scheduler.submit(name, follow_up))
                        for name in ("a", "b")
                    ]
                    # Every lease pin is back — the cancelled job's too.
                    assert hub._lease_pins == {}
                    return cancelled, victim.state, outcomes, reused

        cancelled, state, outcomes, reused = asyncio.run(scenario())
        if cancelled:
            assert state is JobState.CANCELLED
        else:  # raced to completion before the cancel landed
            assert state is JobState.DONE
        for (name, expected), got in zip(
            [("b", baseline["b"]), ("a", baseline["a"]), ("b", baseline["b"])],
            outcomes,
        ):
            assert got == expected, f"survivor on {name} corrupted by cancellation"
        assert reused == [follow_base["a"], follow_base["b"]]

    def test_cancel_starved_running_job_settles_without_hanging(self):
        """Regression: a RUNNING pooled job whose dispatched shards all
        settled while its remaining ones sat queued behind a
        higher-priority job must still settle promptly on cancel (it
        used to hang forever: no shard completion would ever fire for
        it again)."""
        nets = {"low": _make_network(15), "high": _make_network(16)}
        request = MineRequest(k=10, min_support=1, min_nhp=0.2, workers=2)

        async def scenario():
            with EngineHub(workers=2) as hub:
                for name, network in nets.items():
                    hub.register(name, network)
                # One slot: a 2-shard job always has its second shard
                # queued while the first runs.
                async with Scheduler(hub, max_inflight=1) as scheduler:
                    victim = scheduler.submit("low", request, priority=0)
                    await _wait_for(
                        lambda: victim.state is JobState.RUNNING or victim.done
                    )
                    # Higher priority steals the slot between the
                    # victim's shards.
                    hog = scheduler.submit("high", request, priority=10)
                    try:
                        await _wait_for(
                            lambda: (
                                victim.done
                                or (
                                    victim.execution.inflight == 0
                                    and victim.execution.queue
                                )
                            ),
                            timeout=20,
                        )
                    except AssertionError:
                        pass  # too fast to starve; cancel still must settle
                    victim.cancel()
                    outcome = "done"
                    try:
                        # The bug was an eternal hang right here.
                        await asyncio.wait_for(victim.result(), timeout=30)
                    except JobCancelled:
                        outcome = "cancelled"
                    assert _signature(await hog) == _signature(
                        oracle(nets["high"], request)
                    )
                    return outcome, victim.state

        outcome, state = asyncio.run(scenario())
        if outcome == "cancelled":
            assert state is JobState.CANCELLED

    def test_no_pin_leak_from_cached_and_serial_jobs(self):
        """Regression: cache-hit and serial jobs must unpin their
        network's lease on the success path, not only on cancel."""

        async def scenario():
            with EngineHub(workers=2) as hub:
                hub.register("n", _make_network(17))
                async with Scheduler(hub) as scheduler:
                    pooled = MineRequest(k=6, min_support=2, min_nhp=0.3, workers=2)
                    await scheduler.mine("n", pooled)
                    repeat = scheduler.submit("n", pooled)  # cache hit
                    serial = scheduler.submit("n", k=4, min_support=2, min_nhp=0.5)
                    await repeat
                    await serial
                    assert repeat.cached
                    assert hub._lease_pins == {}

        asyncio.run(scenario())

    def test_cancel_pending_job_settles_immediately(self):
        async def scenario():
            with EngineHub(workers=1) as hub:
                hub.register("n", _make_network(1))
                async with Scheduler(hub) as scheduler:
                    job = scheduler.submit("n", k=5, min_support=2, min_nhp=0.4)
                    job.cancel("user asked")
                    with pytest.raises(JobCancelled, match="user asked"):
                        await job
                    assert job.state is JobState.CANCELLED

        asyncio.run(scenario())

    def test_deadline_expires_job(self):
        async def scenario():
            with EngineHub(workers=1) as hub:
                hub.register("n", _make_network(2))
                async with Scheduler(hub) as scheduler:
                    job = scheduler.submit(
                        "n", k=5, min_support=2, min_nhp=0.4, deadline_s=0.0
                    )
                    with pytest.raises(JobCancelled, match="deadline"):
                        await job
                    assert job.state is JobState.EXPIRED
                    with pytest.raises(ValueError):
                        scheduler.submit("n", k=3, deadline_s=-1.0)

        asyncio.run(scenario())

    def test_close_cancels_outstanding_jobs(self):
        async def scenario():
            with EngineHub(workers=2) as hub:
                hub.register("n", _make_network(3))
                scheduler = await Scheduler(hub).start()
                jobs = [
                    scheduler.submit(
                        "n", k=10, min_support=1, min_nhp=0.2 + 0.01 * i, workers=2
                    )
                    for i in range(4)
                ]
                await scheduler.close()
                for job in jobs:
                    assert job.done
                with pytest.raises(RuntimeError):
                    scheduler.submit("n", k=3)
            # The drain left nothing in flight, so the plain close above
            # (inside the with-exit) passed the in-flight guard.

        asyncio.run(scenario())


class TestFairnessWakeClamp:
    def test_stale_vtime_clamps_down_to_active_floor(self):
        """Regression: a network that accumulated vtime, went idle, and
        re-woke next to a fresh network kept its stale credit deficit
        (the old code only clamped *up*) and was starved until the
        fresh network caught up.  On wake, vtime must re-enter AT the
        active floor, from either side."""
        import types

        def ghost(network):
            # Minimal ready-set occupant: _enter_ready only consults
            # the networks of jobs already ready or in flight.
            return types.SimpleNamespace(
                network=network, _inflight=0, done=False
            )

        async def scenario():
            with EngineHub(workers=1) as hub:
                hub.register("stale", _make_network(19))
                hub.register("fresh", _make_network(20))
                async with Scheduler(hub) as scheduler:
                    # Simulated history: "stale" served many shards and
                    # idled; "fresh" is active at a much lower vtime.
                    scheduler._vtime = {"stale": 40.0, "fresh": 3.0}
                    scheduler._ready.append(ghost("fresh"))
                    scheduler._enter_ready(ghost("stale"))
                    down_clamped = scheduler._vtime["stale"]
                    # The original up-clamp still holds: an idle network
                    # below the floor cannot burst with banked credit.
                    scheduler._vtime["lazy"] = 0.5
                    scheduler._enter_ready(ghost("lazy"))
                    up_clamped = scheduler._vtime["lazy"]
                    scheduler._ready.clear()
                    return down_clamped, up_clamped

        down_clamped, up_clamped = asyncio.run(scenario())
        assert down_clamped == 3.0  # was 40.0 before the fix -> starved
        assert up_clamped == 3.0

    def test_two_network_idle_gap_traffic_stays_live(self):
        """End-to-end companion: after one network runs alone for a
        while, idles, and re-wakes against a fresh network, both keep
        completing (no starvation stall) and its re-entry vtime sits at
        the active floor."""
        async def scenario():
            with EngineHub(workers=2) as hub:
                hub.register("a", _make_network(19))
                hub.register("b", _make_network(20))
                async with Scheduler(hub) as scheduler:
                    # Phase 1: "a" alone accumulates vtime.
                    await scheduler.sweep("a", [
                        MineRequest(k=k, min_support=1, min_nhp=0.3, workers=2)
                        for k in (5, 8)
                    ])
                    vtime_a = scheduler._vtime["a"]
                    assert vtime_a > 0
                    # Idle gap, then "b" (fresh) and "a" (waking) race.
                    jobs = [
                        scheduler.submit(
                            "b", k=6, min_support=1, min_nhp=0.3, workers=2
                        ),
                        scheduler.submit(
                            "a", k=6, min_support=2, min_nhp=0.4, workers=2
                        ),
                    ]
                    await asyncio.gather(*jobs)
                    # The waking network was clamped to the floor, not
                    # left with its phase-1 surplus.
                    return vtime_a, scheduler._vtime["a"]

        vtime_a, rewoken = asyncio.run(scenario())
        assert rewoken < vtime_a + 2.0  # re-entered near the floor


class TestDeadlineTimerHygiene:
    def test_resolved_job_cancels_its_deadline_timer(self):
        """Regression: ``submit`` armed ``loop.call_later`` and dropped
        the handle, so every completed job with a long deadline left a
        live timer until it fired — unbounded growth under traffic."""
        async def scenario():
            with EngineHub(workers=1) as hub:
                hub.register("n", _make_network(21))
                async with Scheduler(hub) as scheduler:
                    job = scheduler.submit(
                        "n", k=3, min_support=2, min_nhp=0.5,
                        deadline_s=3600.0,
                    )
                    armed = job._deadline_handle is not None
                    await job
                    assert job.state is JobState.DONE
                    return armed, job._deadline_handle

        armed, handle = asyncio.run(scenario())
        assert armed  # the timer was kept on the job...
        assert handle is None  # ...and cancelled+cleared on resolution


class TestSweepAtomicSubmission:
    def test_scheduler_sweep_validates_before_admitting(self):
        """Regression: an invalid spec mid-batch used to leave the
        earlier specs' jobs mining (holding slots) after the caller got
        the error."""
        async def scenario():
            with EngineHub(workers=1) as hub:
                hub.register("n", _make_network(22))
                async with Scheduler(hub) as scheduler:
                    with pytest.raises(ValueError):
                        await scheduler.sweep("n", [
                            {"k": 5, "min_nhp": 0.4},
                            {"k": 5, "min_support": 1.0},  # ambiguous
                        ])
                    live = [
                        j for j in scheduler._jobs.values() if not j.done
                    ]
                    return scheduler.stats()["submitted"], live

        submitted, live = asyncio.run(scenario())
        assert submitted == 0 and live == []

    def test_late_submission_failure_cancels_admitted_jobs(self, monkeypatch):
        """If a later *submission* (not validation) fails, the batch's
        already-admitted jobs are cancelled rather than orphaned."""
        calls = []
        original = Scheduler.submit

        def flaky(self, network, request=None, **kwargs):
            calls.append(network)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return original(self, network, request, **kwargs)

        monkeypatch.setattr(Scheduler, "submit", flaky)

        async def scenario():
            with EngineHub(workers=1) as hub:
                hub.register("n", _make_network(23))
                async with Scheduler(hub) as scheduler:
                    requests = [
                        MineRequest(k=5, min_support=2, min_nhp=0.4),
                        MineRequest(k=6, min_support=2, min_nhp=0.4),
                    ]
                    with pytest.raises(RuntimeError, match="boom"):
                        scheduler.submit_sweep("n", requests)
                    survivors = [
                        j for j in scheduler._jobs.values()
                        if not j.done and not j.cancel_requested
                    ]
                    return survivors

        assert asyncio.run(scenario()) == []

    def test_http_sweep_rejects_batch_without_orphans(self):
        """The HTTP facade parses every spec before admitting any job:
        a bad spec at position i returns 400 with zero jobs admitted
        (the pre-fix code had already submitted specs 0..i-1)."""
        async def scenario():
            with EngineHub(workers=1) as hub:
                hub.register("n", _make_network(24))
                async with Scheduler(hub) as scheduler:
                    async with ServeHTTP(scheduler, port=0) as server:
                        status, payload = await _http(
                            server.port, "POST", "/networks/n/sweep",
                            {"requests": [
                                {"k": 4, "min_nhp": 0.4},
                                # ambiguous min_support fails request
                                # *validation* -> the whole batch is 400
                                {"k": 4, "min_support": 1.0},
                            ]},
                        )
                        assert status == 400
                        assert scheduler.stats()["submitted"] == 0

        asyncio.run(scenario())


class TestZeroShardQuery:
    def test_query_below_every_partition_resolves_empty(self):
        """Every first-level partition is below minSupp: the execution
        plans no shard, never enters the ready list, and resolves DONE
        with an empty answer and no lease left pinned."""
        from repro.datasets.toy import toy_dating_network

        async def scenario():
            with EngineHub(workers=2) as hub:
                hub.register("toy", toy_dating_network())
                async with Scheduler(hub) as scheduler:
                    job = scheduler.submit(
                        "toy", k=5, min_support=10_000, workers=2
                    )
                    result = await asyncio.wait_for(job.result(), timeout=30)
                    assert job.state is JobState.DONE
                    assert job.shards_total == 0
                    assert len(result) == 0
                    assert result.stats.runtime_seconds < 1
                    assert scheduler.stats()["shards_dispatched"] == 0
                    assert hub._lease_pins == {}

        asyncio.run(scenario())


class TestHeadOfLine:
    def test_cache_hit_does_not_wait_for_another_networks_mine(self):
        """A cache hit on network B submitted right behind a
        workers-less cold mine on network A resolves first: the
        coordinator only plans, merges and caches, while A mines on
        the fleet (for well over 100 ms at this size)."""
        from repro.datasets import synthetic_pokec

        big = synthetic_pokec(
            num_sources=800, num_edges=8_000, num_regions=16, seed=7
        )
        hit = MineRequest(k=5, min_support=2, min_nhp=0.3)

        async def scenario():
            with EngineHub(workers=2) as hub:
                hub.register("a", big)
                hub.register("b", _make_network(26))
                async with Scheduler(hub) as scheduler:
                    await scheduler.mine("b", hit)  # a cache hit from now on
                    mine = scheduler.submit("a", k=15, min_support=20, min_nhp=0.4)
                    cached = scheduler.submit("b", hit)
                    await asyncio.gather(mine, cached)
                    assert cached.cached and not mine.cached
                    return cached.finished_at, mine.finished_at

        cached_done, mine_done = asyncio.run(scenario())
        assert cached_done < mine_done


class TestAppendEdgesBarrier:
    def test_delta_drains_then_serves_new_edge_set(self):
        network = _make_network(10)
        request = MineRequest(k=8, min_support=2, min_nhp=0.3, workers=2)
        pre_delta = _signature(oracle(network, request))

        async def scenario():
            with EngineHub(workers=2) as hub:
                hub.register("n", network)
                async with Scheduler(hub) as scheduler:
                    inflight = [scheduler.submit("n", request) for _ in range(2)]
                    new_fp = await scheduler.append_edges(
                        "n", *_delta(network, 25, seed=11)
                    )
                    # Jobs admitted before the barrier saw the old edges.
                    old = [_signature(await job) for job in inflight]
                    post = _signature(await scheduler.mine("n", request))
                    return new_fp, old, post

        new_fp, old, post = asyncio.run(scenario())
        assert all(signature == pre_delta for signature in old)
        # The network object was mutated in place, so a fresh miner now
        # sees the post-delta edge set.
        assert post == _signature(oracle(network, request))
        assert post != pre_delta or network.num_edges == 100  # delta really landed

    def test_barrier_reports_migrated_vs_purged_counts(self):
        """The barrier surfaces the delta's cache outcome: one eligible
        entry migrates, one gain-ranked entry purges."""
        network = _make_network(13)
        eligible = MineRequest(k=5, min_support=3, workers=1)
        gain = MineRequest(k=5, min_support=3, rank_by="gain")
        # Concentrated on one source node: only its first-level
        # partitions are touched, so the sharded entry is migratable.
        rng = np.random.default_rng(1)
        node = int(rng.integers(0, network.num_nodes))
        src = [node] * 3
        dst = [int(v) for v in rng.integers(0, network.num_nodes, 3)]
        codes = {
            name: [1] * 3 for name in network.schema.edge_attribute_names
        }

        async def scenario():
            with EngineHub(workers=1) as hub:
                hub.register("n", network)
                async with Scheduler(hub) as scheduler:
                    await scheduler.mine("n", eligible)
                    await scheduler.mine("n", gain)
                    await scheduler.append_edges("n", src, dst, codes)
                    stats = await scheduler.hub_stats()
                    post = _signature(await scheduler.mine("n", eligible))
                    return stats, post

        stats, post = asyncio.run(scenario())
        assert stats["migrated_entries"] == 1
        assert stats["purged_entries"] == 1
        assert post == _signature(oracle(network, eligible))

    def test_job_submitted_during_the_drain_waits_for_the_delta(self):
        """A job submitted while the barrier drains parks until the delta
        lands, then answers on the new edges; the job submitted before
        the barrier answers on the old ones."""
        network = _make_network(14)
        request = MineRequest(k=8, min_support=2, min_nhp=0.3, workers=2)
        pre_delta = _signature(oracle(network, request))
        delta = _delta(network, 25, seed=12)

        async def scenario():
            with EngineHub(workers=2) as hub:
                hub.register("n", network)
                async with Scheduler(hub) as scheduler:
                    first = scheduler.submit("n", request)
                    barrier = asyncio.ensure_future(
                        scheduler.append_edges("n", *delta)
                    )
                    await asyncio.sleep(0)  # the barrier pauses "n"
                    assert "n" in scheduler._paused and not first.done
                    second = scheduler.submit("n", request)
                    seen = set()

                    def barrier_done():
                        if barrier.done():
                            return True
                        seen.add((second.state, second.dedup_key))
                        return False

                    await _wait_for(barrier_done)
                    assert first.done  # drained before the delta landed
                    await barrier
                    return _signature(await first), _signature(await second), seen

        first, second, seen = asyncio.run(scenario())
        assert seen == {(JobState.PENDING, None)}  # parked, never admitted
        assert first == pre_delta
        assert second == _signature(oracle(network, request))
        assert second != pre_delta  # the delta moved the answer


class TestLeaseBudgetInterleaved:
    def test_budget_eviction_correct_while_two_networks_interleave(self):
        """Satellite: a 1-byte budget forces eviction pressure, but the
        scheduler's lease pins keep every in-flight job's segment alive,
        so interleaved two-network traffic stays exact."""
        nets = {"a": _make_network(11), "b": _make_network(12)}
        requests = [
            MineRequest(k=8, min_support=2, min_nhp=0.3, workers=2),
            MineRequest(k=5, min_support=1, min_nhp=0.4, workers=2),
            # Regression: workers-less and repeat (cache-hit) jobs must
            # also release their lease pins, or the budget dies by leak.
            MineRequest(k=6, min_support=2, min_nhp=0.4),
            MineRequest(k=8, min_support=2, min_nhp=0.3, workers=2),
        ]
        baseline = {
            (name, i): _signature(oracle(network, request))
            for name, network in nets.items()
            for i, request in enumerate(requests)
        }

        async def scenario():
            with EngineHub(workers=2, lease_budget_bytes=1) as hub:
                for name, network in nets.items():
                    hub.register(name, network)
                async with Scheduler(hub) as scheduler:
                    jobs = [
                        (name, i, scheduler.submit(name, request))
                        for i, request in enumerate(requests)
                        for name in nets
                    ]
                    outcomes = [
                        (name, i, _signature(await job)) for name, i, job in jobs
                    ]
                    assert not hub._lease_pins  # every pin released
                    # With the pins gone the budget applies again: the
                    # next touch evicts down to a single resident lease
                    # (eviction triggers on touch, not on drain).
                    follow = _signature(
                        await scheduler.mine(
                            "a", k=4, min_support=2, min_nhp=0.5, workers=2
                        )
                    )
                    assert hub.resident_networks() == ["a"]
                    return outcomes, follow, hub.lease_evictions

        outcomes, follow, evictions = asyncio.run(scenario())
        for name, i, signature in outcomes:
            assert signature == baseline[(name, i)], (
                f"budget eviction corrupted {name}: {requests[i].describe()}"
            )
        assert follow == _signature(
            oracle(nets["a"], MineRequest(k=4, min_support=2, min_nhp=0.5, workers=2))
        )
        assert evictions >= 1  # the cap did bite once the pins released


def _sleepy_shard(task):
    time.sleep(0.5)
    return task


class TestCloseGuard:
    """Satellite: close() during an in-flight pooled job fails fast."""

    @pytest.fixture
    def slow_pool(self, monkeypatch):
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("requires the fork start method")
        # Patching the name run_shard resolves through in the parent
        # propagates to fork children, making task duration controllable.
        monkeypatch.setattr(pool_module, "run_shard", _sleepy_shard)
        pool = PersistentWorkerPool(1)
        yield pool
        if not pool.closed:
            pool.terminate()

    @staticmethod
    def _submit(pool) -> queue.SimpleQueue:
        settled = queue.SimpleQueue()
        pool.submit("shard-0", callback=settled.put, error_callback=settled.put)
        return settled

    @staticmethod
    def _drain(pool, settled) -> None:
        assert settled.get(timeout=30) == "shard-0"
        assert pool.inflight == 0  # settled before its callback fired

    def test_engine_close_fails_fast_with_inflight_shards(self, slow_pool):
        engine = MiningEngine(_make_network(1), workers=1)
        engine.hub._pool = slow_pool
        settled = self._submit(slow_pool)
        with pytest.raises(RuntimeError, match="in flight"):
            engine.close()
        assert not engine.closed  # the guard left the engine serving
        self._drain(slow_pool, settled)
        engine.close()  # drained: the same call now succeeds
        assert engine.closed

    def test_hub_close_fails_fast_with_inflight_shards(self, slow_pool):
        hub = EngineHub(workers=1)
        hub.register("n", _make_network(2))
        hub._pool = slow_pool
        settled = self._submit(slow_pool)
        with pytest.raises(RuntimeError, match="in flight"):
            hub.close()
        assert not hub.closed
        self._drain(slow_pool, settled)
        hub.close()
        assert hub.closed

    def test_force_close_and_exception_exit_still_tear_down(self, slow_pool):
        engine = MiningEngine(_make_network(3), workers=1)
        engine.hub._pool = slow_pool
        self._submit(slow_pool)
        engine.close(force=True)  # explicit override: hard teardown
        assert engine.closed and slow_pool.closed

    def test_exception_unwind_waives_the_guard(self, monkeypatch):
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("requires the fork start method")
        monkeypatch.setattr(pool_module, "run_shard", _sleepy_shard)
        with pytest.raises(ValueError, match="boom"):
            with MiningEngine(_make_network(4), workers=1) as engine:
                engine.hub._pool = PersistentWorkerPool(1)
                self._submit(engine.hub._pool)
                raise ValueError("boom")
        assert engine.closed  # __exit__ forced the teardown


async def _http(port, method, path, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.decode("latin-1").split("\r\n"):
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1])
    raw = await reader.readexactly(length)
    writer.close()
    await writer.wait_closed()
    return int(head.split()[1]), json.loads(raw)


class TestHTTPFacade:
    def test_endpoints_roundtrip(self):
        network = _make_network(13)
        request = MineRequest(k=5, min_support=2, min_nhp=0.3, workers=2)
        reference = [str(m.gr) for m in oracle(network, request)]

        async def scenario():
            with EngineHub(workers=2) as hub:
                hub.register("n", network)
                async with Scheduler(hub) as scheduler:
                    async with ServeHTTP(scheduler, port=0) as server:
                        port = server.port
                        status, health = await _http(port, "GET", "/healthz")
                        assert status == 200 and health["networks"] == ["n"]

                        status, payload = await _http(
                            port, "POST", "/networks/n/mine",
                            {"k": 5, "min_support": 2, "min_nhp": 0.3,
                             "workers": 2, "priority": 3},
                        )
                        assert status == 200
                        assert payload["job"]["state"] == "done"
                        assert [
                            entry["gr"] for entry in payload["result"]["grs"]
                        ] == reference

                        status, payload = await _http(
                            port, "POST", "/networks/n/sweep",
                            {"requests": [
                                {"k": 3, "min_nhp": 0.4},
                                {"k": 4, "min_nhp": 0.5, "workers": 1},
                            ]},
                        )
                        assert status == 200 and len(payload["jobs"]) == 2
                        assert all(
                            item["job"]["state"] == "done"
                            for item in payload["jobs"]
                        )

                        # Async submission, poll, then cancel (idempotent
                        # on a finished job).
                        status, payload = await _http(
                            port, "POST", "/networks/n/mine",
                            {"k": 8, "min_nhp": 0.3, "workers": 2,
                             "mode": "async"},
                        )
                        assert status == 200
                        job_id = payload["job"]["id"]
                        await _wait_for(
                            lambda: scheduler.job(job_id).done, timeout=30
                        )
                        status, payload = await _http(port, "GET", f"/jobs/{job_id}")
                        assert status == 200
                        assert payload["job"]["state"] == "done"
                        assert "result" in payload
                        status, payload = await _http(
                            port, "DELETE", f"/jobs/{job_id}"
                        )
                        assert status == 200 and payload["job"]["state"] == "done"

                        # Append-edge delta through the wire, then a
                        # post-delta mine against the mutated network.
                        src, dst, edge_codes = _delta(network, 20, seed=3)
                        status, payload = await _http(
                            port, "POST", "/networks/n/append_edges",
                            {"src": [int(v) for v in src],
                             "dst": [int(v) for v in dst],
                             "edge_codes": {
                                 name: [int(v) for v in values]
                                 for name, values in edge_codes.items()
                             }},
                        )
                        assert status == 200 and payload["network"] == "n"
                        status, payload = await _http(
                            port, "POST", "/networks/n/mine",
                            {"k": 5, "min_support": 2, "min_nhp": 0.3,
                             "workers": 2},
                        )
                        assert status == 200
                        post = [entry["gr"] for entry in payload["result"]["grs"]]
                        assert post == [
                            str(m.gr) for m in oracle(network, request)
                        ]

                        status, payload = await _http(port, "GET", "/stats")
                        assert status == 200
                        assert payload["scheduler"]["completed"] >= 4
                        assert payload["hub"]["networks"] == 1

                        status, _ = await _http(port, "GET", "/networks/x/mine")
                        assert status == 404
                        status, _ = await _http(port, "GET", "/jobs/job-999999")
                        assert status == 404
                        status, _ = await _http(port, "POST", "/networks/n/mine",
                                                {"k": "many"})
                        assert status == 400

        asyncio.run(scenario())


    def test_negative_content_length_is_rejected(self):
        async def scenario():
            with EngineHub(workers=1) as hub:
                hub.register("n", _make_network(18))
                async with Scheduler(hub) as scheduler:
                    async with ServeHTTP(scheduler, port=0) as server:
                        reader, writer = await asyncio.open_connection(
                            "127.0.0.1", server.port
                        )
                        writer.write(
                            b"POST /networks/n/mine HTTP/1.1\r\n"
                            b"Host: t\r\nContent-Length: -5\r\n\r\n"
                        )
                        await writer.drain()
                        head = await reader.readuntil(b"\r\n\r\n")
                        assert b" 400 " in head.split(b"\r\n")[0]
                        writer.close()
                        await writer.wait_closed()

        asyncio.run(scenario())


class TestShutdownWithIdleConnections:
    def test_half_sent_requests_end_quietly_at_close(self, caplog):
        """Connections still sending their request when the server
        closes are ended by ``close()``, without a traceback: each
        client reads EOF, and nothing reaches the ``asyncio`` logger."""
        head = b"POST /networks/n/mine HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n"
        sent = [head + b"{", head, b"GET /healthz HTTP/1.1\r\nHost", b""]

        async def scenario():
            with EngineHub(workers=1) as hub:
                hub.register("n", _make_network(5))
                async with Scheduler(hub) as scheduler:
                    async with ServeHTTP(scheduler, port=0) as server:
                        clients = []
                        for prefix in sent:
                            reader, writer = await asyncio.open_connection(
                                "127.0.0.1", server.port
                            )
                            writer.write(prefix)
                            await writer.drain()
                            clients.append((reader, writer))
                        await asyncio.sleep(0.2)  # every handler awaits bytes
                    try:
                        reads = await asyncio.wait_for(
                            asyncio.gather(*(r.read() for r, _ in clients)), 2.0
                        )
                    except asyncio.TimeoutError:
                        reads = None  # close() left the connections open
                    for _, writer in clients:
                        writer.close()
                    return reads

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            reads = asyncio.run(scenario())
        assert [
            record.getMessage() for record in caplog.records
            if record.name == "asyncio"
        ] == []
        assert reads == [b""] * len(sent)


class TestServeValidation:
    def test_submit_validation_and_lifecycle(self):
        async def scenario():
            with EngineHub(workers=1) as hub:
                hub.register("n", _make_network(14))
                scheduler = Scheduler(hub)
                with pytest.raises(RuntimeError, match="not started"):
                    scheduler.submit("n", k=3)
                async with scheduler:
                    with pytest.raises(RuntimeError, match="already started"):
                        await scheduler.start()
                    with pytest.raises(KeyError):
                        scheduler.submit("missing", k=3)
                    with pytest.raises(TypeError):
                        scheduler.submit(
                            "n", MineRequest(k=3), k=5
                        )  # request and kwargs
                    job = scheduler.submit("n", {"k": 3, "min_nhp": 0.5})
                    assert (await job) is not None
                with pytest.raises(ValueError):
                    Scheduler(hub, max_inflight=0)

        asyncio.run(scenario())

    def test_submit_rejects_non_finite_deadline(self):
        """``call_later(nan)`` fires at once, so a NaN deadline would
        expire the job on arrival; it is rejected like a negative one."""
        async def scenario():
            with EngineHub(workers=1) as hub:
                hub.register("n", _make_network(14))
                async with Scheduler(hub) as scheduler:
                    for bad in (float("nan"), float("inf"), -1.0):
                        with pytest.raises(ValueError, match="deadline_s"):
                            scheduler.submit("n", k=3, deadline_s=bad)
                    return scheduler.stats()["submitted"]

        assert asyncio.run(scenario()) == 0

    def test_http_rejects_nan_deadline_and_boolean_controls(self):
        """Python's json reads ``NaN``, and ``true`` is an int to
        ``isinstance``: none of these bodies may admit a job."""
        bodies = [
            ("mine", {"k": 3, "deadline_s": float("nan")}),
            ("mine", {"k": 3, "priority": True}),
            ("mine", {"k": 3, "deadline_s": True}),
            ("sweep", {"requests": [{"k": 3}], "deadline_s": float("nan")}),
            ("sweep", {"requests": [{"k": 3}], "priority": False}),
        ]

        async def scenario():
            with EngineHub(workers=1) as hub:
                hub.register("n", _make_network(14))
                async with Scheduler(hub) as scheduler:
                    async with ServeHTTP(scheduler, port=0) as server:
                        outcomes = []
                        for action, body in bodies:
                            status, _ = await _http(
                                server.port, "POST", f"/networks/n/{action}", body
                            )
                            outcomes.append(
                                (status, scheduler.stats()["submitted"])
                            )
                        return outcomes

        assert asyncio.run(scenario()) == [(400, 0)] * len(bodies)

    def test_http_rejects_non_integer_edges(self):
        """``1.5``, ``true`` and ``1.9`` would cast to 1; the delta must
        get a 400 and leave the network's edges and fingerprint alone."""
        from repro.datasets.toy import toy_dating_network

        body = {"src": [1.5], "dst": [True], "edge_codes": {"TYPE": [1.9]}}

        async def scenario():
            with EngineHub(workers=1) as hub:
                engine = hub.register("toy", toy_dating_network())
                before = (engine.fingerprint, engine.network.num_edges)
                async with Scheduler(hub) as scheduler:
                    async with ServeHTTP(scheduler, port=0) as server:
                        status, _ = await _http(
                            server.port, "POST", "/networks/toy/append_edges", body
                        )
                return status, before, (engine.fingerprint, engine.network.num_edges)

        status, before, after = asyncio.run(scenario())
        assert status == 400
        assert after == before

    def test_serve_cli_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "--register", "a=/tmp/x", "--register", "b=/tmp/y",
                "--port", "0", "--workers", "2", "--max-inflight", "3",
                "--weight", "a=2.5", "--disk-cache", "/tmp/c.sqlite",
                "--disk-cache-max-bytes", "1000", "--disk-cache-ttl", "60",
            ]
        )
        assert args.command == "serve"
        assert args.register == ["a=/tmp/x", "b=/tmp/y"]
        assert args.max_inflight == 3 and args.weight == ["a=2.5"]
        assert args.disk_cache_max_bytes == 1000 and args.disk_cache_ttl == 60.0
        # Sweeps always admit cold: there is no warm-start switch.
        with pytest.raises(SystemExit) as usage:
            build_parser().parse_args(
                ["serve", "--register", "a=/tmp/x", "--no-warm-start"]
            )
        assert usage.value.code == 2


# ---------------------------------------------------------------------------
# Observability endpoints: /metrics, /jobs/{id}/trace, /jobs/{id}/events, /stats
# ---------------------------------------------------------------------------


async def _http_raw(port, method, path):
    """Raw-body variant of ``_http`` for non-JSON responses (/metrics)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if value:
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", 0)))
    writer.close()
    await writer.wait_closed()
    return int(lines[0].split()[1]), headers, body


async def _sse_connect(port, job_id):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET /jobs/{job_id}/events HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    return reader, writer, int(head.split()[1])


async def _sse_next(reader, timeout: float = 20.0):
    """Read one ``event:``/``data:`` block off an open SSE stream."""
    event = data = None
    while True:
        line = (await asyncio.wait_for(reader.readline(), timeout)).decode()
        if not line:
            raise AssertionError("SSE stream closed before a terminal event")
        line = line.rstrip("\r\n")
        if not line:
            if event is not None:
                return event, json.loads(data)
            continue
        if line.startswith("event: "):
            event = line[len("event: "):]
        elif line.startswith("data: "):
            data = line[len("data: "):]


_PROM_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)$'
)


class TestObservabilityEndpoints:
    def _pause(self, scheduler, network):
        scheduler._paused.add(network)

    def _release(self, scheduler, network):
        scheduler._paused.discard(network)
        for job in scheduler._backlog.pop(network, ()):
            scheduler._admit.put_nowait(job)

    def test_metrics_endpoint_prometheus_and_json(self):
        network = _make_network(21)

        async def scenario():
            with EngineHub(workers=2) as hub:
                hub.register("n", network)
                async with Scheduler(hub) as scheduler:
                    async with ServeHTTP(scheduler, port=0) as server:
                        job = scheduler.submit("n", k=4, min_nhp=0.3, workers=2)
                        await job

                        status, headers, body = await _http_raw(
                            server.port, "GET", "/metrics"
                        )
                        assert status == 200
                        assert headers["content-type"].startswith("text/plain")
                        text = body.decode()
                        for line in text.strip().splitlines():
                            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                                continue
                            assert _PROM_SAMPLE.match(line), f"bad line: {line!r}"
                        # the scheduler's instruments are present and moved
                        assert "# TYPE repro_scheduler_jobs_submitted_total counter" in text
                        submitted = next(
                            float(l.split()[-1])
                            for l in text.splitlines()
                            if l.startswith("repro_scheduler_jobs_submitted_total ")
                        )
                        assert submitted >= 1
                        assert "repro_job_latency_seconds_bucket" in text

                        status, payload = await _http(
                            server.port, "GET", "/metrics?format=json"
                        )
                        assert status == 200
                        names = {m["name"] for m in payload["metrics"]}
                        assert "repro_scheduler_jobs_submitted_total" in names
                        assert "repro_job_latency_seconds" in names

        asyncio.run(scenario())

    def test_job_trace_structured_and_chrome(self):
        network = _make_network(22)

        async def scenario():
            with EngineHub(workers=2) as hub:
                hub.register("n", network)
                async with Scheduler(hub) as scheduler:
                    async with ServeHTTP(scheduler, port=0) as server:
                        job = scheduler.submit("n", k=4, min_nhp=0.3, workers=2)
                        await job

                        status, trace = await _http(
                            server.port, "GET", f"/jobs/{job.id}/trace"
                        )
                        assert status == 200
                        assert trace["job_id"] == job.id
                        assert trace["meta"]["network"] == "n"
                        names = [span["name"] for span in trace["spans"]]
                        assert "plan" in names
                        assert "finalize" in names
                        assert any(n.startswith("shard-") or n == "execute"
                                   for n in names)
                        for span in trace["spans"]:
                            assert span["duration_s"] >= 0

                        status, chrome = await _http(
                            server.port, "GET", f"/jobs/{job.id}/trace?format=chrome"
                        )
                        assert status == 200
                        events = chrome["traceEvents"]
                        assert events[0]["ph"] == "M"  # process-name metadata
                        complete = [e for e in events if e["ph"] == "X"]
                        assert len(complete) == len(trace["spans"])
                        for event in complete:
                            assert {"name", "ph", "pid", "tid", "ts", "dur"} <= set(event)
                            assert event["dur"] >= 0

                        status, _ = await _http(
                            server.port, "GET", "/jobs/job-424242/trace"
                        )
                        assert status == 404

                # observe=False: jobs resolve normally but have no trace
                async with Scheduler(hub, observe=False) as scheduler:
                    async with ServeHTTP(scheduler, port=0) as server:
                        job = scheduler.submit("n", k=3, min_nhp=0.4)
                        assert (await job) is not None
                        status, _ = await _http(
                            server.port, "GET", f"/jobs/{job.id}/trace"
                        )
                        assert status == 404

        asyncio.run(scenario())

    def test_sse_heartbeats_then_monotonic_progress(self):
        network = _make_network(23, num_edges=200)

        async def scenario():
            with EngineHub(workers=2) as hub:
                hub.register("n", network)
                async with Scheduler(hub) as scheduler:
                    async with ServeHTTP(scheduler, port=0) as server:
                        server.sse_heartbeat_s = 0.05
                        # Park the job behind a paused network so the
                        # stream demonstrably starts before any progress.
                        self._pause(scheduler, "n")
                        job = scheduler.submit("n", k=5, min_nhp=0.3, workers=2)
                        reader, writer, status = await _sse_connect(
                            server.port, job.id
                        )
                        assert status == 200

                        event, payload = await _sse_next(reader)
                        assert event == "progress"  # immediate snapshot
                        assert payload["state"] == "pending"
                        assert payload["shards_done"] == 0

                        heartbeats = 0
                        while heartbeats < 2:  # parked job => only heartbeats
                            event, payload = await _sse_next(reader)
                            assert event == "heartbeat"
                            assert payload["job_id"] == job.id
                            heartbeats += 1

                        self._release(scheduler, "n")
                        last_done = 0
                        last_kth = None
                        saw_progress = False
                        while True:
                            event, payload = await _sse_next(reader)
                            if event == "heartbeat":
                                continue
                            assert payload["shards_done"] >= last_done
                            last_done = payload["shards_done"]
                            # The k-th best over the settled shards' union
                            # never falls, nor goes back to unknown.
                            if last_kth is not None:
                                assert payload["kth_best"] is not None
                                assert payload["kth_best"] >= last_kth
                            last_kth = payload["kth_best"]
                            if event == "done":
                                assert payload["state"] == "done"
                                assert payload["shards_done"] == payload["shards_total"]
                                break
                            saw_progress = True
                        assert saw_progress
                        writer.close()
                        await writer.wait_closed()
                        assert job._subscribers == []
                        assert (await job) is not None

                        # Unknown job ids 404 instead of opening a stream.
                        _, _, status = await _sse_connect(server.port, "job-999999")
                        assert status == 404

        asyncio.run(scenario())

    def test_sse_disconnect_frees_subscription_and_job(self):
        network = _make_network(24)

        async def scenario():
            with EngineHub(workers=2) as hub:
                hub.register("n", network)
                async with Scheduler(hub) as scheduler:
                    async with ServeHTTP(scheduler, port=0) as server:
                        server.sse_heartbeat_s = 0.05
                        self._pause(scheduler, "n")
                        job = scheduler.submit("n", k=4, min_nhp=0.3, workers=2)
                        reader, writer, status = await _sse_connect(
                            server.port, job.id
                        )
                        assert status == 200
                        await _sse_next(reader)  # initial snapshot
                        assert len(job._subscribers) == 1

                        # Abrupt client disconnect: the next heartbeat
                        # write fails and must drop the subscription.
                        writer.close()
                        await writer.wait_closed()
                        await _wait_for(lambda: not job._subscribers, timeout=10)

                        # ...and the job itself is unaffected.
                        self._release(scheduler, "n")
                        assert (await job) is not None

        asyncio.run(scenario())

