"""Sweep admission and single-flight dedup through the scheduler.

The contract, on top of the serving layer's:

1. **Canonical keys** — a request's cache and dedup identity is its
   config's canonical key, whatever its worker count, and decodes back
   through ``config_from_canonical_key``.
2. **Sweeps equal the serial oracle, GR for GR** — a batch through
   :meth:`Scheduler.submit_sweep` is one job per point, all admitted at
   once at the batch's priority, and returns the oracle's answers
   whatever the points' thresholds.
3. **Single-flight** — N identical concurrent jobs trigger exactly one
   planned mining execution; every attached future resolves to an
   equal (but private) result, and every attached job reports the
   execution's progress.  Cancelling any one job detaches it and the
   execution runs on for the rest, without re-mining; once the last
   job left, the execution stops, drains and releases its lease pin.
"""

import asyncio
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.miner import CKEY_FIELDS, config_from_canonical_key
from repro.datasets.random_graphs import random_attributed_network, random_schema
from repro.engine import EngineHub, MineRequest
from repro.engine.engine import MiningEngine
from repro.serve import JobCancelled, JobState, Scheduler

from oracles import oracle


def _make_network(seed: int, num_edges: int = 100, num_nodes: int = 20):
    schema = random_schema(
        num_node_attrs=3, num_edge_attrs=1, max_domain=3, num_homophily=2, seed=seed
    )
    return random_attributed_network(
        schema, num_nodes=num_nodes, num_edges=num_edges,
        homophily_strength=0.5, seed=seed,
    )


def _signature(result):
    return [(str(m.gr), round(m.score, 9), m.metrics.support_count) for m in result]


def _key(network, request: MineRequest):
    return request.canonical_key(network.schema, network.num_edges)


async def _until(predicate, timeout: float = 30.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("timed out waiting for a serving condition")
        await asyncio.sleep(0.002)


class TestCanonicalKeyLayout:
    def test_fractional_support_resolves_before_comparison(self):
        network = _make_network(1)  # 100 edges
        absolute = MineRequest(k=5, min_support=5, min_nhp=0.3, workers=2)
        fractional = MineRequest(k=5, min_support=0.05, min_nhp=0.3, workers=2)
        assert _key(network, absolute) == _key(network, fractional)

    def test_request_key_is_the_config_key(self):
        """A request's key is its config's canonical key whatever its
        worker count, and decodes through ``config_from_canonical_key``
        (the ckey-layout lint rule forbids positional subscripts outside
        the layout owner)."""
        network = _make_network(0)
        schema, edges = network.schema, network.num_edges
        request = MineRequest(k=5, min_support=2, min_nhp=0.3)
        key = _key(network, request)
        assert len(key) == CKEY_FIELDS == 15
        assert key == request.to_config().canonical_key(schema, edges)
        assert key == _key(network, MineRequest(k=5, min_support=2, min_nhp=0.3, workers=2))
        assert config_from_canonical_key(key).canonical_key(schema, edges) == key


class TestSweepEquivalence:
    """Acceptance: a sweep through the scheduler is GR-for-GR equal to
    the serial oracle, whatever its points' thresholds."""

    def _sweep(self, network, requests):
        async def scenario():
            with EngineHub(workers=2) as hub:
                hub.register("n", network)
                async with Scheduler(hub) as scheduler:
                    jobs = scheduler.submit_sweep("n", requests)
                    return [_signature(await job) for job in jobs]

        return asyncio.run(scenario())

    def test_grid_matches_fresh(self):
        network = _make_network(3)
        # Nested supports at one min_nhp, plus points that differ in
        # min_nhp under generality verification.
        requests = [
            MineRequest(k=6, min_support=s, min_nhp=0.3, workers=2)
            for s in (4, 1, 2, 3)
        ] + [
            MineRequest(k=6, min_support=2, min_nhp=nhp, workers=2)
            for nhp in (0.5, 0.2, 0.35)
        ]
        fresh = [_signature(oracle(network, r)) for r in requests]
        assert self._sweep(network, requests) == fresh

    def test_batch_admits_every_point_at_batch_priority(self):
        """Nested supports at one min_nhp: every point is its own job at
        the batch's priority, handed to admission at once — none waits
        for another's answer."""
        network = _make_network(3)
        requests = [
            MineRequest(k=6, min_support=s, min_nhp=0.3, workers=2)
            for s in (4, 1, 2)
        ]
        fresh = [_signature(oracle(network, r)) for r in requests]

        async def scenario():
            with EngineHub(workers=2) as hub:
                hub.register("n", network)
                async with Scheduler(hub) as scheduler:
                    jobs = scheduler.submit_sweep("n", requests, priority=3)
                    # Nothing has awaited since the submit, so the
                    # admission queue holds exactly the jobs that wait
                    # on nothing.
                    queued = scheduler._admit.qsize()
                    results = [_signature(await job) for job in jobs]
                    return [job.priority for job in jobs], queued, results

        priorities, queued, results = asyncio.run(scenario())
        assert priorities == [3, 3, 3]
        assert queued == len(requests)
        assert results == fresh

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=10, max_value=13),
        supports=st.lists(
            st.integers(min_value=1, max_value=5), min_size=2, max_size=4,
            unique=True,
        ),
        nhp=st.sampled_from([0.2, 0.35, 0.5]),
        generality=st.booleans(),
        extra_nhps=st.lists(
            st.sampled_from([0.1, 0.25, 0.45]), min_size=0, max_size=2,
            unique=True,
        ),
    )
    def test_property_sweep_equals_fresh(
        self, seed, supports, nhp, generality, extra_nhps
    ):
        """Mixed grids — nested supports, differing min_nhp, off-axis
        points — always resolve to the fresh miners' answers."""
        network = _make_network(seed, num_edges=60, num_nodes=14)
        requests = [
            MineRequest.create(
                k=4, min_support=s, min_nhp=nhp, workers=2,
                apply_generality=generality,
            )
            for s in supports
        ] + [
            MineRequest.create(
                k=4, min_support=2, min_nhp=extra, workers=2,
                apply_generality=generality,
            )
            for extra in extra_nhps
        ]
        fresh = [_signature(oracle(network, r)) for r in requests]
        assert self._sweep(network, requests) == fresh


class TestSingleFlight:
    def _count_plans(self, monkeypatch, seen):
        original = MiningEngine.plan_query

        def counting(self, request, key):
            seen.append(request)
            return original(self, request, key)

        monkeypatch.setattr(MiningEngine, "plan_query", counting)

    def test_n_identical_jobs_one_execution(self, monkeypatch):
        """Acceptance: N identical concurrent jobs -> exactly one
        planned GRMiner execution; every future resolves equal.  The
        cache is disabled, so without dedup each job would mine."""
        network = _make_network(7, num_edges=150)
        request = MineRequest(k=10, min_support=1, min_nhp=0.1, workers=2)
        blocker_request = MineRequest(k=15, min_support=1, min_nhp=0.0, workers=2)
        reference = _signature(oracle(network, request))
        plans: list = []
        self._count_plans(monkeypatch, plans)

        async def scenario():
            with EngineHub(workers=2, cache_size=0) as hub:
                hub.register("n", network)
                hub.register("blocker", _make_network(8, num_edges=200))
                # One slot, occupied by a long higher-priority job: the
                # first job's execution is planned but starved,
                # guaranteeing the others attach while it is verifiably
                # in flight.
                async with Scheduler(hub, max_inflight=1) as scheduler:
                    blocker = scheduler.submit(
                        "blocker", blocker_request, priority=10
                    )
                    jobs = [scheduler.submit("n", request) for _ in range(4)]
                    results = [await job for job in jobs]
                    await blocker
                    return (
                        [_signature(r) for r in results],
                        [job.deduped for job in jobs],
                        results,
                        dict(scheduler._counters),
                    )

        signatures, deduped, results, counters = asyncio.run(scenario())
        assert all(signature == reference for signature in signatures)
        planned_dups = [r for r in plans if r == request]
        assert len(planned_dups) == 1  # single-flight: one execution
        assert deduped == [False, True, True, True]
        assert counters["deduped"] == 3
        # Attached jobs hold private snapshots: mutating one result
        # must not reach a sibling's.
        results[1].grs.clear()
        assert _signature(results[2]) == reference

    def test_push_topk_twins_share_one_execution(self, monkeypatch):
        """``push_topk`` is out of the key, so a request and its
        ``push_topk=False`` twin in flight together run as one
        execution and resolve to the same exact answer."""
        network = _make_network(7, num_edges=150)
        request = MineRequest(k=10, min_support=1, min_nhp=0.1, workers=2)
        twin = MineRequest(
            k=10, min_support=1, min_nhp=0.1, push_topk=False, workers=2
        )
        blocker_request = MineRequest(k=15, min_support=1, min_nhp=0.0, workers=2)
        reference = _signature(oracle(network, twin))
        plans: list = []
        self._count_plans(monkeypatch, plans)

        async def scenario():
            with EngineHub(workers=2, cache_size=0) as hub:
                hub.register("n", network)
                hub.register("blocker", _make_network(8, num_edges=200))
                async with Scheduler(hub, max_inflight=1) as scheduler:
                    blocker = scheduler.submit(
                        "blocker", blocker_request, priority=10
                    )
                    jobs = [scheduler.submit("n", r) for r in (request, twin)]
                    results = [await job for job in jobs]
                    await blocker
                    return [_signature(r) for r in results], [j.deduped for j in jobs]

        signatures, deduped = asyncio.run(scenario())
        assert signatures == [reference, reference]
        assert [r for r in plans if r in (request, twin)] == [request]
        assert deduped == [False, True]

    def test_attached_job_reports_its_execution_progress(self):
        """A job that attached to another job's execution shows that
        execution's state and shard counts, and streams its progress."""
        network = _make_network(10, num_edges=150)
        request = MineRequest(k=10, min_support=1, min_nhp=0.1, workers=2)
        reference = _signature(oracle(network, request))

        async def scenario():
            with EngineHub(workers=2, cache_size=0) as hub:
                hub.register("n", network)
                hub.register("blocker", _make_network(8, num_edges=200))
                async with Scheduler(hub, max_inflight=1) as scheduler:
                    blocker = scheduler.submit(
                        "blocker", k=15, min_nhp=0.0, workers=2, priority=10
                    )
                    opener = scheduler.submit("n", request)
                    attached = scheduler.submit("n", request)
                    # The queue GET /jobs/{id}/events streams from.
                    stream: asyncio.Queue = asyncio.Queue()
                    attached._subscribers.append(stream)
                    await _until(lambda: attached.deduped or attached.done)
                    starved = [
                        (job.state, job.shards_total) for job in (opener, attached)
                    ]
                    results = [_signature(await opener), _signature(await attached)]
                    await blocker
                    events = []
                    while not stream.empty():
                        events.append(stream.get_nowait())
                    counts = (attached.shards_done, attached.shards_total)
                    return starved, results, counts, events

        starved, results, counts, events = asyncio.run(scenario())
        assert starved[0] == starved[1]
        assert starved[1][0] in (JobState.READY, JobState.RUNNING)
        assert results == [reference, reference]
        assert counts == (2, 2)
        names = [event for event, _ in events]
        assert names[-1] == "done"
        assert any(
            event == "progress" and payload["shards_done"] >= 1
            for event, payload in events[:-1]
        ), events

    def test_cancel_follower_detaches_only(self):
        network = _make_network(9, num_edges=150)
        request = MineRequest(k=10, min_support=1, min_nhp=0.1, workers=2)
        reference = _signature(oracle(network, request))

        async def scenario():
            with EngineHub(workers=2, cache_size=0) as hub:
                hub.register("n", network)
                hub.register("blocker", _make_network(8, num_edges=200))
                async with Scheduler(hub, max_inflight=1) as scheduler:
                    blocker = scheduler.submit(
                        "blocker", k=15, min_nhp=0.0, workers=2, priority=10
                    )
                    leader = scheduler.submit("n", request)
                    follower = scheduler.submit("n", request)
                    keeper = scheduler.submit("n", request)
                    # Let the admit loop attach the other jobs (the
                    # starved execution cannot resolve while the blocker
                    # owns the only slot, so attachment is guaranteed).
                    deadline = asyncio.get_running_loop().time() + 30
                    while not follower.deduped and not follower.done:
                        if asyncio.get_running_loop().time() > deadline:
                            raise AssertionError("follower never attached")
                        await asyncio.sleep(0.002)
                    follower.cancel("changed my mind")
                    with pytest.raises(JobCancelled, match="changed my mind"):
                        await follower
                    first = _signature(await leader)
                    second = _signature(await keeper)
                    await blocker
                    return first, second, follower.state, keeper.deduped

        first, second, state, keeper_deduped = asyncio.run(scenario())
        assert first == reference and second == reference
        assert state is JobState.CANCELLED
        assert keeper_deduped  # the surviving job stayed attached

    def test_cancel_opener_leaves_execution_running(self, monkeypatch):
        """The job that opened an in-flight pooled execution leaves it:
        the attached jobs keep it — no second mining pass, exact
        results — and the opener resolves CANCELLED."""
        network = _make_network(11, num_edges=150)
        request = MineRequest(k=10, min_support=1, min_nhp=0.1, workers=2)
        reference = _signature(oracle(network, request))
        plans: list = []
        self._count_plans(monkeypatch, plans)

        async def scenario():
            with EngineHub(workers=2, cache_size=0) as hub:
                hub.register("n", network)
                hub.register("blocker", _make_network(8, num_edges=200))
                # One slot under a long high-priority job: the opener is
                # planned (lease pinned, tasks queued) but starved,
                # so the cancel deterministically lands while the
                # execution is in flight.
                async with Scheduler(hub, max_inflight=1) as scheduler:
                    blocker = scheduler.submit(
                        "blocker", k=15, min_nhp=0.0, workers=2, priority=10
                    )
                    opener = scheduler.submit("n", request)
                    deadline = asyncio.get_running_loop().time() + 30
                    while opener.state not in (JobState.READY, JobState.RUNNING):
                        if opener.done or (
                            asyncio.get_running_loop().time() > deadline
                        ):
                            break
                        await asyncio.sleep(0.002)
                    riders = [scheduler.submit("n", request) for _ in range(2)]
                    while not all(job.deduped or job.done for job in riders):
                        if asyncio.get_running_loop().time() > deadline:
                            break
                        await asyncio.sleep(0.002)
                    attached = [job.deduped for job in riders]
                    opener.cancel()
                    outcomes = []
                    for job in riders:
                        try:
                            outcomes.append(_signature(await job))
                        except JobCancelled:
                            outcomes.append("cancelled")
                    cancelled = False
                    try:
                        await opener
                    except JobCancelled:
                        cancelled = True
                    await blocker
                    freed = hub._lease_pins == {}
                    return attached, outcomes, cancelled, opener.state, freed

        attached, outcomes, cancelled, state, freed = asyncio.run(scenario())
        assert all(attached) and cancelled
        assert state is JobState.CANCELLED
        assert outcomes == [reference, reference]
        assert len([r for r in plans if r == request]) == 1  # no re-mine
        assert freed  # the execution still released its pin

    def test_attached_priority_boosts_execution(self):
        async def scenario():
            with EngineHub(workers=2, cache_size=0) as hub:
                hub.register("n", _make_network(12))
                hub.register("blocker", _make_network(8, num_edges=200))
                async with Scheduler(hub, max_inflight=1) as scheduler:
                    blocker = scheduler.submit(
                        "blocker", k=15, min_nhp=0.0, workers=2, priority=10
                    )
                    request = MineRequest(k=5, min_support=1, min_nhp=0.2, workers=2)
                    opener = scheduler.submit("n", request, priority=0)
                    urgent = scheduler.submit("n", request, priority=7)
                    deadline = asyncio.get_running_loop().time() + 30
                    while not urgent.deduped and not urgent.done:
                        if asyncio.get_running_loop().time() > deadline:
                            break
                        await asyncio.sleep(0.002)
                    boosted = None
                    if urgent.deduped:
                        boosted = opener.execution.priority
                    await asyncio.gather(opener, urgent, blocker)
                    settled = opener.execution.priority
                    return boosted, settled

        boosted, settled = asyncio.run(scenario())
        if boosted is not None:
            assert boosted == 7
        assert settled == 0  # resolved jobs stop boosting

    def test_cancelling_every_attached_job_cancels_the_execution(
        self, monkeypatch
    ):
        """The last job out stops its starved execution: no further
        shard, its pin released, no dedup entry left — and an
        identical job afterwards plans afresh and stays exact."""
        network = _make_network(14, num_edges=150)
        request = MineRequest(k=10, min_support=1, min_nhp=0.1, workers=2)
        reference = _signature(oracle(network, request))
        plans: list = []
        self._count_plans(monkeypatch, plans)

        async def scenario():
            with EngineHub(workers=2, cache_size=0) as hub:
                hub.register("n", network)
                hub.register("blocker", _make_network(8, num_edges=200))
                async with Scheduler(hub, max_inflight=1) as scheduler:
                    blocker = scheduler.submit(
                        "blocker", k=15, min_nhp=0.0, workers=2, priority=10
                    )
                    jobs = [scheduler.submit("n", request) for _ in range(3)]
                    await _until(lambda: all(j.deduped for j in jobs[1:]))
                    dispatched = scheduler._shards_by_network.get("n", 0)
                    for job in jobs:
                        job.cancel()
                    states = []
                    for job in jobs:
                        with pytest.raises(JobCancelled):
                            await job
                        states.append(job.state)
                    await blocker
                    after = scheduler._shards_by_network.get("n", 0)
                    leftovers = (dict(hub._lease_pins), dict(scheduler._executions))
                    plans_before = len(plans)
                    again = _signature(await scheduler.submit("n", request))
                    return (
                        states, dispatched, after, leftovers,
                        len(plans) - plans_before, again,
                    )

        states, dispatched, after, leftovers, replans, again = (
            asyncio.run(scenario())
        )
        assert states == [JobState.CANCELLED] * 3
        assert after == dispatched  # no shard went out after the cancels
        assert leftovers == ({}, {})  # no lease pin, no dedup entry
        assert replans == 1
        assert again == reference

    def test_failing_execution_fails_every_attached_job(self):
        """A shard that fails on the fleet fails every job on its
        execution, releases its pin, and poisons nothing after."""
        network = _make_network(15, num_edges=150)
        # max_rhs_attrs is only consulted inside the RIGHT recursion, so
        # planning succeeds and the TypeError fires in the workers.
        poisoned = MineRequest.create(
            k=5, min_support=1, min_nhp=0.3, workers=2, max_rhs_attrs="bogus"
        )
        loose = MineRequest(k=20, min_support=1, min_nhp=0.0, workers=2)

        async def scenario():
            with EngineHub(workers=2, cache_size=0) as hub:
                hub.register("n", network)
                hub.register("blocker", _make_network(8, num_edges=200))
                async with Scheduler(hub, max_inflight=1) as scheduler:
                    blocker = scheduler.submit(
                        "blocker", k=15, min_nhp=0.0, workers=2, priority=10
                    )
                    jobs = [scheduler.submit("n", poisoned) for _ in range(3)]
                    await _until(lambda: all(j.deduped for j in jobs[1:]))
                    for job in jobs:
                        with pytest.raises(TypeError):
                            await job
                    await blocker
                    pins = dict(hub._lease_pins)
                    result = _signature(await scheduler.submit("n", loose))
                    return [job.state for job in jobs], pins, result

        states, pins, result = asyncio.run(scenario())
        assert states == [JobState.FAILED] * 3
        assert pins == {}
        assert result == _signature(oracle(network, loose))
