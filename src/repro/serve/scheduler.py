"""Scheduler — priority + weighted-fair shard interleaving over one fleet.

The blocking :class:`~repro.engine.EngineHub` is single-coordinator: one
``sweep()`` owns the fleet until it returns, so a 50-point sweep on
network A blocks a 1-query user on network B.  The scheduler inverts
that ownership — *it* holds the fleet's in-flight slots and feeds them
one shard task at a time, picked from every execution in flight:

* **Strict priorities.**  A ready shard of a higher-priority job always
  dispatches before any lower-priority one (priorities are ints, higher
  wins; starvation of low priorities under sustained high-priority load
  is accepted and documented).
* **Weighted-fair interleaving per network.**  Within a priority level,
  networks take turns by stride scheduling: serving a shard of network
  ``n`` advances ``vtime[n] += 1 / weight[n]``, and the network with the
  lowest virtual time goes next, so a bulk sweep and a single query on
  two networks make progress proportional to their weights instead of
  FIFO.  A network waking from idle is clamped to the active minimum so
  it cannot burst through accumulated credit.
* **Cooperative cancellation and deadlines.**  A cancelled execution
  stops submitting shards, drains in-flight ones (results discarded)
  and only then recycles its threshold bus — the settle-before-release
  invariant that keeps a dead query's stale floors out of whichever
  query gets the bus next.  ``deadline_s`` arms a timer that cancels
  the job with reason ``"deadline"`` (state ``EXPIRED``).

What the slots run are **executions**
(:class:`~repro.parallel.Execution`): one per distinct query in flight,
holding its plan, shard tasks, bus, lease pin and settled results.  A
:class:`ServeJob` is only the caller's handle on one of them:

* **Single-flight dedup.**  Jobs whose ``(network, store fingerprint,
  canonical request)`` coincide while an execution for it is in flight
  *attach* to that execution instead of mining again, and each resolves
  with a private copy of its outcome.  An execution runs at the highest
  priority among its attached jobs.  A job that leaves (cancel or
  deadline) detaches and the execution runs on for the rest; when its
  last job leaves, the execution cancels itself.  N identical
  concurrent jobs thus cost one mining pass instead of N.
* **Speculative warm-start floors.**  :meth:`Scheduler.submit_sweep`
  inspects a co-admitted batch for the provable dominance relation of
  :func:`~repro.engine.request.warmstart_dominates` (same query up to
  monotone thresholds), mines the dominating *seed* point first at
  boosted priority, and admits the dominated points only once the seed
  resolved — their threshold buses are then checked out pre-seeded
  with the seed's k-th-best score, so every shard starts pruning from
  a proven floor instead of −inf.  Dominance is re-verified against
  live fingerprints at admission; when it no longer holds (store
  delta, seed cancelled, seed returned fewer than k results) the
  dependent falls back to a cold floor.  Answers stay GR-for-GR equal
  to cold execution either way — the floor only rejects GRs that
  provably cannot enter the top-k.

Exactness is inherited, not reimplemented: executions are planned by
:meth:`~repro.engine.MiningEngine.prepare` and merged by
:meth:`~repro.engine.MiningEngine.finish`, the blocking sweep's own
steps (per-execution buses, fingerprint-keyed result cache), and the
merge is settle-order independent, so any interleaving the scheduler
produces yields GR-for-GR the answer of a direct ``hub.mine()``.

Threading model — three actors, strict ownership:

* the **asyncio event loop** owns every scheduling decision and all
  scheduler/job state (shard completions are marshalled onto it);
* one **coordinator thread** (a 1-thread executor) owns all
  engine-internal mutable state — planning skeletons, bus checkouts,
  leases and pins, the result cache — i.e. the role the blocking hub's
  calling thread used to play.  It plans, merges and caches but never
  mines, so a cache hit on one network never queues behind another
  network's mine;
* the **worker fleet** (processes) owns all mining: every execution's
  shards run there, one shard or many.

While a scheduler serves a hub, route all traffic through it: calling
the blocking ``hub.mine()`` / ``hub.sweep()`` concurrently from another
thread would race the coordinator on engine internals.
"""

from __future__ import annotations

import asyncio
import itertools
import pickle
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Mapping

from ..core.results import MiningResult
from ..engine.hub import EngineHub
from ..engine.request import MineRequest, warmstart_dominates
from ..parallel.miner import Execution
from ..obs.metrics import REGISTRY
from ..obs.trace import NullTracer, Tracer
from .job import JobCancelled, JobState, ServeJob
from .markers import coordinator_only

__all__ = ["Scheduler"]

_M_SUBMITTED = REGISTRY.counter(
    "repro_scheduler_jobs_submitted_total", "Jobs admitted via submit()."
)
_M_RESOLVED = REGISTRY.counter(
    "repro_scheduler_jobs_resolved_total",
    "Jobs resolved, by terminal state.",
    labels=("state",),
)
_M_DEDUPED = REGISTRY.counter(
    "repro_scheduler_jobs_deduped_total",
    "Jobs attached to an identical in-flight execution (single-flight).",
)
_M_WARM_STARTED = REGISTRY.counter(
    "repro_scheduler_jobs_warm_started_total",
    "Jobs whose bus was checked out with a warm-start floor.",
)
_M_CACHE_HIT_JOBS = REGISTRY.counter(
    "repro_scheduler_cache_hit_jobs_total",
    "Jobs served straight from the result cache.",
)
_M_SHARDS_DISPATCHED = REGISTRY.counter(
    "repro_scheduler_shards_dispatched_total",
    "Shard tasks dispatched by the slot scheduler.",
)
_M_SHARDS_COMPLETED = REGISTRY.counter(
    "repro_scheduler_shards_completed_total",
    "Shard completions observed by the slot scheduler.",
)
_M_JOB_LATENCY = REGISTRY.histogram(
    "repro_job_latency_seconds",
    "Submit-to-resolve job latency, by priority class.",
    labels=("priority",),
)


class Scheduler:
    """Serve many concurrent jobs over one :class:`EngineHub` fleet.

    Parameters
    ----------
    hub:
        The engine hub whose networks and worker fleet are served.  The
        scheduler does not own the hub — closing the scheduler drains
        jobs and stops serving but leaves the hub usable (and the
        caller responsible for ``hub.close()``).
    max_inflight:
        Fleet slots the scheduler keeps occupied, i.e. the number of
        shard tasks in flight at once; defaults to the hub's worker
        count (one shard per worker — more would just queue inside the
        pool, outside the scheduler's control).
    warm_start:
        Default for speculative warm-start floors (on);
        :meth:`submit_sweep` / :meth:`sweep` accept a per-batch
        override in either direction, and an explicit ``floor_from=``
        on :meth:`submit` is always honored.
    observe:
        Record per-job trace spans (plan → bus acquire → per-shard
        dispatch/complete → merge → finalize) into :attr:`tracer`, a
        bounded :class:`repro.obs.Tracer` ring buffer the HTTP facade
        exports via ``GET /jobs/{id}/trace``.  ``False`` swaps in a
        :class:`~repro.obs.NullTracer` (metrics are governed separately
        by ``repro.obs.REGISTRY.set_enabled``).

    Use as an async context manager (or ``await start()`` /
    ``await close()``)::

        async with Scheduler(hub) as scheduler:
            bulk = [scheduler.submit("a", r) for r in sweep_requests]
            urgent = scheduler.submit("b", request, priority=10)
            result = await urgent          # jumps the bulk's queue
            rest = await asyncio.gather(*bulk)
    """

    def __init__(
        self,
        hub: EngineHub,
        max_inflight: int | None = None,
        warm_start: bool = True,
        observe: bool = True,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be positive (or None)")
        self.hub = hub
        self.warm_start = warm_start
        self.observe = observe
        self.tracer = Tracer() if observe else NullTracer()
        #: Snapshot age past which :meth:`hub_stats` kicks a background
        #: refresh (the current snapshot is still served immediately).
        self.stats_max_age_s = 1.0
        self._hub_stats: dict | None = None
        self._hub_stats_at: float = 0.0
        self._hub_stats_refreshing = False
        self.slots = max_inflight if max_inflight is not None else hub.workers
        self._loop: asyncio.AbstractEventLoop | None = None
        self._coordinator = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-coordinator"
        )
        self._admit: asyncio.Queue | None = None
        self._admitter: asyncio.Task | None = None
        self._jobs: dict[str, ServeJob] = {}
        self._retired: deque[str] = deque()
        self.retain_jobs = 512
        #: Executions with shard tasks waiting for a fleet slot.
        self._ready: list[Execution] = []
        self._inflight_slots = 0
        self._inflight_by_network: dict[str, int] = {}
        self._fleet = None
        self._seq = itertools.count(1)
        self._vtime: dict[str, float] = {}
        self._weights: dict[str, float] = {}
        self._shards_by_network: dict[str, int] = {}
        self._active_by_network: dict[str, int] = {}
        self._drain_waiters: dict[str, list[asyncio.Future]] = {}
        #: Paused networks -> the submission seq at which the pause
        #: began.  Jobs submitted before the pause pass through and are
        #: drained; later ones park in the backlog until the delta lands.
        self._paused: dict[str, int] = {}
        self._backlog: dict[str, deque[ServeJob]] = {}
        #: Single-flight registry: dedup key -> the execution that
        #: identical jobs attach to while it is in flight.
        self._executions: dict[tuple, Execution] = {}
        self._finalizing: set[asyncio.Task] = set()
        self._counters = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "expired": 0,
            "cache_hit_jobs": 0,
            "shards_dispatched": 0,
            "shards_completed": 0,
            #: Jobs that attached to an identical in-flight execution.
            "deduped": 0,
            #: Sweep points submitted as boosted-priority dominance seeds.
            "warm_seeds": 0,
            #: Jobs whose bus was checked out with a warm-start floor.
            "warm_started": 0,
            #: Cache entries migrated across append_edges barriers
            #: (carried to the new fingerprint, touched branches re-mined).
            "delta_migrated_entries": 0,
            #: Cache entries purged by append_edges barriers (re-mine cold).
            "delta_purged_entries": 0,
        }
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "Scheduler":
        """Bind to the running event loop, spawn the hub's worker fleet
        and start admitting jobs.

        Every mined job needs the fleet, and a serving process must fork
        it before any socket opens: forked later, the children would
        inherit every open connection's descriptor, whose copies keep
        clients waiting for an EOF that never comes.
        """
        if self._loop is not None:
            raise RuntimeError("scheduler already started")
        self._loop = asyncio.get_running_loop()
        self._admit = asyncio.Queue()
        self._admitter = self._loop.create_task(
            self._admit_loop(), name="serve-admitter"
        )
        self._fleet = await self._run_coord(self.hub._ensure_pool)
        # Seed the stats snapshot so GET /stats never has to wait for a
        # first job to publish one (see hub_stats()).
        self._store_hub_stats(await self._run_coord(self.hub.aggregate_stats))
        return self

    async def close(self) -> None:
        """Stop admitting, cancel outstanding jobs, drain in-flight shards.

        After the drain the hub is left clean (no bus checkouts, no
        lease pins) and open — the scheduler never owns it.
        """
        if self._closed:
            return
        self._closed = True
        for job in list(self._jobs.values()):
            if not job.done:
                self._request_cancel(job, "scheduler shutdown")
        # The job that ends an execution resolves only after its
        # in-flight shards settled and its bus/pin were released on the
        # coordinator.
        pending = [job.future for job in self._jobs.values() if not job.done]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._admitter is not None:
            # The sentinel queues behind any admission in progress, which
            # releases what it planned for its since-cancelled job.
            self._admit.put_nowait(None)
            await self._admitter
            self._admitter = None
        self._coordinator.shutdown(wait=True)

    async def __aenter__(self) -> "Scheduler":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def _ensure_serving(self) -> None:
        if self._loop is None:
            raise RuntimeError("scheduler not started — use 'async with' or start()")
        if self._closed:
            raise RuntimeError("scheduler is closed")

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    def submit(
        self,
        network: str,
        request: MineRequest | Mapping | None = None,
        *,
        priority: int = 0,
        deadline_s: float | None = None,
        floor_from: ServeJob | None = None,
        **kwargs,
    ) -> ServeJob:
        """Admit one request; returns its :class:`ServeJob` immediately.

        ``priority`` is strict (higher dispatches first); ``deadline_s``
        is relative seconds after which the job self-cancels with state
        ``EXPIRED``.  Keywords build the request inline, as on
        ``engine.mine``.

        ``floor_from`` names a *seed* job: this job then parks until the
        seed resolves and admits with the seed's k-th-best score as its
        warm-start threshold floor — applied only if the dominance
        relation of :func:`~repro.engine.request.warmstart_dominates`
        holds between the two (same network and fingerprint included);
        otherwise the job admits cold.  :meth:`submit_sweep` wires this
        automatically for dominance-related batches.
        """
        self._ensure_serving()
        if deadline_s is not None and deadline_s < 0:
            raise ValueError("deadline_s must be non-negative (or None)")
        if request is None:
            request = MineRequest.create(**kwargs)
        elif kwargs:
            raise TypeError("pass either a request or keywords, not both")
        elif not isinstance(request, MineRequest):
            request = MineRequest.create(**dict(request))
        self.hub.engine(network)  # unknown names fail at submit, not admit
        seq = next(self._seq)
        job = ServeJob(
            self,
            job_id=f"job-{seq:06d}",
            network=network,
            request=request,
            priority=priority,
            deadline_s=deadline_s,
        )
        job.seq = seq
        self._jobs[job.id] = job
        self._counters["submitted"] += 1
        _M_SUBMITTED.inc()
        self.tracer.begin(job.id, network=network, priority=priority)
        self._active_by_network[network] = (
            self._active_by_network.get(network, 0) + 1
        )
        job._floor_source = floor_from
        if floor_from is not None and not floor_from.done:
            # Park on the seed: released (through the admit queue, so
            # the mutation-barrier check still applies) when it
            # resolves.  Parked jobs hold no shards, pins or buses.
            job._parked_for_floor = True
            floor_from._dependents.append(job)
        elif network in self._paused:
            self._backlog.setdefault(network, deque()).append(job)
        else:
            self._admit.put_nowait(job)
        if deadline_s is not None:
            # Keep the handle so _resolve can cancel it: a completed
            # job with a long deadline must not leave a live timer
            # behind (unbounded handle growth under sustained traffic).
            job._deadline_handle = self._loop.call_later(
                deadline_s, self._expire, job
            )
        return job

    async def mine(
        self,
        network: str,
        request: MineRequest | Mapping | None = None,
        *,
        priority: int = 0,
        deadline_s: float | None = None,
        **kwargs,
    ) -> MiningResult:
        """Submit one request and await its result."""
        return await self.submit(
            network, request, priority=priority, deadline_s=deadline_s, **kwargs
        )

    async def sweep(
        self,
        network: str,
        requests: Iterable[MineRequest | Mapping],
        *,
        priority: int = 0,
        deadline_s: float | None = None,
        warm_start: bool | None = None,
    ) -> list[MiningResult]:
        """Submit a batch against one network and await all results.

        Unlike the blocking ``hub.sweep``, the batch holds no monopoly
        on the fleet: its shards interleave with every other admitted
        job under the fairness policy.  The batch runs through the
        admission planner (:meth:`submit_sweep`): dominance seeds are
        mined first at boosted priority and warm-start the points they
        dominate, unless ``warm_start`` (or the scheduler-wide switch)
        turns that off.
        """
        jobs = self.submit_sweep(
            network,
            requests,
            priority=priority,
            deadline_s=deadline_s,
            warm_start=warm_start,
        )
        return list(await asyncio.gather(*jobs))

    def submit_sweep(
        self,
        network: str,
        requests: Iterable[MineRequest | Mapping],
        *,
        priority: int = 0,
        deadline_s: float | None = None,
        warm_start: bool | None = None,
    ) -> list[ServeJob]:
        """Plan and admit a co-submitted batch; returns jobs in order.

        Two guarantees beyond a loop of :meth:`submit`:

        * **All-or-nothing admission.**  Every request is validated
          before any is submitted, and if a later submission still
          fails, the already-admitted jobs of this batch are cancelled
          — a rejected batch never leaves orphan jobs mining behind the
          caller's error.
        * **Warm-start planning.**  The batch is scanned for the
          dominance relation of
          :func:`~repro.engine.request.warmstart_dominates`.  For each
          dominance group the point that dominates the most others is
          submitted first at ``priority + 1`` (the *seed*); the points
          it dominates park until the seed resolves and then admit with
          its k-th-best score as their threshold-bus floor.  Points in
          no dominance relation — and the whole batch when warm-start
          is off — admit immediately with cold floors.
        """
        self._ensure_serving()
        requests = [
            req if isinstance(req, MineRequest) else MineRequest.create(**dict(req))
            for req in requests
        ]
        engine = self.hub.engine(network)
        use_warm = self.warm_start if warm_start is None else warm_start
        seed_of: dict[int, int] = {}
        seeds: list[int] = []
        if use_warm and len(requests) > 1:
            keys = [
                request.canonical_key(
                    engine.network.schema, engine.network.num_edges
                )
                for request in requests
            ]
            seeds, seed_of = self._plan_warmstart(keys)
        jobs: list[ServeJob | None] = [None] * len(requests)
        try:
            for i in seeds:
                # The seed's k-th best gates its dependents, so it goes
                # first: one priority level above the batch.
                jobs[i] = self.submit(
                    network,
                    requests[i],
                    priority=priority + 1,
                    deadline_s=deadline_s,
                )
                self._counters["warm_seeds"] += 1
            for i, request in enumerate(requests):
                if jobs[i] is not None:
                    continue
                source = jobs[seed_of[i]] if i in seed_of else None
                jobs[i] = self.submit(
                    network,
                    request,
                    priority=priority,
                    deadline_s=deadline_s,
                    floor_from=source,
                )
        except BaseException:
            for job in jobs:
                if job is not None and not job.done:
                    job.cancel("sweep submission failed")
            raise
        return jobs

    @staticmethod
    def _plan_warmstart(keys: list[tuple]) -> tuple[list[int], dict[int, int]]:
        """Pick dominance seeds for a batch of canonical keys.

        Greedy single-level cover: repeatedly promote the unassigned
        point that dominates the most still-unassigned others to a
        seed, until no point dominates anything.  Identical keys never
        dominate each other (they share one execution), and points under
        no dominance run cold.
        """
        n = len(keys)
        dominated = {
            i: [
                j
                for j in range(n)
                if j != i and warmstart_dominates(keys[i], keys[j])
            ]
            for i in range(n)
        }
        seeds: list[int] = []
        seed_of: dict[int, int] = {}
        taken: set[int] = set()
        while True:
            best, best_cover = None, []
            for i in range(n):
                if i in taken:
                    continue
                cover = [j for j in dominated[i] if j not in taken]
                if len(cover) > len(best_cover):
                    best, best_cover = i, cover
            if best is None or not best_cover:
                return seeds, seed_of
            seeds.append(best)
            taken.add(best)
            for j in best_cover:
                taken.add(j)
                seed_of[j] = best

    def job(self, job_id: str) -> ServeJob:
        """Look up a (recent) job by id."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"no job {job_id!r} (retained: {self.retain_jobs})") from None

    def set_weight(self, network: str, weight: float) -> None:
        """Set a network's fair-share weight (default 1.0; higher = more
        shard slots per scheduling round at equal priority)."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._weights[network] = float(weight)

    # ------------------------------------------------------------------
    # Mutation barrier
    # ------------------------------------------------------------------
    async def append_edges(self, network: str, src, dst, edge_codes=None) -> str:
        """Apply an append-edge delta with a per-network drain barrier.

        Admitted executions hold shard tasks addressing the network's
        current store export; mutating under them would unlink that
        segment (or worse, serve half a query from each edge set).  The
        barrier pauses *admission* for this network only (other
        networks keep flowing; late submissions park in a backlog),
        waits for its active jobs to finish, applies the delta on the
        coordinator, then releases the backlog.  Returns the new
        fingerprint.

        The delta's cache outcome is surfaced in :meth:`stats`:
        ``delta_migrated_entries`` counts result-cache entries carried
        across the fingerprint change (only delta-touched branches
        re-mined), ``delta_purged_entries`` those dropped to re-mine
        cold.
        """
        self._ensure_serving()
        engine = self.hub.engine(network)
        if network in self._paused:
            raise RuntimeError(f"append_edges already in progress for {network!r}")
        self._paused[network] = next(self._seq)
        try:
            await self._drain_network(network)
            migrated_before = engine.stats.migrated_entries
            purged_before = engine.stats.purged_entries
            fingerprint = await self._run_coord(
                self.hub.append_edges, network, src, dst, edge_codes
            )
            # The coordinator call completed before these reads, and the
            # drain barrier keeps this engine otherwise idle, so the
            # diffs attribute exactly this delta's cache outcome.
            self._counters["delta_migrated_entries"] += (
                engine.stats.migrated_entries - migrated_before
            )
            self._counters["delta_purged_entries"] += (
                engine.stats.purged_entries - purged_before
            )
            # The delta changed the fingerprint and lease population the
            # published stats snapshot describes — refresh it in place.
            self._store_hub_stats(
                await self._run_coord(self.hub.aggregate_stats)
            )
            return fingerprint
        finally:
            self._paused.pop(network, None)
            backlog = self._backlog.pop(network, None)
            if backlog:
                for job in backlog:
                    self._admit.put_nowait(job)

    async def _drain_network(self, network: str) -> None:
        if self._drainable_active(network) <= 0:
            return
        waiter = self._loop.create_future()
        self._drain_waiters.setdefault(network, []).append(waiter)
        await waiter

    def _drainable_active(self, network: str) -> int:
        """Live jobs the barrier must wait for: active minus parked ones
        (backlogged jobs and warm-start dependents still parked on their
        seed hold no shard tasks, pins or buses — they were never
        prepared — so the delta may safely run over them; a parked
        dependent whose seed lands in the backlog would otherwise
        deadlock the barrier against itself)."""
        parked = sum(
            1 for j in self._backlog.get(network, ()) if not j.done
        )
        parked += sum(
            1
            for j in self._jobs.values()
            if j.network == network and j._parked_for_floor and not j.done
        )
        return self._active_by_network.get(network, 0) - parked

    def _check_drain(self, network: str) -> None:
        if self._drainable_active(network) <= 0:
            for waiter in self._drain_waiters.pop(network, []):
                if not waiter.done():
                    waiter.set_result(None)

    # ------------------------------------------------------------------
    # Admission (attach, or prepare on the coordinator and enqueue)
    # ------------------------------------------------------------------
    async def _admit_loop(self) -> None:
        while True:
            job: ServeJob | None = await self._admit.get()
            if job is None:
                return  # close(): every admission before it has finished
            if job.done:
                continue  # cancelled while queued; already resolved
            pause_seq = self._paused.get(job.network)
            if pause_seq is not None and job.seq > pause_seq:
                # Submitted after the barrier began: park until the
                # delta lands (parked jobs block nothing — they hold no
                # shards, pins or buses yet).  Jobs submitted *before*
                # the pause fall through and are drained by the barrier,
                # so everything admitted pre-delta sees the old edges.
                self._backlog.setdefault(job.network, deque()).append(job)
                self._check_drain(job.network)
                continue
            try:
                await self._admit_one(job)
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                self._resolve(job, JobState.FAILED, error=exc)

    async def _admit_one(self, job: ServeJob) -> None:
        engine = self.hub.engine(job.network)
        # Single-flight: identical to an in-flight execution -> attach
        # and stop.  (Admission of a network's jobs never overlaps its
        # append_edges barrier, so the fingerprint read is stable.)
        job.dedup_key = (job.network,) + engine.query_key(job.request)
        shared = self._executions.get(job.dedup_key)
        if shared is not None:
            job.deduped = True
            self._counters["deduped"] += 1
            _M_DEDUPED.inc()
            self._attach(job, shared)
            return
        floor = self._floor_for(job)
        plan_started = time.perf_counter()
        prepared = await self._run_coord(
            self._prepare_sync, engine, job.request, floor
        )
        self.tracer.span(job.id, "plan", plan_started, time.perf_counter())
        if isinstance(prepared, MiningResult):
            if not job.done:
                job.cached = True
                self._counters["cache_hit_jobs"] += 1
                _M_CACHE_HIT_JOBS.inc()
                self._resolve(job, JobState.DONE, result=prepared)
            return
        execution = prepared
        for name, (span_start, span_end) in execution.timings.items():
            self.tracer.span(job.id, name, span_start, span_end)
        if execution.floor is not None:
            self._counters["warm_started"] += 1
            _M_WARM_STARTED.inc()
        if job.done:  # cancelled while being planned: nothing went out
            await self._run_coord(self._release_sync, engine, execution)
            return
        self._attach(job, execution)
        self._executions[job.dedup_key] = execution
        if execution.queue:
            self._enter_ready(execution)
            self._fill_slots()
        else:
            # Every first-level partition is below minSupp: no shard to
            # run, so the (empty) answer merges right away.
            self._finalize_soon(execution)

    @coordinator_only
    def _prepare_sync(self, engine, request: MineRequest, floor=None):
        # Runs on the coordinator thread.  The pin must precede the
        # prepare: prepare resolves the store handle (possibly exporting
        # a lease), and an interleaved prepare for another network must
        # not budget-evict it while this execution's tasks address it.
        self.hub.pin_lease(engine.name)
        try:
            prepared = engine.prepare(request, floor=floor)
        except BaseException:
            self.hub.unpin_lease(engine.name)
            raise
        if isinstance(prepared, Execution):
            prepared.network = engine.name
            prepared.pinned = True
            return prepared
        self.hub.unpin_lease(engine.name)  # a cache hit addresses no lease
        self._publish_hub_stats()
        return prepared

    def _attach(self, job: ServeJob, execution) -> None:
        job.execution = execution
        execution.jobs.append(job)
        self._publish_progress(job)

    def _floor_for(self, job: ServeJob) -> float | None:
        """The warm-start floor this job admits with, or ``None``.

        Dominance is decided *now*, against live canonical keys — the
        plan made at submit time is only a hint.  A seed that was
        cancelled, failed, returned fewer than ``k`` results, or ran
        over a different store version (fingerprint mismatch after an
        append-edge delta) degrades to a cold floor, never to an
        unsound one.

        No master-switch check here: a floor source is only ever set by
        an explicit ``floor_from=`` or by batch planning that was
        already gated on the switch/override — vetoing it again would
        silently strip the floor from a ``warm_start=True`` batch on a
        default-off scheduler after it paid the seed-first serialization.
        """
        source, job._floor_source = job._floor_source, None
        if source is None:
            return None
        if source.state is not JobState.DONE:
            return None
        if source.dedup_key is None or job.dedup_key is None:
            return None
        seed_net, seed_fp, seed_ck = source.dedup_key
        dep_net, dep_fp, dep_ck = job.dedup_key
        if seed_net != dep_net or seed_fp != dep_fp:
            return None
        if not warmstart_dominates(seed_ck, dep_ck):
            return None
        result = source.future.result()
        k = job.request.k
        if k is None or len(result.grs) != k:
            # Fewer than k seed results certify fewer than k dependent
            # results — not enough to bound the dependent's top-k.
            return None
        return float(result.grs[-1].score)

    def _run_coord(self, fn, *args):
        return self._loop.run_in_executor(self._coordinator, lambda: fn(*args))

    # ------------------------------------------------------------------
    # Slot scheduling (event-loop thread only)
    # ------------------------------------------------------------------
    def _enter_ready(self, execution) -> None:
        active = {e.network for e in self._ready}
        active.update(n for n, count in self._inflight_by_network.items() if count)
        if execution.network not in active:
            # A network waking from idle re-enters *at* the active
            # minimum, from either side: clamping up keeps it from
            # bursting through credit accumulated while absent, and
            # clamping back down keeps a stale vtime surplus (run up
            # before it idled) from starving it behind fresher networks
            # until they catch up.
            floor = min(
                (self._vtime.get(n, 0.0) for n in active), default=0.0
            )
            self._vtime[execution.network] = floor
        self._ready.append(execution)

    def _pick(self):
        """The next execution to advance: priority, then fair share, then
        FIFO.  Its priority is the highest among its attached jobs, so
        single-flight never slows the most urgent of them."""
        return min(
            self._ready,
            key=lambda e: (
                -e.priority,
                self._vtime.get(e.network, 0.0),
                e.jobs[0].seq,
            ),
        )

    def _fill_slots(self) -> None:
        while self._inflight_slots < self.slots and self._ready:
            execution = self._pick()
            task = execution.next_task()
            if not execution.queue:
                self._ready.remove(execution)
            network = execution.network
            self._inflight_slots += 1
            self._inflight_by_network[network] = (
                self._inflight_by_network.get(network, 0) + 1
            )
            self._counters["shards_dispatched"] += 1
            _M_SHARDS_DISPATCHED.inc()
            self._shards_by_network[network] = (
                self._shards_by_network.get(network, 0) + 1
            )
            weight = self._weights.get(network, 1.0)
            self._vtime[network] = self._vtime.get(network, 0.0) + 1.0 / weight
            sent = time.perf_counter()
            self._fleet.submit(
                task,
                callback=lambda res, e=execution, t=sent: self._from_fleet(
                    e, t, res, None
                ),
                error_callback=lambda exc, e=execution, t=sent: self._from_fleet(
                    e, t, None, exc
                ),
            )

    def _from_fleet(self, execution, sent: float, result, exc) -> None:
        # Pool result-handler thread: marshal onto the loop and return.
        try:
            self._loop.call_soon_threadsafe(
                self._on_shard, execution, sent, result, exc
            )
        except RuntimeError:
            pass  # loop already closed under a forced teardown

    def _on_shard(self, execution, sent: float, result, exc) -> None:
        self._inflight_slots -= 1
        self._inflight_by_network[execution.network] -= 1
        self._counters["shards_completed"] += 1
        _M_SHARDS_COMPLETED.inc()
        execution.settle(result, exc)
        if exc is not None:
            self._stop(execution)  # the remaining shards are dead weight
        else:
            self.tracer.span(
                execution.jobs[0].id,
                f"shard-{result.shard_id}",
                sent,
                time.perf_counter(),
                tid=result.shard_id + 1,
                entries=len(result.entries),
            )
        if execution.drained:
            self._finalize_soon(execution)
        for job in execution.jobs:
            self._publish_progress(job)
        self._fill_slots()

    def _stop(self, execution) -> None:
        """Dispatch nothing more for ``execution``; attach nobody more."""
        execution.stop()
        if execution in self._ready:
            self._ready.remove(execution)
        self._forget(execution)

    def _forget(self, execution) -> None:
        key = (execution.network,) + execution.key
        if self._executions.get(key) is execution:
            del self._executions[key]

    # ------------------------------------------------------------------
    # Progress streaming (event-loop thread only)
    # ------------------------------------------------------------------
    def progress_payload(self, job: ServeJob) -> dict:
        """JSON-ready progress snapshot for SSE streaming.

        State, shard counts, floor and partial top-k are the job's
        execution's.  The partial top-k folds every settled shard's best
        entries — a best-effort preview; the exact, tie-broken merge
        still happens in ``engine.finish``.  The reported ``floor`` is
        monotonic per job: the bus read is a lock-free shared-memory max
        (safe off the coordinator), but the bus is recycled once the
        execution drained — without the high-water mark a terminal event
        could report a looser floor than an earlier one.
        """
        execution = job.execution
        bus = execution.bus if execution is not None else None
        floor = job.warm_floor
        if bus is not None:
            raw = bus.best_floor()
            floor = raw if raw != float("-inf") else None
        if floor is not None and (
            job._floor_seen is None or floor > job._floor_seen
        ):
            job._floor_seen = floor
        k = job.request.k
        keep = k if k is not None else 10
        results = execution.results if execution is not None else ()
        topk = sorted(
            (
                (float(entry.score), str(entry.gr))
                for result in results
                for entry in result.entries[:keep]
            ),
            key=lambda pair: pair[0],
            reverse=True,
        )[:keep]
        kth_best = topk[k - 1][0] if (k is not None and len(topk) >= k) else None
        return {
            "job_id": job.id,
            "state": job.state.value,
            "shards_total": job.shards_total,
            "shards_done": job.shards_done,
            "floor": job._floor_seen,
            "kth_best": kth_best,
            "top_k": [{"score": score, "gr": gr} for score, gr in topk],
        }

    def _publish_progress(self, job: ServeJob, event: str = "progress") -> None:
        if not job._subscribers:
            return
        payload = self.progress_payload(job)
        for queue in list(job._subscribers):
            queue.put_nowait((event, payload))

    # ------------------------------------------------------------------
    # Completion / cancellation (event-loop thread only)
    # ------------------------------------------------------------------
    def _finalize_soon(self, execution) -> None:
        # The loop holds tasks weakly: keep each one until it is done.
        task = self._loop.create_task(self._finalize(execution))
        self._finalizing.add(task)
        task.add_done_callback(self._finalizing.discard)

    async def _finalize(self, execution) -> None:
        """Settle a drained execution and resolve every job still on it."""
        finalize_started = time.perf_counter()
        engine = self.hub.engine(execution.network)
        result = None
        error = execution.error
        try:
            if error is None and not all(
                job.cancel_requested for job in execution.jobs
            ):
                result = await self._run_coord(self._finish_sync, engine, execution)
            else:
                await self._run_coord(self._release_sync, engine, execution)
        except Exception as exc:
            error = exc
        self._forget(execution)
        # The last job to leave never detaches, so ``jobs`` is not empty.
        jobs, execution.jobs = execution.jobs, []
        if "merge" in execution.timings:
            self.tracer.span(jobs[0].id, "merge", *execution.timings["merge"])
        self.tracer.span(
            jobs[0].id, "finalize", finalize_started, time.perf_counter()
        )
        live = [job for job in jobs if not job.cancel_requested]
        # Each caller gets a private copy of the result: mutating one
        # caller's copy must not reach another's.
        snapshot = (
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            if error is None and len(live) > 1
            else None
        )
        for job in jobs:
            if job.cancel_requested:
                self._resolve_cancelled(job)
            elif error is not None:
                self._resolve(job, JobState.FAILED, error=error)
            else:
                copy = result if job is live[0] else pickle.loads(snapshot)
                self._resolve(job, JobState.DONE, result=copy)

    @coordinator_only
    def _finish_sync(self, engine, execution) -> MiningResult:
        # Coordinator thread: merge a drained execution, cache, then
        # release bus and pin.
        try:
            return engine.finish(execution)
        finally:
            self._release_sync(engine, execution)

    @coordinator_only
    def _release_sync(self, engine, execution) -> None:
        # Coordinator thread.  Safe exactly because an execution is only
        # released once drained, or before any of its shards went out.
        engine.release_bus(execution)
        if execution.pinned:
            execution.pinned = False
            self.hub.unpin_lease(execution.network)
        self._publish_hub_stats()

    @coordinator_only
    def _publish_hub_stats(self) -> None:
        # Publish a fresh hub snapshot while we're already on the
        # coordinator — the GET /stats read path then serves it without
        # its own round-trip (see hub_stats()).
        stats = self.hub.aggregate_stats()
        try:
            self._loop.call_soon_threadsafe(self._store_hub_stats, stats)
        except RuntimeError:
            pass  # loop already closed under a forced teardown

    def _resolve(
        self,
        job: ServeJob,
        state: JobState,
        result=None,
        error: BaseException | None = None,
    ) -> None:
        if job.done:
            return
        job._state = state
        job.finished_at = self._loop.time()
        _M_RESOLVED.labels(state=state.value).inc()
        _M_JOB_LATENCY.labels(priority=str(job.priority)).observe(
            job.finished_at - job.submitted_at
        )
        if job._deadline_handle is not None:
            # Timer-leak fix: a resolved job must not leave its deadline
            # timer live until it fires (only to find the job done).
            job._deadline_handle.cancel()
            job._deadline_handle = None
        if state is JobState.DONE:
            self._counters["completed"] += 1
            if not job.future.done():
                job.future.set_result(result)
        else:
            key = {
                JobState.FAILED: "failed",
                JobState.CANCELLED: "cancelled",
                JobState.EXPIRED: "expired",
            }[state]
            self._counters[key] += 1
            if not job.future.done():
                job.future.set_exception(error)
                if isinstance(error, JobCancelled):
                    # Cancellation is a normal outcome the caller may
                    # never await; don't log it as an unretrieved error.
                    job.future.exception()
        # Warm-start fan-out: dependents parked on this job re-enter
        # admission (their floor — or a cold fallback — is decided
        # there, against live fingerprints).
        dependents, job._dependents = job._dependents, []
        for dependent in dependents:
            if dependent.done:
                continue
            dependent._parked_for_floor = False
            self._admit.put_nowait(dependent)
        remaining = self._active_by_network.get(job.network, 1) - 1
        if remaining > 0:
            self._active_by_network[job.network] = remaining
        else:
            self._active_by_network.pop(job.network, None)
        self._check_drain(job.network)
        self._publish_progress(job, event="done")
        self._retire(job)

    def _resolve_cancelled(self, job: ServeJob) -> None:
        reason = job.cancel_reason or "cancelled"
        state = JobState.EXPIRED if reason == "deadline" else JobState.CANCELLED
        self._resolve(job, state, error=JobCancelled(job.id, reason))

    def _retire(self, job: ServeJob) -> None:
        self._retired.append(job.id)
        while len(self._retired) > self.retain_jobs:
            stale = self._retired.popleft()
            old = self._jobs.get(stale)
            if old is not None and old.done:
                del self._jobs[stale]

    def _request_cancel(self, job: ServeJob, reason: str) -> None:
        """Thread-safe cancellation entry (jobs delegate here)."""
        if self._loop is None:
            return
        try:
            running = asyncio.get_running_loop() is self._loop
        except RuntimeError:
            running = False
        if running:
            self._cancel_on_loop(job, reason)
        else:
            self._loop.call_soon_threadsafe(self._cancel_on_loop, job, reason)

    def _cancel_on_loop(self, job: ServeJob, reason: str) -> None:
        if job.done or job.cancel_requested:
            return
        job.cancel_requested = True
        job.cancel_reason = reason
        execution = job.execution
        if execution is not None:
            if any(not other.cancel_requested for other in execution.jobs):
                # Detach: the execution runs on for the jobs still on it.
                execution.jobs.remove(job)
            else:
                # The last job out cancels the execution and resolves
                # once it drained and released its bus and pin.  With
                # shards in flight the last one back finalizes it, and
                # one that already drained is finalizing; one starved of
                # slots has nothing in flight, so it finalizes here.
                starved = bool(execution.queue) and execution.inflight == 0
                self._stop(execution)
                if starved:
                    self._finalize_soon(execution)
                return
        # Nothing of the job is anywhere in flight — it is queued,
        # parked, being planned or just detached — so it resolves now.
        self._resolve_cancelled(job)

    def _expire(self, job: ServeJob) -> None:
        if not job.done:
            self._cancel_on_loop(job, "deadline")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _store_hub_stats(self, stats: dict) -> None:
        # Event-loop thread only (coordinator publishers marshal here
        # via call_soon_threadsafe).
        self._hub_stats = stats
        self._hub_stats_at = self._loop.time()

    def hub_stats(self) -> dict:
        """The published hub-stats snapshot — never blocks on the coordinator.

        The coordinator republishes after every job release and every
        append-edge delta, so under traffic the snapshot is fresh by
        construction.  On an idle scheduler a read older than
        :attr:`stats_max_age_s` kicks one background refresh but still
        returns the current snapshot immediately — a ``GET /stats`` poll
        can never queue behind mining work on the coordinator.  The
        returned dict carries its own staleness as ``age_s``.
        """
        age = (
            self._loop.time() - self._hub_stats_at
            if self._hub_stats is not None
            else None
        )
        if (
            not self._closed
            and not self._hub_stats_refreshing
            and (age is None or age > self.stats_max_age_s)
        ):
            self._hub_stats_refreshing = True
            self._loop.create_task(self._refresh_hub_stats())
        payload = dict(self._hub_stats or {})
        payload["age_s"] = age
        return payload

    async def _refresh_hub_stats(self) -> None:
        try:
            stats = await self._run_coord(self.hub.aggregate_stats)
        except RuntimeError:
            return  # coordinator already shut down mid-close
        finally:
            self._hub_stats_refreshing = False
        self._store_hub_stats(stats)

    def stats(self) -> dict:
        """Counters + live state (JSON-ready)."""
        live = [j for j in self._jobs.values() if not j.done]
        return {
            **self._counters,
            "slots": self.slots,
            "inflight_slots": self._inflight_slots,
            "live_jobs": len(live),
            "ready_jobs": len(self._ready),
            "networks": {
                name: {
                    "shards_served": served,
                    "vtime": self._vtime.get(name, 0.0),
                    "weight": self._weights.get(name, 1.0),
                }
                for name, served in sorted(self._shards_by_network.items())
            },
        }

    def __repr__(self) -> str:
        state = (
            "closed" if self._closed
            else "serving" if self._loop is not None
            else "unstarted"
        )
        return (
            f"Scheduler(networks={self.hub.names()}, slots={self.slots}, "
            f"{state}, inflight={self._inflight_slots})"
        )
