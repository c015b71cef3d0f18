"""ServeJob — one caller's handle on a request, owned by a :class:`Scheduler`.

A job is the serving-layer sibling of
:class:`~repro.engine.request.MineRequest`: the request says *what* to
mine, the job says *how it competes* for the shared fleet — its
``priority`` (strict: higher always dispatches first), its optional
``deadline_s`` (expired jobs self-cancel), and its cooperative
cancellation handle.  Awaiting a job yields its
:class:`~repro.core.results.MiningResult`; a cancelled or expired job
raises :class:`JobCancelled` instead.

The mining itself is not the job's: it belongs to an
:class:`~repro.parallel.Execution`, one per distinct query in flight
(same network, store fingerprint and canonical request), which every
identical job *attaches* to.  A job reads its live state, shard
progress and warm-start floor from its execution.  Jobs move through
:class:`JobState`:

``PENDING`` (queued, or being planned) → ``READY`` (attached; shard
tasks queued for the fleet) → ``RUNNING`` (shards in flight on the
fleet) → one of ``DONE`` / ``FAILED`` / ``CANCELLED`` / ``EXPIRED``.

Cache hits skip straight from ``PENDING`` to ``DONE`` and never create
an execution; an execution that plans no shard (every first-level
partition below minSupp) resolves from ``READY``.  Cancelling a job *detaches* it: its execution keeps
running for the jobs still attached.  When the last one leaves, the
execution cancels itself — it submits no further shards, its in-flight
shards drain (their results are discarded), and only then are its
threshold bus and lease pin released, the settle-before-release
invariant that keeps a dead query's stale floors out of whichever query
checks the bus out next.  That last job resolves once the release is
done.

A job submitted with ``floor_from=seed`` (see
:meth:`Scheduler.submit_sweep`) parks until the seed resolves, then
admits with the seed's k-th-best score as its threshold-bus floor —
cold when dominance does not hold; ``warm_floor`` records what its
execution applied.
"""

from __future__ import annotations

import asyncio
import enum

from ..engine.request import MineRequest

__all__ = ["JobCancelled", "JobState", "ServeJob"]


class JobState(str, enum.Enum):
    PENDING = "pending"
    READY = "ready"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    EXPIRED = "expired"


#: States a job can never leave.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.EXPIRED}
)


class JobCancelled(Exception):
    """Awaited job was cancelled (``reason='deadline'`` when it expired)."""

    def __init__(self, job_id: str, reason: str = "cancelled") -> None:
        super().__init__(f"job {job_id} {reason}")
        self.job_id = job_id
        self.reason = reason


class ServeJob:
    """One request admitted to the serving scheduler.

    Not constructed directly — :meth:`Scheduler.submit` returns these.
    ``await job`` (or ``await job.result()``) yields the mining result;
    :meth:`cancel` is safe from any thread.
    """

    def __init__(
        self,
        scheduler,
        job_id: str,
        network: str,
        request: MineRequest,
        priority: int,
        deadline_s: float | None,
    ) -> None:
        self._scheduler = scheduler
        self.id = job_id
        self.network = network
        self.request = request
        self.priority = priority
        self.deadline_s = deadline_s
        self.cancel_requested = False
        self.cancel_reason: str | None = None
        #: Submission order (the scheduler's FIFO tie-break).
        self.seq: int = 0
        self.future: asyncio.Future = scheduler._loop.create_future()
        self.submitted_at: float = scheduler._loop.time()
        self.finished_at: float | None = None
        self.cached: bool = False
        #: Single-flight identity ``(network, fingerprint, canonical
        #: key)``, assigned at admission (``None`` until then).
        self.dedup_key = None
        #: True when this job attached to an execution another job opened.
        self.deduped: bool = False
        #: The execution this job attached to; kept once the job resolved,
        #: so its final shard counts stay readable.
        self.execution = None
        #: ``PENDING`` until resolved, then the terminal state; the live
        #: states in between come from the execution.
        self._state = JobState.PENDING
        #: Warm-start seed whose resolution this job waits for.
        self._floor_source: "ServeJob | None" = None
        #: True while parked in the seed's dependent list (pre-admission;
        #: such a job holds no shards, pins or buses, so the append-edge
        #: barrier does not wait for it).
        self._parked_for_floor: bool = False
        #: Jobs parked on *this* job's resolution for their floors.
        self._dependents: list["ServeJob"] = []
        #: Deadline timer armed at submit; cancelled on resolution so a
        #: long-deadline job does not leak a live TimerHandle.
        self._deadline_handle = None
        #: SSE progress subscriptions: one ``asyncio.Queue`` per open
        #: ``GET /jobs/{id}/events`` stream (event-loop thread only).
        self._subscribers: list = []
        #: Highest bus floor ever reported for this job — progress events
        #: must never publish a looser floor than an earlier one.
        self._floor_seen: float | None = None

    # ------------------------------------------------------------------
    @property
    def state(self) -> JobState:
        execution = self.execution
        if self._state is not JobState.PENDING or execution is None:
            return self._state
        return JobState.RUNNING if execution.started else JobState.READY

    @property
    def done(self) -> bool:
        return self._state in TERMINAL_STATES

    @property
    def shards_total(self) -> int:
        return len(self.execution.tasks) if self.execution is not None else 0

    @property
    def shards_done(self) -> int:
        return self.execution.shards_done if self.execution is not None else 0

    @property
    def warm_floor(self) -> float | None:
        """Warm-start floor the execution's threshold bus was seeded with."""
        return self.execution.floor if self.execution is not None else None

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cooperative cancellation (idempotent, thread-safe).

        Takes effect at the next scheduling point: the job detaches from
        its execution and awaiting it raises :class:`JobCancelled`.  The
        execution runs on for the other attached jobs; when this was the
        last one it stops submitting shards, drains the in-flight ones
        and recycles its bus first.  A job whose result is already final
        is left untouched.
        """
        self._scheduler._request_cancel(self, reason)

    async def result(self):
        """The mining result (raises ``JobCancelled`` / the job's error)."""
        return await asyncio.shield(self.future)

    def __await__(self):
        return self.result().__await__()

    def describe(self) -> dict:
        """JSON-ready status snapshot (the HTTP facade's job view)."""
        return {
            "id": self.id,
            "network": self.network,
            "request": self.request.describe(),
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "state": self.state.value,
            "cached": self.cached,
            "deduped": self.deduped,
            "warm_floor": self.warm_floor,
            "shards_total": self.shards_total,
            "shards_done": self.shards_done,
            "cancel_reason": self.cancel_reason,
        }

    def __repr__(self) -> str:
        return (
            f"ServeJob({self.id}, network={self.network!r}, "
            f"priority={self.priority}, {self.state.value}, "
            f"shards={self.shards_done}/{self.shards_total})"
        )
