"""Best-effort score-threshold exchange between mining workers.

GRMiner(k)'s dynamic ``minNhp`` upgrade (Algorithm 1 line 28) is what
makes top-k pushdown fast — but a worker that only sees its own shard
only knows its *local* k-th best score.  The :class:`ThresholdBus` is a
tiny lock-free shared-memory array with one float64 slot per shard: a
worker publishes its local k-th best whenever its collector is full, and
siblings fold the bus maximum into their pruning threshold.  Every
query checks its bus out with all slots at −inf: only its own shards
raise them.

Soundness: a published value ``t`` certifies that its shard already
holds k verified results scoring ≥ t, so *any* GR scoring strictly below
``t`` is outside the global top-k and every subtree bounded below ``t``
can be cut (Theorem 3 applies unchanged — the threshold's origin is
irrelevant to the pruning argument).  Races are benign: slots only ever
increase, and a stale read merely prunes less.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

from ..core.descriptors import GR
from ..core.metrics import GRMetrics
from ..core.topk import TopKCollector
from ..obs.metrics import REGISTRY

__all__ = ["ThresholdBus", "SharedThresholdCollector"]

_FLOOR_UPGRADES = REGISTRY.counter(
    "repro_bus_floor_upgrades_total",
    "ThresholdBus slot raises (per-process: publishes made inside mining "
    "workers land in the worker's own registry).",
)

#: Picklable bus address: (shared-memory name, slot count).
BusHandle = tuple[str, int]

#: Threshold consultations a collector serves from its cached bus floor
#: before re-reading the bus.  The exchange is best-effort: a stale floor
#: only costs pruning opportunity, never correctness.
REFRESH_EVERY = 64


class ThresholdBus:
    """One float64 slot per shard, monotonically raised, max-reduced."""

    def __init__(self, num_slots: int | None = None, *, handle: BusHandle | None = None):
        if (num_slots is None) == (handle is None):
            raise ValueError("pass exactly one of num_slots or handle")
        if handle is not None:
            name, num_slots = handle
            self._shm = shared_memory.SharedMemory(name=name)
            self._owner = False
        else:
            if num_slots < 1:
                raise ValueError("num_slots must be positive")
            self._shm = shared_memory.SharedMemory(create=True, size=8 * num_slots)
            self._owner = True
        self.num_slots = int(num_slots)
        self._scores = np.ndarray((self.num_slots,), dtype=np.float64, buffer=self._shm.buf)
        if self._owner:
            self._scores[:] = -np.inf

    def handle(self) -> BusHandle:
        return (self._shm.name, self.num_slots)

    def publish(self, slot: int, score: float) -> None:
        """Raise ``slot`` to ``score`` (never lowers; no lock needed —
        each slot has a single writer and float64 stores are atomic on
        the platforms we target)."""
        if score > self._scores[slot]:
            self._scores[slot] = score
            _FLOOR_UPGRADES.inc()

    def best_floor(self) -> float:
        """The highest published local k-th best (−inf when none yet)."""
        return float(self._scores.max())

    def reset(self) -> None:
        """Clear every slot back to −inf, readying the bus for reuse.

        A long-lived engine serves consecutive queries over the same
        pool; a k-th-best score published for query N is meaningless for
        query N+1 (different thresholds, different ranking) and would
        wrongly tighten its dynamic minNhp — prune *correct* results.
        Only call between queries, never while one is in flight.
        """
        self._scores[:] = -np.inf

    def release(self) -> None:
        """Close (and, for the creating side, unlink) the segment."""
        try:
            self._shm.close()
            if self._owner:
                self._shm.unlink()
        except FileNotFoundError:
            pass


class SharedThresholdCollector(TopKCollector):
    """A :class:`TopKCollector` that trades thresholds over a bus.

    Publishing happens after every successful insert while full; the bus
    maximum is folded into :attr:`effective_threshold` (pruning) and
    :meth:`would_admit` (early rejection).  Bus reads are refreshed only
    every :data:`REFRESH_EVERY` consultations — threshold exchange is
    best-effort, and a stale floor is merely conservative.
    """

    def __init__(self, k: int, min_score: float, bus: ThresholdBus, slot: int) -> None:
        super().__init__(k=k, min_score=min_score)
        self._bus = bus
        self._slot = slot
        self._floor = float("-inf")
        self._consultations = 0

    def _current_floor(self) -> float:
        # The counter starts at 0 and is post-incremented, so the bus is
        # re-read on consultations 0, n, 2n, … — including the first one.
        if self._consultations % REFRESH_EVERY == 0:
            published = self._bus.best_floor()
            if published > self._floor:
                self._floor = published
        self._consultations += 1
        return self._floor

    @property
    def effective_threshold(self) -> float:
        local = TopKCollector.effective_threshold.fget(self)
        return max(local, self._current_floor())

    def would_admit(self, score: float) -> bool:
        # A floor t certifies ≥ k results scoring ≥ t somewhere in the
        # fleet; strictly-below-t candidates cannot reach the top-k.
        # Equal-to-t candidates may still win on tie-breaks, so only a
        # strict comparison is sound.
        if score < self._current_floor():
            return False
        return super().would_admit(score)

    def offer(self, gr: GR, metrics: GRMetrics, score: float) -> bool:
        kept = super().offer(gr, metrics, score)
        if kept and self.k is not None and len(self._entries) >= self.k:
            self._bus.publish(self._slot, self._entries[-1].score)
        return kept
