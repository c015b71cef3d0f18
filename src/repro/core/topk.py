"""Top-k collection with dynamic threshold upgrade and generality index.

Implements the bookkeeping of Definition 5 and Algorithm 1 lines 27–28:

* ranking by score (nhp, or confidence for the baseline ranking), then
  support, then the alphabetical order of the GR's canonical string;
* the *generality index* enforcing condition (2): a candidate is rejected
  when a strictly more general non-trivial GR already passed condition
  (1).  Thanks to SFDF's Property 2 every potential blocker is examined
  before the GRs it blocks, so a single forward pass suffices;
* the dynamic ``minNhp`` upgrade of GRMiner(k): once k GRs are held, the
  score of the weakest one becomes the effective pruning threshold;
* :meth:`TopKCollector.merge` — deterministic recombination of per-shard
  collections, the reduce step of the parallel miner: because the rank
  key (score desc, support desc, canonical string asc) is a total order,
  merging per-shard top-k lists reproduces the global top-k exactly.
"""

from __future__ import annotations

import bisect
from itertools import combinations
from typing import Iterable, Iterator

from .descriptors import GR
from .metrics import GRMetrics
from .results import MinedGR

__all__ = ["TopKCollector", "GeneralityIndex", "lw_subselections"]

#: Internal identity of a descriptor: sorted (attr, code) pairs.
DescriptorKey = tuple[tuple[str, int], ...]


def lw_subselections(
    l_key: DescriptorKey, w_key: DescriptorKey
) -> tuple[tuple[DescriptorKey, DescriptorKey], ...]:
    """Every proper sub-selection ``(l', w')`` of the conditions ``l ∧ w``.

    ``2^(|l|+|w|) − 1`` pairs, in a fixed order.  A miner lists them
    once per ``(l_key, w_key)`` on its lattice (``GRMiner._subselections``).
    """
    l_subs = [
        sel for size in range(len(l_key) + 1) for sel in combinations(l_key, size)
    ]
    w_subs = [
        sel for size in range(len(w_key) + 1) for sel in combinations(w_key, size)
    ]
    full = (l_key, w_key)
    return tuple(
        (l_sel, w_sel)
        for l_sel in l_subs
        for w_sel in w_subs
        if (l_sel, w_sel) != full  # proper subsets only
    )


class GeneralityIndex:
    """Index of GRs satisfying condition (1), keyed by their RHS.

    Checking a candidate enumerates the proper sub-selections of its
    LHS ∧ edge conditions (``2^(|l|+|w|) − 1`` membership probes against
    a hash set) — cheap because descriptors are short.  Only maximally
    general entries need to be stored: blocking is transitive, so a
    redundant GR never blocks anything its own blocker would not.

    ``subselections`` lists them for an ``(l_key, w_key)``; a miner
    passes the lists its lattice keeps across queries.
    """

    def __init__(self, subselections=lw_subselections) -> None:
        self._by_rhs: dict[DescriptorKey, set[tuple[DescriptorKey, DescriptorKey]]] = {}
        self._subselections = subselections

    def is_blocked(self, l_key: DescriptorKey, w_key: DescriptorKey, r_key: DescriptorKey) -> bool:
        """Whether a strictly more general GR with the same RHS is indexed.

        Two strategies with identical semantics, chosen by cost: probing
        the entry set with every proper sub-selection of ``l ∧ w`` is
        ``O(2^n)``, while scanning the entries for one that is contained
        in the candidate is ``O(|entries| · n)`` — the latter wins on the
        deep contexts (large ``n``) that dominate real traversals, where
        the RHS bucket holds only a handful of maximally general GRs.
        """
        entries = self._by_rhs.get(r_key)
        if not entries:
            return False
        n = len(l_key) + len(w_key)
        if len(entries) < (1 << n) >> 1:
            l_sup = set(l_key)
            w_sup = set(w_key)
            own = (l_key, w_key)
            for entry in entries:
                if (
                    entry != own
                    and l_sup.issuperset(entry[0])
                    and w_sup.issuperset(entry[1])
                ):
                    return True
            return False
        return any(sub in entries for sub in self._subselections(l_key, w_key))

    def add(self, l_key: DescriptorKey, w_key: DescriptorKey, r_key: DescriptorKey) -> None:
        self._by_rhs.setdefault(r_key, set()).add((l_key, w_key))

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._by_rhs.values())


class TopKCollector:
    """Maintains the best k GRs seen so far, in Definition 5 rank order.

    Parameters
    ----------
    k:
        Result size; ``None`` collects every qualifying GR (the plain
        GRMiner of Section VI-D, whose results are top-k-truncated only
        at the end).
    min_score:
        The user's minNhp (or minConf) — condition (1)'s threshold.
    """

    def __init__(self, k: int | None, min_score: float) -> None:
        if k is not None and k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.min_score = float(min_score)
        self._keys: list[tuple[float, float, str]] = []  # ascending rank keys
        self._entries: list[MinedGR] = []

    # ------------------------------------------------------------------
    @property
    def effective_threshold(self) -> float:
        """Current pruning threshold: the dynamic minNhp of GRMiner(k).

        Equals the user threshold until k results are held, then the
        score of the k-th best (line 28 of Algorithm 1).
        """
        if self.k is not None and len(self._entries) >= self.k:
            return max(self.min_score, self._entries[-1].score)
        return self.min_score

    def would_admit(self, score: float) -> bool:
        """Whether a GR with this score could enter the current top-k."""
        if score < self.min_score:
            return False
        if self.k is None or len(self._entries) < self.k:
            return True
        return score >= self._entries[-1].score

    def offer(self, gr: GR, metrics: GRMetrics, score: float) -> bool:
        """Insert a qualifying GR; returns whether it was kept.

        The caller is responsible for condition (1) (thresholds) and
        condition (2) (generality); this method only ranks and truncates.
        """
        key = (-score, -metrics.support_count, gr.sort_key())
        position = bisect.bisect_left(self._keys, key)
        if self.k is not None and position >= self.k:
            return False
        self._keys.insert(position, key)
        self._entries.insert(position, MinedGR(gr=gr, metrics=metrics, score=score))
        if self.k is not None and len(self._entries) > self.k:
            self._keys.pop()
            self._entries.pop()
        return True

    def results(self) -> list[MinedGR]:
        """The collected GRs in rank order."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[MinedGR]:
        return iter(self._entries)

    @classmethod
    def merge(
        cls,
        parts: Iterable[Iterable[MinedGR]],
        k: int | None,
        min_score: float = 0.0,
    ) -> "TopKCollector":
        """Combine already-qualified entries into one ranked collector.

        ``parts`` are iterables of :class:`MinedGR` (lists or other
        collectors), e.g. one per parallel shard.  Entries are assumed to
        have passed condition (1) and (2) checks at their source; this
        method only re-ranks and truncates.  A member of the global
        top-k is, within its own shard, among that shard's k best — so
        merging per-shard top-k lists loses nothing, and the total rank
        order makes the outcome independent of shard count and order.
        """
        merged = cls(k=k, min_score=min_score)
        for part in parts:
            for entry in part:
                merged.offer(entry.gr, entry.metrics, entry.score)
        return merged
