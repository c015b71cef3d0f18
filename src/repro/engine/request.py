"""MineRequest — one mining query, addressed to a :class:`MiningEngine`.

A request is the user-facing sibling of
:class:`~repro.core.miner.MinerConfig`: it speaks the paper's vocabulary
(``min_nhp``, ``k``) plus an execution hint (``workers``), normalizes
into a config for the miner skeletons, and canonicalizes into the
engine's cache key — the config's own canonical key, since every engine
answer is the exact Definition 5 answer whatever the hint, the kernel or
``push_topk``.  Requests
are frozen and hashable so they can be deduplicated, batched and
replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.miner import MinerConfig

__all__ = ["MineRequest"]

#: MineRequest fields that are *not* forwarded as MinerConfig options.
_OWN_FIELDS = frozenset({"k", "min_support", "min_nhp", "rank_by", "push_topk", "workers"})


@dataclass(frozen=True)
class MineRequest:
    """Parameters of one top-k GR mining query.

    Parameters
    ----------
    k, min_support, min_nhp, rank_by, push_topk:
        As on :class:`~repro.core.miner.GRMiner` (``min_nhp`` maps to its
        ``min_score``).  ``push_topk`` changes effort, never the answer,
        so it does not enter the cache key.
    workers:
        How many of the engine's fleet workers the query's shards may
        spread over: ``None`` means the whole fleet, and larger counts
        are clamped to it.  Thanks to the determinism guarantee the
        *answer* does not depend on the count — only the latency does —
        so it does not enter the cache key.
    options:
        Any further :class:`~repro.core.miner.MinerConfig` field (e.g.
        ``node_attributes``, ``allow_empty_lhs``,
        ``dynamic_rhs_ordering``) as a sorted tuple of ``(name, value)``
        pairs.  Use :meth:`create` to pass them as plain keywords.
    """

    k: int | None = 10
    min_support: int | float = 1
    min_nhp: float = 0.0
    rank_by: str = "nhp"
    push_topk: bool = True
    workers: int | None = None
    options: tuple[tuple[str, object], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be None (the whole fleet) or a positive count")
        options = []
        for name, value in (
            self.options.items() if isinstance(self.options, dict) else self.options
        ):
            if name in _OWN_FIELDS or name in ("min_score",):
                raise ValueError(
                    f"{name!r} is a first-class MineRequest field, not an option"
                )
            if isinstance(value, list):
                value = tuple(value)
            options.append((name, value))
        object.__setattr__(self, "options", tuple(sorted(options)))
        self.to_config()  # validate eagerly: a bad request fails at build time

    @classmethod
    def create(cls, k: int | None = 10, min_support: int | float = 1,
               min_nhp: float = 0.0, rank_by: str = "nhp", push_topk: bool = True,
               workers: int | None = None, **options) -> "MineRequest":
        """Build a request with extra miner options as plain keywords.

        ``min_score`` is accepted as an alias of ``min_nhp`` so GRMiner
        keyword dictionaries can be forwarded verbatim.
        """
        if "min_score" in options:
            min_nhp = options.pop("min_score")
        return cls(
            k=k,
            min_support=min_support,
            min_nhp=min_nhp,
            rank_by=rank_by,
            push_topk=push_topk,
            workers=workers,
            options=tuple(options.items()),
        )

    # ------------------------------------------------------------------
    def to_config(self) -> MinerConfig:
        """The miner-facing form of this request (validates on build)."""
        return MinerConfig(
            min_support=self.min_support,
            min_score=self.min_nhp,
            k=self.k,
            rank_by=self.rank_by,
            push_topk=self.push_topk,
            **dict(self.options),
        )

    def canonical_key(self, schema, num_edges: int) -> tuple:
        """Hashable result identity: the resolved
        :meth:`MinerConfig.canonical_key <repro.core.miner.MinerConfig.canonical_key>`.

        Two requests with equal keys (over equal stores) are guaranteed
        the same result list, which is exactly what the engine's LRU
        cache needs.  The worker count is excluded: the sharded answer
        is worker-count deterministic.  So is ``push_topk``: requests
        differing only in it share one cache entry and one execution.
        """
        return self.to_config().canonical_key(schema, num_edges)

    def describe(self) -> str:
        """Compact human-readable form for tables and logs."""
        parts = [
            f"k={self.k}",
            f"minSupp={self.min_support}",
            f"minNhp={self.min_nhp}",
            f"rank_by={self.rank_by}",
        ]
        if not self.push_topk:
            parts.append("push_topk=False")
        if self.workers is not None:
            parts.append(f"workers={self.workers}")
        parts.extend(f"{name}={value}" for name, value in self.options)
        return " ".join(parts)

