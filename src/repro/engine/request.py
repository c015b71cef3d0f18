"""MineRequest — one mining query, addressed to a :class:`MiningEngine`.

A request is the user-facing sibling of
:class:`~repro.core.miner.MinerConfig`: it speaks the paper's vocabulary
(``min_nhp``, ``k``) plus an execution hint (``workers``), normalizes
into a config for the miner skeletons, and canonicalizes into the
engine's cache key — the config's own canonical key, since every engine
answer is the exact Definition 5 answer whatever the hint.  Requests
are frozen and hashable so they can be deduplicated, batched and
replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.miner import (
    CKEY_ABS_SUPPORT,
    CKEY_APPLY_GENERALITY,
    CKEY_K,
    CKEY_MIN_SCORE,
    CKEY_PUSH_TOPK,
    MinerConfig,
)

__all__ = ["MineRequest", "warmstart_dominates"]

#: MineRequest fields that are *not* forwarded as MinerConfig options.
_OWN_FIELDS = frozenset({"k", "min_support", "min_nhp", "rank_by", "push_topk", "workers"})


@dataclass(frozen=True)
class MineRequest:
    """Parameters of one top-k GR mining query.

    Parameters
    ----------
    k, min_support, min_nhp, rank_by, push_topk:
        As on :class:`~repro.core.miner.GRMiner` (``min_nhp`` maps to its
        ``min_score``).
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
        is worker-count deterministic.
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


#: Canonical-key positions masked by the warm-start dominance check —
#: the two threshold fields that may differ between seed and dependent.
_THRESHOLD_SLOTS = frozenset({CKEY_ABS_SUPPORT, CKEY_MIN_SCORE})


def _invariant_part(config_key: tuple) -> tuple:
    return tuple(
        value for i, value in enumerate(config_key) if i not in _THRESHOLD_SLOTS
    )


def warmstart_dominates(seed: tuple, dependent: tuple) -> bool:
    """Whether mining ``seed``'s query first yields a *sound*
    warm-start floor for ``dependent``'s query.

    Both arguments are :meth:`MineRequest.canonical_key` tuples over the
    **same store fingerprint** — the caller is responsible for the
    fingerprint check, since the keys themselves do not carry it.

    Soundness derivation
    --------------------
    A threshold floor ``t`` may seed a query Q's dynamic minNhp iff Q
    has at least ``k`` valid results scoring ``>= t``: then any GR
    scoring strictly below ``t`` is outside Q's top-k (score is the
    primary rank key), so rejecting it early — exactly what the
    :class:`~repro.parallel.bus.ThresholdBus` floor does, with a strict
    comparison — can never change Q's answer.  The candidate floor is
    the seed's k-th-best score, which certifies ``k`` seed results
    scoring ``>= t``.  Those results carry over to the dependent when:

    * **Every non-threshold field coincides** (k, rank_by, push_topk,
      attribute lists, caps, ...): the two queries then enumerate the
      same GR space and rank it identically, differing only in which
      GRs *qualify*.
    * **The seed's thresholds are at least as strict**:
      ``abs_min_support(seed) >= abs_min_support(dep)`` and
      ``min_score(seed) >= min_score(dep)``.  Each seed result then
      meets the dependent's condition (1) too (its support and score
      clear the seed's higher bars).

    With generality verification **off** (``apply_generality=False``),
    condition (1) is the whole story and both threshold axes may relax
    monotonically.

    With generality verification **on**, Definition 5(2) adds a trap:
    a seed result ``e`` is only a *valid* dependent result if no more
    general GR with the same RHS qualifies under the **dependent's**
    thresholds.  A generalization ``g`` of ``e`` always has
    ``supp(g) >= supp(e)`` (its edge set is a superset — Theorem 2(1)),
    so relaxing ``min_support`` can never newly qualify a blocker: any
    ``g`` qualifying under the dependent's laxer support bound already
    had ``supp(g) >= supp(e) >= abs_min_support(seed)`` and would have
    blocked ``e`` in the seed run — contradiction.  But ``score(g)`` is
    **not** monotone under generalization, so relaxing ``min_nhp`` can
    qualify a blocker with ``min_nhp(dep) <= score(g) <
    min_nhp(seed)``, silently removing ``e`` from the dependent's valid
    set and breaking the "k results >= t" certificate.  Hence with
    generality on, only the support axis may relax; ``min_score`` must
    be equal.

    Only keys with a dynamic top-k (``push_topk`` and a finite ``k``)
    are eligible: the floor is delivered through the query's threshold
    bus, whose shards' per-candidate direct generality verification
    makes the argument above exact.  Identical keys are *not* dominance
    — they are the single-flight dedup case.
    """
    if seed == dependent:
        return False
    if seed[CKEY_K] is None or not seed[CKEY_PUSH_TOPK]:
        return False
    if _invariant_part(seed) != _invariant_part(dependent):
        return False
    support_ok = seed[CKEY_ABS_SUPPORT] >= dependent[CKEY_ABS_SUPPORT]
    if seed[CKEY_APPLY_GENERALITY]:
        return support_ok and seed[CKEY_MIN_SCORE] == dependent[CKEY_MIN_SCORE]
    return support_ok and seed[CKEY_MIN_SCORE] >= dependent[CKEY_MIN_SCORE]
