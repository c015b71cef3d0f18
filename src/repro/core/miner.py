"""GRMiner — top-k group-relationship mining (Algorithm 1, Sections IV–V).

The miner walks the SFDF enumeration tree, partitioning edge sets with
counting-sort style grouping, exactly mirroring the three recursive
procedures of Algorithm 1:

* ``LEFT``  — extend the LHS by one source-node attribute value;
* ``EDGE``  — extend the edge descriptor by one edge attribute value;
* ``RIGHT`` — extend the RHS by one destination-node attribute value,
  compute supp/conf/nhp, maintain the top-k list, and prune.

Pruning rules (Theorems 2 and 3):

* every partition below ``minSupp`` is discarded (support
  anti-monotonicity, Theorem 2(1));
* a RIGHT subtree is cut when the node's score is below the (possibly
  dynamically upgraded) threshold *and* anti-monotonicity holds below
  the node.  With the dynamic RHS ordering of Eqn. (8) that is every
  non-trivial node (Theorem 3); the implementation uses the exact
  criterion — no ``Hʳ₂`` token left in the node's tail or β ≠ ∅ — which
  also keeps the miner correct when dynamic ordering is disabled for
  ablation studies (Remark 2's failure mode).

Two published variants are exposed through ``push_topk``:
``GRMiner(k)`` upgrades ``minNhp`` to the k-th best score on the fly
(line 28); plain ``GRMiner`` pushes only the user thresholds and
truncates to k at the end.  Both return the exact Definition 5 answer:
the upgraded threshold can cut a generality blocker's subtree before the
walk's :class:`~repro.core.topk.GeneralityIndex` sees it, so GRMiner(k)
also checks each would-be top-k candidate on the data
(:meth:`GRMiner.generality_blocked`), as every shard of
:mod:`repro.parallel` does.  ``push_topk`` changes effort, never the
answer.
"""

from __future__ import annotations

import itertools
import math
import time
import weakref
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from ..data.network import SocialNetwork
from ..data.store import CompactStore
from ..sortutil.counting_sort import partition_by_value
from .descriptors import GR, Descriptor
from .enumeration import Token, dynamic_rhs_order, static_tau
from .kernels import (
    DEFAULT_KERNEL,
    KERNEL_TIERS,
    and_eq,
    arena_counts,
    score_counts,
    stable_argsort,
)
from .metrics import GRMetrics
from .results import MiningResult, MiningStats
from .topk import GeneralityIndex, TopKCollector

__all__ = [
    "BranchPlan",
    "BranchSpec",
    "CKEY_FIELDS",
    "GRMiner",
    "MinerConfig",
    "config_from_canonical_key",
    "mine_top_k",
]

#: Total field count of :meth:`MinerConfig.canonical_key` — the length
#: every well-formed config key must have.  Validators (e.g. the delta
#: migrator's eligibility check in :mod:`repro.engine.delta`) compare
#: against this instead of a magic 15.
CKEY_FIELDS = 15


#: Bytes of memoised lattice state one process may hold, summed over
#: every live miner skeleton (a pool worker keeps one per store
#: attachment, up to 8).  Past it, nodes are computed transiently.
LATTICE_BYTE_CAP = 128 << 20
#: Resident cost charged per memoised node, RIGHT entry and partition
#: on top of its arrays: the Python objects, dict slots and key tuples.
_NODE_BYTES = 2048
_ENTRY_BYTES = 640
_PART_BYTES = 384
#: Resident cost per candidate of a RIGHT entry: one count and one bin
#: position, 8 bytes each in the entry's two arrays.
_CANDIDATE_BYTES = 16
#: Process-wide lattice accounting: bytes ``held`` by every ``live``
#: lattice, and the ``clock`` ordering their last arming.
_PROCESS = SimpleNamespace(held=0, live=weakref.WeakSet(), clock=itertools.count(1))


@dataclass(eq=False, slots=True)
class _LWContext:
    """One ``l ∧ w`` node of the enumeration lattice — the memoised node.

    Holds the node's edge set and what Algorithm 1's counting-sort
    partitioning derives from it.  Every data field is a function of
    the store and of ``(l_key, w_key)`` under one layout (see
    :class:`_Lattice`), never of a query's thresholds, k, ranking or
    collector, so a node built by one query serves every later query of
    the same skeleton unchanged.
    """

    edges: np.ndarray
    l_map: dict[str, int]
    w_map: dict[str, int]
    lw_count: int
    #: Sorted-tuple forms of ``l_map`` / ``w_map``: the memo key, and
    #: what the candidate path hands the generality index.
    l_key: tuple[tuple[str, int], ...] = ()
    w_key: tuple[tuple[str, int], ...] = ()
    #: The lattice holding this node; ``None`` for a transient node.
    lattice: "_Lattice | None" = None
    #: The root (first-level partitions, read by every plan and branch
    #: entry) stays memoised even past the byte cap.
    pinned: bool = False
    #: The node's Eqn. 8 RHS ordering and its candidate-bin layout.
    layout: "_RHSLayout | None" = None
    #: LEFT/EDGE child partitions keyed by the token's τ position: the
    #: edges stably sorted by the token's code, and the value offsets
    #: ``ends`` (the histogram's running sum) — value ``v``'s child is
    #: ``sorted[ends[v - 1]:ends[v]]``; null-coded edges sort first.
    children: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    #: RIGHT nodes keyed by ``r_key``: ``(counts, positions, {attr:
    #: (sorted edges, ends)})`` — the tail's non-empty value bins as two
    #: aligned arrays, sorted by count, highest first (counts negated,
    #: so ascending), and the recursion partitions.
    right: dict[tuple, tuple] = field(default_factory=dict)
    #: Cache of homophily-effect counts ``supp(l -w-> l[β])`` keyed by β.
    hom_cache: dict[tuple[str, ...], int] = field(default_factory=dict)
    #: Destination-code columns gathered onto this context's edge set,
    #: keyed by attribute name — each attribute pays its O(|edges|)
    #: fancy-index once per visit instead of once per β set.
    dst_gathered: dict[str, np.ndarray] = field(default_factory=dict)
    #: Boolean masks ``edges satisfying l[β]`` keyed by β, built
    #: incrementally from their longest cached prefix.  Like
    #: ``dst_gathered``, working memory dropped when the visit ends.
    hom_masks: dict[tuple[str, ...], np.ndarray] = field(default_factory=dict)


@dataclass(eq=False, slots=True)
class _RHSLayout:
    """An Eqn. 8 RHS ordering and the candidate bins of its RIGHT nodes.

    Bin ``p`` is the candidate ``bins[p] = (tail position, attr, value,
    lhs_hom)``, null codes left out, in the reference loop's visit
    order: tail position, then value.  A RIGHT node whose tail is the
    ordering's first ``n`` tokens owns bins ``[0, stops[n])``, and
    ``arena_bins`` maps each bin to its bin of :meth:`GRMiner._arena`.
    ``lhs_hom`` marks a homophily attribute the LHS binds (``Hʳ₂``),
    whose value either keeps β or adds the attribute to it;
    ``can_flip[i]`` says whether one sits before position ``i``, i.e.
    in the child tail (Theorem 2(3)).  All of it follows from the tail,
    the LHS *attribute set* and the lattice layout, so the nodes sharing
    those share one layout.
    """

    tokens: tuple[Token, ...]
    bins: list[tuple[int, str, int, bool]]
    stops: list[int]
    arena_bins: np.ndarray
    can_flip: list[bool]


class _Lattice:
    """The LW-node memo of one miner skeleton.

    Nodes are grouped by *layout* — ``(attribute selection,
    dynamic_rhs_ordering)``, which fixes τ, every node's tail and RHS
    ordering, and the arena's bin layout — and keyed by ``(l_key,
    w_key)`` within it.  Bytes are accounted process-wide against
    :data:`LATTICE_BYTE_CAP` (in :data:`_PROCESS`): a lattice that needs
    room first evicts the other lattices of the process, least recently
    armed first (a dropped skeleton awaiting garbage collection, a stale
    post-delta attachment), then refuses.  Mining is single-threaded per
    process, so an evicted lattice is never mid-walk.
    """

    def __init__(self) -> None:
        self.layouts: dict[tuple, dict[tuple, _LWContext]] = {}
        self.nbytes = 0
        self.last_armed = 0
        _PROCESS.live.add(self)

    def layout(self, key: tuple) -> dict[tuple, _LWContext]:
        self.touch()
        return self.layouts.setdefault(key, {})

    def touch(self) -> None:
        """Mark this lattice the most recently armed of the process."""
        self.last_armed = next(_PROCESS.clock)

    def charge(self, nbytes: int) -> bool:
        """Reserve ``nbytes`` under the cap; False when they do not fit."""
        process = _PROCESS
        if process.held + nbytes > LATTICE_BYTE_CAP and process.held > self.nbytes:
            for other in sorted(process.live, key=lambda lattice: lattice.last_armed):
                if other is not self:
                    other.clear()
                    if process.held + nbytes <= LATTICE_BYTE_CAP:
                        break
        if process.held + nbytes > LATTICE_BYTE_CAP:
            return False
        process.held += nbytes
        self.nbytes += nbytes
        return True

    def clear(self) -> None:
        """Drop every node (in place: armed miners see the empty layouts)."""
        _PROCESS.held -= self.nbytes
        self.nbytes = 0
        for nodes in self.layouts.values():
            nodes.clear()

    def __del__(self, process=_PROCESS) -> None:
        process.held -= self.nbytes


@dataclass(frozen=True)
class BranchSpec:
    """One independent first-level subtree of the SFDF enumeration tree.

    ``"left"`` branches are the value partitions of the first-level LEFT
    children (Algorithm 1 line 5): the subtree rooted at ``l = {attr:
    value}``, which contains every GR whose LHS includes that assignment
    and whose remaining attributes come from ``tau[:token_index]``.  The
    ``"root"`` branch (emitted only when empty-LHS GRs are admissible)
    holds the root RIGHT and EDGE subtrees.  Branches partition the GR
    space: each GR's LHS has a unique latest-in-τ assignment, so no GR
    is enumerated by two branches — which is what makes them shardable.

    ``weight`` is the branch's edge-subset size, i.e. the summed
    out-degree of the sources matching the assignment — the load-balance
    key used by the parallel shard planner.
    """

    kind: str  # "left" or "root"
    token_index: int
    attr: str
    value: int
    weight: int


@dataclass(frozen=True)
class BranchPlan:
    """The first-level decomposition of one mining run."""

    tau: tuple[Token, ...]
    branches: tuple[BranchSpec, ...]
    #: First-level partitions discarded by minSupp during planning.
    pruned_by_support: int


@dataclass(frozen=True)
class MinerConfig:
    """One mining query's parameters, split out of :class:`GRMiner`.

    A config is the *reusable request/plan object* of the engine layer:
    it is immutable, hashable, picklable (it travels inside shard tasks
    to pool workers), and applyable to an existing miner skeleton via
    :meth:`GRMiner.rearm` — so one miner, one compact store and one
    worker fleet can serve an arbitrary stream of differently
    parameterized queries without rebuilding anything store-derived.

    Field semantics are documented on :class:`GRMiner`, whose keyword
    arguments map one-to-one onto these fields.
    """

    min_support: int | float = 1
    min_score: float = 0.0
    k: int | None = None
    rank_by: str = "nhp"
    push_topk: bool = True
    push_score_pruning: bool = True
    dynamic_rhs_ordering: bool = True
    node_attributes: tuple[str, ...] | None = None
    include_trivial: bool | None = None
    allow_empty_lhs: bool = False
    max_lhs_attrs: int | None = None
    max_rhs_attrs: int | None = None
    max_edge_attrs: int | None = None
    apply_generality: bool = True
    laplace_k: int = 2
    gain_theta: float = 0.5
    #: Execution tier for the RIGHT-phase inner loop; see
    #: :mod:`repro.core.kernels`.  A pure speed knob: both tiers
    #: produce identical results, so it is excluded from
    #: :meth:`canonical_key`.
    kernel: str = DEFAULT_KERNEL

    def __post_init__(self) -> None:
        if self.node_attributes is not None:
            object.__setattr__(self, "node_attributes", tuple(self.node_attributes))
        self.validate()

    def validate(self) -> None:
        """Eager parameter checks (the ones GRMiner always enforced)."""
        # Exercises the shared min_support checks without needing the
        # edge count; the real translation happens at rearm time.
        GRMiner._absolute_support(self.min_support, 1)
        if self.rank_by not in ("nhp", "confidence", "laplace", "gain"):
            raise ValueError(
                f"rank_by must be one of 'nhp', 'confidence', 'laplace', 'gain'; "
                f"got {self.rank_by!r}"
            )
        if self.rank_by != "gain" and not 0.0 <= self.min_score <= 1.0:
            raise ValueError("min_score must be in [0, 1]")
        if self.laplace_k <= 1:
            raise ValueError("laplace_k must be an integer greater than 1 (Eqn. 10)")
        if not 0.0 <= self.gain_theta <= 1.0:
            raise ValueError("gain_theta must be a fraction in [0, 1] (Eqn. 11)")
        if self.kernel not in KERNEL_TIERS:
            raise ValueError(
                f"kernel must be one of {KERNEL_TIERS}; got {self.kernel!r}"
            )

    def canonical_key(self, schema, num_edges: int) -> tuple:
        """A hashable identity that resolves defaults and equivalences.

        Two configs that would mine identically over a store of
        ``num_edges`` edges map to the same key: fractional and absolute
        ``min_support`` collapse to the absolute count, ``None`` /
        explicit-default attribute lists collapse to the schema order,
        and fields that cannot influence the result under the current
        ranking (``laplace_k`` off-``laplace``, ``gain_theta``
        off-``gain``) are masked out.  ``kernel`` and ``push_topk`` are
        excluded entirely: the execution tier and the dynamic threshold
        change effort, never the answer (every miner returns the exact
        Definition 5 answer), so queries differing only in them share
        one cache entry and dedup against each other.  The engine's
        result cache is keyed by this.

        The field order is part of the contract:
        :func:`config_from_canonical_key` decodes it.
        """
        node_attributes = (
            self.node_attributes
            if self.node_attributes is not None
            else schema.node_attribute_names
        )
        include_trivial = (
            self.include_trivial
            if self.include_trivial is not None
            else self.rank_by != "nhp"
        )
        return (
            GRMiner._absolute_support(self.min_support, num_edges),
            float(self.min_score),
            self.k,
            self.rank_by,
            self.push_score_pruning,
            self.dynamic_rhs_ordering,
            tuple(node_attributes),
            include_trivial,
            self.allow_empty_lhs,
            self.max_lhs_attrs,
            self.max_rhs_attrs,
            self.max_edge_attrs,
            self.apply_generality,
            self.laplace_k if self.rank_by == "laplace" else None,
            self.gain_theta if self.rank_by == "gain" else None,
        )


def config_from_canonical_key(key: tuple) -> MinerConfig:
    """Rebuild a :class:`MinerConfig` from a canonical key.

    The inverse of :meth:`MinerConfig.canonical_key`, up to the
    equivalences the key intentionally erases: fractional ``min_support``
    comes back as the absolute count it resolved to (which is
    edge-count-independent, so the round trip
    ``config_from_canonical_key(k).canonical_key(schema, any_E) == k``
    holds for every ``any_E``), masked fields (``laplace_k`` under a
    non-laplace ranking, ``gain_theta`` under non-gain) and the
    effort-only ``push_topk`` come back as their defaults, and
    ``node_attributes`` / ``include_trivial`` come back explicitly
    resolved.

    This is what lets the engine's delta migrator re-mine *for a cache
    entry*: the entry's key is all that survives in the cache, and this
    turns it back into a runnable query.
    """
    (
        abs_support,
        min_score,
        k,
        rank_by,
        push_score_pruning,
        dynamic_rhs_ordering,
        node_attributes,
        include_trivial,
        allow_empty_lhs,
        max_lhs_attrs,
        max_rhs_attrs,
        max_edge_attrs,
        apply_generality,
        laplace_k,
        gain_theta,
    ) = key
    return MinerConfig(
        min_support=int(abs_support),
        min_score=float(min_score),
        k=k,
        rank_by=rank_by,
        push_score_pruning=push_score_pruning,
        dynamic_rhs_ordering=dynamic_rhs_ordering,
        node_attributes=tuple(node_attributes),
        include_trivial=include_trivial,
        allow_empty_lhs=allow_empty_lhs,
        max_lhs_attrs=max_lhs_attrs,
        max_rhs_attrs=max_rhs_attrs,
        max_edge_attrs=max_edge_attrs,
        apply_generality=apply_generality,
        laplace_k=laplace_k if laplace_k is not None else 2,
        gain_theta=gain_theta if gain_theta is not None else 0.5,
    )


class _ColumnCache:
    """Lazy per-edge code columns, persisting across re-arms of a miner.

    The full-length gathers (``store.source_codes(name)`` etc.) cost one
    O(|E|) fancy-index each; caching them per attribute means a re-armed
    miner only ever pays for the attributes its queries actually touch,
    once per miner lifetime.
    """

    __slots__ = ("_fetch", "_cols")

    def __init__(self, fetch) -> None:
        self._fetch = fetch
        self._cols: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        col = self._cols.get(name)
        if col is None:
            col = self._cols[name] = self._fetch(name)
        return col


class GRMiner:
    """Mine top-k group relationships from a social network.

    Parameters
    ----------
    network:
        The attributed network.  Its schema designates the homophily
        attributes (Section III-B).
    min_support:
        ``minSupp``.  An ``int`` is an absolute edge count; a ``float``
        in ``(0, 1)`` is a fraction of ``|E|`` as in Definition 2.
    min_score:
        ``minNhp`` (or ``minConf`` when ranking by confidence).
    k:
        Result size; ``None`` returns every qualifying GR.
    rank_by:
        ``"nhp"`` (the paper's metric), ``"confidence"`` (the Table II
        comparison ranking), or one of the anti-monotone Section VII
        alternatives ``"laplace"`` / ``"gain"`` (Eqns. 10–11), which the
        paper notes can replace nhp with the same pruning machinery.
        The non-anti-monotone alternatives (Piatetsky-Shapiro,
        conviction, lift) are served by
        :class:`repro.core.interestingness.AlternativeMetricMiner`.
    push_topk:
        When true and ``k`` is set, run GRMiner(k): dynamically upgrade
        the score threshold to the k-th best found (Algorithm 1 line 28),
        and check each would-be top-k candidate's generalizations on the
        data (:meth:`generality_blocked`), since the upgraded threshold
        can cut a blocker's subtree before the walk's index sees it.
        When false, run plain GRMiner: push only the user thresholds,
        with the index alone deciding Definition 5(2), and truncate to k
        at the end.  Either way the answer is the exact Definition 5
        top-k; only the effort differs.
    push_score_pruning:
        Enable Theorem 3 pruning.  Disabling it leaves only support
        pruning (the BL2 search strategy) — used by ablation benches.
    dynamic_rhs_ordering:
        Enable the Eqn. (8) ordering.  Disabling reverts to the static τ
        and therefore to fewer prunable RIGHT nodes (Remark 2).
    node_attributes:
        Restrict the search space to these node attributes (the Fig. 4d
        dimensionality sweeps mine prefixes of the attribute list).
    include_trivial:
        Admit trivial GRs as results.  Defaults to ``False`` for nhp
        ranking (the paper mines *non-trivial* GRs) and ``True`` for
        confidence ranking (Table II's conf column keeps homophilic GRs).
    allow_empty_lhs:
        Admit GRs with an empty LHS.  Off by default; when on, the
        root RIGHT/EDGE subtrees are mined too (the ``"root"``
        :class:`BranchSpec`).
    max_lhs_attrs, max_rhs_attrs, max_edge_attrs:
        Optional caps on descriptor lengths — practical guards for very
        high-dimensional schemas; ``None`` means unbounded.
    store:
        A prebuilt :class:`~repro.data.store.CompactStore` for the
        network — e.g. one reconstructed from a shared-memory export by
        a parallel worker.  Defaults to building a fresh store.
    config:
        A prebuilt :class:`MinerConfig`.  When given, the individual
        mining-parameter keywords must be left at their defaults — the
        config is the single source of truth (the engine and the pool
        workers construct miners this way).  The miner can later be
        pointed at a different query with :meth:`rearm`.
    """

    def __init__(
        self,
        network: SocialNetwork,
        min_support: int | float = 1,
        min_score: float = 0.0,
        k: int | None = None,
        rank_by: str = "nhp",
        push_topk: bool = True,
        push_score_pruning: bool = True,
        dynamic_rhs_ordering: bool = True,
        node_attributes: Sequence[str] | None = None,
        include_trivial: bool | None = None,
        allow_empty_lhs: bool = False,
        max_lhs_attrs: int | None = None,
        max_rhs_attrs: int | None = None,
        max_edge_attrs: int | None = None,
        apply_generality: bool = True,
        laplace_k: int = 2,
        gain_theta: float = 0.5,
        kernel: str = DEFAULT_KERNEL,
        store: CompactStore | None = None,
        config: MinerConfig | None = None,
    ) -> None:
        from_kwargs = MinerConfig(
            min_support=min_support,
            min_score=min_score,
            k=k,
            rank_by=rank_by,
            push_topk=push_topk,
            push_score_pruning=push_score_pruning,
            dynamic_rhs_ordering=dynamic_rhs_ordering,
            node_attributes=(
                tuple(node_attributes) if node_attributes is not None else None
            ),
            include_trivial=include_trivial,
            allow_empty_lhs=allow_empty_lhs,
            max_lhs_attrs=max_lhs_attrs,
            max_rhs_attrs=max_rhs_attrs,
            max_edge_attrs=max_edge_attrs,
            apply_generality=apply_generality,
            laplace_k=laplace_k,
            gain_theta=gain_theta,
            kernel=kernel,
        )
        if config is None:
            config = from_kwargs
        elif from_kwargs != MinerConfig():
            raise ValueError(
                "pass mining parameters either via config= or as individual "
                "keywords, not both"
            )
        self.network = network
        self.schema = network.schema
        self.store = store if store is not None else CompactStore(network)

        # ---- store-derived state: built once, survives every rearm ----
        #: The enumeration lattice memo (:class:`_LWContext` nodes).
        #: Pure derived data over the immutable store — independent of
        #: the query parameters — so it persists across runs *and*
        #: re-arms, and dies with the skeleton (a store delta drops the
        #: skeleton).  ``memo_hits``/``memo_misses`` count this run's
        #: node lookups.
        self._lattice = _Lattice()
        self.memo_hits = 0
        self.memo_misses = 0
        self._homophily = {
            name: self.schema.is_homophily(name)
            for name in self.schema.node_attribute_names
        }
        self._domain = {
            name: self.schema.attribute(name).domain_size
            for name in (
                list(self.schema.node_attribute_names)
                + list(self.schema.edge_attribute_names)
            )
        }
        # Per-edge code columns resolved through the compact store's
        # pointer structure (EArray order), gathered lazily per attribute
        # and cached for the miner's lifetime.
        self._src_cols = _ColumnCache(self.store.source_codes)
        self._dst_cols = _ColumnCache(self.store.dest_codes)
        self._edge_cols = _ColumnCache(self.store.edge_codes)
        #: Stacked destination-code matrices (:meth:`_arena`), keyed by
        #: node-attribute tuple.  Store-derived like the column
        #: caches, so they survive re-arms (and are dropped with the
        #: whole skeleton when a store delta changes the fingerprint).
        self._dst_matrices: dict[tuple[str, ...], tuple] = {}
        #: Memoised :class:`_RHSLayout` s per lattice layout, keyed by
        #: (tail, LHS attribute set) — schema-derived only, so shared
        #: across re-arms too.
        self._rhs_layouts_by_layout: dict[tuple, dict[tuple, _RHSLayout]] = {}

        self.rearm(config)

    def rearm(self, config: MinerConfig) -> "GRMiner":
        """Point this miner skeleton at a new query.

        Applies ``config`` to the existing network/store, re-deriving
        only parameter-dependent state — the compact store, the cached
        per-edge code columns and the lattice memo all survive, which is
        what makes a long-lived miner (an engine's serial executor, a
        pool worker) cheap to re-target between queries.  Returns
        ``self``.
        """
        config.validate()
        node_attributes = (
            config.node_attributes
            if config.node_attributes is not None
            else self.schema.node_attribute_names
        )
        for name in node_attributes:  # unknown-name check before any mutation
            self.schema.node_attribute(name)
        self.config = config
        self.min_support = config.min_support
        self.abs_min_support = self._absolute_support(
            config.min_support, self.network.num_edges
        )
        self.min_score = float(config.min_score)
        self.k = config.k
        self.rank_by = config.rank_by
        self.push_topk = config.push_topk
        self.push_score_pruning = config.push_score_pruning
        self.dynamic_rhs_ordering = config.dynamic_rhs_ordering
        self.node_attributes = node_attributes
        self.include_trivial = (
            config.include_trivial
            if config.include_trivial is not None
            else config.rank_by != "nhp"
        )
        self.allow_empty_lhs = config.allow_empty_lhs
        self.max_lhs_attrs = config.max_lhs_attrs
        self.max_rhs_attrs = config.max_rhs_attrs
        self.max_edge_attrs = config.max_edge_attrs
        self.apply_generality = config.apply_generality
        self.laplace_k = config.laplace_k
        self.gain_theta = config.gain_theta
        self.kernel = config.kernel
        layout = (tuple(node_attributes), config.dynamic_rhs_ordering)
        self._nodes = self._lattice.layout(layout)
        self._rhs_layouts = self._rhs_layouts_by_layout.setdefault(layout, {})
        #: :meth:`generality_blocked`'s verdicts per sub-selection: a
        #: function of the store and of this config's thresholds and
        #: ranking, so they last until the next rearm.
        self._blocker_memo: dict[tuple, bool] = {}
        return self

    @staticmethod
    def _absolute_support(min_support: int | float, num_edges: int) -> int:
        """Translate ``minSupp`` to an absolute edge count (at least 1).

        The type carries the unit: an ``int`` is an absolute count, a
        ``float`` is a fraction of ``|E|``.  Sub-threshold forms clamp to
        the smallest meaningful count — ``0`` and fractions whose scaled
        value rounds to zero canonicalize to ``1``, the same key their
        integer form produces.  The one point where the two readings
        collide, ``float 1.0`` (absolute 1? all |E| edges?), is rejected
        rather than silently resolved: callers must say ``1`` (count) or
        a fraction strictly below 1.
        """
        if isinstance(min_support, bool):
            raise ValueError("min_support must be a number")
        if isinstance(min_support, int):
            if min_support < 0:
                raise ValueError("min_support must be non-negative")
            return max(1, min_support)
        if not 0.0 <= min_support <= 1.0:
            raise ValueError("fractional min_support must be in [0, 1)")
        if min_support == 1.0:
            raise ValueError(
                "min_support=1.0 is ambiguous: pass the int 1 for an absolute "
                "count of one edge, or a fraction strictly below 1.0 (use the "
                "int num_edges to require every edge)"
            )
        return max(1, int(math.ceil(min_support * num_edges - 1e-9)))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def mine(self) -> MiningResult:
        """Run Algorithm 1 and return the ranked result.

        The run is organized as the sequence of independent first-level
        branches of :meth:`plan_branches` (the serial traversal order is
        unchanged); :class:`~repro.parallel.ParallelGRMiner` distributes
        the same branches across worker processes.  Only the dynamic
        threshold can hide a blocker from this whole-tree walk, so only
        GRMiner(k) checks its top-k candidates on the data.
        """
        start = time.perf_counter()
        self._begin(verify=self.k is not None and self.push_topk)
        plan = self.plan_branches()
        self._stats.pruned_by_support += plan.pruned_by_support
        for branch in plan.branches:
            self.mine_branch(plan.tau, branch)

        results = self._collector.results()[: self.k]
        self._stats.runtime_seconds = time.perf_counter() - start
        params = self._params()
        params.update(lw_memo_hits=self.memo_hits, lw_memo_misses=self.memo_misses)
        return MiningResult(grs=results, stats=self._stats, params=params)

    # ------------------------------------------------------------------
    # Branch-entry API (used by mine() and by the parallel workers)
    # ------------------------------------------------------------------
    def _begin(self, *, verify: bool) -> None:
        """Reset per-run state.  With ``verify``, a candidate that could
        enter the top-k must also pass :meth:`generality_blocked`."""
        self._stats = MiningStats()
        self._collector = TopKCollector(
            k=self.k if self.push_topk else None, min_score=self.min_score
        )
        self._index = GeneralityIndex()
        self._verify = verify and self.apply_generality
        self._lattice.touch()
        self.memo_hits = self.memo_misses = 0

    def plan_branches(self) -> BranchPlan:
        """Decompose the run into its independent first-level branches.

        Mirrors the main procedure (Algorithm 1 lines 2-5): the root
        RIGHT/EDGE subtrees (empty-LHS GRs, emitted only when
        ``allow_empty_lhs`` admits them) followed by the first-level LEFT
        value partitions in τ order.  Sub-threshold partitions are
        counted, not emitted.
        """
        tau = static_tau(self.schema, self.node_attributes)
        root = self._root()
        branches: list[BranchSpec] = []
        pruned = 0
        if self.allow_empty_lhs:
            branches.append(
                BranchSpec(
                    kind="root", token_index=-1, attr="", value=0, weight=root.lw_count
                )
            )
        if self.max_lhs_attrs is None or self.max_lhs_attrs > 0:
            for i, token in enumerate(tau):
                if token.role != "L":
                    continue
                ends = self._partition(root, i, token)[1].tolist()
                for value in range(1, len(ends)):
                    size = ends[value] - ends[value - 1]
                    if not size:
                        continue
                    if size < self.abs_min_support:
                        pruned += 1
                        continue
                    branches.append(
                        BranchSpec(
                            kind="left",
                            token_index=i,
                            attr=token.attr,
                            value=value,
                            weight=size,
                        )
                    )
        return BranchPlan(tau=tau, branches=tuple(branches), pruned_by_support=pruned)

    def mine_branch(self, tau: tuple[Token, ...], branch: BranchSpec) -> None:
        """Run the recursion under one first-level branch.

        Requires :meth:`_begin` to have been called.  ``tau`` must be the
        plan's static order (workers recompute it deterministically from
        the schema rather than pickling it).
        """
        root = self._root()
        if branch.kind == "root":
            self._enter_right(root, tau)
            self._edge(root, tau)
            return
        token = tau[branch.token_index]
        sorted_edges, ends = self._partition(root, branch.token_index, token)
        start, stop = ends[branch.value - 1 : branch.value + 1].tolist()
        child_tail = tau[: branch.token_index]
        self._stats.lw_nodes += 1
        node = self._node({token.attr: branch.value}, {}, sorted_edges[start:stop])
        self._enter_right(node, child_tail)
        self._edge(node, child_tail)
        self._left(node, child_tail)

    @property
    def memo_bytes(self) -> int:
        """Bytes the lattice memo holds against :data:`LATTICE_BYTE_CAP`."""
        return self._lattice.nbytes

    def clear_memo(self) -> None:
        """Drop the lattice memo (its bytes return to the process cap)."""
        self._lattice.clear()

    # ------------------------------------------------------------------
    # The lattice memo
    # ------------------------------------------------------------------
    def _root(self) -> _LWContext:
        """The empty ``l ∧ w`` node over every edge (pinned in the memo)."""
        root = self._nodes.get(((), ()))
        if root is None:
            edges = self.store.all_edges()
            root = self._nodes[((), ())] = _LWContext(
                edges=edges,
                l_map={},
                w_map={},
                lw_count=int(edges.size),
                lattice=self._lattice,
                pinned=True,
            )
        return root

    def _node(
        self, l_map: dict[str, int], w_map: dict[str, int], edges: np.ndarray
    ) -> _LWContext:
        """The memoised ``l ∧ w`` node, built on ``edges`` when absent.

        ``edges`` must be exactly the edges satisfying ``l ∧ w``; a
        node the byte cap refuses is returned transient.
        """
        l_key = tuple(sorted(l_map.items()))
        w_key = tuple(sorted(w_map.items()))
        node = self._nodes.get((l_key, w_key))
        if node is not None:
            self.memo_hits += 1
            return node
        self.memo_misses += 1
        node = _LWContext(
            edges=edges,
            l_map=l_map,
            w_map=w_map,
            lw_count=int(edges.size),
            l_key=l_key,
            w_key=w_key,
        )
        if self._lattice.charge(_NODE_BYTES):
            node.lattice = self._lattice
            self._nodes[(l_key, w_key)] = node
        return node

    def _partition(
        self, node: _LWContext, index: int, token: Token
    ) -> tuple[np.ndarray, np.ndarray]:
        """The node's LEFT/EDGE partition on the τ-position-``index`` token.

        One counting sort (Section V) of the node's edges by the token's
        code: ``(sorted edges, value ends)``, memoised on the node.
        """
        part = node.children.get(index)
        if part is None:
            cols = self._src_cols if token.role == "L" else self._edge_cols
            part = self._split(node.edges, cols[token.attr][node.edges], token.attr)
            lattice = node.lattice
            if lattice is not None and (
                node.pinned
                or lattice.charge(part[0].nbytes + part[1].nbytes + _PART_BYTES)
            ):
                node.children[index] = part
        return part

    def _split(
        self, edges: np.ndarray, keys: np.ndarray, attr: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(edges stably sorted by keys, value ends)``: one counting sort."""
        domain = self._domain[attr]
        ends = np.bincount(keys, minlength=domain + 1).cumsum()
        return edges[stable_argsort(keys, domain)], ends

    def generality_blocked(self, l_key: tuple, w_key: tuple, r_key: tuple) -> bool:
        """Definition 5(2) decided on the data: whether a strictly more
        general GR with the same RHS meets condition (1).

        Keys are sorted ``(attr, code)`` tuples.  Every proper
        sub-selection of the candidate's LHS ∧ edge conditions is
        evaluated over all edges (:meth:`evaluate_codes`) and qualifies
        when it is admissible (non-empty LHS and non-trivial, unless
        admitted) and meets minSupp and the user's minimum score.  So the
        verdict holds whatever the walk enumerated: the blocker may lie
        in a sibling shard's branch, or under a subtree the dynamic
        threshold cut.  Verdicts are memoised per sub-selection until the
        next :meth:`rearm`.
        """
        memo = self._blocker_memo
        for l_sel, w_sel in GeneralityIndex._lw_subselections(l_key, w_key):
            if not l_sel and not self.allow_empty_lhs:
                continue
            key = (l_sel, w_sel, r_key)
            qualifies = memo.get(key)
            if qualifies is None:
                metrics, trivial = self.evaluate_codes(
                    dict(l_sel), dict(w_sel), dict(r_key)
                )
                qualifies = memo[key] = (
                    (self.include_trivial or not trivial)
                    and metrics.support_count >= self.abs_min_support
                    and self._score(metrics) >= self.min_score
                )
            if qualifies:
                return True
        return False

    def _params(self) -> dict:
        return {
            "min_support": self.min_support,
            "abs_min_support": self.abs_min_support,
            "min_score": self.min_score,
            "k": self.k,
            "rank_by": self.rank_by,
            "push_topk": self.push_topk,
            "push_score_pruning": self.push_score_pruning,
            "dynamic_rhs_ordering": self.dynamic_rhs_ordering,
            "node_attributes": self.node_attributes,
            "include_trivial": self.include_trivial,
            "allow_empty_lhs": self.allow_empty_lhs,
            "apply_generality": self.apply_generality,
            "kernel": self.kernel,
        }

    # ------------------------------------------------------------------
    # LEFT / EDGE (Algorithm 1 lines 7-21)
    # ------------------------------------------------------------------
    def _children(self, node: _LWContext, tail: tuple[Token, ...], role: str):
        """The support-qualified LEFT (``"L"``) or EDGE (``"W"``) children
        of ``node``: ``(child tail, attr, value, edges)`` in traversal order."""
        min_support = self.abs_min_support
        for i, token in enumerate(tail):
            if token.role != role:
                continue
            sorted_edges, ends = self._partition(node, i, token)
            ends = ends.tolist()
            for value in range(1, len(ends)):  # code 0 is null
                start, stop = ends[value - 1], ends[value]
                if start == stop:
                    continue
                if stop - start < min_support:
                    self._stats.pruned_by_support += 1
                    continue
                yield tail[:i], token.attr, value, sorted_edges[start:stop]

    def _left(self, node: _LWContext, tail: tuple[Token, ...]) -> None:
        if self.max_lhs_attrs is not None and len(node.l_map) >= self.max_lhs_attrs:
            return
        for child_tail, attr, value, subset in self._children(node, tail, "L"):
            l_map = dict(node.l_map)
            l_map[attr] = value
            self._stats.lw_nodes += 1
            child = self._node(l_map, {}, subset)
            self._enter_right(child, child_tail)
            self._edge(child, child_tail)
            self._left(child, child_tail)

    def _edge(self, node: _LWContext, tail: tuple[Token, ...]) -> None:
        if self.max_edge_attrs is not None and len(node.w_map) >= self.max_edge_attrs:
            return
        for child_tail, attr, value, subset in self._children(node, tail, "W"):
            w_map = dict(node.w_map)
            w_map[attr] = value
            self._stats.lw_nodes += 1
            child = self._node(node.l_map, w_map, subset)
            self._enter_right(child, child_tail)
            self._edge(child, child_tail)

    # ------------------------------------------------------------------
    # RIGHT (Algorithm 1 lines 22-29)
    # ------------------------------------------------------------------
    def _enter_right(self, context: _LWContext, tail: tuple[Token, ...]) -> None:
        l_map = context.l_map
        if not l_map and not self.allow_empty_lhs:
            return
        layout = context.layout
        if layout is None:
            layout = context.layout = self._rhs_layout(tail, l_map)
        if self.kernel == "reference":
            self._right_reference(context.edges, layout.tokens, context, r_map={})
        else:
            self._right_vector(context.edges, len(layout.tokens), context)
        context.dst_gathered.clear()
        context.hom_masks.clear()

    def _rhs_layout(self, tail: tuple[Token, ...], l_map: dict[str, int]) -> _RHSLayout:
        """The memoised :class:`_RHSLayout` of a node's RHS tail.

        The ordering depends only on the tail, on WHICH attributes the
        LHS binds (Eqn. 8 groups by homophily flag and LHS membership,
        never by value) and on the lattice layout, which selects the
        dict (``dynamic_rhs_ordering`` and the arena's attribute order
        are both part of it).
        """
        key = (tail, frozenset(l_map))
        layout = self._rhs_layouts.get(key)
        if layout is None:
            tokens = tuple(t for t in tail if t.role == "R")
            if self.dynamic_rhs_ordering:
                tokens = dynamic_rhs_order(tokens, l_map, self.schema, self._homophily)
            starts = self._arena()[1]
            bins, stops, arena_bins, can_flip = [], [0], [], []
            flip = False
            for i, token in enumerate(tokens):
                attr = token.attr
                lhs_hom = self._homophily[attr] and attr in l_map
                values = range(1, self._domain[attr] + 1)
                bins += [(i, attr, value, lhs_hom) for value in values]
                arena_bins += [starts[attr] + value for value in values]
                stops.append(len(bins))
                can_flip.append(flip)
                flip = flip or lhs_hom
            layout = self._rhs_layouts[key] = _RHSLayout(
                tokens, bins, stops, np.asarray(arena_bins, dtype=np.intp), can_flip
            )
        return layout

    def _right_reference(
        self,
        edges: np.ndarray,
        r_tail: tuple[Token, ...],
        context: _LWContext,
        r_map: dict[str, int],
        r_key: tuple[tuple[str, int], ...] = (),
    ) -> None:
        """The original scalar RIGHT loop — the equivalence oracle.

        One ``partition_by_value`` group per candidate, one
        ``_evaluate``/``_score``/``_consider`` round-trip each.  Kept
        intact (``kernel="reference"``) so the vector tier always has a
        bit-exact baseline to verify against, the same way the
        counting-sort kernel keeps ``_placement_loop_argsort``.
        """
        if self.max_rhs_attrs is not None and len(r_map) >= self.max_rhs_attrs:
            return
        for i, token in enumerate(r_tail):
            child_tail = r_tail[:i]
            keys = self._dst_cols[token.attr][edges]
            for value, subset in partition_by_value(edges, keys, self._domain[token.attr]):
                self._stats.grs_examined += 1
                if subset.size < self.abs_min_support:
                    self._stats.pruned_by_support += 1
                    continue
                new_r = dict(r_map)
                new_r[token.attr] = value
                metrics, trivial = self._evaluate(context, new_r, int(subset.size))
                score = self._score(metrics)
                self._consider(context, new_r, metrics, trivial, score)
                if self._should_prune(context, metrics.beta, score, child_tail):
                    self._stats.pruned_by_nhp += 1
                    continue
                self._right_reference(subset, child_tail, context, new_r)

    def _right_vector(
        self,
        edges: np.ndarray,
        n_tail: int,
        context: _LWContext,
        r_key: tuple[tuple[str, int], ...] = (),
        base_beta: tuple[str, ...] = (),
        base_trivial: bool = True,
    ) -> None:
        """The RIGHT loop over a memoised candidate list (``"vector"``).

        The node's entry (:meth:`_candidates`) lists its tail's non-empty
        value bins by count, highest first.  By support anti-monotonicity
        (Theorem 2(1)) the values meeting minSupp are a prefix of that
        list, so one ``bisect`` yields both effort counts — GRs examined
        is the list's length, GRs pruned by support what lies past the
        cut — and only the survivors are visited, in the reference
        order (tail position, then value), each decided by the reference
        loop's own rules: score, :meth:`_consider`, the live-threshold
        Theorem 3 cut and recursion.  ``n_tail`` is the length of the
        node's tail (a prefix of the context's RHS ordering), and
        ``base_beta`` / ``base_trivial`` are β and triviality of the
        node's own RHS ``r_key``.
        """
        max_rhs = self.max_rhs_attrs
        if not n_tail or (max_rhs is not None and len(r_key) >= max_rhs):
            return
        entry = context.right.get(r_key)
        kept = entry is not None
        if not kept:
            entry = self._candidates(context, edges, n_tail)
            lattice = context.lattice
            kept = lattice is not None and lattice.charge(
                _ENTRY_BYTES + _CANDIDATE_BYTES * len(entry[0])
            )
            if kept:
                context.right[r_key] = entry
        neg_counts, positions, partitions = entry
        examined = len(neg_counts)
        cut = bisect_right(neg_counts, -self.abs_min_support)
        stats = self._stats
        stats.grs_examined += examined
        stats.pruned_by_support += examined - cut
        if not cut:
            return
        survivors = sorted(zip(positions[:cut], neg_counts[:cut]))

        layout = context.layout
        bins = layout.bins
        l_map = context.l_map
        lw_count = context.lw_count
        num_edges = self.network.num_edges
        rank_by = self.rank_by
        rank_nhp = rank_by == "nhp"
        min_score = self.min_score
        include_trivial = self.include_trivial
        push_prune = self.push_score_pruning
        collector = self._collector
        may_recurse = max_rhs is None or len(r_key) + 1 < max_rhs
        for position, neg_count in survivors:
            i, attr, value, lhs_hom = bins[position]
            count = -neg_count
            if lhs_hom and value != l_map[attr]:
                beta = tuple(sorted(base_beta + (attr,)))
                trivial = False
            else:
                beta = base_beta
                trivial = base_trivial and lhs_hom
            # Only nhp scores read the homophily count; the other
            # metrics need it just for the metrics of a considered GR.
            hom_count = self._homophily_count(context, beta) if beta and rank_nhp else 0
            score = score_counts(
                rank_by, count, lw_count, hom_count, num_edges,
                self.laplace_k, self.gain_theta,
            )
            new_key = None
            # _consider's own first exits, tested here so that a value
            # it would drop builds no metrics or keys.
            if score >= min_score and (include_trivial or not trivial):
                if beta and not rank_nhp:
                    hom_count = self._homophily_count(context, beta)
                new_key = tuple(sorted(r_key + ((attr, value),)))
                metrics = GRMetrics(
                    support_count=count,
                    lw_count=lw_count,
                    homophily_count=hom_count,
                    num_edges=num_edges,
                    beta=beta,
                )
                self._consider(
                    context, dict(new_key), metrics, trivial, score, r_key=new_key
                )
            if (
                push_prune
                and score < collector.effective_threshold
                and (beta or not rank_nhp or not layout.can_flip[i])
            ):
                stats.pruned_by_nhp += 1
                continue
            if not i or not may_recurse:
                continue
            part = partitions.get(attr)
            if part is None:
                if edges is context.edges:
                    keys = self._context_dst(context, attr)
                else:
                    keys = self._dst_cols[attr].take(edges)
                part = self._split(edges, keys, attr)
                if kept and context.lattice.charge(
                    part[0].nbytes + part[1].nbytes + _PART_BYTES
                ):
                    partitions[attr] = part
            sorted_edges, ends = part
            stop = int(ends[value])
            if new_key is None:
                new_key = tuple(sorted(r_key + ((attr, value),)))
            self._right_vector(
                sorted_edges[stop - count : stop], i, context, new_key, beta, trivial
            )

    def _candidates(self, context: _LWContext, edges: np.ndarray, n_tail: int) -> tuple:
        """A RIGHT entry: the tail's non-empty value bins, by count.

        One gather and bincount over the arena give every destination
        histogram of ``edges``; the layout picks the first ``n_tail``
        tokens' bins in visit order, and the non-empty ones are sorted
        by count, highest first.  Store-derived only, so one entry
        serves every later query's minSupp cut.
        """
        matrix, _, n_bins = self._arena()
        flat = arena_counts(matrix, edges, n_bins)
        layout = context.layout
        counts = flat.take(layout.arena_bins[: layout.stops[n_tail]])
        positions = counts.nonzero()[0]
        neg_counts = -counts.take(positions)
        order = neg_counts.argsort()
        return (
            array("q", neg_counts.take(order).tobytes()),
            array("q", positions.take(order).tobytes()),
            {},
        )

    def _score(self, metrics: GRMetrics) -> float:
        """The ranking metric's value (Definitions 3–4, Eqns. 10–11).

        Delegates to the shared count-level formulas in
        :mod:`repro.core.kernels`, the same expressions the vector tier
        evaluates per candidate.
        """
        if self.rank_by == "nhp":
            return metrics.nhp
        if self.rank_by == "confidence":
            return metrics.confidence
        return score_counts(
            self.rank_by,
            metrics.support_count,
            metrics.lw_count,
            metrics.homophily_count,
            metrics.num_edges,
            self.laplace_k,
            self.gain_theta,
        )

    # ------------------------------------------------------------------
    # Metrics at a RIGHT node (Section IV-D)
    # ------------------------------------------------------------------
    def _evaluate(
        self, context: _LWContext, r_map: dict[str, int], support_count: int
    ) -> tuple[GRMetrics, bool]:
        l_map = context.l_map
        beta = tuple(
            sorted(
                name
                for name, value in r_map.items()
                if self._homophily[name] and name in l_map and l_map[name] != value
            )
        )
        homophily_count = self._homophily_count(context, beta) if beta else 0
        trivial = all(
            self._homophily[name] and l_map.get(name) == value
            for name, value in r_map.items()
        )
        metrics = GRMetrics(
            support_count=support_count,
            lw_count=context.lw_count,
            homophily_count=homophily_count,
            num_edges=self.network.num_edges,
            beta=beta,
        )
        return metrics, trivial

    def evaluate_codes(
        self,
        l_map: dict[str, int],
        w_map: dict[str, int],
        r_map: dict[str, int],
    ) -> tuple[GRMetrics, bool]:
        """Direct metric evaluation of a code-level GR over all edges.

        Returns the same ``(metrics, trivial)`` pair :meth:`_evaluate`
        produces incrementally during the tree walk, but from scratch —
        the primitive behind :meth:`generality_blocked`, whose blockers
        may never have been enumerated by the walk asking.
        """
        lw_mask = np.ones(self.network.num_edges, dtype=bool)
        for name, code in l_map.items():
            lw_mask &= self._src_cols[name] == code
        for name, code in w_map.items():
            lw_mask &= self._edge_cols[name] == code
        supp_mask = lw_mask.copy()
        for name, code in r_map.items():
            supp_mask &= self._dst_cols[name] == code
        beta = tuple(
            sorted(
                name
                for name, code in r_map.items()
                if self._homophily[name] and name in l_map and l_map[name] != code
            )
        )
        homophily_count = 0
        if beta:
            hom_mask = lw_mask.copy()
            for name in beta:
                hom_mask &= self._dst_cols[name] == l_map[name]
            homophily_count = int(hom_mask.sum())
        trivial = all(
            self._homophily[name] and l_map.get(name) == code
            for name, code in r_map.items()
        )
        metrics = GRMetrics(
            support_count=int(supp_mask.sum()),
            lw_count=int(lw_mask.sum()),
            homophily_count=homophily_count,
            num_edges=self.network.num_edges,
            beta=beta,
        )
        return metrics, trivial

    def _arena(self):
        """The stacked offset-coded destination matrix of the vector tier.

        Row ``r`` holds the ``r``-th selected attribute's destination
        codes shifted into its own bin segment of a *ragged* flat
        layout, ``domain + 1`` bins wide and starting at
        ``starts[attr]``, so one flat bincount over a gathered slice of
        the matrix yields *every* attribute's histogram side by side.
        Ragged (cumulative) starts rather than a rectangular stride keep
        the bin count at ``Σ (domain + 1)`` instead of ``rows × (max
        domain + 1)``, which matters when one wide attribute (e.g.
        Pokec's Region) would otherwise inflate every row's histogram.
        Derived purely from the immutable store and the attribute
        selection, so it persists across runs and re-arms like the plain
        column caches (a store delta drops the whole miner skeleton,
        matrices included).

        Returns ``(matrix, starts, n_bins)``.
        """
        attrs = tuple(self.node_attributes)
        entry = self._dst_matrices.get(attrs)
        if entry is None:
            starts = {}
            n_bins = 0
            for name in attrs:
                starts[name] = n_bins
                n_bins += self._domain[name] + 1
            matrix = np.empty((len(attrs), self.network.num_edges), dtype=np.int32)
            for row, name in enumerate(attrs):
                np.add(self._dst_cols[name], starts[name], out=matrix[row])
            entry = self._dst_matrices[attrs] = (matrix, starts, n_bins)
        return entry

    def _context_dst(self, context: _LWContext, name: str) -> np.ndarray:
        """Destination codes of ``name`` gathered onto the context's edges.

        Each attribute pays its O(|edges|) fancy-index once per ``l ∧ w``
        context; every β set touching the attribute (and the context's
        top-level RIGHT partition on it) reuses the gathered column.
        """
        col = context.dst_gathered.get(name)
        if col is None:
            col = context.dst_gathered[name] = self._dst_cols[name][context.edges]
        return col

    def _homophily_count(self, context: _LWContext, beta: tuple[str, ...]) -> int:
        """``supp(l -w-> l[β])`` within the context's edge set, cached by β.

        Case 1 of Section IV-D (β ⊂ R) reuses a previously cached count;
        Case 2 (β = R) computes it at the current node — both land here
        because the cache lives on the ``l ∧ w`` context.  A new β's mask
        is one ``and_eq`` over its longest cached prefix, on destination
        columns gathered once per context (:meth:`_context_dst`).
        """
        cached = context.hom_cache.get(beta)
        if cached is not None:
            return cached
        mask = self._hom_mask(context, beta)
        count = context.lw_count if mask is None else int(mask.sum())
        context.hom_cache[beta] = count
        return count

    def _hom_mask(self, context: _LWContext, beta: tuple[str, ...]) -> np.ndarray | None:
        """Boolean mask of context edges satisfying ``l[β]`` (None for β=∅)."""
        if not beta:
            return None
        mask = context.hom_masks.get(beta)
        if mask is None:
            prefix = self._hom_mask(context, beta[:-1])
            name = beta[-1]
            mask = and_eq(
                prefix, self._context_dst(context, name), context.l_map[name]
            )
            context.hom_masks[beta] = mask
        return mask

    # ------------------------------------------------------------------
    # Candidate handling (lines 25-28) and pruning
    # ------------------------------------------------------------------
    def _consider(
        self,
        context: _LWContext,
        r_map: dict[str, int],
        metrics: GRMetrics,
        trivial: bool,
        score: float,
        r_key: tuple[tuple[str, int], ...] | None = None,
    ) -> None:
        if trivial and not self.include_trivial:
            return
        if not context.l_map and not self.allow_empty_lhs:
            return
        if score < self.min_score:
            return
        if self.apply_generality:
            l_key = context.l_key
            w_key = context.w_key
            if r_key is None:
                r_key = tuple(sorted(r_map.items()))
            if self._index.is_blocked(l_key, w_key, r_key):
                self._stats.pruned_by_generality += 1
                return
            # Every GR satisfying conditions (1) and (2) enters the index
            # — including ones the dynamic top-k threshold will not admit
            # — so that later, more special GRs are still recognized as
            # redundant.
            self._index.add(l_key, w_key, r_key)
        self._stats.candidates += 1
        if self._collector.would_admit(score):
            if self._verify and self.generality_blocked(
                context.l_key, context.w_key, r_key
            ):
                self._stats.pruned_by_generality += 1
                return
            self._collector.offer(self._decode(context, r_map), metrics, score)

    def _should_prune(
        self,
        context: _LWContext,
        beta: tuple[str, ...],
        score: float,
        child_tail: tuple[Token, ...],
    ) -> bool:
        """Cut the RIGHT subtree when the score bound justifies it.

        Confidence is anti-monotone under any RHS extension.  nhp is
        anti-monotone below this node iff β ≠ ∅ already (Theorem 2(2))
        or no remaining tail token can flip β — i.e. no homophily
        attribute that also occurs in the LHS (``Hʳ₂``) is left in the
        tail (Theorem 2(3) / Theorem 3).  With dynamic ordering this
        accepts every non-trivial node, reproducing Theorem 3; without
        it, fewer nodes qualify (the Remark 2 ablation).
        """
        if not self.push_score_pruning:
            return False
        threshold = self._collector.effective_threshold
        if score >= threshold:
            return False
        if self.rank_by != "nhp":
            # confidence, laplace and gain are anti-monotone under any
            # RHS extension (Section VII: "the anti-monotonicity remains
            # valid"), so the subtree can always be cut.
            return True
        if beta:
            return True
        can_flip = any(
            self._homophily[token.attr] and token.attr in context.l_map
            for token in child_tail
        )
        return not can_flip

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decode(self, context: _LWContext, r_map: dict[str, int]) -> GR:
        def decode_node(mapping: dict[str, int]) -> Descriptor:
            return Descriptor(
                tuple(
                    (name, self.schema.node_attribute(name).label(code))
                    for name, code in mapping.items()
                )
            )

        edge_descriptor = Descriptor(
            tuple(
                (name, self.schema.edge_attribute(name).label(code))
                for name, code in context.w_map.items()
            )
        )
        return GR(decode_node(context.l_map), decode_node(r_map), edge_descriptor)


def mine_top_k(
    network: SocialNetwork,
    k: int = 10,
    min_support: int | float = 1,
    min_nhp: float = 0.0,
    workers: int | None = None,
    **kwargs,
) -> MiningResult:
    """Convenience wrapper: run GRMiner(k) with the paper's defaults.

    Pass ``workers=N`` to mine with the sharded multi-process
    :class:`~repro.parallel.ParallelGRMiner` instead of the serial
    miner (``workers=1`` runs the shard machinery in-process).

    Pass ``kernel="reference"|"vector"`` to select the
    candidate-evaluation tier (:mod:`repro.core.kernels`).  The tier is
    a pure execution detail: both tiers return the identical result
    list and the identical effort counters, and cached results are
    shared across tiers.

    Examples
    --------
    >>> from repro.datasets.toy import toy_dating_network
    >>> result = mine_top_k(toy_dating_network(), k=5, min_support=2, min_nhp=0.5)
    >>> len(result)
    5
    """
    if workers is not None:
        from ..parallel import ParallelGRMiner  # deferred: avoids an import cycle

        return ParallelGRMiner(
            network,
            workers=workers,
            min_support=min_support,
            min_score=min_nhp,
            k=k,
            **kwargs,
        ).mine()
    miner = GRMiner(network, min_support=min_support, min_score=min_nhp, k=k, **kwargs)
    return miner.mine()
