"""Selectable numeric kernels for the miner's RIGHT-phase inner loop.

The SFDF traversal bottoms out in the RIGHT-node candidate evaluation
(Algorithm 1 lines 22–29): for every token left in a node's tail, every
value of the token's domain is a candidate GR.  This module provides the
batch primitives that evaluate *all values of one token in one shot* —
support counts via a single ``np.bincount`` over the gathered
destination codes, rank scores for all four metrics as array
expressions, and the support/min-score/triviality filters as boolean
masks — so only the survivors fall back to the scalar admission path
(generality index, collector, decode).

Two tiers are exposed through ``MinerConfig(kernel=...)``:

``"reference"``
    The original scalar loop over ``partition_by_value`` groups, kept
    intact in :meth:`GRMiner._right_reference` as the equivalence
    oracle (the same pattern the counting-sort vectorization followed
    with ``_placement_loop_argsort``).
``"vector"``
    Pure numpy batches (this module's :class:`VectorOps`); the default.

Both tiers produce bit-identical scores: the array expressions use the
same IEEE-754 double operations in the same order as the scalar
formulas, and ``int64/int64`` true division is correctly rounded in
both numpy and Python for operands below 2**53 — far above any edge
count this miner sees.  The tier is therefore a pure execution detail:
results, stats counters and cache identities match across tiers.

This module is also the single home of the rank-metric formulas on raw
counts (:func:`nhp_counts`, :func:`confidence_counts`,
:func:`laplace_counts`, :func:`gain_counts`) — ``GRMiner._score`` and
:mod:`repro.core.interestingness` both delegate here so the two can't
drift.
"""

from __future__ import annotations

import numpy as np

from ..sortutil.counting_sort import _key_dtype

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_TIERS",
    "VectorOps",
    "confidence_counts",
    "gain_counts",
    "kernel_ops",
    "laplace_counts",
    "nhp_counts",
    "resolve_kernel",
    "score_counts",
    "score_matrix",
]

KERNEL_TIERS = ("reference", "vector")
DEFAULT_KERNEL = "vector"


def resolve_kernel(name: str) -> str:
    """Validate a configured tier name; returns the tier that executes."""
    if name not in KERNEL_TIERS:
        raise ValueError(
            f"kernel must be one of {KERNEL_TIERS}; got {name!r}"
        )
    return name


# ----------------------------------------------------------------------
# Rank-metric formulas on raw counts (array-capable, Defs. 3-4, Eqns.
# 10-11).  These are the single source of truth: GRMiner._score and
# repro.core.interestingness delegate here.
# ----------------------------------------------------------------------
def confidence_counts(support_count, lw_count):
    """``conf = supp_count / lw_count``; 0 when no edge satisfies l ∧ w."""
    if lw_count <= 0:
        return _zeros_like(support_count)
    return support_count / lw_count


def nhp_counts(support_count, lw_count, homophily_count):
    """``nhp = supp_count / (lw_count − hom_count)`` (Definition 4).

    Returns 0 when the denominator is not positive, matching
    :attr:`GRMetrics.nhp`'s degenerate-case convention.
    """
    denominator = lw_count - homophily_count
    if denominator <= 0:
        return _zeros_like(support_count)
    return support_count / denominator


def laplace_counts(support_count, lw_count, laplace_k=2):
    """Laplace accuracy on counts (Eqn. 10): ``(n_s + 1) / (n + k)``."""
    return (support_count + 1) / (lw_count + laplace_k)


def gain_counts(support_count, lw_count, num_edges, gain_theta=0.5):
    """Gain on counts (Eqn. 11): ``(n_s − θ·n) / |E|``.

    Pass ``num_edges=1`` to evaluate the formula on relative supports
    (as :func:`repro.core.interestingness.gain` does); division by one
    is exact, so both spellings produce identical floats.
    """
    return (support_count - gain_theta * lw_count) / num_edges


def score_counts(
    rank_by,
    support_count,
    lw_count,
    homophily_count,
    num_edges,
    laplace_k,
    gain_theta,
):
    """Dispatch one rank metric over scalar or array support counts."""
    if rank_by == "nhp":
        return nhp_counts(support_count, lw_count, homophily_count)
    if rank_by == "confidence":
        return confidence_counts(support_count, lw_count)
    if rank_by == "laplace":
        return laplace_counts(support_count, lw_count, laplace_k)
    return gain_counts(support_count, lw_count, num_edges or 1, gain_theta)


def _zeros_like(support_count):
    if isinstance(support_count, np.ndarray):
        return np.zeros(support_count.shape, dtype=np.float64)
    return 0.0


def score_matrix(
    rank_by,
    counts,
    lw_count,
    nhp_denoms,
    num_edges,
    laplace_k,
    gain_theta,
):
    """Rank scores for a whole RIGHT-node arena in one array expression.

    ``counts`` is the node's flat ragged histogram (every tail token's
    value bins side by side) and ``nhp_denoms`` the element-aligned
    ``lw − hom`` denominators — read only for ``rank_by="nhp"``; bins
    whose true denominator was non-positive are clamped to 1 by the
    caller and zeroed afterwards, mirroring the degenerate-case
    convention of :func:`nhp_counts`.  Elementwise the same IEEE-754
    operations as the scalar formulas, so every bin is bit-identical to
    the reference tier's score for that candidate.
    """
    if rank_by == "nhp":
        return counts / nhp_denoms
    if rank_by == "confidence":
        if lw_count <= 0:
            return np.zeros(counts.shape, dtype=np.float64)
        return counts / lw_count
    if rank_by == "laplace":
        return (counts + 1) / (lw_count + laplace_k)
    return (counts - gain_theta * lw_count) / (num_edges or 1)


# ----------------------------------------------------------------------
# Kernel ops: the tier-specific numeric primitives
# ----------------------------------------------------------------------
class VectorOps:
    """Pure-numpy batch primitives (the ``"vector"`` tier)."""

    name = "vector"

    @staticmethod
    def argsort(keys: np.ndarray, domain_size: int) -> np.ndarray:
        """Stable counting-sort permutation (radix for small domains)."""
        narrow = keys.astype(_key_dtype(domain_size), copy=False)
        return narrow.argsort(kind="stable")

    @staticmethod
    def and_eq(prefix: np.ndarray | None, keys: np.ndarray, code: int) -> np.ndarray:
        """``prefix & (keys == code)`` (``keys == code`` when no prefix)."""
        eq = keys == code
        if prefix is None:
            return eq
        return prefix & eq

    @staticmethod
    def flat_counts(matrix: np.ndarray, n_bins: int) -> np.ndarray:
        """One histogram over a whole offset-coded arena matrix.

        Row ``r`` of the matrix carries codes pre-shifted into its own
        segment of the ragged bin layout (see ``GRMiner._arena``), so a
        single flat bincount yields every attribute's histogram side by
        side: row ``r``'s bins are ``bounds[r]:bounds[r + 1]``.
        """
        return np.bincount(matrix.ravel(), minlength=n_bins)

    @staticmethod
    def arena_counts(matrix: np.ndarray, edges: np.ndarray, n_bins: int) -> np.ndarray:
        """Histogram of every arena row gathered at ``edges`` at once —
        the fused gather + flat bincount behind each RIGHT node."""
        return np.bincount(matrix.take(edges, axis=1).ravel(), minlength=n_bins)

    score_matrix = staticmethod(score_matrix)


def kernel_ops(tier: str):
    """The ops bundle executing a resolved tier's numeric primitives.

    The reference tier has no batch primitives of its own; it receives
    :class:`VectorOps` for the shared plumbing (homophily-mask caching)
    that both tiers go through.
    """
    return VectorOps
