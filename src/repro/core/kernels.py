"""Selectable numeric kernels for the miner's RIGHT-phase inner loop.

The SFDF traversal bottoms out in the RIGHT-node candidate evaluation
(Algorithm 1 lines 22–29): for every token left in a node's tail, every
value of the token's domain is a candidate GR.  This module provides the
numpy primitives behind the ``"vector"`` tier's candidate lists — one
flat ``np.bincount`` over a gathered arena of destination codes yields
every tail token's value counts at a node at once — and the stable
counting-sort permutation both tiers partition edge sets with.

Two tiers are exposed through ``MinerConfig(kernel=...)``:

``"reference"``
    The original scalar loop over ``partition_by_value`` groups, kept
    intact in :meth:`GRMiner._right_reference` as the equivalence
    oracle (the same pattern the counting-sort vectorization followed
    with ``_placement_loop_argsort``).
``"vector"``
    :meth:`GRMiner._right_vector`: each memoised RIGHT node lists its
    non-empty value bins by count, so a visit cuts at minSupp with one
    ``bisect`` and handles only the surviving values; the default.

Both tiers score a candidate with the same scalar formula on the same
counts, so results, stats counters and cache identities match across
tiers: the tier is a pure execution detail.

This module is also the single home of the rank-metric formulas on raw
counts (:func:`nhp_counts`, :func:`confidence_counts`,
:func:`laplace_counts`, :func:`gain_counts`) — ``GRMiner._score``,
the vector tier and :mod:`repro.core.interestingness` all delegate here
so they can't drift.
"""

from __future__ import annotations

import numpy as np

from ..sortutil.counting_sort import _key_dtype

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_TIERS",
    "and_eq",
    "arena_counts",
    "confidence_counts",
    "gain_counts",
    "laplace_counts",
    "nhp_counts",
    "score_counts",
    "stable_argsort",
]

KERNEL_TIERS = ("reference", "vector")
DEFAULT_KERNEL = "vector"


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


# ----------------------------------------------------------------------
# Numpy batch primitives: both tiers partition and mask through the
# first two; the vector tier's RIGHT entries count through the third.
# ----------------------------------------------------------------------
def stable_argsort(keys: np.ndarray, domain_size: int) -> np.ndarray:
    """Stable counting-sort permutation (radix for small domains)."""
    narrow = keys.astype(_key_dtype(domain_size), copy=False)
    return narrow.argsort(kind="stable")


def and_eq(prefix: np.ndarray | None, keys: np.ndarray, code: int) -> np.ndarray:
    """``prefix & (keys == code)`` (``keys == code`` when no prefix)."""
    eq = keys == code
    if prefix is None:
        return eq
    return prefix & eq


def arena_counts(matrix: np.ndarray, edges: np.ndarray, n_bins: int) -> np.ndarray:
    """Histogram of every arena row gathered at ``edges`` at once — the
    fused gather + flat bincount behind each new RIGHT entry."""
    return np.bincount(matrix.take(edges, axis=1).ravel(), minlength=n_bins)
