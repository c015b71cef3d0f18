"""Shared machinery for the Fig. 4 runtime-comparison benches.

Each Fig. 4 panel sweeps one parameter and times four algorithms:

* ``GRMiner(k)`` — all constraints pushed, including the dynamic top-k
  threshold upgrade;
* ``GRMiner``    — all constraints except top-k;
* ``BL2``        — support-only pruning on the three-table model;
* ``BL1``        — support-only pruning (BUC) on the single table.

:func:`run_series` executes such a sweep and returns the timing rows the
paper plots; :func:`format_series` prints them as an aligned table so a
bench run reproduces the figure's data series verbatim.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, Sequence

from ..core.baselines import BL1Miner, BL2Miner
from ..core.miner import GRMiner
from ..data.network import SocialNetwork

__all__ = [
    "algorithm_factories",
    "profile_mining",
    "run_series",
    "format_series",
]

AlgorithmFactory = Callable[..., object]


def algorithm_factories(include_baselines: bool = True) -> dict[str, AlgorithmFactory]:
    """The Fig. 4 contenders, name → miner factory.

    Every factory accepts the same keyword arguments as
    :class:`~repro.core.miner.GRMiner` (baselines ignore the push
    flags they exist to disable).
    """

    def grminer_k(network: SocialNetwork, **kw) -> GRMiner:
        return GRMiner(network, push_topk=True, **kw)

    def grminer(network: SocialNetwork, **kw) -> GRMiner:
        return GRMiner(network, push_topk=False, **kw)

    def bl2(network: SocialNetwork, **kw) -> BL2Miner:
        kw.pop("push_topk", None)
        return BL2Miner(network, **kw)

    def bl1(network: SocialNetwork, **kw) -> BL1Miner:
        for flag in ("push_topk", "push_score_pruning", "dynamic_rhs_ordering"):
            kw.pop(flag, None)
        return BL1Miner(network, **kw)

    factories: dict[str, AlgorithmFactory] = {
        "GRMiner(k)": grminer_k,
        "GRMiner": grminer,
    }
    if include_baselines:
        factories["BL2"] = bl2
        factories["BL1"] = bl1
    return factories


def profile_mining(miner: GRMiner, out_path=None, top: int = 25):
    """cProfile one ``mine()`` of ``miner``; returns ``(result, text)``.

    Branch planning (and the store-derived caches it fills) runs once
    *outside* the profiler first, so the profile isolates the enumeration
    itself — the ``mine_branch`` recursion that kernel work targets.
    The raw profile is dumped to ``out_path`` (a ``.pstats`` file
    loadable with :mod:`pstats` or snakeviz) when given; ``text`` holds
    the top-``top`` functions by cumulative time.
    """
    import cProfile
    import io
    import pstats

    miner.plan_branches()
    profiler = cProfile.Profile()
    profiler.enable()
    result = miner.mine()
    profiler.disable()

    if out_path is not None:
        profiler.dump_stats(str(out_path))
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return result, buffer.getvalue()


def run_series(
    network: SocialNetwork,
    sweep_name: str,
    sweep_values: Sequence,
    base_params: Mapping,
    algorithms: Mapping[str, AlgorithmFactory] | None = None,
    repeats: int = 1,
) -> list[dict]:
    """Time every algorithm at every sweep point.

    Returns one row per sweep value:
    ``{sweep_name: value, "<alg> (s)": seconds, "<alg> grs": result size}``.
    """
    algorithms = dict(algorithms or algorithm_factories())
    rows: list[dict] = []
    for value in sweep_values:
        row: dict = {sweep_name: value}
        params = dict(base_params)
        params[sweep_name] = value
        for name, factory in algorithms.items():
            best = float("inf")
            found = 0
            for _ in range(max(1, repeats)):
                miner = factory(network, **params)
                start = time.perf_counter()
                result = miner.mine()
                best = min(best, time.perf_counter() - start)
                found = len(result)
            row[f"{name} (s)"] = best
            row[f"{name} grs"] = found
        rows.append(row)
    return rows


def format_series(rows: Sequence[Mapping], title: str = "") -> str:
    """Aligned text table of a :func:`run_series` result."""
    if not rows:
        return title
    columns = list(rows[0].keys())
    widths = {
        col: max(len(str(col)), *(len(_fmt(row[col])) for row in rows)) for col in columns
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(col).ljust(widths[col]) for col in columns))
    lines.append("  ".join("-" * widths[col] for col in columns))
    for row in rows:
        lines.append("  ".join(_fmt(row[col]).ljust(widths[col]) for col in columns))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
