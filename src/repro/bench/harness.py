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
    "engine_factory",
    "parallel_factory",
    "profile_mining",
    "run_series",
    "format_series",
]

AlgorithmFactory = Callable[..., object]


def engine_factory(engine) -> AlgorithmFactory:
    """Adapt a shared :class:`~repro.engine.MiningEngine` to the bench.

    Drop it into a :func:`run_series` algorithm map next to the one-shot
    factories: every timed ``mine()`` routes through the *same* engine,
    so the row measures the amortized per-query latency (no store
    rebuild, no re-export, no pool respawn) against the cold-start
    contenders.  The engine's own result cache would turn repeat points
    into near-zero rows, so sweeps that revisit parameters should build
    the engine with ``cache_size=0``.
    """

    from ..engine import MineRequest  # deferred: keep bench import light

    class _Bound:
        def __init__(self, request):
            self._request = request

        def mine(self):
            return engine.mine(self._request)

    def make(network: SocialNetwork, **kw):
        if network is not engine.network:
            raise ValueError("engine_factory is bound to the engine's own network")
        kw.setdefault("workers", None if engine.workers == 1 else engine.workers)
        return _Bound(MineRequest.create(**kw))

    return make


def parallel_factory(workers: int) -> AlgorithmFactory:
    """A factory for the sharded multi-process miner at a worker count.

    Drop it into a :func:`run_series` algorithm map (e.g. the scaling
    bench times ``{"GRMiner(k)": ..., "Parallel×4": parallel_factory(4)}``).
    """

    def make(network: SocialNetwork, **kw):
        from ..parallel import ParallelGRMiner  # deferred: keep bench import light

        return ParallelGRMiner(network, workers=workers, **kw)

    return make


def algorithm_factories(
    include_baselines: bool = True, parallel_workers: int | None = None
) -> dict[str, AlgorithmFactory]:
    """The Fig. 4 contenders, name → miner factory.

    Every factory accepts the same keyword arguments as
    :class:`~repro.core.miner.GRMiner` (baselines ignore the push
    flags they exist to disable).  ``parallel_workers`` adds the sharded
    :class:`~repro.parallel.ParallelGRMiner` as an extra contender.
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
    if parallel_workers is not None:
        factories[f"Parallel×{parallel_workers}"] = parallel_factory(parallel_workers)
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
