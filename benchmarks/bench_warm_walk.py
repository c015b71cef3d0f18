#!/usr/bin/env python
"""Warm-walk bench: what one `cold`-box query costs a warm worker skeleton.

Run as a script (pytest does not collect it):

    PYTHONPATH=src python benchmarks/bench_warm_walk.py [--quick]

The in-worker layer of a served ``cold`` query, without the fleet.  The
network is perfbench's (``synthetic_pokec(num_sources=800,
num_edges=8_000, num_regions=16)``, seed 1) and the queries come from
perfbench's ``cold`` box: k 10–20, minSupp 45–55, minNhp 0.45–0.6, a
fixed stream.  Each query is planned into two LPT shards
(:func:`repro.parallel.planner.plan_shards`) and shard ``j`` is mined on
skeleton ``j`` by :func:`repro.parallel.worker.mine_on_skeleton`, the
walk ``run_shard`` runs in a pool worker.  A warm-up stream fills both
skeletons' lattice memos first.

It reports, per query:

- ``warm_cpu_ms``: CPU time of both shard walks on the warm skeletons,
  with the garbage collector on as in a worker (median over the timed
  stream);
- ``fresh_cpu_ms``: the same walks on two new skeletons, construction
  included (median);
- the charged memo after the warm-up (``memo_mib``), the process's RSS
  growth over the warm-up (``rss_growth_mib``) and the charged memo at
  the end;
- lattice memo hits and misses over the timed stream.

Checks (the bench exits 1 on any mismatch): every timed answer, merged
over the shards, equals a fresh ``GRMiner(push_topk=False)`` truncated
to k; for the first few timed queries the shards are mined again on the
``reference`` tier, and each shard's answer and six effort counters
must equal the ``vector`` tier's.

The report goes to stdout and ``benchmarks/out/BENCH_warm.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import random
import statistics
import time
from pathlib import Path

from repro.core.miner import LATTICE_BYTE_CAP, GRMiner, MinerConfig
from repro.data.store import CompactStore
from repro.datasets import synthetic_pokec
from repro.parallel.miner import merge_shard_results
from repro.parallel.planner import plan_shards
from repro.parallel.worker import ShardResult, ShardTask, mine_on_skeleton

OUT_DIR = Path(__file__).resolve().parent / "out"
JSON_PATH = OUT_DIR / "BENCH_warm.json"

#: Seeds perfbench's seed-1 network and the query stream.
SEED = 1
SHARDS = 2
#: ``(warm-up, timed, fresh, tier-checked)`` query counts.
SIZES = {"quick": (10, 15, 4, 2), "full": (30, 40, 10, 4)}


def _signature(entries):
    return [
        (
            str(m.gr),
            m.score,
            m.metrics.support_count,
            m.metrics.lw_count,
            m.metrics.homophily_count,
        )
        for m in entries
    ]


def _counters(stats):
    return (
        stats.grs_examined,
        stats.pruned_by_support,
        stats.pruned_by_nhp,
        stats.candidates,
        stats.lw_nodes,
        stats.pruned_by_generality,
    )


def cold_stream():
    """Endless distinct queries from perfbench's ``cold`` box."""
    rng = random.Random(SEED)
    seen = set()
    while True:
        query = (
            rng.randint(10, 20),
            rng.randint(45, 55),
            round(rng.uniform(0.45, 0.6), 4),
        )
        if query not in seen:
            seen.add(query)
            k, min_support, min_score = query
            yield MinerConfig(k=k, min_support=min_support, min_score=min_score)


def _rss_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Fleet:
    """Two in-process worker skeletons mining a query's shards."""

    def __init__(self, network, store) -> None:
        self.network = network
        self.store = store
        self.planner = GRMiner(network, store=store)
        self.skeletons: list[GRMiner | None] = [None] * SHARDS

    def plan(self, config: MinerConfig):
        plan = self.planner.rearm(config).plan_branches()
        return plan, plan_shards(plan.branches, SHARDS)

    def mine_shards(self, config: MinerConfig, shards) -> list[ShardResult]:
        """Shard ``j`` mined on skeleton ``j``, as a pool worker mines it."""
        results = []
        for j, branches in enumerate(shards):
            if self.skeletons[j] is None:
                self.skeletons[j] = GRMiner(
                    self.network, store=self.store, config=config
                )
            task = ShardTask(shard_id=j, branches=branches, config=config)
            results.append(mine_on_skeleton(self.skeletons[j], task))
        return results

    @property
    def memo_bytes(self) -> int:
        return sum(m.memo_bytes for m in self.skeletons if m is not None)


def run(quick: bool) -> dict:
    warmup, timed, fresh, checked = SIZES["quick" if quick else "full"]
    network = synthetic_pokec(
        num_sources=800, num_edges=8_000, num_regions=16, seed=SEED
    )
    store = CompactStore(network)
    stream = cold_stream()
    fleet = Fleet(network, store)

    gc.collect()
    rss0 = _rss_bytes()
    for _ in range(warmup):
        config = next(stream)
        fleet.mine_shards(config, fleet.plan(config)[1])
    gc.collect()
    rss_growth = _rss_bytes() - rss0
    memo_after_warmup = fleet.memo_bytes

    mismatches: list[str] = []
    warm_cpu: list[float] = []
    hits = misses = 0
    for q in range(timed):
        config = next(stream)
        plan, shards = fleet.plan(config)
        cpu0 = time.process_time()
        results = fleet.mine_shards(config, shards)
        warm_cpu.append(time.process_time() - cpu0)
        hits += sum(r.memo_hits for r in results)
        misses += sum(r.memo_misses for r in results)
        entries, _ = merge_shard_results(results, config, plan.pruned_by_support)
        want = GRMiner(
            network,
            store=store,
            k=config.k,
            min_support=config.min_support,
            min_score=config.min_score,
            push_topk=False,
        ).mine()
        if _signature(entries) != _signature(want.grs[: config.k]):
            mismatches.append(f"query {q}: answer differs from the oracle")
        if q < checked:
            reference = fleet.mine_shards(
                dataclasses.replace(config, kernel="reference"), shards
            )
            for got, ref in zip(results, reference):
                if _signature(got.entries) != _signature(ref.entries) or _counters(
                    got.stats
                ) != _counters(ref.stats):
                    mismatches.append(f"query {q} shard {got.shard_id}: tiers differ")

    fresh_cpu: list[float] = []
    for _ in range(fresh):
        config = next(stream)
        shards = fleet.plan(config)[1]
        new = Fleet(network, store)
        cpu0 = time.process_time()
        new.mine_shards(config, shards)
        fresh_cpu.append(time.process_time() - cpu0)
        for miner in new.skeletons:
            miner.clear_memo()
        del new
        gc.collect()

    mib = 2**20
    return {
        "config": {
            "quick": quick,
            "seed": SEED,
            "cpus": os.cpu_count(),
            "edges": network.num_edges,
            "shards": SHARDS,
            "warmup_queries": warmup,
            "timed_queries": timed,
            "fresh_queries": fresh,
            "tier_checked_queries": checked,
            "memo_cap_mib": LATTICE_BYTE_CAP / mib,
        },
        "summary": {
            "warm_cpu_ms": 1e3 * statistics.median(warm_cpu),
            "warm_cpu_ms_mean": 1e3 * statistics.fmean(warm_cpu),
            "fresh_cpu_ms": 1e3 * statistics.median(fresh_cpu),
            "memo_mib": memo_after_warmup / mib,
            "rss_growth_mib": rss_growth / mib,
            "memo_mib_end": fleet.memo_bytes / mib,
            "memo_hits_per_query": hits / timed,
            "memo_misses_per_query": misses / timed,
            "mismatches": mismatches,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke run: shorter streams"
    )
    args = parser.parse_args(argv)
    payload = run(args.quick)
    summary = payload["summary"]
    for name, value in summary.items():
        if name != "mismatches":
            print(f"{name:>22}: {value:.3f}")
    OUT_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")
    if summary["mismatches"]:
        for line in summary["mismatches"]:
            print(f"MISMATCH: {line}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
