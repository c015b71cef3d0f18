#!/usr/bin/env python
"""Incremental re-mining bench: append-edge deltas, migrated vs cold.

One engine serves a top-k query, then absorbs a sequence of small
concentrated append-edge deltas (all new edges leave one source node, so
only that node's first-level partitions are touched).  Run as a script
(pytest does not collect it):

    PYTHONPATH=src python benchmarks/bench_incremental.py [--quick]

Per delta round, the bench records both sides of the migrate-vs-cold
comparison:

* **incremental** — ``engine.append_edges`` migrates the cached entry
  (untouched branches carried over, touched branches re-mined as shards
  on the engine's fleet) and the next query is a cache hit whose
  ``branches_mined`` / ``branches_total`` params say exactly how much
  mining the delta cost.
* **cold** — a fresh engine over the same post-delta network mines the
  same query from scratch (every branch).

Acceptance: every answer is GR-for-GR equal to the serial index-only
miner (``push_topk=False``, no fleet) on the post-delta network, at
least one entry migrated, each migrated round mined *strictly fewer*
branches than the cold baseline, and each migrated round dispatched
shard tasks to the fleet (``repro_pool_tasks_dispatched_total`` rose
across its ``append_edges``): the coordinator never mines.  The table
goes to stdout and ``benchmarks/out/incremental.txt``; the
machine-readable payload to ``benchmarks/out/BENCH_incremental.json``
(the CI artifact).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.bench.harness import format_series
from repro.core.miner import mine_top_k
from repro.datasets import synthetic_pokec
from repro.engine import MineRequest, MiningEngine
from repro.obs import REGISTRY

OUT_DIR = Path(__file__).resolve().parent / "out"
TXT_PATH = OUT_DIR / "incremental.txt"
JSON_PATH = OUT_DIR / "BENCH_incremental.json"


def _network(quick: bool):
    if quick:
        return synthetic_pokec(
            num_sources=600, num_edges=6_000, num_regions=12, seed=20160516
        )
    return synthetic_pokec(num_sources=2500, num_edges=25_000, seed=20160516)


def _signature(result):
    return [(str(m.gr), round(m.score, 9)) for m in result]


def _concentrated_delta(network, count: int, round_index: int):
    """``count`` new edges all leaving one (existing) source node."""
    rng = np.random.default_rng(1000 + round_index)
    node = int(network.src[int(rng.integers(0, network.num_edges))])
    src = np.full(count, node, dtype=np.int64)
    dst = rng.integers(0, network.num_nodes, count)
    edge_codes = {
        name: rng.integers(
            1, network.schema.edge_attribute(name).domain_size + 1, count
        )
        for name in network.schema.edge_attribute_names
    }
    return src, dst, edge_codes


def run(quick: bool, workers: int) -> tuple[str, dict]:
    network = _network(quick)
    request = MineRequest.create(
        k=10, min_support=20 if quick else 40, min_nhp=0.0, workers=workers
    )
    rounds = 3 if quick else 5
    delta_size = 10

    dispatched = REGISTRY.counter(
        "repro_pool_tasks_dispatched_total",
        "Shard tasks submitted to the worker fleet.",
    )
    rows = []
    mismatches = 0
    with MiningEngine(network, workers=workers) as engine:
        engine.mine(request)  # populate the cache
        for i in range(rounds):
            migrated_before = engine.stats.migrated_entries
            src, dst, edge_codes = _concentrated_delta(network, delta_size, i)

            t0 = time.perf_counter()
            tasks_before = dispatched.value
            engine.append_edges(src, dst, edge_codes)
            delta_tasks = int(dispatched.value - tasks_before)
            incremental = engine.mine(request)  # cache hit when migrated
            incremental_s = time.perf_counter() - t0
            migrated = engine.stats.migrated_entries - migrated_before

            t0 = time.perf_counter()
            with MiningEngine(network, workers=workers) as cold_engine:
                cold = cold_engine.mine(request)
            cold_s = time.perf_counter() - t0

            reference = _signature(
                mine_top_k(
                    network,
                    k=request.k,
                    min_support=request.min_support,
                    min_nhp=request.min_nhp,
                    push_topk=False,
                )
            )
            mismatches += _signature(incremental) != reference
            mismatches += _signature(cold) != reference

            rows.append(
                {
                    "round": i,
                    "delta edges": delta_size,
                    "outcome": "migrated" if migrated else "purged",
                    "branches mined (incremental)": incremental.params.get(
                        "branches_mined", "-"
                    ),
                    "branches mined (cold)": incremental.params.get(
                        "branches_total", "-"
                    ),
                    "fleet tasks (delta)": delta_tasks,
                    "incremental (s)": incremental_s,
                    "cold (s)": cold_s,
                }
            )
        stats = engine.stats

    migrated_rounds = [r for r in rows if r["outcome"] == "migrated"]
    summary = {
        "workers": workers,
        "rounds": rounds,
        "delta_size": delta_size,
        "migrated_entries": stats.migrated_entries,
        "purged_entries": stats.purged_entries,
        "migration_fallbacks": stats.migration_fallbacks,
        "branches_mined_incremental": sum(
            r["branches mined (incremental)"] for r in migrated_rounds
        ),
        "branches_mined_cold": sum(
            r["branches mined (cold)"] for r in migrated_rounds
        ),
        "incremental_elapsed_s": sum(r["incremental (s)"] for r in rows),
        "cold_elapsed_s": sum(r["cold (s)"] for r in rows),
        "mismatches": mismatches,
        "migrated_rounds_without_fleet_tasks": sum(
            r["fleet tasks (delta)"] == 0 for r in migrated_rounds
        ),
    }
    payload = {
        "config": {
            "quick": quick,
            "cpus": os.cpu_count(),
            "edges": network.num_edges,
        },
        "rows": rows,
        "summary": summary,
    }
    title = (
        f"incremental x{workers}: {len(migrated_rounds)}/{rounds} deltas "
        f"migrated, {summary['branches_mined_incremental']} branches mined "
        f"vs {summary['branches_mined_cold']} cold; "
        f"{summary['incremental_elapsed_s']:.2f}s incremental vs "
        f"{summary['cold_elapsed_s']:.2f}s cold"
    )
    return format_series(rows, title=title), payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke run: small data, few rounds"
    )
    parser.add_argument("--workers", type=int, default=2, help="shared fleet size")
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    table, payload = run(args.quick, max(1, args.workers))
    print(table)
    TXT_PATH.write_text(table + "\n")
    JSON_PATH.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(f"\nwrote {TXT_PATH}\nwrote {JSON_PATH}")
    summary = payload["summary"]
    if summary["mismatches"]:
        print(f"RESULT MISMATCH: {summary['mismatches']} verification failure(s)")
        return 1
    if summary["migrated_entries"] == 0:
        print("NO MIGRATIONS: every delta fell back to the purge path")
        return 1
    if summary["migrated_rounds_without_fleet_tasks"]:
        print(
            "MIGRATION OFF THE FLEET: "
            f"{summary['migrated_rounds_without_fleet_tasks']} migrated "
            "round(s) dispatched no shard task"
        )
        return 1
    if summary["branches_mined_incremental"] >= summary["branches_mined_cold"]:
        print(
            "NO INCREMENTAL WIN: migrated deltas mined "
            f"{summary['branches_mined_incremental']} branches vs "
            f"{summary['branches_mined_cold']} cold"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
