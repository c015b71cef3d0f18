#!/usr/bin/env python
"""Hub bench: interleaved multi-network traffic, deltas, disk-cache warmth.

A service process holds many networks and answers a mixed query stream;
this bench measures what :class:`repro.engine.EngineHub` amortizes over
that shape and verifies exactness on every row.  Run as a script (pytest
does not collect it):

    PYTHONPATH=src python benchmarks/bench_hub_multinetwork.py [--quick]

``--quick`` shrinks the datasets and grid to a CI-sized smoke run.  The
table goes to stdout and ``benchmarks/out/hub_multinetwork.txt``; the
machine-readable rows and summary go to ``benchmarks/out/BENCH_hub.json``
(the CI artifact).

Three phases:

* **interleaved** — an A/B/A/B… query stream over two registered
  networks through one hub (one fleet, per-network leases) vs cold
  one-shot miners per query; per-query latency recorded on both sides,
  every result of both verified against the serial index-only miner
  (``push_topk=False``, no fleet), which runs untimed.
* **delta** — an ``append_edges`` batch lands on network A mid-stream;
  the re-mined post-delta answers are verified against the serial miner
  on the mutated network, and network B's untouched queries must still
  hit the cache.
* **restart** — the hub is closed and a new one opened on the same
  ``--disk-cache`` file; the whole warm query stream must be answered
  with zero mining calls (cache-hit counters asserted), timing the
  disk-tier hit path.
"""

from __future__ import annotations

import argparse
import os
import time
from itertools import product
from pathlib import Path

import numpy as np

from repro.bench.harness import format_series
from repro.bench.history import add_history_arguments, record_bench_run
from repro.core.miner import mine_top_k
from repro.datasets import synthetic_dblp, synthetic_pokec
from repro.engine import EngineHub, MineRequest

OUT_DIR = Path(__file__).resolve().parent / "out"
TXT_PATH = OUT_DIR / "hub_multinetwork.txt"
JSON_PATH = OUT_DIR / "BENCH_hub.json"


def _networks(quick: bool) -> dict:
    if quick:
        return {
            "pokec": synthetic_pokec(
                num_sources=800, num_edges=8_000, num_regions=16, seed=20160516
            ),
            "dblp": synthetic_dblp(num_authors=600, num_links=4_000, seed=20160516),
        }
    return {
        "pokec": synthetic_pokec(num_sources=3000, num_edges=30_000, seed=20160516),
        "dblp": synthetic_dblp(num_authors=2000, num_links=15_000, seed=20160516),
    }


def _grid(quick: bool) -> list[dict]:
    if quick:
        ks = (20, 40)
        nhps = (0.5,)
    else:
        ks = (10, 25, 50)
        nhps = (0.4, 0.6)
    return [dict(k=k, min_support=20, min_nhp=nhp) for k, nhp in product(ks, nhps)]


def _signature(result):
    return [(str(m.gr), round(m.score, 9)) for m in result]


def _oracle(network, combo: dict) -> list:
    """The serial index-only miner's answer, the one every side must get."""
    return _signature(mine_top_k(network, push_topk=False, **combo))


def _stream(networks: dict, grid: list[dict]) -> list[tuple[str, dict]]:
    """The interleaved query order: networks alternate per grid point."""
    return [(name, combo) for combo in grid for name in networks]


def _delta(network, count: int, seed: int = 20160516):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, network.num_nodes, count)
    dst = rng.integers(0, network.num_nodes, count)
    edge_codes = {
        name: rng.integers(
            1, network.schema.edge_attribute(name).domain_size + 1, count
        )
        for name in network.schema.edge_attribute_names
    }
    return src, dst, edge_codes


def run(quick: bool, workers: int, disk_cache: Path) -> tuple[str, dict]:
    networks = _networks(quick)
    grid = _grid(quick)
    stream = _stream(networks, grid)
    mismatches = 0
    rows = []

    references = [_oracle(networks[name], combo) for name, combo in stream]

    # ---- cold side: a fresh one-shot miner per query -------------------
    cold_total = 0.0
    for (name, combo), reference in zip(stream, references):
        start = time.perf_counter()
        result = mine_top_k(networks[name], workers=workers, **combo)
        elapsed = time.perf_counter() - start
        cold_total += elapsed
        mismatches += _signature(result) != reference
        rows.append({"network": name, **combo, "cold (s)": elapsed})

    # ---- hub side: one fleet, interleaved traffic ----------------------
    hub_total = 0.0
    delta_summary: dict = {}
    with EngineHub(workers=workers, disk_cache=disk_cache) as hub:
        for name, network in networks.items():
            hub.register(name, network)
        for i, (name, combo) in enumerate(stream):
            request = MineRequest.create(workers=workers, **combo)
            start = time.perf_counter()
            result = hub.mine(name, request)
            elapsed = time.perf_counter() - start
            hub_total += elapsed
            row = rows[i]
            row["hub (s)"] = elapsed
            row["speedup"] = row["cold (s)"] / elapsed if elapsed else float("inf")
            equal = _signature(result) == references[i]
            row["=="] = "yes" if equal else "NO"
            mismatches += not equal

        # ---- delta phase: mutate pokec, keep dblp warm -----------------
        target = "pokec"
        delta_start = time.perf_counter()
        hub.append_edges(target, *_delta(networks[target], 500))
        delta_apply_s = time.perf_counter() - delta_start
        combo = grid[0]
        start = time.perf_counter()
        post = hub.mine(target, MineRequest.create(workers=workers, **combo))
        post_delta_s = time.perf_counter() - start
        post_equal = _signature(post) == _oracle(networks[target], combo)
        mismatches += not post_equal
        before_hits = hub.stats("dblp").cache_hits
        hub.mine("dblp", MineRequest.create(workers=workers, **grid[0]))
        dblp_kept_cache = hub.stats("dblp").cache_hits == before_hits + 1
        mismatches += not dblp_kept_cache
        delta_summary = {
            "apply_s": delta_apply_s,
            "post_delta_mine_s": post_delta_s,
            "post_delta_equal": post_equal,
            "untouched_network_kept_cache": dblp_kept_cache,
            "invalidations": hub.stats(target).invalidations,
            "purged_entries": hub.stats(target).purged_entries,
        }
        hub_stats = hub.aggregate_stats()

    # ---- restart phase: a new hub over the same disk cache -------------
    warm_total = 0.0
    for row in rows:
        # Uniform columns keep format_series rendering every row; the
        # mutated network's entries were invalidated, so its rows have
        # no warm measurement.
        row["warm (s)"] = "-"
    with EngineHub(workers=workers, disk_cache=disk_cache) as hub:
        for name, network in networks.items():
            hub.register(name, network)
        start = time.perf_counter()
        for i, (name, combo) in enumerate(stream):
            # pokec was mutated after its stream queries ran, so only the
            # untouched network's entries survived the invalidation.
            if name == target:
                continue
            query_start = time.perf_counter()
            hub.mine(name, MineRequest.create(workers=workers, **combo))
            rows[i]["warm (s)"] = time.perf_counter() - query_start
        warm_total = time.perf_counter() - start
        restart_stats = {
            name: hub.stats(name).as_dict() for name in networks
        }
        warm_misses = sum(s["cache_misses"] for s in restart_stats.values())
        mismatches += warm_misses  # every warm query must be a disk hit

    summary = {
        "workers": workers,
        "queries": len(stream),
        "cold_total_s": cold_total,
        "hub_total_s": hub_total,
        "per_query_cold_s": cold_total / len(stream),
        "per_query_hub_s": hub_total / len(stream),
        "amortized_speedup": cold_total / hub_total if hub_total else 0.0,
        "warm_restart_total_s": warm_total,
        "warm_restart_misses": warm_misses,
        "delta": delta_summary,
        "hub_stats": hub_stats,
        "restart_stats": restart_stats,
        "mismatches": mismatches,
    }
    payload = {
        "config": {
            "quick": quick,
            "cpus": os.cpu_count(),
            "networks": {
                name: {"edges": network.num_edges}
                for name, network in networks.items()
            },
            "grid": grid,
        },
        "rows": rows,
        "summary": summary,
    }
    title = (
        f"hub x{workers}: {len(stream)} interleaved queries over "
        f"{len(networks)} networks — cold {cold_total:.3f}s vs hub "
        f"{hub_total:.3f}s ({summary['amortized_speedup']:.2f}x, "
        f"pool_spawns={hub_stats['pool_spawns']}, "
        f"warm restart {warm_total:.3f}s / {warm_misses} misses)"
    )
    return format_series(rows, title=title), payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke run: small data, small grid"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="shared fleet size"
    )
    parser.add_argument(
        "--disk-cache",
        default=None,
        help="sqlite path for the persistent tier (default: out/hub_cache.sqlite, "
        "recreated per run)",
    )
    add_history_arguments(parser)
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    disk_cache = Path(args.disk_cache) if args.disk_cache else OUT_DIR / "hub_cache.sqlite"
    if disk_cache.exists():
        disk_cache.unlink()  # measure a genuinely cold first pass
    table, payload = run(args.quick, max(1, args.workers), disk_cache)
    print(table)
    TXT_PATH.write_text(table + "\n")
    history = record_bench_run(
        "hub",
        payload,
        OUT_DIR,
        headline={
            "amortized_speedup": {
                "value": payload["summary"]["amortized_speedup"],
                "better": "higher",
            },
        },
        config={"quick": args.quick, "workers": max(1, args.workers)},
        timestamp=args.timestamp,
        history_path=args.history,
    )
    print(f"\nwrote {TXT_PATH}\nwrote {OUT_DIR / 'BENCH_hub.json'}")
    print(f"appended {history}")
    summary = payload["summary"]
    if summary["mismatches"]:
        print(f"RESULT MISMATCH: {summary['mismatches']} verification failure(s)")
        return 1
    if summary["amortized_speedup"] <= 1.0:
        print(
            "WARNING: no amortization win "
            f"({summary['amortized_speedup']:.2f}x) — expected on 1-CPU boxes"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
