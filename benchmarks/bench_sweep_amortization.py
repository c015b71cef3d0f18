#!/usr/bin/env python
"""Amortization bench: one MiningEngine vs M independent mine_top_k calls.

A parameter sweep of M combos is the paper's own experimental shape
(Fig. 4 grids).  Run independently, every combo pays the full setup —
build the CompactStore, export shared memory, spawn a pool — while one
shared :class:`repro.engine.MiningEngine` pays it once.  This bench
times both sides on the same grid, verifies every result of both sides
against the serial index-only miner (``push_topk=False``, no fleet) of
the same parameters, and records the per-query amortization.  Run as a
script (pytest does not collect it):

    PYTHONPATH=src python benchmarks/bench_sweep_amortization.py [--quick]

``--quick`` shrinks the dataset and grid to a CI-sized smoke run.  The
table goes to stdout and ``benchmarks/out/sweep_amortization.txt``; the
machine-readable rows and summary go to ``benchmarks/out/BENCH_sweep.json``
(the CI artifact).

The comparison (``--workers N``) is ``mine_top_k(..., workers=N)`` per
combo (store build, export and pool spawn each call) vs the engine's
persistent fleet, one query at a time and then with the sweep
dispatched as one interleaved batch.  Both sides return the exact
Definition 5 answer, so they must agree with the serial miner GR for
GR; it runs untimed, outside both sides.

The engine's result cache is disabled so every query is really mined.
"""

from __future__ import annotations

import argparse
import os
import time
from itertools import product
from pathlib import Path

from repro.bench.harness import format_series
from repro.bench.history import add_history_arguments, record_bench_run
from repro.core.miner import mine_top_k
from repro.datasets import synthetic_pokec
from repro.engine import MineRequest, MiningEngine

OUT_DIR = Path(__file__).resolve().parent / "out"
TXT_PATH = OUT_DIR / "sweep_amortization.txt"


def _grid(quick: bool) -> list[dict]:
    if quick:
        ks = (25, 50)
        nhps = (0.4, 0.6)
        supports = (30,)
    else:
        ks = (10, 25, 50, 100)
        nhps = (0.3, 0.5, 0.7)
        supports = (30, 50)
    return [
        dict(k=k, min_support=s, min_nhp=nhp)
        for k, s, nhp in product(ks, supports, nhps)
    ]


def _network(quick: bool):
    if quick:
        return synthetic_pokec(
            num_sources=1200, num_edges=12_000, num_regions=24, seed=20160516
        )
    return synthetic_pokec(num_sources=4000, num_edges=40_000, seed=20160516)


def _signature(result):
    return [(str(m.gr), round(m.score, 9)) for m in result]


def _run_side(network, grid, workers: int) -> tuple[list[dict], dict]:
    """Time cold per-combo calls vs one engine; verify both sides
    against the serial oracle."""
    rows = []
    mismatches = 0

    references = [
        _signature(mine_top_k(network, push_topk=False, **combo)) for combo in grid
    ]
    cold_total = 0.0
    for combo, reference in zip(grid, references):
        start = time.perf_counter()
        result = mine_top_k(network, workers=workers, **combo)
        elapsed = time.perf_counter() - start
        cold_total += elapsed
        mismatches += _signature(result) != reference
        rows.append({**combo, "cold (s)": elapsed})

    with MiningEngine(network, workers=workers, cache_size=0) as engine:
        requests = [
            MineRequest.create(workers=workers, **combo) for combo in grid
        ]
        # Per-query latency through the live engine.
        engine_total = 0.0
        for row, request, reference in zip(rows, requests, references):
            start = time.perf_counter()
            result = engine.mine(request)
            elapsed = time.perf_counter() - start
            engine_total += elapsed
            row["engine (s)"] = elapsed
            row["amortized speedup"] = (
                row["cold (s)"] / elapsed if elapsed else float("inf")
            )
            equal = _signature(result) == reference
            row["=="] = "yes" if equal else "NO"
            mismatches += not equal
        # The whole grid as one interleaved batch.
        start = time.perf_counter()
        batch = engine.sweep(requests)
        batch_total = time.perf_counter() - start
        for row, result, reference in zip(rows, batch, references):
            if _signature(result) != reference:
                row["=="] = "NO"
                mismatches += 1
        stats = engine.hub.aggregate_stats()

    summary = {
        "workers": workers,
        "combos": len(grid),
        "cold_total_s": cold_total,
        "engine_total_s": engine_total,
        "batch_total_s": batch_total,
        "per_query_cold_s": cold_total / len(grid),
        "per_query_engine_s": engine_total / len(grid),
        "amortized_speedup": cold_total / engine_total if engine_total else 0.0,
        "batch_speedup": cold_total / batch_total if batch_total else 0.0,
        "engine_stats": stats,
        "mismatches": mismatches,
    }
    return rows, summary


def run(quick: bool, workers: int) -> tuple[str, dict]:
    network = _network(quick)
    grid = _grid(quick)
    payload: dict = {
        "config": {
            "quick": quick,
            "edges": network.num_edges,
            "cpus": os.cpu_count(),
            "grid": grid,
        },
        "sides": {},
    }
    label = f"sharded x{workers}"
    rows, summary = _run_side(network, grid, workers)
    payload["sides"][label] = {"rows": rows, "summary": summary}
    title = (
        f"{label}: {summary['combos']} combos — cold {summary['cold_total_s']:.3f}s "
        f"vs engine {summary['engine_total_s']:.3f}s "
        f"(batched {summary['batch_total_s']:.3f}s, "
        f"amortized speedup {summary['amortized_speedup']:.2f}x, "
        f"exports={summary['engine_stats']['exports']}, "
        f"pool_spawns={summary['engine_stats']['pool_spawns']})"
    )
    return format_series(rows, title=title), payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke run: small data, small grid"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="fleet size for both sides"
    )
    add_history_arguments(parser)
    args = parser.parse_args(argv)
    table, payload = run(args.quick, max(1, args.workers))
    print(table)
    OUT_DIR.mkdir(exist_ok=True)
    TXT_PATH.write_text(table + "\n")
    history = record_bench_run(
        "sweep",
        payload,
        OUT_DIR,
        headline={
            f"{label.split()[0]}_amortized_speedup": {
                "value": side["summary"]["amortized_speedup"],
                "better": "higher",
            }
            for label, side in payload["sides"].items()
        },
        config={"quick": args.quick, "workers": max(1, args.workers)},
        timestamp=args.timestamp,
        history_path=args.history,
    )
    print(f"\nwrote {TXT_PATH}\nwrote {OUT_DIR / 'BENCH_sweep.json'}")
    print(f"appended {history}")
    failed = False
    for label, side in payload["sides"].items():
        if side["summary"]["mismatches"]:
            print(f"RESULT MISMATCH on the {label} side")
            failed = True
        if side["summary"]["amortized_speedup"] <= 1.0:
            print(
                f"WARNING: no amortization win on the {label} side "
                f"({side['summary']['amortized_speedup']:.2f}x)"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
