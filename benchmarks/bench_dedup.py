#!/usr/bin/env python
"""Single-flight bench: N identical concurrent jobs vs N sequential mines.

Run as a script (pytest does not collect it):

    PYTHONPATH=src python benchmarks/bench_dedup.py [--quick]

N identical concurrent jobs go through ``repro.serve.Scheduler`` on a
cacheless hub, so single-flight dedup is the only collapse mechanism;
the same N queries are then mined sequentially on a cacheless blocking
hub.  The checks: exactly one cache-missed execution on the scheduler
side (engine ``cache_misses == 1``) and all N answers equal to the
sequential ones.

``--quick`` shrinks the dataset for a CI-sized smoke run.  The summary
goes to stdout and ``benchmarks/out/dedup.txt``; the machine-readable
payload to ``benchmarks/out/BENCH_dedup.json`` (the CI artifact).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import time
from pathlib import Path

from repro.datasets import synthetic_pokec
from repro.engine import EngineHub, MineRequest
from repro.serve import Scheduler

OUT_DIR = Path(__file__).resolve().parent / "out"
TXT_PATH = OUT_DIR / "dedup.txt"
JSON_PATH = OUT_DIR / "BENCH_dedup.json"


def _network(quick: bool):
    if quick:
        return synthetic_pokec(
            num_sources=600, num_edges=6_000, num_regions=12, seed=20160516
        )
    return synthetic_pokec(num_sources=2500, num_edges=25_000, seed=20160516)


def _signature(result):
    return [(str(m.gr), round(m.score, 9)) for m in result]


def _run_dedup(network, request, n: int, workers: int):
    async def scenario():
        with EngineHub(workers=workers, cache_size=0) as hub:
            hub.register("net", network)
            async with Scheduler(hub) as scheduler:
                t0 = time.perf_counter()
                jobs = [scheduler.submit("net", request) for _ in range(n)]
                results = [await job for job in jobs]
                elapsed = time.perf_counter() - t0
                stats = hub.engine("net").stats
                return (
                    results,
                    elapsed,
                    stats.cache_misses,
                    sum(job.deduped for job in jobs),
                )

    return asyncio.run(scenario())


def run(quick: bool, workers: int) -> tuple[str, dict]:
    network = _network(quick)
    n_jobs = 4 if quick else 8
    dup_request = MineRequest.create(
        k=10, min_support=10, min_nhp=0.3, workers=workers
    )
    dup_results, dedup_elapsed, dedup_misses, followers = _run_dedup(
        network, dup_request, n_jobs, workers
    )
    with EngineHub(workers=workers, cache_size=0) as hub:
        hub.register("net", network)
        t0 = time.perf_counter()
        sequential = [hub.mine("net", dup_request) for _ in range(n_jobs)]
        sequential_elapsed = time.perf_counter() - t0
    dup_reference = _signature(sequential[0])
    mismatches = sum(_signature(r) != dup_reference for r in dup_results)

    summary = {
        "workers": workers,
        "dedup_jobs": n_jobs,
        "dedup_mining_executions": dedup_misses,
        "dedup_followers": followers,
        "dedup_concurrent_elapsed_s": dedup_elapsed,
        "dedup_sequential_elapsed_s": sequential_elapsed,
        "mismatches": mismatches,
    }
    payload = {
        "config": {
            "quick": quick,
            "cpus": os.cpu_count(),
            "edges": network.num_edges,
        },
        "summary": summary,
    }
    title = (
        f"dedup x{workers}: {n_jobs} identical jobs -> {dedup_misses} "
        f"execution(s), {dedup_elapsed:.2f}s concurrent vs "
        f"{sequential_elapsed:.2f}s sequential"
    )
    return title, payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke run: small data"
    )
    parser.add_argument("--workers", type=int, default=2, help="shared fleet size")
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    line, payload = run(args.quick, max(1, args.workers))
    print(line)
    TXT_PATH.write_text(line + "\n")
    JSON_PATH.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(f"\nwrote {TXT_PATH}\nwrote {JSON_PATH}")
    summary = payload["summary"]
    if summary["mismatches"]:
        print(f"RESULT MISMATCH: {summary['mismatches']} verification failure(s)")
        return 1
    if summary["dedup_mining_executions"] != 1:
        print(
            f"DEDUP MISS: {summary['dedup_mining_executions']} executions for "
            f"{summary['dedup_jobs']} identical concurrent jobs"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
