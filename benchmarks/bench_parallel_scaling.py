#!/usr/bin/env python
"""Scaling bench: sharded ``mine_top_k(workers=N)`` vs the serial GRMiner(k).

Times the serial miner against one-shot sharded mining (one query on a
cache-less engine of N fleet workers, fork and store export included)
at several worker counts on the synthetic Pokec- and DBLP-style
workloads, checks that every run returns identical GRs, and records the
speedups.  Run as a script (pytest does not collect it — the sweep needs
a CLI):

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py [--quick]

``--quick`` shrinks the datasets and worker grid to a CI-sized smoke
run.  The table is also written to ``benchmarks/out/parallel_scaling.txt``.

Speedup depends on the hardware: the shards genuinely run concurrently,
so the headline number tracks the machine's usable core count (on a
single-core container the pool's fork/export overhead makes the
parallel rows *slower* — the bench records whatever is true).
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path

from repro.bench.harness import format_series
from repro.core.miner import GRMiner, mine_top_k
from repro.datasets import synthetic_dblp, synthetic_pokec

OUT_PATH = Path(__file__).resolve().parent / "out" / "parallel_scaling.txt"

#: Fig. 4 default thresholds (Section VI-D).
PARAMS = dict(min_support=50, min_score=0.5, k=100)


def _configs(quick: bool):
    if quick:
        yield "pokec-15k", synthetic_pokec(
            num_sources=1500, num_edges=15_000, num_regions=24, seed=20160516
        )
        return
    yield "pokec-40k", synthetic_pokec(
        num_sources=4000, num_edges=40_000, num_regions=24, seed=20160516
    )
    # The largest synthetic Pokec config (the Table IIa sample size).
    yield "pokec-60k", synthetic_pokec(
        num_sources=6000, num_edges=60_000, seed=20160516
    )
    yield "dblp-67k", synthetic_dblp(seed=20160517)


def _signature(result):
    return [(str(m.gr), round(m.score, 9)) for m in result]


def run(quick: bool, workers: tuple[int, ...], repeats: int) -> str:
    rows = []
    for name, network in _configs(quick):
        serial_best = float("inf")
        serial_result = None
        for _ in range(repeats):
            start = time.perf_counter()
            serial_result = GRMiner(network, **PARAMS).mine()
            serial_best = min(serial_best, time.perf_counter() - start)
        row = {
            "config": name,
            "|E|": network.num_edges,
            "grs": len(serial_result),
            "serial (s)": serial_best,
        }
        for count in workers:
            best = float("inf")
            par_result = None
            for _ in range(repeats):
                start = time.perf_counter()
                par_result = mine_top_k(
                    network,
                    k=PARAMS["k"],
                    min_support=PARAMS["min_support"],
                    min_nhp=PARAMS["min_score"],
                    workers=count,
                )
                best = min(best, time.perf_counter() - start)
            row[f"par×{count} (s)"] = best
            row[f"par×{count} speedup"] = serial_best / best if best else 0.0
            same = _signature(serial_result) == _signature(par_result)
            row[f"par×{count} =="] = "yes" if same else "NO"
        rows.append(row)
    title = (
        f"Parallel scaling — GRMiner(k) vs mine_top_k(workers=N) "
        f"(minSupp=50, minNhp=0.5, k=100; cpus={os.cpu_count()})"
    )
    return format_series(rows, title=title)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke run: small data, workers 1-2"
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="*",
        default=None,
        help="worker counts to sweep (default: 1 2 4, or 1 2 with --quick)",
    )
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)
    workers = tuple(args.workers) if args.workers else ((1, 2) if args.quick else (1, 2, 4))
    table = run(args.quick, workers, max(1, args.repeats))
    print(table)
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(table + "\n")
    print(f"\nwrote {OUT_PATH}")
    if any("NO" in line for line in table.splitlines()):
        print("RESULT MISMATCH between serial and parallel miners")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
