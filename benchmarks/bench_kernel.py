#!/usr/bin/env python
"""Kernel-tier bench: reference vs vector single-shard mine().

Times the scalar reference loop against the arena-batched vector kernel
on one serial miner, with the vector tier's answer verified GR-for-GR —
scores, metrics *and* effort counters — against the reference oracle.
Run as a script (pytest does not collect it):

    PYTHONPATH=src python benchmarks/bench_kernel.py [--quick] [--profile]

Timing method: the tiers are interleaved (one round = one run of each
tier) with the garbage collector disabled during each timed run, and
the per-tier best of ``--repeats`` rounds is kept — CPU time
(``time.process_time``) drives the speedup gate so shared-runner
scheduling noise does not.  Every run mines on a fresh ``GRMiner``: a
re-armed skeleton would serve later rounds from its lattice memo and
time memo hits instead of the kernel.  The compact store is built
once, untimed, and shared; each fresh miner pays its own column gathers
and arena build (milliseconds).  ``memo_mb`` records what one cold run
left in the lattice memo (bounded by ``LATTICE_BYTE_CAP``).

``--profile`` additionally cProfiles one vector-tier ``mine()`` via
:func:`repro.bench.harness.profile_mining` and writes the raw profile
to ``benchmarks/out/kernel_profile.pstats``.

Gate: the vector tier must be >= 2x the reference on CPU time and its
result must verify.  A fresh miner builds every RIGHT entry during the
timed run: one arena bincount per entry, after which each visit costs
what survives minSupp.  On ``--quick`` (2-vCPU VM) the vector tier took
11.2 s CPU against the reference's 42.7 s, 3.8x; the unchanged
reference read 37.3 s in another run, so host noise alone moves the
ratio by ~15%, hence the margin.  The report goes to
``benchmarks/out/BENCH_kernel.json`` (the CI artifact).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import time
from pathlib import Path

from repro.bench.harness import format_series, profile_mining
from repro.core.kernels import KERNEL_TIERS
from repro.core.miner import LATTICE_BYTE_CAP, GRMiner, MinerConfig
from repro.data.store import CompactStore
from repro.datasets import synthetic_pokec

OUT_DIR = Path(__file__).resolve().parent / "out"
TXT_PATH = OUT_DIR / "kernel.txt"
JSON_PATH = OUT_DIR / "BENCH_kernel.json"
PSTATS_PATH = OUT_DIR / "kernel_profile.pstats"

#: CPU-time speedup the vector tier must clear over the reference.
MIN_SPEEDUP = 2.0


def _network(quick: bool):
    if quick:
        return synthetic_pokec(
            num_sources=3000, num_edges=50_000, num_regions=187, seed=7
        )
    return synthetic_pokec(num_sources=6000, num_edges=100_000, num_regions=187, seed=7)


def _params(quick: bool) -> dict:
    return dict(k=20, min_support=5, min_score=0.6)


def _signature(result):
    return [
        (
            str(m.gr),
            round(m.score, 12),
            m.metrics.support_count,
            m.metrics.lw_count,
            m.metrics.homophily_count,
        )
        for m in result
    ]


def _counters(stats):
    return {
        "grs_examined": stats.grs_examined,
        "pruned_by_support": stats.pruned_by_support,
        "pruned_by_nhp": stats.pruned_by_nhp,
        "candidates": stats.candidates,
        "lw_nodes": stats.lw_nodes,
        "pruned_by_generality": stats.pruned_by_generality,
    }


def run(quick: bool, repeats: int) -> tuple[str, dict]:
    network = _network(quick)
    params = _params(quick)
    tiers = list(KERNEL_TIERS)
    store = CompactStore(network)
    configs = {tier: MinerConfig(kernel=tier, **params) for tier in tiers}

    best_cpu = {tier: float("inf") for tier in tiers}
    best_wall = {tier: float("inf") for tier in tiers}
    memo_mb = {}
    signatures: dict[str, list] = {}
    counters: dict[str, dict] = {}
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(max(1, repeats)):
            for tier in tiers:
                miner = GRMiner(network, store=store, config=configs[tier])
                gc.disable()
                cpu0, wall0 = time.process_time(), time.perf_counter()
                result = miner.mine()
                cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
                gc.enable()
                best_cpu[tier] = min(best_cpu[tier], cpu)
                best_wall[tier] = min(best_wall[tier], wall)
                memo_mb[tier] = miner.memo_bytes / 2**20
                signatures[tier] = _signature(result)
                counters[tier] = _counters(result.stats)
                del miner, result
                gc.collect()  # the next fresh miner starts on an empty memo
    finally:
        if gc_was_enabled:
            gc.enable()
        else:
            gc.disable()

    mismatches = [
        tier
        for tier in tiers
        if tier != "reference"
        and (
            signatures[tier] != signatures["reference"]
            or counters[tier] != counters["reference"]
        )
    ]
    rows = [
        {
            "kernel": tier,
            "cpu (s)": best_cpu[tier],
            "wall (s)": best_wall[tier],
            "speedup": best_cpu["reference"] / best_cpu[tier],
            "memo_mb": memo_mb[tier],
            "grs": len(signatures[tier]),
            "verified": "oracle" if tier == "reference" else
            ("yes" if tier not in mismatches else "NO"),
        }
        for tier in tiers
    ]
    speedup = best_cpu["reference"] / best_cpu["vector"]
    payload = {
        "config": {
            "quick": quick,
            "repeats": repeats,
            "cpus": os.cpu_count(),
            "edges": network.num_edges,
            "memo_cap_mb": LATTICE_BYTE_CAP / 2**20,
            **{k: v for k, v in params.items()},
        },
        "rows": rows,
        "summary": {
            "vector_speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
            "mismatches": mismatches,
        },
    }
    title = (
        f"kernel tiers, best of {repeats} interleaved rounds "
        f"({'quick' if quick else 'full'} config, {network.num_edges} edges): "
        f"vector {speedup:.2f}x reference on CPU time"
    )
    return format_series(rows, title=title), payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke run: smaller network"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="interleaved timing rounds per tier"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="also cProfile one vector-tier mine() "
        f"(raw profile to {PSTATS_PATH.name})",
    )
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    table, payload = run(args.quick, max(1, args.repeats))
    print(table)
    TXT_PATH.write_text(table + "\n")
    JSON_PATH.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(f"\nwrote {TXT_PATH}\nwrote {JSON_PATH}")

    if args.profile:
        miner = GRMiner(
            _network(args.quick),
            config=MinerConfig(kernel="vector", **_params(args.quick)),
        )
        _, text = profile_mining(miner, out_path=PSTATS_PATH, top=25)
        print(text)
        print(f"wrote {PSTATS_PATH}")

    summary = payload["summary"]
    if summary["mismatches"]:
        print(f"RESULT MISMATCH: tiers {summary['mismatches']} diverge from reference")
        return 1
    if summary["vector_speedup"] < MIN_SPEEDUP:
        print(
            f"NO KERNEL WIN: vector tier {summary['vector_speedup']:.2f}x "
            f"< required {MIN_SPEEDUP}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
