#!/usr/bin/env python
"""Serve bench: mixed-priority two-network traffic vs the blocking hub.

The serving scheduler's pitch is *latency shaping*, not raw throughput:
the same shard work is done either way, but priorities and fair
interleaving decide **who waits**.  This bench replays one mixed
workload both ways and measures exactly that.  Run as a script (pytest
does not collect it):

    PYTHONPATH=src python benchmarks/bench_serve_concurrency.py [--quick]

``--quick`` shrinks the datasets and grid to a CI-sized smoke run.  The
table goes to stdout and ``benchmarks/out/serve_concurrency.txt``; the
machine-readable rows and summary go to
``benchmarks/out/BENCH_serve.json`` (the CI artifact).

The served phase runs **twice**: once with observability off
(``observe=False`` + a disabled metrics registry) and once with metrics
and tracing on, an HTTP facade attached, and a ``GET /metrics`` scrape
saved to ``benchmarks/out/metrics_scrape.prom``.  The bench asserts the
instrumented run's urgent p95 and total wall-clock stay within 5% (plus
a small absolute epsilon for timer noise) of the obs-disabled run — the
observability overhead gate.

Workload: a **bulk** low-priority sweep (many grid points on network A)
is submitted first, then a stream of **urgent** high-priority single
queries on network B arrives behind it.

* **sequential baseline** — a blocking ``hub.mine()`` loop in submission
  order: every urgent query waits for the whole bulk backlog ahead of
  it.
* **served** — the same requests through ``repro.serve.Scheduler``:
  urgent shards jump the queue at every free fleet slot.

Recorded per class: p50/p95 completion latency (submit → result),
whether the urgent stream finished before the earlier-submitted bulk
did (the acceptance criterion), and a fairness view of per-network
shard service.  Every served result is verified GR-for-GR against the
baseline's answer for the same request.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import time
from itertools import product
from pathlib import Path

from repro.bench.harness import format_series
from repro.datasets import synthetic_dblp, synthetic_pokec
from repro.engine import EngineHub, MineRequest
from repro.obs import REGISTRY
from repro.serve import Scheduler, ServeHTTP

OUT_DIR = Path(__file__).resolve().parent / "out"
TXT_PATH = OUT_DIR / "serve_concurrency.txt"
JSON_PATH = OUT_DIR / "BENCH_serve.json"
SCRAPE_PATH = OUT_DIR / "metrics_scrape.prom"

#: Overhead gate: instrumented run must stay within this fraction of
#: the obs-disabled run (plus an absolute epsilon for timer noise on
#: sub-second quick runs).
OVERHEAD_TOLERANCE = 0.05
OVERHEAD_EPSILON_S = 0.25


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


def _workload(quick: bool, workers: int):
    """(class, network, request) triples in submission order."""
    if quick:
        bulk_ks, bulk_nhps = (10, 20, 30, 40), (0.4, 0.5)
        urgent_specs = [(15, 0.5), (25, 0.45)]
    else:
        bulk_ks, bulk_nhps = (10, 20, 30, 40, 50), (0.35, 0.45, 0.55)
        urgent_specs = [(15, 0.5), (25, 0.45), (35, 0.55)]
    bulk = [
        ("bulk", "pokec", MineRequest.create(
            k=k, min_support=20, min_nhp=nhp, workers=workers))
        for k, nhp in product(bulk_ks, bulk_nhps)
    ]
    urgent = [
        ("urgent", "dblp", MineRequest.create(
            k=k, min_support=20, min_nhp=nhp, workers=workers))
        for k, nhp in urgent_specs
    ]
    return bulk + urgent  # urgent submitted last — it must overtake


def _signature(result):
    return [(str(m.gr), round(m.score, 9)) for m in result]


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(int(round(q * (len(ordered) - 1))), len(ordered) - 1)
    return ordered[index]


def _latency_summary(latencies: dict[str, list[float]]) -> dict:
    return {
        klass: {
            "n": len(values),
            "p50_s": _percentile(values, 0.50),
            "p95_s": _percentile(values, 0.95),
            "max_s": max(values) if values else 0.0,
        }
        for klass, values in latencies.items()
    }


def _overhead_gate(
    off_p95: float, on_p95: float, off_total: float, on_total: float
) -> dict:
    """Compare the instrumented run against the obs-disabled one.

    ``within_tolerance`` is the bench's acceptance criterion: each
    instrumented number must not exceed its baseline by more than
    ``OVERHEAD_TOLERANCE`` (fractional) plus ``OVERHEAD_EPSILON_S``
    (absolute — quick-run numbers are fractions of a second, where
    scheduler jitter alone exceeds 5%).
    """

    def ok(off: float, on: float) -> bool:
        return on <= off * (1.0 + OVERHEAD_TOLERANCE) + OVERHEAD_EPSILON_S

    return {
        "disabled_urgent_p95_s": off_p95,
        "enabled_urgent_p95_s": on_p95,
        "disabled_total_s": off_total,
        "enabled_total_s": on_total,
        "urgent_p95_ratio": on_p95 / off_p95 if off_p95 else 1.0,
        "total_ratio": on_total / off_total if off_total else 1.0,
        "tolerance": OVERHEAD_TOLERANCE,
        "epsilon_s": OVERHEAD_EPSILON_S,
        "within_tolerance": ok(off_p95, on_p95) and ok(off_total, on_total),
    }


def run(quick: bool, workers: int) -> tuple[str, dict]:
    networks = _networks(quick)
    stream = _workload(quick, workers)
    rows = [
        {"class": klass, "network": name, "k": request.k,
         "minNhp": request.min_nhp}
        for klass, name, request in stream
    ]
    mismatches = 0

    # ---- sequential baseline: blocking hub, submission order ----------
    baseline_sigs: list[list] = []
    seq_latency: dict[str, list[float]] = {"bulk": [], "urgent": []}
    with EngineHub(workers=workers) as hub:
        for name, network in networks.items():
            hub.register(name, network)
        t0 = time.perf_counter()
        for i, (klass, name, request) in enumerate(stream):
            result = hub.mine(name, request)
            completed = time.perf_counter() - t0  # latency since stream start
            baseline_sigs.append(_signature(result))
            seq_latency[klass].append(completed)
            rows[i]["seq latency (s)"] = completed
        seq_total = time.perf_counter() - t0

    # ---- served: one scheduler, urgent priority jumps the bulk --------
    # Runs twice: observability off (the overhead baseline), then fully
    # instrumented with an HTTP facade attached and /metrics scraped.
    async def _served(observe: bool):
        REGISTRY.set_enabled(observe)
        latency: dict[str, list[float]] = {"bulk": [], "urgent": []}
        scrape = None
        with EngineHub(workers=workers) as hub:
            for name, network in networks.items():
                hub.register(name, network)
            async with Scheduler(hub, observe=observe) as scheduler:
                t0 = time.perf_counter()
                jobs = [
                    (i, klass, scheduler.submit(
                        name, request,
                        priority=10 if klass == "urgent" else 0,
                    ))
                    for i, (klass, name, request) in enumerate(stream)
                ]
                done_at: dict[int, float] = {}
                for i, klass, job in jobs:
                    await job
                    done_at[i] = (
                        job.finished_at - job.submitted_at
                    )
                served_total = time.perf_counter() - t0
                sigs = [
                    _signature(job.future.result()) for _, _, job in jobs
                ]
                for i, klass, job in jobs:
                    latency[klass].append(done_at[i])
                # Did every urgent job finish before the last bulk one?
                bulk_finish = max(
                    job.finished_at for _, klass, job in jobs if klass == "bulk"
                )
                urgent_finish = max(
                    job.finished_at for _, klass, job in jobs
                    if klass == "urgent"
                )
                overtook = urgent_finish < bulk_finish
                sched_stats = scheduler.stats()
                if observe:
                    scrape = await _scrape_metrics(scheduler)
        return latency, served_total, sigs, overtook, done_at, sched_stats, scrape

    async def _scrape_metrics(scheduler) -> str:
        # A real wire scrape, as a Prometheus agent would take it.
        async with ServeHTTP(scheduler, port=0) as server:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
        return raw.split(b"\r\n\r\n", 1)[1].decode()

    off_latency, off_total, _, _, _, _, _ = asyncio.run(_served(observe=False))
    served_latency, served_total, served_sigs, overtook, done_at, sched_stats, scrape = (
        asyncio.run(_served(observe=True))
    )
    REGISTRY.set_enabled(True)
    SCRAPE_PATH.parent.mkdir(exist_ok=True)
    SCRAPE_PATH.write_text(scrape)
    for i, (row, expected, got) in enumerate(zip(rows, baseline_sigs, served_sigs)):
        row["served latency (s)"] = done_at[i]
        equal = expected == got
        row["=="] = "yes" if equal else "NO"
        mismatches += not equal

    summary = {
        "workers": workers,
        "queries": len(stream),
        "bulk_queries": sum(1 for r in rows if r["class"] == "bulk"),
        "urgent_queries": sum(1 for r in rows if r["class"] == "urgent"),
        "sequential_total_s": seq_total,
        "served_total_s": served_total,
        "sequential_latency": _latency_summary(seq_latency),
        "served_latency": _latency_summary(served_latency),
        "urgent_finished_before_bulk": overtook,
        "urgent_p95_speedup": (
            _percentile(seq_latency["urgent"], 0.95)
            / _percentile(served_latency["urgent"], 0.95)
            if served_latency["urgent"] and _percentile(served_latency["urgent"], 0.95)
            else 0.0
        ),
        "scheduler": sched_stats,
        "mismatches": mismatches,
        "obs_overhead": _overhead_gate(
            off_p95=_percentile(off_latency["urgent"], 0.95),
            on_p95=_percentile(served_latency["urgent"], 0.95),
            off_total=off_total,
            on_total=served_total,
        ),
    }
    payload = {
        "config": {
            "quick": quick,
            "cpus": os.cpu_count(),
            "networks": {
                name: {"edges": network.num_edges}
                for name, network in networks.items()
            },
        },
        "rows": rows,
        "summary": summary,
    }
    title = (
        f"serve x{workers}: {summary['bulk_queries']} bulk + "
        f"{summary['urgent_queries']} urgent queries — urgent p95 "
        f"{summary['sequential_latency']['urgent']['p95_s']:.3f}s sequential vs "
        f"{summary['served_latency']['urgent']['p95_s']:.3f}s served "
        f"({summary['urgent_p95_speedup']:.1f}x; urgent overtook earlier bulk: "
        f"{'YES' if overtook else 'NO'})"
    )
    return format_series(rows, title=title), payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke run: small data, small grid"
    )
    parser.add_argument("--workers", type=int, default=2, help="shared fleet size")
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    table, payload = run(args.quick, max(1, args.workers))
    print(table)
    TXT_PATH.write_text(table + "\n")
    JSON_PATH.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(f"\nwrote {TXT_PATH}\nwrote {JSON_PATH}\nwrote {SCRAPE_PATH}")
    summary = payload["summary"]
    if summary["mismatches"]:
        print(f"RESULT MISMATCH: {summary['mismatches']} verification failure(s)")
        return 1
    if not summary["urgent_finished_before_bulk"]:
        print(
            "PRIORITY INVERSION: the high-priority stream did not overtake "
            "the earlier-submitted bulk sweep"
        )
        return 1
    overhead = summary["obs_overhead"]
    if not overhead["within_tolerance"]:
        print(
            "OBSERVABILITY OVERHEAD: instrumented run exceeded the "
            f"obs-disabled baseline by more than {OVERHEAD_TOLERANCE:.0%} "
            f"(+{OVERHEAD_EPSILON_S}s): urgent p95 "
            f"{overhead['disabled_urgent_p95_s']:.3f}s -> "
            f"{overhead['enabled_urgent_p95_s']:.3f}s, total "
            f"{overhead['disabled_total_s']:.3f}s -> "
            f"{overhead['enabled_total_s']:.3f}s"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
