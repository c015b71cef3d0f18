#!/usr/bin/env python3
"""Served-query benchmark: ``repro serve`` driven over HTTP.

Runs one workload against a real ``python -m repro serve`` process (its
own process tree: the asyncio front, the coordinator thread and a
2-process worker fleet) and prints, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0

Inputs come from ``--seed``: a synthetic Pokec-style network (800
source profiles, 8,000 edges) written as CSV for the server to load, and
the stream of mining requests.  Every request asks for a sharded
(``workers: 2``) top-k nhp query, and every run checks answers against
the exact serial oracle ``GRMiner(push_topk=False)``.

Workloads (one closed-loop client: it sends its next request, or burst
of requests, when the last one returned):

``cold``    every request a query never asked before: each one misses
            the result cache and is mined on the fleet.
``cached``  cycling over 6 queries answered before timing starts:
            every timed request is a result-cache hit.
``dedup``   bursts of 6 identical concurrent requests, a new query per
            burst: single-flight dedup lets one execution answer all 6.

``--trace 0`` reports the end-to-end metrics: request latency p50/p90,
CPU per request of the whole server tree (server process plus worker
fleet, from ``/proc``) and set-up time — the median of five launches,
each timed from process start to the first answered query.
``--trace 1`` also fetches every job's server-side spans
(``GET /jobs/{id}/trace``) and reports the per-layer breakdown instead.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import client
from server import ServerProcess

ROOT = Path(__file__).resolve().parent.parent
NETWORK = "pokec"
WORKERS = 2
SETUPS = 5
#: Distinct queries per run whose answers are checked against the oracle.
VERIFY = 6
#: The first query of every launch; part of the timed set-up.
PROBE = {"k": 5, "min_support": 50, "min_nhp": 0.6, "workers": WORKERS}
#: Whole-run budget, leaving room to stop the server (at most 3 x 10 s)
#: within 180 s.
RUN_BUDGET_S = 140

WORKLOADS = ("cold", "cached", "dedup")
BURST = 6

END_TO_END = {"p50_ms": "ms", "p90_ms": "ms", "cpu_ms": "ms", "setup_s": "s"}


class _OutOfTime(Exception):
    pass


def _key(spec: dict) -> tuple:
    return spec["k"], spec["min_support"], spec["min_nhp"]


def fresh_specs(rng: random.Random):
    """Endless stream of distinct mining requests (never the probe).

    ``min_support`` sets most of a query's mining cost, so its range is
    kept narrow: the latency tail then reflects the server, not which
    queries a seed happened to draw.
    """
    seen = {_key(PROBE)}
    while True:
        spec = {
            "k": rng.randint(10, 20),
            "min_support": rng.randint(45, 55),
            "min_nhp": round(rng.uniform(0.45, 0.6), 4),
            "workers": WORKERS,
        }
        if _key(spec) not in seen:
            seen.add(_key(spec))
            yield spec


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
async def _closed_loop(port, burst, next_spec, deadline, trace):
    """One client sending ``burst`` identical concurrent requests at a time.

    A single client keeps each request from queueing behind another's:
    with 2 (cold) or 4 (cached) clients the latency depended on how many
    requests were ahead, and the median of that multimodal mix moved
    15-29% between runs.
    """
    samples: list[client.Sample] = []
    while True:
        spec = next_spec()
        samples.extend(await asyncio.gather(
            *(client.mine(port, NETWORK, spec, trace) for _ in range(burst))
        ))
        if time.perf_counter() >= deadline:
            return samples


async def drive(server: ServerProcess, workload: str, rng: random.Random,
                seconds: float, trace: bool) -> dict:
    """Run the workload's timed window plus its untimed warm-up and re-checks.

    CPU is read at the start, around the window and at the end: the
    window's share gives the end-to-end figure, the whole span the
    per-layer split (it then also covers the warm-up's mining).
    """
    port = server.port
    specs = fresh_specs(rng)
    untimed: list[client.Sample] = []
    cpu = [server.cpu_seconds()]
    if workload == "cached":
        hot = [next(specs) for _ in range(VERIFY)]
        for spec in hot:
            untimed.append(await client.mine(port, NETWORK, spec, trace))
    cpu.append(server.cpu_seconds())
    deadline = time.perf_counter() + seconds
    window = await _closed_loop(
        port,
        BURST if workload == "dedup" else 1,
        (lambda: rng.choice(hot)) if workload == "cached" else (lambda: next(specs)),
        deadline,
        trace,
    )
    cpu.append(server.cpu_seconds())
    # Ask a sample of the timed queries again: the answers must not change.
    distinct = list({_key(s.spec): s.spec for s in window}.values())
    for spec in rng.sample(distinct, min(VERIFY, len(distinct))):
        untimed.append(await client.mine(port, NETWORK, spec, trace))
    cpu.append(server.cpu_seconds())
    return {
        "window": window,
        "untimed": untimed,
        "window_cpu": sum(cpu[2]) - sum(cpu[1]),
        "server_cpu": cpu[3][0] - cpu[0][0],
        "fleet_cpu": cpu[3][1] - cpu[0][1],
    }


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def _signature(grs) -> list[tuple]:
    return [(g["gr"], round(g["score"], 9), g["support_count"]) for g in grs]


def verify(samples: list[client.Sample], network, rng: random.Random) -> list[str]:
    """Problems found in the served answers (empty when all are right).

    Every answer must be self-consistent, every query must get the same
    answer each time it is asked (mined, cached or deduplicated), and a
    sample of queries — the probe always among them — must equal the
    exact serial oracle truncated to k.
    """
    from repro import GRMiner

    problems = []
    answers: dict[tuple, set] = {}
    for sample in samples:
        if not sample.ok:
            continue
        grs = sample.payload["result"]["grs"]
        spec = sample.spec
        scores = [g["score"] for g in grs]
        if (
            len(grs) > spec["k"]
            or scores != sorted(scores, reverse=True)
            or any(g["score"] < spec["min_nhp"] for g in grs)
            or any(g["support_count"] < spec["min_support"] for g in grs)
        ):
            problems.append(f"answer to {spec} breaks k/order/threshold limits")
        answers.setdefault(_key(spec), set()).add(tuple(_signature(grs)))
    for key, seen in answers.items():
        if len(seen) != 1:
            problems.append(f"query {key} got {len(seen)} different answers")
    others = sorted(set(answers) - {_key(PROBE)})
    checked = [_key(PROBE)] + rng.sample(others, min(VERIFY, len(others)))
    for key in checked:
        k, min_support, min_nhp = key
        exact = GRMiner(
            network, k=k, min_support=min_support, min_score=min_nhp,
            push_topk=False,
        ).mine()
        expected = [(str(m.gr), round(m.score, 9), m.metrics.support_count)
                    for m in exact][:k]
        if answers.get(key) != {tuple(expected)}:
            problems.append(f"query {key} differs from the exact oracle")
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(outcome: dict, setup_times: list[float]) -> dict:
    window = outcome["window"]
    latencies = [s.seconds * 1e3 for s in window]
    return {
        "p50_ms": statistics.median(latencies),
        "p90_ms": statistics.quantiles(latencies, n=10)[8],
        "cpu_ms": outcome["window_cpu"] * 1e3 / len(window),
        "setup_s": statistics.median(setup_times),
    }


PER_LAYER = {
    # Times, mean ms per operation of the layer, over every traced request.
    "front_ms": "ms",        # per request: outside the job's spans (HTTP,
                             # JSON, and a deduplicated request's wait)
    "admit_wait_ms": "ms",   # per planned job: submit -> planning starts
    "plan_ms": "ms",         # per planned job: cache probe, plan, bus, lease
    "slot_wait_ms": "ms",    # per mined job: planned -> first shard sent
    "fleet_ms": "ms",        # per mined job: first shard sent -> last back
    "shard_ms": "ms",        # per shard: sent -> result back
    "merge_ms": "ms",        # per mined job: merging shard results
    "finalize_ms": "ms",     # per mined job: last shard back -> resolved
    # CPU of the server tree per traced request, split by process.
    "server_cpu_ms": "ms",
    "fleet_cpu_ms": "ms",
    # Counts over the timed window; the rest of the requests were mined.
    "requests": "count",
    "cache_hits": "count",
    "deduped": "count",
    "shards_per_job": "count",  # mean per mined job
    "grs_examined": "count",    # mean per mined job
}


def _spans_breakdown(sample: client.Sample) -> dict[str, list[float]]:
    """Split one traced request's latency over the layers its spans show."""
    spans = sample.trace["spans"] if sample.trace else []
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        name = "shard" if span["name"].startswith("shard-") else span["name"]
        by_name.setdefault(name, []).append(span)
    ends = [s["start_s"] + s["duration_s"] for s in spans]
    end = max(ends, default=0.0)
    out: dict[str, list[float]] = {"front_ms": [sample.seconds - end]}
    plan = by_name.get("plan", [])
    if plan:
        out["admit_wait_ms"] = [plan[0]["start_s"]]
        out["plan_ms"] = [plan[0]["duration_s"]]
    work = by_name.get("shard", []) + by_name.get("execute", [])
    if work:
        first = min(s["start_s"] for s in work)
        last = max(s["start_s"] + s["duration_s"] for s in work)
        planned = plan[0]["start_s"] + plan[0]["duration_s"] if plan else first
        out["slot_wait_ms"] = [first - planned]
        out["fleet_ms"] = [last - first]
        out["shard_ms"] = [s["duration_s"] for s in work]
        out["merge_ms"] = [sum(s["duration_s"] for s in by_name.get("merge", []))]
        out["finalize_ms"] = [end - last]
    return {name: [v * 1e3 for v in values] for name, values in out.items()}


def per_layer(outcome: dict) -> dict:
    window = outcome["window"]
    traced = outcome["untimed"] + window
    layers: dict[str, list[float]] = {}
    for sample in traced:
        for name, values in _spans_breakdown(sample).items():
            layers.setdefault(name, []).extend(values)
    metrics = {
        name: statistics.fmean(layers[name]) if layers.get(name) else 0.0
        for name, unit in PER_LAYER.items() if unit == "ms"
    }
    metrics["server_cpu_ms"] = outcome["server_cpu"] * 1e3 / len(traced)
    metrics["fleet_cpu_ms"] = outcome["fleet_cpu"] * 1e3 / len(traced)
    jobs = [s.payload["job"] for s in window if s.ok]
    mined = [s.payload for s in window
             if s.ok and not s.payload["job"]["cached"] and not s.payload["job"]["deduped"]]
    metrics["requests"] = len(window)
    metrics["cache_hits"] = sum(1 for job in jobs if job["cached"])
    metrics["deduped"] = sum(1 for job in jobs if job["deduped"])
    metrics["shards_per_job"] = statistics.fmean(
        p["job"]["shards_total"] for p in mined) if mined else 0.0
    metrics["grs_examined"] = statistics.fmean(
        p["result"]["stats"]["grs_examined"] for p in mined) if mined else 0.0
    return metrics


# ----------------------------------------------------------------------
def run(args, work: Path) -> dict:
    from repro.datasets import synthetic_pokec
    from repro.io import load_network, save_network

    data_dir = work / "data"
    save_network(
        synthetic_pokec(num_sources=800, num_edges=8_000, num_regions=16,
                        seed=args.seed),
        data_dir,
    )
    rng = random.Random(args.seed)
    setup_times: list[float] = []
    probes: list[client.Sample] = []
    server = None
    try:
        for launch in range(SETUPS):
            server = ServerProcess(ROOT, data_dir, NETWORK, WORKERS, work / "server.log")
            started = time.perf_counter()
            server.start()
            probes.append(asyncio.run(client.mine(server.port, NETWORK, PROBE, False)))
            setup_times.append(time.perf_counter() - started)
            if launch < SETUPS - 1:
                server.stop()
                server = None
        outcome = asyncio.run(
            drive(server, args.workload, rng, args.seconds, bool(args.trace))
        )
    finally:
        if server is not None:
            server.stop()
    window = outcome["window"]
    failed = sum(1 for s in window if not s.ok)
    problems = [f"untimed request failed with status {s.status}"
                for s in probes + outcome["untimed"] if not s.ok]
    problems += [f"{failed} of {len(window)} timed requests failed"] if failed else []
    problems += verify(probes + outcome["untimed"] + window, load_network(data_dir), rng)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if args.trace:
        values, units = per_layer(outcome), PER_LAYER
    else:
        values, units = end_to_end(outcome, setup_times), END_TO_END
    return {
        "correct": not problems,
        "attempted": len(window),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    def out_of_time(signum, frame):
        raise _OutOfTime(f"run exceeded {RUN_BUDGET_S}s")

    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(RUN_BUDGET_S)
    scratch = ROOT / "perfbench" / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        result = run(args, work)
    except Exception:
        log = work / "server.log"
        if log.is_file():
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
        raise
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
