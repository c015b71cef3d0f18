"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``   Write a synthetic dataset (toy / pokec / dblp / financial)
               to a CSV directory.
``info``       Print a dataset's schema, sizes and homophily report.
``mine``       Run GRMiner on a CSV directory and print the top-k GRs.
``sweep``      Run a parameter grid through one long-lived MiningEngine
               (store built/exported once, one worker fleet, cached
               results) and print the per-combo summary table.
``hub``        Register several named CSV datasets behind one EngineHub
               (one shared fleet, per-network leases, optional
               disk-persisted result cache) and sweep the grid against
               each named network in turn.
``serve``      Serve registered datasets over HTTP through the async
               scheduler (``repro.serve``): request priorities,
               deadlines, cooperative cancellation and weighted-fair
               interleaving of many concurrent clients over one fleet.
``compare``    Print the Table II style nhp-vs-conf comparison.
``homophily``  Suggest homophily attributes from the data.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analysis.homophily import homophily_report, suggest_homophily_attributes
from .analysis.summary import format_result, format_table2
from .core.baselines import ConfidenceMiner
from .core.kernels import KERNEL_TIERS
from .core.miner import mine_top_k
from .data.network import SocialNetwork
from .io.loaders import load_network, save_network

__all__ = ["main", "build_parser"]


def _parse_min_support(text: str) -> int | float:
    """Accept either an absolute count ("50") or a fraction ("0.001")."""
    value = float(text)
    if value >= 1.0 and value == int(value):
        return int(value)
    return value


def _parse_workers(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("--workers must be a positive process count")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mine top-k group relationships beyond homophily (ICDE 2016).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset to CSV")
    gen.add_argument("dataset", choices=("toy", "pokec", "dblp", "financial"))
    gen.add_argument("directory", help="output directory")
    gen.add_argument("--nodes", type=int, default=None, help="source-node count")
    gen.add_argument("--edges", type=int, default=None, help="edge count")
    gen.add_argument("--seed", type=int, default=None)

    info = sub.add_parser("info", help="print dataset statistics")
    info.add_argument("directory")

    mine = sub.add_parser("mine", help="run GRMiner on a CSV dataset")
    _add_mining_arguments(mine)

    sweep = sub.add_parser(
        "sweep", help="run a parameter grid through one MiningEngine"
    )
    sweep.add_argument("directory", help="CSV dataset directory")
    _add_grid_arguments(sweep)
    sweep.add_argument(
        "--homophily", nargs="*", default=None,
        help="override the schema's homophily attributes",
    )
    sweep.add_argument(
        "--attributes", nargs="*", default=None, help="restrict node attributes"
    )

    hub = sub.add_parser(
        "hub", help="serve several named datasets through one EngineHub"
    )
    hub.add_argument(
        "--register",
        action="append",
        required=True,
        metavar="NAME=DIR",
        help="register the CSV dataset in DIR under NAME (repeatable)",
    )
    hub.add_argument(
        "--mine",
        action="append",
        default=None,
        metavar="NAME",
        help="mine the parameter grid against this network; repeat to "
        "interleave traffic (default: every registered network once)",
    )
    _add_grid_arguments(hub)
    _add_hub_resource_arguments(hub)

    serve = sub.add_parser(
        "serve", help="serve datasets over HTTP through the async scheduler"
    )
    serve.add_argument(
        "--register",
        action="append",
        required=True,
        metavar="NAME=DIR",
        help="register the CSV dataset in DIR under NAME (repeatable)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8765, help="bind port (0 = any)")
    serve.add_argument(
        "--workers",
        type=_parse_workers,
        default=None,
        metavar="N",
        help="shared fleet size (default: cpu count)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="fleet slots the scheduler keeps occupied (default: fleet size)",
    )
    serve.add_argument(
        "--weight",
        action="append",
        default=None,
        metavar="NAME=W",
        help="fair-share weight for a network (default 1.0; repeatable)",
    )
    _add_hub_resource_arguments(serve)

    compare = sub.add_parser("compare", help="Table II style nhp-vs-conf comparison")
    _add_mining_arguments(compare)
    compare.add_argument("--rows", type=int, default=5)

    hom = sub.add_parser("homophily", help="suggest homophily attributes")
    hom.add_argument("directory")
    hom.add_argument("--threshold", type=float, default=0.1)
    return parser


def _add_hub_resource_arguments(parser: argparse.ArgumentParser) -> None:
    """Cache/lease resource options shared by ``hub`` and ``serve``."""
    parser.add_argument(
        "--disk-cache",
        default=None,
        metavar="PATH",
        help="persist the result cache to this sqlite file — a restarted "
        "hub answers repeated queries without re-mining",
    )
    parser.add_argument(
        "--disk-cache-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="evict least-recently-used disk-cache rows over this total",
    )
    parser.add_argument(
        "--disk-cache-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="expire disk-cache rows not served within this window",
    )
    parser.add_argument(
        "--lease-budget-bytes",
        type=int,
        default=None,
        metavar="N",
        help="evict least-recently-served store exports over this total",
    )


def _parse_registrations(specs: Sequence[str]) -> list[tuple[str, str]]:
    registrations: list[tuple[str, str]] = []
    for spec in specs:
        name, sep, directory = spec.partition("=")
        if not sep or not name or not directory:
            raise SystemExit(f"--register expects NAME=DIR, got {spec!r}")
        registrations.append((name, directory))
    return registrations


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """The parameter-grid options shared by ``sweep`` and ``hub``."""
    parser.add_argument(
        "-k", type=int, nargs="+", default=[10], help="result sizes to sweep"
    )
    parser.add_argument(
        "--min-support",
        type=_parse_min_support,
        nargs="+",
        default=[1],
        help="support thresholds to sweep (absolute >=1 or fraction <1)",
    )
    parser.add_argument(
        "--min-nhp", type=float, nargs="+", default=[0.5], help="score thresholds"
    )
    parser.add_argument(
        "--rank-by",
        choices=("nhp", "confidence", "laplace", "gain"),
        nargs="+",
        default=["nhp"],
        help="ranking metrics to sweep",
    )
    parser.add_argument(
        "--kernel",
        choices=KERNEL_TIERS,
        default=None,
        help="candidate-evaluation kernel tier (execution detail: the "
        "answer and the result cache key are tier-independent)",
    )
    parser.add_argument(
        "--workers",
        type=_parse_workers,
        default=None,
        metavar="N",
        help="serve every combo through a shared N-process fleet "
        "(default: one worker per CPU)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the per-query rows and engine/hub stats as JSON",
    )


def _result_cached(result, mined_ids: set[int]) -> bool:
    """Was this sweep row served without mining?

    Two mechanisms: the engine tags cache-hit *snapshots* with
    ``params["cached"]``, while in-batch duplicates (two grid points
    canonicalizing to one key inside a single ``sweep()`` call) are the
    very same object as their mined sibling — caught by identity.
    Reporting the sibling's runtime again would double-count wall time.
    """
    cached = id(result) in mined_ids or bool(result.params.get("cached"))
    mined_ids.add(id(result))
    return cached


def _add_mining_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("directory", help="CSV dataset directory")
    parser.add_argument("-k", type=int, default=10, help="result size (top-k)")
    parser.add_argument(
        "--min-support",
        type=_parse_min_support,
        default=1,
        help="absolute count (>=1) or fraction (<1) of |E|",
    )
    parser.add_argument("--min-nhp", type=float, default=0.5)
    parser.add_argument(
        "--rank-by", choices=("nhp", "confidence", "laplace", "gain"), default="nhp"
    )
    parser.add_argument(
        "--kernel",
        choices=KERNEL_TIERS,
        default=None,
        help="candidate-evaluation kernel tier (default: vector; the "
        "answer never depends on the tier)",
    )
    parser.add_argument(
        "--homophily",
        nargs="*",
        default=None,
        help="override the schema's homophily attributes",
    )
    parser.add_argument(
        "--attributes", nargs="*", default=None, help="restrict node attributes"
    )
    parser.add_argument(
        "--workers",
        type=_parse_workers,
        default=None,
        metavar="N",
        help="mine with N sharded worker processes, on a one-query engine "
        "of N workers; default is the serial GRMiner",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="also write the result to this path (.csv or .json)",
    )


def _load(directory: str, homophily: Sequence[str] | None) -> SocialNetwork:
    network = load_network(directory)
    if homophily is not None:
        network = network.with_homophily(homophily)
    return network


def _cmd_generate(args: argparse.Namespace) -> int:
    from .datasets import (
        synthetic_dblp,
        synthetic_financial,
        synthetic_pokec,
        toy_dating_network,
    )

    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.dataset == "toy":
        network = toy_dating_network()
    elif args.dataset == "pokec":
        if args.nodes is not None:
            kwargs["num_sources"] = args.nodes
        if args.edges is not None:
            kwargs["num_edges"] = args.edges
        network = synthetic_pokec(**kwargs)
    elif args.dataset == "dblp":
        if args.nodes is not None:
            kwargs["num_authors"] = args.nodes
        if args.edges is not None:
            kwargs["num_links"] = args.edges // 2
        network = synthetic_dblp(**kwargs)
    else:
        if args.nodes is not None:
            kwargs["num_nodes"] = args.nodes
        if args.edges is not None:
            kwargs["num_edges"] = args.edges
        network = synthetic_financial(**kwargs)
    path = save_network(network, args.directory)
    print(f"wrote {network} to {path}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    network = load_network(args.directory)
    print(network)
    print("node attributes:")
    for attr in network.schema.node_attributes:
        flag = " (homophily)" if attr.homophily else ""
        print(f"  {attr.name}{flag}: {attr.domain_size} values")
    for attr in network.schema.edge_attributes:
        print(f"  [edge] {attr.name}: {attr.domain_size} values")
    report = homophily_report(network)
    print("homophily report (assortativity / propensity):")
    for name, stats in report.items():
        print(f"  {name}: {stats['assortativity']:+.3f} / {stats['propensity']:.2f}")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    network = _load(args.directory, args.homophily)
    params = dict(
        min_support=args.min_support,
        min_nhp=args.min_nhp,
        k=args.k,
        rank_by=args.rank_by,
        node_attributes=args.attributes,
        workers=args.workers,
    )
    if getattr(args, "kernel", None) is not None:
        params["kernel"] = args.kernel
    result = mine_top_k(network, **params)
    print(format_result(result, title=f"Top-{args.k} GRs by {args.rank_by}"))
    stats = result.stats
    print(
        f"\n[{stats.grs_examined} GRs examined, {stats.candidates} candidates, "
        f"{stats.runtime_seconds:.3f}s]"
    )
    if args.output:
        from .analysis.summary import result_to_csv, result_to_json

        if args.output.endswith(".json"):
            path = result_to_json(result, args.output)
        else:
            path = result_to_csv(result, args.output)
        print(f"wrote {len(result)} GRs to {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import itertools

    from .bench.harness import format_series
    from .engine import MineRequest, MiningEngine

    network = _load(args.directory, args.homophily)
    options = {}
    if args.attributes is not None:
        options["node_attributes"] = tuple(args.attributes)
    if args.kernel is not None:
        options["kernel"] = args.kernel
    requests = [
        MineRequest.create(
            k=k,
            min_support=min_support,
            min_nhp=min_nhp,
            rank_by=rank_by,
            workers=args.workers,
            **options,
        )
        for k, min_support, min_nhp, rank_by in itertools.product(
            args.k, args.min_support, args.min_nhp, args.rank_by
        )
    ]
    rows = []
    with MiningEngine(network, workers=args.workers) as engine:
        results = engine.sweep(requests)
        mined: set[int] = set()
        for request, result in zip(requests, results):
            cached = _result_cached(result, mined)
            rows.append(
                {
                    "k": request.k,
                    "minSupp": request.min_support,
                    "minNhp": request.min_nhp,
                    "rank_by": request.rank_by,
                    "grs": len(result),
                    # None (→ JSON null) for empty points; NaN is not
                    # valid strict JSON.
                    "best": result[0].score if len(result) else None,
                    "time (s)": 0.0 if cached else result.stats.runtime_seconds,
                    "cached": cached,
                }
            )
        stats = engine.hub.aggregate_stats()
    print(format_series(rows, title=f"Sweep of {len(requests)} queries — {network}"))
    print(
        f"\n[engine: {stats['exports']} store export(s), "
        f"{stats['pool_spawns']} pool spawn(s), {stats['cache_hits']} cache hit(s) "
        f"across {stats['queries']} queries]"
    )
    if args.json:
        import json

        payload = {"rows": rows, "engine": stats}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_hub(args: argparse.Namespace) -> int:
    import itertools

    from .bench.harness import format_series
    from .engine import EngineHub

    registrations = _parse_registrations(args.register)
    targets = args.mine if args.mine else [name for name, _ in registrations]

    grid = list(
        itertools.product(args.k, args.min_support, args.min_nhp, args.rank_by)
    )
    rows = []
    with EngineHub(
        workers=args.workers,
        disk_cache=args.disk_cache,
        disk_cache_max_bytes=args.disk_cache_max_bytes,
        disk_cache_ttl_seconds=args.disk_cache_ttl,
        lease_budget_bytes=args.lease_budget_bytes,
    ) as hub:
        for name, directory in registrations:
            hub.register(name, load_network(directory))
        from .engine import MineRequest

        options = {} if args.kernel is None else {"kernel": args.kernel}
        requests = [
            MineRequest.create(
                k=k,
                min_support=min_support,
                min_nhp=min_nhp,
                rank_by=rank_by,
                workers=args.workers,
                **options,
            )
            for k, min_support, min_nhp, rank_by in grid
        ]
        for name in targets:
            mined: set[int] = set()
            for request, result in zip(requests, hub.sweep(name, requests)):
                cached = _result_cached(result, mined)
                rows.append(
                    {
                        "network": name,
                        "k": request.k,
                        "minSupp": request.min_support,
                        "minNhp": request.min_nhp,
                        "rank_by": request.rank_by,
                        "grs": len(result),
                        "best": result[0].score if len(result) else None,
                        "time (s)": 0.0 if cached else result.stats.runtime_seconds,
                        "cached": cached,
                    }
                )
        stats = hub.aggregate_stats()
    print(
        format_series(
            rows,
            title=(
                f"Hub sweep: {len(targets)} network visit(s) × {len(grid)} "
                f"grid point(s) over {len(registrations)} registered network(s)"
            ),
        )
    )
    print(
        f"\n[hub: {stats['pool_spawns']} pool spawn(s), {stats['exports']} store "
        f"export(s), {stats['cache_hits']} cache hit(s) across "
        f"{stats['queries']} queries, {stats['lease_evictions']} lease "
        f"eviction(s), {stats['resident_leases']} resident lease(s)]"
    )
    if args.json:
        import json

        payload = {"rows": rows, "hub": stats}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .engine import EngineHub
    from .serve import Scheduler, ServeHTTP

    registrations = _parse_registrations(args.register)
    weights: list[tuple[str, float]] = []
    for spec in args.weight or ():
        name, sep, value = spec.partition("=")
        if not sep or not name:
            raise SystemExit(f"--weight expects NAME=W, got {spec!r}")
        try:
            weights.append((name, float(value)))
        except ValueError:
            raise SystemExit(f"--weight expects a number, got {spec!r}") from None

    async def _serve() -> int:
        with EngineHub(
            workers=args.workers,
            disk_cache=args.disk_cache,
            disk_cache_max_bytes=args.disk_cache_max_bytes,
            disk_cache_ttl_seconds=args.disk_cache_ttl,
            lease_budget_bytes=args.lease_budget_bytes,
        ) as hub:
            for name, directory in registrations:
                hub.register(name, load_network(directory))
                print(f"registered {name!r} from {directory}")
            async with Scheduler(hub, max_inflight=args.max_inflight) as scheduler:
                for name, weight in weights:
                    scheduler.set_weight(name, weight)
                async with ServeHTTP(scheduler, args.host, args.port) as server:
                    print(
                        f"serving {len(registrations)} network(s) on "
                        f"http://{args.host}:{server.port} "
                        f"({hub.workers} workers, {scheduler.slots} slots) — "
                        "Ctrl-C to stop"
                    )
                    try:
                        await server.serve_forever()
                    except asyncio.CancelledError:
                        pass
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nstopped")
        return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    network = _load(args.directory, args.homophily)
    common = dict(
        min_support=args.min_support,
        k=args.k,
        node_attributes=args.attributes,
    )
    if getattr(args, "kernel", None) is not None:
        common["kernel"] = args.kernel
    nhp_result = mine_top_k(
        network, min_nhp=args.min_nhp, workers=args.workers, **common
    )
    conf_result = ConfidenceMiner(network, min_score=args.min_nhp, **common).mine()
    print(format_table2(nhp_result, conf_result, rows=args.rows))
    return 0


def _cmd_homophily(args: argparse.Namespace) -> int:
    network = load_network(args.directory)
    suggested = suggest_homophily_attributes(network, args.threshold)
    report = homophily_report(network)
    for name, stats in report.items():
        marker = " *" if name in suggested else ""
        print(f"{name}: assortativity={stats['assortativity']:+.3f}{marker}")
    print("suggested homophily attributes:", " ".join(suggested) or "(none)")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "info": _cmd_info,
    "mine": _cmd_mine,
    "sweep": _cmd_sweep,
    "hub": _cmd_hub,
    "serve": _cmd_serve,
    "compare": _cmd_compare,
    "homophily": _cmd_homophily,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
