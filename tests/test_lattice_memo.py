"""Soundness of the enumeration-lattice memo kept on a miner skeleton.

A skeleton memoises every ``l ∧ w`` node it builds — edge subsets, child
partitions, RIGHT histograms and homophily counts — and reuses them
across queries.  The memo may only ever change *speed*: a warm skeleton
must return the GRs *and* the effort counters of a fresh one, whatever
the earlier queries were, on both kernel tiers; a store delta must never
let a node of the old edge set answer for the new one; and the process
byte cap must hold without changing a single answer.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import miner as miner_module
from repro.core.miner import GRMiner, MinerConfig
from repro.datasets.random_graphs import random_attributed_network, random_schema
from repro.engine import MineRequest, MiningEngine
from repro.serve.http import result_payload

RANK_METRICS = ("nhp", "confidence", "laplace", "gain")


def _signature(result):
    return [
        (
            str(m.gr),
            m.score,
            m.metrics.support_count,
            m.metrics.lw_count,
            m.metrics.homophily_count,
        )
        for m in result
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


def _build(seed: int, num_node_attrs: int = 3):
    schema = random_schema(
        num_node_attrs=num_node_attrs,
        num_edge_attrs=1,
        max_domain=3,
        num_homophily=2,
        seed=seed,
    )
    return random_attributed_network(
        schema, num_nodes=20, num_edges=120, homophily_strength=0.5, seed=seed
    )


_NETWORKS = {}


def _network(seed: int):
    if seed not in _NETWORKS:
        _NETWORKS[seed] = _build(seed)
    return _NETWORKS[seed]


@st.composite
def _configs(draw, names):
    """One query re-arm: every field the memo layout or traversal reads."""
    if draw(st.booleans()):
        order = draw(st.permutations(names))
        node_attributes = tuple(order[: draw(st.integers(1, len(order)))])
    else:
        node_attributes = None
    return MinerConfig(
        node_attributes=node_attributes,
        dynamic_rhs_ordering=draw(st.booleans()),
        # 0 and 1 keep every non-empty value: the cut at the list's end.
        min_support=draw(st.integers(0, 8)),
        min_score=draw(st.sampled_from([0.0, 0.2, 0.5])),
        k=draw(st.sampled_from([None, 3, 8])),
        rank_by=draw(st.sampled_from(RANK_METRICS)),
        push_topk=draw(st.booleans()),
        push_score_pruning=draw(st.booleans()),
        apply_generality=draw(st.booleans()),
        allow_empty_lhs=draw(st.booleans()),
        max_lhs_attrs=draw(st.sampled_from([None, 1, 2])),
        max_rhs_attrs=draw(st.sampled_from([None, 1, 2])),
        max_edge_attrs=draw(st.sampled_from([None, 0, 1])),
        include_trivial=draw(st.sampled_from([None, True, False])),
    )


def _with_tier(config: MinerConfig, tier: str) -> MinerConfig:
    fields = {
        name: getattr(config, name) for name in MinerConfig.__dataclass_fields__
    }
    fields["kernel"] = tier
    return MinerConfig(**fields)


class TestWarmSkeletonEqualsFresh:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data(), seed=st.integers(0, 3))
    def test_rearmed_stream_matches_fresh_miners_on_both_tiers(self, data, seed):
        network = _network(seed)
        names = network.schema.node_attribute_names
        stream = data.draw(st.lists(_configs(names), min_size=3, max_size=5))
        for tier in ("reference", "vector"):
            skeleton = None
            for config in stream:
                config = _with_tier(config, tier)
                if skeleton is None:
                    skeleton = GRMiner(network, config=config)
                else:
                    skeleton.rearm(config)
                warm = skeleton.mine()
                fresh = GRMiner(network, config=config).mine()
                assert _signature(warm) == _signature(fresh)
                assert _counters(warm.stats) == _counters(fresh.stats)

    def test_attribute_selection_rearm_after_warm_up(self):
        # A memo keyed without the attribute selection would hand the
        # re-armed query histograms laid out for another arena.
        network = _network(1)
        names = network.schema.node_attribute_names
        base = dict(k=8, min_support=2, min_score=0.2)
        skeleton = GRMiner(network, **base)
        skeleton.mine()
        for selection in (names[::-1], names[1:], names[:2], names):
            config = MinerConfig(node_attributes=tuple(selection), **base)
            warm = skeleton.rearm(config).mine()
            fresh = GRMiner(network, config=config).mine()
            assert _signature(warm) == _signature(fresh)
            assert _counters(warm.stats) == _counters(fresh.stats)

    def test_second_run_is_served_by_the_memo(self):
        network = _network(2)
        skeleton = GRMiner(network, k=5, min_support=3, min_score=0.3)
        first = skeleton.mine()
        second = skeleton.rearm(MinerConfig(k=9, min_support=4, min_score=0.5)).mine()
        assert first.params["lw_memo_hits"] == 0
        assert first.params["lw_memo_misses"] == first.stats.lw_nodes
        # A higher minSupp visits a subset of the nodes already built.
        assert second.params["lw_memo_misses"] == 0
        assert second.params["lw_memo_hits"] == second.stats.lw_nodes


def _engine_request(workers, k=6, min_support=2, min_nhp=0.3):
    # Engine answers are exact with or without push_topk, so the two
    # parametrizations cover both collectors against one oracle.
    return MineRequest.create(
        k=k,
        min_support=min_support,
        min_nhp=min_nhp,
        workers=workers,
        push_topk=workers is not None,
    )


def _oracle(network, request):
    exact = GRMiner(
        network,
        k=request.k,
        min_support=request.min_support,
        min_score=request.min_nhp,
        push_topk=False,
    ).mine()
    return [(str(m.gr), round(m.score, 9)) for m in exact][: request.k]


def _answer(result):
    return [(str(m.gr), round(m.score, 9)) for m in result]


class TestStoreDeltaDropsTheMemo:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_warm_engine_then_append_edges_matches_oracle(self, workers):
        network = _build(7)
        rng = np.random.default_rng(3)
        warm_up = [_engine_request(workers, min_support=s) for s in (2, 3, 5)]
        after = [_engine_request(workers, k=9, min_support=s) for s in (2, 4)]
        with MiningEngine(network, workers=2) as engine:
            for request in warm_up:
                assert _answer(engine.mine(request)) == _oracle(network, request)
            count = 30
            engine.append_edges(
                rng.integers(0, network.num_nodes, count),
                rng.integers(0, network.num_nodes, count),
                {
                    name: rng.integers(
                        0, network.schema.edge_attribute(name).domain_size + 1, count
                    )
                    for name in network.schema.edge_attribute_names
                },
            )
            for request in warm_up + after:
                assert _answer(engine.mine(request)) == _oracle(network, request)

    def test_attachment_eviction_drops_its_memo(self):
        from repro.data.store import CompactStore
        from repro.parallel.worker import WorkerState, _shard_miner, _task_attachment

        state = WorkerState(refresh_every=64, max_attachments=1)
        leases = [CompactStore(_build(seed)).lease_shared() for seed in (1, 2)]
        try:
            attachment = _task_attachment(state, leases[0].handle)
            miner = _shard_miner(attachment, MinerConfig(k=5, min_support=2))
            miner.mine()
            assert miner.memo_bytes > 0
            _task_attachment(state, leases[1].handle)  # evicts the first
            assert attachment.miner is None
            assert miner.memo_bytes == 0
        finally:
            state.attachments.clear()
            for lease in leases:
                lease.close()


class TestByteCap:
    def test_tiny_cap_keeps_answers_exact_and_bounds_held_bytes(self, monkeypatch):
        network = _network(3)
        stream = [
            MinerConfig(k=8, min_support=s, min_score=score, rank_by=rank_by)
            for s, score, rank_by in (
                (1, 0.2, "nhp"),
                (2, 0.0, "confidence"),
                (1, 0.5, "nhp"),
                (3, 0.2, "laplace"),
            )
        ]
        expected = [GRMiner(network, config=config).mine() for config in stream]
        cap = 24_000
        monkeypatch.setattr(miner_module, "LATTICE_BYTE_CAP", cap)
        skeleton = GRMiner(network, config=stream[0])
        hits = misses = 0
        for config, want in zip(stream, expected):
            got = skeleton.rearm(config).mine()
            assert _signature(got) == _signature(want)
            assert _counters(got.stats) == _counters(want.stats)
            assert miner_module._PROCESS.held <= cap
            hits += got.params["lw_memo_hits"]
            misses += got.params["lw_memo_misses"]
        # The cap bit (some nodes stayed transient) yet the memo served.
        assert 0 < skeleton.memo_bytes <= cap
        assert hits > 0 and misses > 0
        assert misses > expected[0].stats.lw_nodes

    def test_clear_memo_returns_bytes(self):
        skeleton = GRMiner(_network(0), k=5, min_support=2)
        skeleton.mine()
        held = skeleton.memo_bytes
        assert held > 0
        before = miner_module._PROCESS.held
        skeleton.clear_memo()
        assert skeleton.memo_bytes == 0
        assert miner_module._PROCESS.held == before - held
        again = skeleton.mine()
        assert again.params["lw_memo_hits"] == 0


class TestReuseIsExplained:
    @pytest.mark.parametrize("workers", [None, 1])
    def test_engine_params_report_memo_counts_for_mined_jobs(self, workers):
        # On a one-worker fleet every shard runs on the same worker
        # skeleton, so which nodes the second query finds built is
        # deterministic.  (With two workers, which worker draws which
        # shard decides the hits.)
        network = _build(5)
        with MiningEngine(network, workers=1) as engine:
            first = engine.mine(_engine_request(workers, min_support=2))
            second = engine.mine(_engine_request(workers, min_support=3))
            again = engine.mine(_engine_request(workers, min_support=3))
        assert first.params["lw_memo_hits"] == 0
        assert first.params["lw_memo_misses"] == first.stats.lw_nodes
        assert second.params["lw_memo_hits"] == second.stats.lw_nodes
        assert second.params["lw_memo_misses"] == 0
        # A cache hit reports what the job that mined it reused.
        assert again.params["cached"] is True
        assert again.params["lw_memo_hits"] == second.params["lw_memo_hits"]
        payload = result_payload(second)["params"]
        assert payload["lw_memo_hits"] == second.params["lw_memo_hits"]
        assert payload["lw_memo_misses"] == 0
