"""The independent oracle that engine, hub and served answers are
checked against.

A plain module rather than a ``conftest.py`` helper: ``benchmarks/``
has a ``conftest.py`` of its own, so ``from conftest import …``
resolves to whichever of the two was imported first.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.miner import GRMiner
from repro.core.results import MiningResult
from repro.data.network import SocialNetwork
from repro.engine import MineRequest


def oracle(network: SocialNetwork, request: MineRequest) -> MiningResult:
    """The answer ``request`` must get, GR for GR: the index-only serial
    miner (``push_topk=False``), whose collector keeps the top k.  It
    runs no fleet, shard or generality verifier, so it stays independent
    of the code it checks."""
    config = replace(request, push_topk=False).to_config()
    return GRMiner(network, config=config).mine()
