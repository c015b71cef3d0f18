"""Core GR mining: the paper's primary contribution."""

from .baselines import BL1Miner, BL2Miner, ConfidenceMiner
from .bruteforce import BruteForceMiner, enumerate_all_grs
from .descriptors import GR, Descriptor, gr_from_codes
from .enumeration import Token, dynamic_rhs_order, iter_subsets_sfdf, static_tau
from .interestingness import (
    AlternativeMetricMiner,
    AlternativeMetrics,
    conviction,
    evaluate_alternatives,
    gain,
    laplace,
    lift,
    piatetsky_shapiro,
)
from .kernels import DEFAULT_KERNEL, KERNEL_TIERS
from .metrics import GRMetrics, MetricEngine
from .miner import GRMiner, MinerConfig, mine_top_k
from .results import MinedGR, MiningResult, MiningStats
from .topk import GeneralityIndex, TopKCollector

__all__ = [
    "AlternativeMetricMiner",
    "AlternativeMetrics",
    "BL1Miner",
    "BL2Miner",
    "BruteForceMiner",
    "ConfidenceMiner",
    "DEFAULT_KERNEL",
    "Descriptor",
    "GR",
    "GRMetrics",
    "GRMiner",
    "GeneralityIndex",
    "KERNEL_TIERS",
    "MetricEngine",
    "MinedGR",
    "MinerConfig",
    "MiningResult",
    "MiningStats",
    "Token",
    "TopKCollector",
    "conviction",
    "dynamic_rhs_order",
    "enumerate_all_grs",
    "evaluate_alternatives",
    "gain",
    "gr_from_codes",
    "iter_subsets_sfdf",
    "laplace",
    "lift",
    "mine_top_k",
    "piatetsky_shapiro",
    "static_tau",
]
