"""Shared datasets and helpers for the benchmark suite.

All benches run on fixed-seed synthetic datasets (``repro.datasets``).  The
Pokec-style network is scaled to laptop size; the DBLP-style network is
at the paper's original scale.  Generated artifacts (the Table II
texts, the Fig. 4 series) are written to ``benchmarks/out/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.datasets import synthetic_dblp, synthetic_pokec

#: The four node attributes the paper uses for the Fig. 4 sweeps
#: ("the four node attributes with largest domain sizes"), dims = 8.
FIG4_ATTRIBUTES = ("Age", "Region", "Education", "Looking-For")
#: Attribute order for the Fig. 4d dimensionality sweep (l = 2..6).
DIMENSIONALITY_ORDER = (
    "Age",
    "Region",
    "Education",
    "Looking-For",
    "Gender",
    "Marital",
)
#: Fig. 4 default parameters (Section VI-D): absolute minSupp 50,
#: minNhp 50%, k = 100.
FIG4_DEFAULTS = dict(min_support=50, min_score=0.5, k=100)

OUT_DIR = Path(__file__).resolve().parent / "out"


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def pokec_bench():
    """Scaled Pokec-style workload for the runtime comparisons."""
    return synthetic_pokec(
        num_sources=4000, num_edges=40_000, num_regions=24, seed=20160516
    )


@pytest.fixture(scope="session")
def pokec_table():
    """Larger sample for the Table IIa interestingness study."""
    return synthetic_pokec(num_sources=6000, num_edges=60_000, seed=20160516)


@pytest.fixture(scope="session")
def dblp_bench():
    """DBLP-style network at the paper's scale (28.7k authors)."""
    return synthetic_dblp(seed=20160517)


def write_artifact(out_dir: Path, name: str, text: str) -> None:
    """Persist a regenerated table/series under benchmarks/out/."""
    (out_dir / name).write_text(text + "\n")
