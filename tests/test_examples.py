"""Every example script runs end-to-end and prints its key findings.

Each script runs as a subprocess the way the README runs it, with
``PYTHONPATH=src`` and nothing else on the path, and must exit 0.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def _run(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=ROOT,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestQuickstart:
    def test_runs_and_reports_gr4(self):
        out = _run("quickstart.py")
        assert "GR4" in out
        assert "nhp  = 100.0%" in out
        assert "Top-5 GRs" in out
        # GRMiner(k) is exact: the table lists all k = 5 GRs.
        table = out.split("Top-5 GRs", 1)[1]
        assert re.findall(r"^  (\d+)\. ", table, re.MULTILINE) == list("12345")


class TestPokecExample:
    def test_runs_with_reduced_size(self):
        out = _run("pokec_interestingness.py", "--edges", "20000", "--sources", "2000")
        assert "Table IIa (synthetic)" in out
        assert "Ranked by nhp" in out
        assert "P207" in out
        assert "Secondary" in out


class TestDBLPExample:
    def test_runs_and_explains_d2(self):
        out = _run("dblp_interestingness.py")
        assert "Table IIb (synthetic)" in out
        assert "D2" in out
        assert "Productivity=Poor" in out


class TestFinancialExample:
    def test_runs_and_recommends_bonds(self):
        out = _run("financial_promotion.py")
        assert "Promote BONDS" in out
        assert "nhp" in out


class TestAlternativeMetricsExample:
    def test_runs_all_five_metrics(self):
        out = _run("alternative_metrics.py")
        for metric in ("laplace", "gain", "lift", "conviction", "piatetsky_shapiro"):
            assert metric in out
        assert "data skew" in out
