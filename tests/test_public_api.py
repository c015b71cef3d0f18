"""Public API surface: imports, __all__ hygiene, docstring examples."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.parallel",
    "repro.data",
    "repro.datasets",
    "repro.analysis",
    "repro.io",
    "repro.cube",
    "repro.sortutil",
    "repro.bench",
]


class TestImports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_package_imports(self, package):
        importlib.import_module(package)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_version(self):
        import repro

        assert repro.__version__


class TestTopLevelConvenience:
    def test_everything_needed_for_quickstart_is_top_level(self):
        import repro

        for name in (
            "GR",
            "Descriptor",
            "GRMiner",
            "MetricEngine",
            "SocialNetwork",
            "Schema",
            "Attribute",
            "mine_top_k",
        ):
            assert hasattr(repro, name)

    def test_mine_top_k_docstring_example(self):
        from repro import mine_top_k
        from repro.datasets import toy_dating_network

        result = mine_top_k(toy_dating_network(), k=5, min_support=2, min_nhp=0.5)
        assert len(result) == 5

    def test_module_docstrings_exist(self):
        """Every public module is documented."""
        for package in PACKAGES:
            module = importlib.import_module(package)
            assert module.__doc__, f"{package} lacks a docstring"

    def test_public_classes_documented(self):
        from repro import (
            GR,
            CompactStore,
            Descriptor,
            GRMetrics,
            GRMiner,
            MetricEngine,
            MiningResult,
            Schema,
            SocialNetwork,
        )

        for cls in (
            GR,
            CompactStore,
            Descriptor,
            GRMetrics,
            GRMiner,
            MetricEngine,
            MiningResult,
            Schema,
            SocialNetwork,
        ):
            assert cls.__doc__ and len(cls.__doc__) > 20, cls
