"""Contract tests for the public API surface."""

import inspect
import os
import re

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestPublicSurface:
    def test_all_is_sorted(self):
        assert list(repro.__all__) == sorted(repro.__all__)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_no_private_names_exported(self):
        assert not any(name.startswith("_") for name in repro.__all__)

    def test_version_is_semver_ish(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_version_is_the_newest_changelog_release(self):
        """pyproject.toml reads its version from ``repro.__version__``,
        so the package, every manifest and the CHANGELOG agree."""
        with open(os.path.join(ROOT, "CHANGELOG.md")) as handle:
            newest = re.search(r"^## (\d+\.\d+\.\d+)\b", handle.read(), re.M)
        assert newest is not None
        assert repro.__version__ == newest.group(1)

    def test_strategies_share_the_interface(self):
        from repro.strategies.base import Strategy

        for name in (
            "DistillStrategy",
            "DistillHPStrategy",
            "AlphaDoublingStrategy",
            "MultiVoteDistill",
            "NoLocalTestingDistill",
            "ThreePhaseStrategy",
            "TrivialStrategy",
            "AsyncEC04Strategy",
            "FullCooperationStrategy",
            "NoAdviceDistill",
            "SlanderingDistill",
        ):
            assert issubclass(getattr(repro, name), Strategy), name

    def test_adversaries_share_the_interface(self):
        from repro.adversaries.base import Adversary

        for name in (
            "SilentAdversary",
            "FloodAdversary",
            "RandomVotesAdversary",
            "SplitVoteAdversary",
            "MimicAdversary",
            "SpoofedProtocolAdversary",
            "SlanderAdversary",
            "SelfPromotionAdversary",
        ):
            assert issubclass(getattr(repro, name), Adversary), name

    def test_public_classes_have_docstrings(self):
        undocumented = [
            name
            for name in repro.__all__
            if inspect.isclass(getattr(repro, name))
            and not (getattr(repro, name).__doc__ or "").strip()
        ]
        assert not undocumented, undocumented

    def test_public_functions_have_docstrings(self):
        undocumented = [
            name
            for name in repro.__all__
            if inspect.isfunction(getattr(repro, name))
            and not (getattr(repro, name).__doc__ or "").strip()
        ]
        assert not undocumented, undocumented


class TestSubpackageSurfaces:
    def test_analysis_exports_resolve(self):
        import repro.analysis as analysis

        for name in analysis.__all__:
            assert getattr(analysis, name) is not None

    def test_experiments_exports_resolve(self):
        import repro.experiments as experiments

        for name in experiments.__all__:
            assert getattr(experiments, name) is not None

    def test_sim_exports_resolve(self):
        import repro.sim as sim

        for name in sim.__all__:
            assert getattr(sim, name) is not None
