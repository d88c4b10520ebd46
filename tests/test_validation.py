"""Cross-system validation harness."""

import numpy as np
import pytest

from repro.graph.generators import rmat
from repro.validation import validate_all, validate_workload


@pytest.fixture(scope="module")
def graph():
    return rmat(10, 8, seed=2)


class TestValidateWorkload:
    def test_bfs_passes(self, graph):
        report = validate_workload("bfs", graph, scale=1 / 1024)
        assert report.passed, report.summary()
        assert set(report.systems) == {"functional", "nova", "polygraph", "ligra"}

    def test_pr_passes(self, graph):
        report = validate_workload(
            "pr", graph, scale=1 / 1024, max_supersteps=20
        )
        assert report.passed, report.summary()

    def test_summary_format(self, graph):
        report = validate_workload("bfs", graph, scale=1 / 1024)
        assert report.summary().startswith("PASS bfs")

    def test_detects_divergence(self, graph, monkeypatch):
        """A deliberately broken engine must be flagged, not hidden."""
        from repro.core import system as system_module

        original = system_module.NovaSystem.run

        def broken(self, *args, **kwargs):
            run = original(self, *args, **kwargs)
            run.result = run.result + 1.0
            return run

        # Validation runs NOVA through the run executor, which looks
        # NovaSystem up in repro.core.system, so the patch reaches it.
        monkeypatch.setattr(system_module.NovaSystem, "run", broken)
        report = validate_workload("bfs", graph, scale=1 / 1024)
        assert not report.passed
        assert "nova" in report.failures


class TestValidateAll:
    def test_all_workloads_pass(self, graph):
        reports = validate_all(graph, scale=1 / 1024)
        names = [r.workload for r in reports]
        assert names == ["bfs", "sssp", "cc", "pr", "bc", "pr-delta"]
        for report in reports:
            assert report.passed, report.summary()
