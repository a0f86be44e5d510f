"""Tests for the sampling transparency report."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import StemRootSampler
from repro.core.plan import PlanCluster, SamplingPlan
from repro.core.report import build_report


@pytest.fixture
def report(mixed, mixed_times):
    plan = StemRootSampler().build_plan(mixed, mixed_times, seed=0)
    return build_report(plan, mixed_times)


class TestBuildReport:
    def test_shares_sum_to_one(self, report):
        assert sum(c.time_share for c in report.clusters) == pytest.approx(1.0)
        assert sum(c.variance_share for c in report.clusters) == pytest.approx(1.0)

    def test_predicted_error_within_default_bound(self, report):
        assert 0.0 < report.predicted_error <= 0.05 + 1e-9

    def test_speedup_positive(self, report):
        assert report.speedup > 1.0

    def test_dominant_risk_clusters_sorted(self, report):
        top = report.dominant_risk_clusters(top=3)
        shares = [c.variance_share for c in top]
        assert shares == sorted(shares, reverse=True)

    def test_text_rendering(self, report):
        text = report.to_text(top=5)
        assert "bound" in text
        assert "risk %" in text

    def test_summary_keys(self, report):
        summary = report.summary()
        assert {"num_clusters", "predicted_error", "speedup"} <= set(summary)

    def test_stats_come_from_full_members(self, mixed, mixed_times):
        plan = StemRootSampler().build_plan(mixed, mixed_times, seed=1)
        report = build_report(plan, mixed_times)
        for cluster, row in zip(plan.clusters, report.clusters):
            member_times = mixed_times[cluster.members]
            assert row.mu == pytest.approx(member_times.mean())
            assert row.sigma == pytest.approx(member_times.std())

    def test_fallback_to_sampled_members(self, mixed, mixed_times):
        """Without membership info the report still builds from samples."""
        plan = StemRootSampler().build_plan(mixed, mixed_times, seed=1)
        plan.clusters = [replace(c, members=None) for c in plan.clusters]
        report = build_report(plan, mixed_times)
        assert len(report.clusters) == plan.num_clusters
        for cluster, row in zip(plan.clusters, report.clusters):
            sampled = mixed_times[cluster.sampled_indices]
            assert row.mu == pytest.approx(max(sampled.mean(), 1e-12))

    def test_cluster_report_derived_fields(self):
        plan = SamplingPlan(
            method="m",
            workload_name="w",
            clusters=[PlanCluster("a", 100, np.array([0, 1]))],
        )
        times = np.array([2.0, 4.0])
        report = build_report(plan, times)
        cluster = report.clusters[0]
        assert cluster.sampling_rate == pytest.approx(0.02)
        assert cluster.cov == pytest.approx(1.0 / 3.0)
