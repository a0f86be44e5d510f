"""Tests for sampling plans and their estimation arithmetic."""

import numpy as np
import pytest

from repro.core.plan import PlanCluster, SamplingPlan
from repro.keys import derive_key


def simple_plan():
    return SamplingPlan(
        method="test",
        workload_name="w",
        clusters=[
            PlanCluster("a", member_count=10, sampled_indices=np.array([0, 1])),
            PlanCluster("b", member_count=5, sampled_indices=np.array([3])),
        ],
        metadata={"epsilon": 0.05},
    )


class TestPlanCluster:
    def test_weight(self):
        c = PlanCluster("x", member_count=100, sampled_indices=np.arange(4))
        assert c.weight == 25.0
        assert c.sample_size == 4

    def test_estimate_total(self):
        values = np.array([2.0, 4.0, 0.0, 0.0])
        c = PlanCluster("x", member_count=10, sampled_indices=np.array([0, 1]))
        assert c.estimate_total(values) == pytest.approx(30.0)

    def test_members_stay_out_of_identity(self):
        bare = PlanCluster("x", member_count=3, sampled_indices=np.array([1]))
        full = PlanCluster(
            "x", member_count=3, sampled_indices=np.array([1]),
            members=np.array([0, 1, 2]),
        )
        assert derive_key(bare) == derive_key(full)
        plan = SamplingPlan(method="m", workload_name="w", clusters=[full])
        assert "members" not in plan.to_dict()["clusters"][0]

    def test_validation(self):
        with pytest.raises(ValueError):
            PlanCluster("x", member_count=0, sampled_indices=np.array([0]))
        with pytest.raises(ValueError):
            PlanCluster("x", member_count=5, sampled_indices=np.array([]))


class TestSamplingPlan:
    def test_counters(self):
        plan = simple_plan()
        assert plan.num_clusters == 2
        assert plan.num_samples == 3
        assert plan.represented_invocations == 15

    def test_unique_indices_dedupe(self):
        plan = SamplingPlan(
            method="m",
            workload_name="w",
            clusters=[
                PlanCluster("a", 10, np.array([2, 2, 5])),
                PlanCluster("b", 4, np.array([5])),
            ],
        )
        assert np.array_equal(plan.unique_indices(), [2, 5])

    def test_estimate_total_weighted_sum(self):
        values = np.zeros(6)
        values[[0, 1, 3]] = [1.0, 3.0, 10.0]
        plan = simple_plan()
        # 10 * mean(1,3) + 5 * 10 = 20 + 50
        assert plan.estimate_total(values) == pytest.approx(70.0)

    def test_exact_when_sampling_everything(self):
        values = np.array([1.0, 2.0, 3.0])
        plan = SamplingPlan(
            method="m",
            workload_name="w",
            clusters=[PlanCluster("all", 3, np.array([0, 1, 2]))],
        )
        assert plan.estimate_total(values) == pytest.approx(values.sum())

    def test_simulated_cost_counts_unique_once(self):
        values = np.array([5.0, 7.0, 100.0])
        plan = SamplingPlan(
            method="m",
            workload_name="w",
            clusters=[PlanCluster("a", 10, np.array([0, 0, 1]))],
        )
        assert plan.simulated_cost(values) == pytest.approx(12.0)

    def test_sample_weights_accumulate_repeats(self):
        plan = SamplingPlan(
            method="m",
            workload_name="w",
            clusters=[PlanCluster("a", 9, np.array([4, 4, 7]))],
        )
        weights = plan.sample_weights()
        assert weights[4] == pytest.approx(6.0)
        assert weights[7] == pytest.approx(3.0)

    def test_validate_accepts_consistent_plan(self):
        simple_plan().validate(workload_size=15)

    def test_validate_rejects_wrong_total(self):
        with pytest.raises(ValueError):
            simple_plan().validate(workload_size=20)

    def test_validate_rejects_out_of_range(self):
        plan = SamplingPlan(
            method="m",
            workload_name="w",
            clusters=[PlanCluster("a", 2, np.array([99]))],
        )
        with pytest.raises(ValueError):
            plan.validate(workload_size=2)

    def test_json_roundtrip(self):
        plan = simple_plan()
        restored = SamplingPlan.from_json(plan.to_json())
        assert restored.method == plan.method
        assert restored.workload_name == plan.workload_name
        assert restored.num_clusters == plan.num_clusters
        assert restored.metadata["epsilon"] == 0.05
        for a, b in zip(restored.clusters, plan.clusters):
            assert a.label == b.label
            assert a.member_count == b.member_count
            assert np.array_equal(a.sampled_indices, b.sampled_indices)

    def test_empty_plan(self):
        plan = SamplingPlan(method="m", workload_name="w")
        assert plan.num_samples == 0
        assert len(plan.unique_indices()) == 0
        assert plan.simulated_cost(np.array([1.0])) == 0.0
