"""Tests for the experiment harness (miniature-scale runs)."""

import numpy as np
import pytest

from repro.experiments.cross_gpu import run_cross_gpu
from repro.experiments.dse import DseWorkloadSpec, run_dse, table4_summary
from repro.experiments.error_bound_sweep import run_error_bound_sweep
from repro.experiments.figure1 import run_figure1, shape_census
from repro.experiments.identical_kernels import run_identical_kernels
from repro.experiments.microarch_metrics import run_microarch_validation
from repro.experiments.profiling_overhead import run_profiling_overhead
from repro.experiments.runner import (
    METHODS,
    ExperimentConfig,
    run_suite,
    run_workload,
)
from repro.experiments.speedup_error import (
    per_workload_summary,
    summarize,
)
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(repetitions=2, workload_scale=0.01)


@pytest.fixture(scope="module")
def casio_rows(tiny_config):
    return run_suite(
        "casio",
        config=tiny_config,
        workload_names=["bert_infer", "dlrm"],
    )


class TestRunner:
    def test_rows_cover_grid(self, casio_rows):
        workloads = {r.workload for r in casio_rows}
        methods = {r.method for r in casio_rows}
        assert workloads == {"bert_infer", "dlrm"}
        assert methods == set(METHODS)
        reps = {r.repetition for r in casio_rows}
        assert reps == {0, 1}

    def test_all_feasible_at_small_scale(self, casio_rows):
        assert all(r.feasible for r in casio_rows)

    def test_errors_and_speedups_sane(self, casio_rows):
        for row in casio_rows:
            assert row.error_percent >= 0
            assert row.speedup > 1.0

    def test_infeasible_methods_flagged_on_large_workloads(self):
        config = ExperimentConfig(repetitions=1)
        w = load_workload("huggingface", "gpt2", scale=0.2, seed=0)
        rows = run_workload(w, config=config, methods=["pka", "stem"])
        by_method = {r.method: r for r in rows}
        assert not by_method["pka"].feasible
        assert by_method["stem"].feasible

    def test_sampler_for_hand_tuned_workloads(self):
        config = ExperimentConfig()
        w = load_workload("rodinia", "heartwall", scale=0.5, seed=0)
        assert config.sampler_for("pka", w).select == "random"
        w2 = load_workload("rodinia", "bfs", scale=0.5, seed=0)
        assert config.sampler_for("pka", w2).select == "first"

    def test_unknown_method_rejected(self):
        config = ExperimentConfig()
        w = load_workload("rodinia", "bfs", scale=0.1, seed=0)
        with pytest.raises(KeyError):
            config.sampler_for("nope", w)

    def test_row_as_dict(self, casio_rows):
        d = casio_rows[0].as_dict()
        assert {"suite", "workload", "method", "error_percent"} <= set(d)


class TestSummaries:
    def test_summarize_per_suite_method(self, casio_rows):
        summaries = summarize(casio_rows)
        keys = {(s.suite, s.method) for s in summaries}
        assert ("casio", "stem") in keys
        stem = [s for s in summaries if s.method == "stem"][0]
        assert stem.error_percent >= 0
        assert stem.speedup > 1

    def test_stem_lowest_error(self, casio_rows):
        summaries = {s.method: s for s in summarize(casio_rows)}
        stem_err = summaries["stem"].error_percent
        assert stem_err <= min(
            s.error_percent for m, s in summaries.items() if m != "stem"
        )

    def test_per_workload_summary_shape(self, casio_rows):
        table = per_workload_summary(casio_rows)
        assert set(table) == {"bert_infer", "dlrm"}
        assert set(table["dlrm"]) == set(METHODS)
        assert "speedup" in table["dlrm"]["stem"]


class TestSweep:
    def test_epsilon_tradeoff(self):
        config = ExperimentConfig(repetitions=2, workload_scale=0.02)
        points = run_error_bound_sweep(
            epsilons=(0.03, 0.25), config=config, suite="casio"
        )
        assert len(points) == 2
        tight, loose = points
        assert loose.speedup > tight.speedup
        assert loose.mean_samples < tight.mean_samples


class TestFigure1:
    def test_histograms_and_census(self):
        hists = run_figure1(workload_names=["resnet50_infer"], workload_scale=0.02)
        assert len(hists) >= 4
        census = shape_census(hists)
        assert sum(census.values()) == len(hists)
        # The resnet50-style workload contains multi-peak kernels (bn).
        assert any(label.startswith("multi-peak") for label in census)


class TestIdenticalKernels:
    def test_groups_have_wide_spreads(self):
        groups = run_identical_kernels(workload_scale=0.02)
        assert set(groups) == {"pka", "photon"}
        for method, entries in groups.items():
            assert entries, method
            assert all(g.size > 1 for g in entries)
            # At least one "identical" group spans a wide time range.
            assert max(g.spread_factor for g in entries) > 1.5


class TestMicroarchValidation:
    def test_near_zero_metric_errors(self):
        comparisons = run_microarch_validation(
            workload_scale=0.02, repetitions=2
        )
        assert len(comparisons) == 13
        mean_err = np.mean([c.error_percent for c in comparisons])
        assert mean_err < 10.0


class TestCrossGpu:
    def test_h100_to_h200_errors_bounded(self):
        results = run_cross_gpu(
            suite="casio", repetitions=2, workload_scale=0.01
        )
        assert len(results) == 11
        mean_err = np.mean([r.error_percent for r in results])
        assert mean_err < 25.0
        for r in results:
            assert r.speedup > 1


class TestOverheadExperiment:
    def test_stem_cheapest_everywhere(self):
        rows = run_profiling_overhead(
            suites=["rodinia"], workload_scale=0.02, photon_exact_limit=10_000
        )
        by_method = {r.method: r for r in rows}
        assert by_method["stem"].overhead_factor < by_method["photon"].overhead_factor
        assert by_method["photon"].overhead_factor < by_method["pka"].overhead_factor


class TestDse:
    def test_grid_and_summary(self):
        results = run_dse(
            workloads=[DseWorkloadSpec("rodinia", "hotspot", 0.02, 30)],
            repetitions=1,
        )
        table = table4_summary(results)
        assert set(table) == {
            "baseline", "cache_x2", "cache_x0.5", "sm_x2", "sm_x0.5",
        }
        for methods in table.values():
            assert "stem" in methods
            for err in methods.values():
                assert err >= 0


    def test_skips_exactly_the_cells_the_grid_marks_na(self):
        """Under unrepairable faults the DSE drops a (spec, method) row
        exactly when the grid's cell at the same config and seed is N/A."""
        from repro.experiments.dse import _reduced_workload
        from repro.experiments.runner import compute_cell_rows
        from repro.resilience import FaultPlan

        plan = FaultPlan(seed=5, drop_rate=1.0)
        specs = [
            DseWorkloadSpec("rodinia", "hotspot", 0.02, 30),
            DseWorkloadSpec("huggingface", "gpt2", 0.002, 30),
        ]
        methods = ["random", "pka", "stem"]
        rows = run_dse(
            workloads=specs, methods=methods, repetitions=1, seed=4,
            fault_plan=plan,
        )
        config = ExperimentConfig(base_seed=4, fault_plan=plan)
        feasible = {
            (spec.name, method)
            for spec in specs
            for method, row in compute_cell_rows(
                _reduced_workload(spec, 4), config, methods, rep=0
            )
            if row.feasible
        }
        assert {(r.workload, r.method) for r in rows} == feasible
        assert 0 < len(feasible) < len(specs) * len(methods)


class TestWarmupStudy:
    def test_rows_cover_grid(self):
        from repro.experiments.warmup_study import run_warmup_study

        rows = run_warmup_study(
            workload_names=["hotspot"], repetitions=1, max_invocations=20
        )
        strategies = {r.strategy for r in rows}
        assert strategies == {"cold", "proportional", "warmup-kernel"}
        for r in rows:
            assert r.error_percent >= 0
            assert r.total_cycles > 0

    def test_error_spread_small(self):
        from repro.experiments.warmup_study import run_warmup_study

        rows = run_warmup_study(
            workload_names=["hotspot"], repetitions=2, max_invocations=30
        )
        errors = [r.error_percent for r in rows]
        assert max(errors) - min(errors) < 10.0


class TestScalabilityExperiment:
    def test_points_and_near_linear_fit(self):
        from repro.experiments.scalability import fit_exponent, run_scalability

        points = run_scalability(scales=(0.01, 0.03, 0.08))
        assert [p.num_invocations for p in points] == sorted(
            p.num_invocations for p in points
        )
        exponent, r2 = fit_exponent(points)
        assert exponent < 1.8
        assert 0.0 <= r2 <= 1.0


class TestTable2:
    def test_scale_ordering(self):
        from repro.experiments.table2 import run_table2

        rows = run_table2(workload_scale=0.01)
        by_suite = {r.suite: r for r in rows}
        assert (
            by_suite["rodinia"].avg_kernel_calls
            < by_suite["casio"].avg_kernel_calls
            < by_suite["huggingface"].avg_kernel_calls
        )
        assert by_suite["casio"].num_workloads == 11


class TestRunnerGroundTruthHook:
    def test_cross_hardware_scoring(self):
        """The DSE path: plans built from the profile, scored against a
        caller-supplied ground truth (here: H100 times)."""
        from repro.hardware import H100, TimingModel

        w = load_workload("casio", "bert_infer", scale=0.01, seed=0)
        config = ExperimentConfig(repetitions=1)

        def h100_truth(store, seed):
            return TimingModel(H100).execution_times(store.workload, seed=seed)

        rows = run_workload(
            w, config=config, methods=["stem"], ground_truth=h100_truth
        )
        assert len(rows) == 1
        assert rows[0].error_percent >= 0
        # Cross-hardware error should generally exceed same-profile error.
        same = run_workload(w, config=config, methods=["stem"])
        assert rows[0].error_percent >= 0.0 and same[0].error_percent >= 0.0
