"""Unit tests for the columnar Workload container and builder."""

import numpy as np
import pytest

from repro.workloads import Workload, WorkloadBuilder, load_suite, suite_names
from repro.workloads.generators.synthetic import make_kernel_spec


def build_two_kernel_workload():
    builder = WorkloadBuilder(name="w", suite="synthetic")
    a = make_kernel_spec("alpha")
    b = make_kernel_spec("beta")
    for i in range(5):
        builder.launch(a, context_id=0, work_scale=1.0 + i, locality=0.5)
    for i in range(3):
        builder.launch(b, context_id=1, work_scale=2.0, locality=0.25, efficiency=0.5)
    return builder.build()


class TestWorkloadBuilder:
    def test_build_counts(self):
        w = build_two_kernel_workload()
        assert len(w) == 8
        assert w.num_invocations == 8
        assert len(w.specs) == 2

    def test_spec_interning(self):
        builder = WorkloadBuilder(name="w")
        spec = make_kernel_spec("k")
        assert builder.spec_id(spec) == builder.spec_id(spec)

    def test_bulk_length_mismatch_rejected(self):
        builder = WorkloadBuilder(name="w")
        with pytest.raises(ValueError):
            builder.launch_bulk(
                make_kernel_spec("k"),
                context_ids=np.zeros(3, dtype=np.int32),
                work_scales=np.ones(2),
                localities=np.full(3, 0.5),
            )

    def test_empty_build(self):
        w = WorkloadBuilder(name="empty").build()
        assert len(w) == 0
        assert w.kernel_names() == []

    def test_num_launches_tracks(self):
        builder = WorkloadBuilder(name="w")
        builder.launch(make_kernel_spec("k"))
        builder.launch(make_kernel_spec("k"))
        assert builder.num_launches() == 2

    def test_default_efficiencies_are_one(self):
        builder = WorkloadBuilder(name="w")
        builder.launch_bulk(
            make_kernel_spec("k"),
            context_ids=np.zeros(4, dtype=np.int32),
            work_scales=np.ones(4),
            localities=np.full(4, 0.5),
        )
        w = builder.build()
        assert np.allclose(w.efficiencies, 1.0)


class TestWorkload:
    def test_invocation_view_roundtrips_context(self):
        w = build_two_kernel_workload()
        inv = w.invocation(6)
        assert inv.name == "beta"
        assert inv.context.work_scale == 2.0
        assert inv.context.efficiency == 0.5
        assert inv.index == 6

    def test_invocations_iterator_full(self):
        w = build_two_kernel_workload()
        assert sum(1 for _ in w.invocations()) == len(w)

    def test_invocations_iterator_subset(self):
        w = build_two_kernel_workload()
        names = [inv.name for inv in w.invocations([0, 7])]
        assert names == ["alpha", "beta"]

    def test_kernel_names_in_first_launch_order(self):
        w = build_two_kernel_workload()
        assert w.kernel_names() == ["alpha", "beta"]

    def test_indices_by_name_partition(self):
        w = build_two_kernel_workload()
        groups = w.indices_by_name()
        assert set(groups) == {"alpha", "beta"}
        assert len(groups["alpha"]) == 5
        assert len(groups["beta"]) == 3
        merged = np.sort(np.concatenate(list(groups.values())))
        assert np.array_equal(merged, np.arange(len(w)))

    def test_indices_by_name_sorted_chronologically(self):
        w = build_two_kernel_workload()
        for indices in w.indices_by_name().values():
            assert np.all(np.diff(indices) > 0)

    def test_indices_by_name_matches_name_sort(self):
        """Grouping by spec id equals an argsort of one name per launch,
        on every bundled workload and with specs that share a name or
        never launch."""
        def by_name_sort(w):
            names = np.array([s.name for s in w.specs])[w.spec_ids]
            order = np.argsort(names, kind="stable")
            sorted_names = names[order]
            cuts = np.flatnonzero(sorted_names[1:] != sorted_names[:-1]) + 1
            return {str(names[chunk[0]]): np.sort(chunk)
                    for chunk in np.split(order, cuts) if len(chunk)}

        shared = build_two_kernel_workload()
        specs = [shared.specs[1], shared.specs[0], shared.specs[1],
                 shared.specs[0]]
        shared = Workload(
            name="shared", suite="synthetic", specs=specs,
            spec_ids=np.array([2, 0, 3, 2, 0, 2, 3, 0], dtype=np.int32),
            context_ids=np.zeros(8, dtype=np.int32),
            work_scales=np.ones(8), localities=np.ones(8),
        )
        workloads = [shared] + [
            w for suite in suite_names() for w in load_suite(suite, scale=0.02)
        ]
        for w in workloads:
            got, want = w.indices_by_name(), by_name_sort(w)
            assert list(got) == list(want)
            for name in want:
                assert got[name].dtype == want[name].dtype
                assert np.array_equal(got[name], want[name])

    def test_subset_preserves_columns(self):
        w = build_two_kernel_workload()
        sub = w.subset([1, 6])
        assert len(sub) == 2
        assert sub.invocation(0).context.work_scale == 2.0
        assert sub.invocation(1).name == "beta"

    def test_head(self):
        w = build_two_kernel_workload()
        assert len(w.head(3)) == 3
        assert len(w.head(100)) == len(w)

    def test_spec_column_gathers(self):
        w = build_two_kernel_workload()
        col = w.spec_column(lambda s: len(s.name))
        assert col[0] == len("alpha")
        assert col[-1] == len("beta")

    def test_dynamic_instruction_counts_scale_with_work(self):
        w = build_two_kernel_workload()
        counts = w.dynamic_instruction_counts()
        # alpha launches have work 1..5 — counts strictly increase.
        assert np.all(np.diff(counts[:5]) > 0)

    def test_describe(self):
        w = build_two_kernel_workload()
        d = w.describe()
        assert d["num_invocations"] == 8
        assert d["num_kernel_names"] == 2

    def test_column_length_mismatch_rejected(self):
        spec = make_kernel_spec("k")
        with pytest.raises(ValueError):
            Workload(
                name="bad",
                suite="synthetic",
                specs=[spec],
                spec_ids=np.zeros(3, dtype=np.int32),
                context_ids=np.zeros(2, dtype=np.int32),
                work_scales=np.ones(3),
                localities=np.full(3, 0.5),
            )

    def test_out_of_range_spec_ids_rejected(self):
        spec = make_kernel_spec("k")
        with pytest.raises(ValueError):
            Workload(
                name="bad",
                suite="synthetic",
                specs=[spec],
                spec_ids=np.array([0, 1], dtype=np.int32),
                context_ids=np.zeros(2, dtype=np.int32),
                work_scales=np.ones(2),
                localities=np.full(2, 0.5),
            )
