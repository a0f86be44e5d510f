"""Tests for :mod:`repro.keys`: one derived key for every cache.

The field-coverage tests enumerate ``dataclasses.fields()`` at run
time, so a field added to any keyed class is covered with no test edit:
changing a non-exempt field must change the key, changing a
``key_exempt`` field must not.
"""

import copy
import dataclasses
import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.fidelity import FidelityPolicy
from repro.experiments.runner import ExperimentConfig
from repro.hardware import RTX_2080
from repro.keys import derive_key, key_exempt
from repro.memo import SimResultCache, SplitTreeCache
from repro.resilience import FaultPlan
from repro.sim import AnalyticalSimulator, GpuSimulator, ProportionalWarmup
from repro.workloads import load_workload

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

KEYED = {
    "FidelityPolicy": lambda: FidelityPolicy(),
    "GPUConfig": lambda: RTX_2080,
    "ExperimentConfig": lambda: ExperimentConfig(
        fault_plan=FaultPlan(seed=1), tree_cache=SplitTreeCache()
    ),
    "FaultPlan": lambda: FaultPlan(seed=1, nan_rate=0.1),
    "Workload": lambda: load_workload("rodinia", "bfs", scale=0.1),
    "CycleSpec": lambda: GpuSimulator(
        RTX_2080, warmup=ProportionalWarmup(0.5)
    ).spec,
    "AnalyticalSpec": lambda: AnalyticalSimulator(RTX_2080).spec,
}


def with_field(obj, name, value):
    """A shallow copy of ``obj`` with one field overwritten, bypassing
    ``__init__`` validation and ``frozen``."""
    changed = copy.copy(obj)
    object.__setattr__(changed, name, value)
    return changed


class TestFieldCoverage:
    @pytest.mark.parametrize("name", sorted(KEYED))
    def test_every_field_is_keyed_unless_exempt(self, name):
        obj = KEYED[name]()
        assert type(obj).__name__ == name
        base = derive_key(obj)
        for f in dataclasses.fields(obj):
            changed = derive_key(with_field(obj, f.name, f"<{f.name} changed>"))
            if "key_exempt" in f.metadata:
                assert changed == base, f"exempt {name}.{f.name} moved the key"
            else:
                assert changed != base, f"{name}.{f.name} is not keyed"

    def test_tree_cache_is_the_only_exemption(self):
        exempt = [
            (name, f.name)
            for name, make in sorted(KEYED.items())
            for f in dataclasses.fields(make())
            if "key_exempt" in f.metadata
        ]
        assert exempt == [("ExperimentConfig", "tree_cache")]

    def test_subclass_adding_a_field_gets_another_key(self):
        @dataclasses.dataclass(frozen=True)
        class Tuned(FidelityPolicy):
            extra: int = 0

        assert derive_key(Tuned()) != derive_key(FidelityPolicy())
        assert derive_key(Tuned()) != derive_key(Tuned(extra=1))

    def test_exempting_a_real_field_without_a_reason_fails_at_import(
        self, tmp_path
    ):
        """Taking ``gap_safety`` out of FidelityPolicy's key needs a
        written reason: on a copy of the tree, an empty one fails at
        import, with no config file involved."""
        root = tmp_path / "repo"
        shutil.copytree(SRC, root / "src")
        fidelity = root / "src" / "repro" / "core" / "fidelity.py"
        text = fidelity.read_text()
        declared = "    gap_safety: float = 1.25\n"
        assert declared in text
        fidelity.write_text(
            text.replace(
                declared,
                '    gap_safety: float = key_exempt("", default=1.25)\n',
            ).replace(
                "from .stem import", "from ..keys import key_exempt\nfrom .stem import"
            )
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.core.fidelity"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "key_exempt() needs a reason" in proc.stderr


class TestEncoding:
    def test_key_exempt_needs_a_reason(self):
        for why in ("", "   "):
            with pytest.raises(ValueError, match="needs a reason"):
                key_exempt(why)

    def test_key_exempt_keeps_field_options(self):
        f = key_exempt("handle", default=None, repr=False)
        assert f.default is None and f.repr is False
        assert f.metadata["key_exempt"] == "handle"

    @pytest.mark.parametrize("value", [{1, 2}, frozenset({"a"}), object()])
    def test_values_without_canonical_form_raise(self, value):
        with pytest.raises(TypeError, match="no canonical form"):
            derive_key(("ok", value))

    def test_declared_entries_are_checked_strictly(self):
        """The refusal names what could not be keyed, inside a dataclass
        field too, instead of keying it by ``repr``."""

        @dataclasses.dataclass
        class Plain:
            depth: int = 1
            width: object = 2

        class ReprPlain:
            def __init__(self, depth):
                self.depth = depth

        with pytest.raises(TypeError, match="ReprPlain"):
            derive_key(ReprPlain(1))
        with pytest.raises(TypeError, match="set"):
            derive_key(Plain(width={1, 2}))


class TestCanonicalHashing:
    def test_list_and_tuple_share_a_digest(self):
        # as_dict() on one engine path may yield tuples where another
        # yields lists; sequence identity is the contract, not the type.
        assert derive_key([1, 2.5, "x"]) == derive_key((1, 2.5, "x"))

    def test_dict_is_order_invariant(self):
        assert derive_key({"a": 1, "b": 2}) == derive_key({"b": 2, "a": 1})

    def test_numpy_arrays_hash_by_dtype_shape_bytes(self):
        a = np.arange(6, dtype=np.float64)
        assert derive_key(a) == derive_key(a.copy())
        assert derive_key(a) != derive_key(a.astype(np.float32))
        assert derive_key(a) != derive_key(a.reshape(2, 3))

    def test_numpy_scalar_matches_python_float(self):
        # np.float64 is a float subclass; a row built in-process and a
        # row round-tripped through a worker must hash identically.
        assert derive_key(np.float64(1.5)) == derive_key(1.5)

    def test_floats_are_bit_exact(self):
        assert derive_key(0.1 + 0.2) != derive_key(0.3)

    def test_type_tags_disambiguate(self):
        assert derive_key(1) != derive_key("1")
        assert derive_key(True) != derive_key(1)
        assert derive_key(None) != derive_key(0)

    def test_dataclasses_hash_by_fields(self):
        @dataclasses.dataclass
        class Row:
            name: str
            value: float

        assert derive_key(Row("a", 1.0)) == derive_key(Row("a", 1.0))
        assert derive_key(Row("a", 1.0)) != derive_key(Row("a", 2.0))


class TestStableWarmupKeys:
    """Equal warmup strategies key equally, in and across processes."""

    SCRIPT = textwrap.dedent(
        """
        from repro.hardware import RTX_2080
        from repro.memo import SimResultCache
        from repro.sim import GpuSimulator, ProportionalWarmup
        from repro.workloads import load_workload

        sim = GpuSimulator(RTX_2080, warmup=ProportionalWarmup(0.5))
        workload = load_workload("rodinia", "bfs", scale=0.1)
        print(SimResultCache.context_for(workload, sim.config, 3, sim.spec))
        """
    )

    def _context(self):
        sim = GpuSimulator(RTX_2080, warmup=ProportionalWarmup(0.5))
        workload = load_workload("rodinia", "bfs", scale=0.1)
        return SimResultCache.context_for(workload, sim.config, 3, sim.spec)

    def test_equal_strategies_share_a_context_in_process(self):
        assert self._context() == self._context()
        other = GpuSimulator(RTX_2080, warmup=ProportionalWarmup(0.25))
        workload = load_workload("rodinia", "bfs", scale=0.1)
        assert (
            SimResultCache.context_for(workload, other.config, 3, other.spec)
            != self._context()
        )

    def test_equal_strategies_share_a_context_across_processes(self):
        contexts = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            )
            contexts.append(proc.stdout.strip())
        assert contexts[0] == contexts[1] == self._context()
