"""Workload container: the full launch sequence of a GPU application.

Large-scale workloads (the HuggingFace-style suite averages millions of
kernel calls in the paper) make per-invocation Python objects impractical,
so :class:`Workload` stores the launch sequence *columnarly* — parallel
NumPy arrays indexed by launch position — and materializes
:class:`~repro.workloads.kernel.KernelInvocation` views on demand.  Every
profiler and the hardware timing model operate directly on the columns,
which is what gives the reproduction the same near-linear scalability the
paper claims for STEM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .kernel import KernelInvocation, KernelSpec, LaunchContext

__all__ = ["Workload", "WorkloadBuilder"]


@dataclass
class Workload:
    """A complete GPU workload as an ordered sequence of kernel launches.

    Attributes
    ----------
    name:
        Workload identifier (e.g. ``"bert_infer"``).
    suite:
        Benchmark-suite identifier (``"rodinia"``, ``"casio"``,
        ``"huggingface"``, or ``"synthetic"``).
    specs:
        The distinct :class:`KernelSpec` objects launched by the workload.
    spec_ids:
        ``int32`` array, one entry per invocation, indexing into ``specs``.
    context_ids:
        ``int32`` array: launch-site identifier of each invocation.
    work_scales / localities / efficiencies:
        ``float64`` arrays: the dynamic context knobs of each invocation.
    """

    name: str
    suite: str
    specs: List[KernelSpec]
    spec_ids: np.ndarray
    context_ids: np.ndarray
    work_scales: np.ndarray
    localities: np.ndarray
    efficiencies: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        n = len(self.spec_ids)
        if self.efficiencies is None:
            self.efficiencies = np.ones(n, dtype=np.float64)
        for label, arr in (
            ("context_ids", self.context_ids),
            ("work_scales", self.work_scales),
            ("localities", self.localities),
            ("efficiencies", self.efficiencies),
        ):
            if len(arr) != n:
                raise ValueError(f"{label} has length {len(arr)}, expected {n}")
        if n and (self.spec_ids.min() < 0 or self.spec_ids.max() >= len(self.specs)):
            raise ValueError("spec_ids reference specs out of range")

    # -- size and iteration ------------------------------------------------
    def __len__(self) -> int:
        return len(self.spec_ids)

    @property
    def num_invocations(self) -> int:
        return len(self.spec_ids)

    def invocation(self, index: int) -> KernelInvocation:
        """Materialize the invocation at launch position ``index``."""
        spec = self.specs[int(self.spec_ids[index])]
        context = LaunchContext(
            context_id=int(self.context_ids[index]),
            work_scale=float(self.work_scales[index]),
            locality=float(self.localities[index]),
            efficiency=float(self.efficiencies[index]),
        )
        return KernelInvocation(index=index, spec=spec, context=context)

    def invocations(self, indices: Iterable[int] = None) -> Iterator[KernelInvocation]:
        """Yield invocation views, optionally restricted to ``indices``."""
        if indices is None:
            indices = range(len(self))
        for i in indices:
            yield self.invocation(int(i))

    # -- grouping ------------------------------------------------------------
    def kernel_names(self) -> List[str]:
        """Distinct kernel names in first-launch order."""
        seen: Dict[str, None] = {}
        for sid in self.spec_ids:
            seen.setdefault(self.specs[int(sid)].name, None)
        return list(seen)

    def indices_by_name(self) -> Dict[str, np.ndarray]:
        """Map each kernel name to the launch indices that invoke it.

        This is the first stage of every kernel-level sampler in the paper
        ("kernel calls are grouped by names").
        """
        order = np.argsort(self.spec_ids, kind="stable")
        stops = np.cumsum(np.bincount(self.spec_ids, minlength=len(self.specs)))
        # One chunk per launched spec, ascending launch index; specs that
        # share a name then merge.
        chunks: Dict[str, List[np.ndarray]] = {}
        start = 0
        for sid, stop in enumerate(stops.tolist()):
            if stop > start:
                chunks.setdefault(self.specs[sid].name, []).append(order[start:stop])
            start = stop
        return {
            name: parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
            for name, parts in sorted(chunks.items())
        }

    def subset(self, indices: Sequence[int], name: str = None) -> "Workload":
        """Return a new workload containing only the given launch indices.

        The subset preserves launch order and re-uses the parent's spec
        table.  Used to build *reduced* workloads for full cycle-level
        simulation, mirroring the paper's Table 4 methodology.
        """
        idx = np.asarray(sorted(int(i) for i in indices), dtype=np.int64)
        return Workload(
            name=name or f"{self.name}[{len(idx)}]",
            suite=self.suite,
            specs=self.specs,
            spec_ids=self.spec_ids[idx].copy(),
            context_ids=self.context_ids[idx].copy(),
            work_scales=self.work_scales[idx].copy(),
            localities=self.localities[idx].copy(),
            efficiencies=self.efficiencies[idx].copy(),
        )

    def head(self, n: int, name: str = None) -> "Workload":
        """First ``n`` launches as a reduced workload."""
        return self.subset(range(min(n, len(self))), name=name)

    # -- per-spec column helpers ----------------------------------------------
    def spec_column(self, fn) -> np.ndarray:
        """Vectorize a per-spec scalar ``fn`` over all invocations.

        ``fn`` receives a :class:`KernelSpec` and must return a float; the
        result is gathered through ``spec_ids`` so the cost is
        ``O(len(specs)) + O(len(self))``.
        """
        per_spec = np.array([float(fn(s)) for s in self.specs], dtype=np.float64)
        return per_spec[self.spec_ids]

    def dynamic_instruction_counts(self) -> np.ndarray:
        """Per-invocation dynamic instruction counts (NVBit's view)."""
        static = self.spec_column(lambda s: s.static_instruction_count())
        return np.maximum(1, np.round(static * self.work_scales)).astype(np.int64)

    def describe(self) -> Dict[str, float]:
        """Summary statistics used by Table 2-style reporting."""
        return {
            "num_invocations": float(len(self)),
            "num_specs": float(len(self.specs)),
            "num_kernel_names": float(len(self.kernel_names())),
            "num_contexts": float(len(np.unique(self.context_ids))) if len(self) else 0.0,
        }


@dataclass
class WorkloadBuilder:
    """Incrementally assemble a :class:`Workload`.

    Generators append launches (possibly in bulk) and call :meth:`build`.
    Specs are deduplicated by identity of the spec object's name + launch
    geometry, so repeated launches of the same kernel stay cheap.
    """

    name: str
    suite: str = "synthetic"
    _specs: List[KernelSpec] = field(default_factory=list)
    _spec_index: Dict[KernelSpec, int] = field(default_factory=dict)
    _spec_ids: List[np.ndarray] = field(default_factory=list)
    _context_ids: List[np.ndarray] = field(default_factory=list)
    _work_scales: List[np.ndarray] = field(default_factory=list)
    _localities: List[np.ndarray] = field(default_factory=list)
    _efficiencies: List[np.ndarray] = field(default_factory=list)

    def spec_id(self, spec: KernelSpec) -> int:
        """Intern a spec, returning its table index."""
        existing = self._spec_index.get(spec)
        if existing is not None:
            return existing
        self._specs.append(spec)
        self._spec_index[spec] = len(self._specs) - 1
        return len(self._specs) - 1

    def launch(
        self,
        spec: KernelSpec,
        context_id: int = 0,
        work_scale: float = 1.0,
        locality: float = 0.5,
        efficiency: float = 1.0,
    ) -> None:
        """Append a single kernel launch."""
        self.launch_bulk(
            spec,
            context_ids=np.array([context_id], dtype=np.int32),
            work_scales=np.array([work_scale], dtype=np.float64),
            localities=np.array([locality], dtype=np.float64),
            efficiencies=np.array([efficiency], dtype=np.float64),
        )

    def launch_bulk(
        self,
        spec: KernelSpec,
        context_ids: np.ndarray,
        work_scales: np.ndarray,
        localities: np.ndarray,
        efficiencies: np.ndarray = None,
    ) -> None:
        """Append many launches of one spec (vectorized fast path)."""
        n = len(context_ids)
        if efficiencies is None:
            efficiencies = np.ones(n, dtype=np.float64)
        if len(work_scales) != n or len(localities) != n or len(efficiencies) != n:
            raise ValueError("bulk launch arrays must have equal length")
        sid = self.spec_id(spec)
        self._spec_ids.append(np.full(n, sid, dtype=np.int32))
        self._context_ids.append(np.asarray(context_ids, dtype=np.int32))
        self._work_scales.append(np.asarray(work_scales, dtype=np.float64))
        self._localities.append(np.asarray(localities, dtype=np.float64))
        self._efficiencies.append(np.asarray(efficiencies, dtype=np.float64))

    def num_launches(self) -> int:
        return int(sum(len(a) for a in self._spec_ids))

    def build(self) -> Workload:
        """Finalize into an immutable-by-convention :class:`Workload`."""

        def concat(chunks: List[np.ndarray], dtype) -> np.ndarray:
            if not chunks:
                return np.empty(0, dtype=dtype)
            return np.concatenate(chunks).astype(dtype, copy=False)

        return Workload(
            name=self.name,
            suite=self.suite,
            specs=list(self._specs),
            spec_ids=concat(self._spec_ids, np.int32),
            context_ids=concat(self._context_ids, np.int32),
            work_scales=concat(self._work_scales, np.float64),
            localities=concat(self._localities, np.float64),
            efficiencies=concat(self._efficiencies, np.float64),
        )
