"""Tests for the parallel grid engine (:mod:`repro.parallel`).

The contract under test, in order of importance:

(a) **bit-identity** — ``jobs=N`` produces exactly the rows of
    ``jobs=1``, including N/A rows from infeasible methods and from
    fault plans that kill whole profiles;
(b) **resumability** — a parallel grid checkpoints per cell, a killed
    run resumes to identical rows, and sequential/parallel runs can
    resume each other's checkpoints;
(c) **profile cache** — hits skip collection, every invalidation path
    (seed, workload contents, GPU, tampered or torn entries) recollects,
    and cached profiles are byte-identical to collected ones;
(d) **observability** — worker spans and metrics merge into the parent
    session;
(e) the executor preserves payload order and propagates worker errors.
"""

import json
import math
import os

import numpy as np
import pytest

from repro import obs
from repro.baselines import ProfileStore
from repro.experiments import runner as runner_mod
from repro.experiments.dse import DseWorkloadSpec, run_dse
from repro.experiments.runner import (
    ExperimentConfig,
    run_suite,
    run_workload,
)
from repro.hardware import RTX_2080, get_preset
from repro.keys import derive_key
from repro.memo import ProfileCache
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.parallel import resolve_jobs, run_tasks
from repro.resilience import FaultPlan, GridCheckpoint
from repro.workloads import load_workload

METHODS = ["random", "stem"]
NAMES = ["gaussian", "bfs"]


def small_config(**overrides) -> ExperimentConfig:
    defaults = dict(repetitions=2, workload_scale=0.01)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def rows_equal(a, b) -> bool:
    """Exact row equality, treating NaN == NaN (N/A rows)."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        da, db = ra.as_dict(), rb.as_dict()
        for key in da:
            va, vb = da[key], db[key]
            if (
                isinstance(va, float)
                and isinstance(vb, float)
                and math.isnan(va)
                and math.isnan(vb)
            ):
                continue
            if va != vb:
                return False
    return True


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------
def _double(x):
    return x * 2


def _fail_on_two(x):
    if x == 2:
        raise ValueError("payload two is poison")
    return x


class TestRunTasks:
    def test_sequential_path(self):
        seen = []
        out = run_tasks(_double, [1, 2, 3], jobs=1, on_result=lambda i, v: seen.append((i, v)))
        assert out == [2, 4, 6]
        assert seen == [(0, 2), (1, 4), (2, 6)]

    def test_pool_preserves_payload_order(self):
        out = run_tasks(_double, list(range(8)), jobs=2)
        assert out == [2 * i for i in range(8)]

    def test_pool_on_result_covers_every_payload(self):
        seen = {}
        run_tasks(_double, [5, 6, 7], jobs=2, on_result=lambda i, v: seen.update({i: v}))
        assert seen == {0: 10, 1: 12, 2: 14}

    def test_worker_error_propagates(self):
        with pytest.raises(ValueError, match="poison"):
            run_tasks(_fail_on_two, [1, 2, 3], jobs=2)

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) == 1


# ---------------------------------------------------------------------------
# Property (a): parallel == sequential, bit for bit
# ---------------------------------------------------------------------------
class TestBitIdentity:
    def test_suite_rows_identical(self):
        config = small_config()
        seq = run_suite("rodinia", config=config, methods=METHODS, workload_names=NAMES)
        par = run_suite(
            "rodinia", config=config, methods=METHODS, workload_names=NAMES, jobs=4
        )
        assert par == seq

    def test_workload_rows_identical(self):
        w = load_workload("casio", "dlrm", scale=0.02, seed=0)
        config = small_config(workload_scale=0.02)
        seq = run_workload(w, config=config, methods=METHODS)
        par = run_workload(w, config=config, methods=METHODS, jobs=3)
        assert par == seq

    def test_infeasible_na_rows_identical(self):
        # PKA profiling is infeasible on HuggingFace-scale workloads;
        # the N/A rows must survive the worker round-trip too.
        w = load_workload("huggingface", "gpt2", scale=0.2, seed=0)
        config = ExperimentConfig(repetitions=2)
        seq = run_workload(w, config=config, methods=["pka", "stem"])
        par = run_workload(w, config=config, methods=["pka", "stem"], jobs=2)
        assert any(not r.feasible for r in seq)
        assert rows_equal(par, seq)

    def test_fault_plan_rows_identical(self):
        plan = FaultPlan(seed=5, nan_rate=0.15, negative_rate=0.05)
        config = small_config(fault_plan=plan)
        seq = run_suite("rodinia", config=config, methods=METHODS, workload_names=NAMES)
        par = run_suite(
            "rodinia", config=config, methods=METHODS, workload_names=NAMES, jobs=2
        )
        assert rows_equal(par, seq)

    def test_unrepairable_faults_degrade_identically(self):
        # drop_rate=1 zeroes every profile entry; repair cannot save it,
        # so every STEM cell (the method that reads the nsys profile at
        # plan time) becomes an N/A row — in both execution modes.
        plan = FaultPlan(seed=5, drop_rate=1.0)
        config = small_config(repetitions=1, fault_plan=plan)
        seq = run_suite(
            "rodinia", config=config, methods=["stem"], workload_names=NAMES
        )
        par = run_suite(
            "rodinia", config=config, methods=["stem"], workload_names=NAMES, jobs=2
        )
        assert all(not r.feasible for r in seq)
        assert rows_equal(par, seq)

    def test_dse_specs_identical(self):
        specs = [
            DseWorkloadSpec("rodinia", "bfs", 0.05, 25),
            DseWorkloadSpec("rodinia", "hotspot", 0.05, 25),
        ]
        seq = run_dse(workloads=specs, methods=["pka", "stem"], repetitions=1)
        par = run_dse(workloads=specs, methods=["pka", "stem"], repetitions=1, jobs=2)
        assert par == seq


# ---------------------------------------------------------------------------
# Property (b): checkpointing under parallel execution
# ---------------------------------------------------------------------------
class TestParallelCheckpoint:
    def _run(self, checkpoint=None, jobs=1):
        return run_suite(
            "rodinia",
            config=small_config(),
            methods=METHODS,
            workload_names=NAMES,
            checkpoint=checkpoint,
            jobs=jobs,
        )

    def test_killed_parallel_grid_resumes_identically(self, tmp_path, monkeypatch):
        clean = self._run()
        path = str(tmp_path / "grid.jsonl")

        # Crash every cell of one workload; the other workload's tasks
        # still land in the checkpoint before the error surfaces.
        real_build = runner_mod.build_plan

        def dying_build(sampler, store, seed):
            if store.workload.name == "bfs":
                raise RuntimeError("simulated worker crash")
            return real_build(sampler, store, seed)

        monkeypatch.setattr(runner_mod, "build_plan", dying_build)
        with pytest.raises(RuntimeError, match="worker crash"):
            self._run(checkpoint=path, jobs=2)
        monkeypatch.setattr(runner_mod, "build_plan", real_build)

        # Whatever made it to disk is complete, valid cells of the
        # surviving workload only.
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        recorded = [l for l in lines if l["kind"] == "row"]
        assert all(l["key"][1] == "gaussian" for l in recorded)

        # Resuming in parallel completes the grid with identical rows...
        resumed = self._run(checkpoint=path, jobs=2)
        assert resumed == clean
        # ...and a *sequential* run can replay the parallel checkpoint.
        assert self._run(checkpoint=path) == clean

    def test_parallel_resume_replays_without_recompute(self, tmp_path, monkeypatch):
        path = str(tmp_path / "grid.jsonl")
        clean = self._run(checkpoint=path, jobs=2)

        def exploding_build(sampler, store, seed):  # pragma: no cover
            raise AssertionError("resume recomputed a checkpointed cell")

        monkeypatch.setattr(runner_mod, "build_plan", exploding_build)
        assert self._run(checkpoint=path, jobs=2) == clean

    def test_sequential_checkpoint_resumed_in_parallel(self, tmp_path, monkeypatch):
        path = str(tmp_path / "grid.jsonl")
        clean = self._run(checkpoint=path)

        def exploding_build(sampler, store, seed):  # pragma: no cover
            raise AssertionError("resume recomputed a checkpointed cell")

        monkeypatch.setattr(runner_mod, "build_plan", exploding_build)
        assert self._run(checkpoint=path, jobs=4) == clean


# ---------------------------------------------------------------------------
# fsync batching
# ---------------------------------------------------------------------------
class TestFsyncBatching:
    def _record_rows(self, checkpoint, n):
        for i in range(n):
            checkpoint.record("s", "w", "m", i, {"repetition": i})

    def test_default_syncs_every_row(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls["n"] += 1
            return real_fsync(fd)

        monkeypatch.setattr(
            "repro.resilience.checkpoint.os.fsync", counting_fsync
        )
        with GridCheckpoint(str(tmp_path / "a.jsonl")) as cp:
            self._record_rows(cp, 6)
        assert calls["n"] == 7  # header + 6 rows (close has nothing left)

    def test_fsync_every_batches_barriers(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls["n"] += 1
            return real_fsync(fd)

        monkeypatch.setattr(
            "repro.resilience.checkpoint.os.fsync", counting_fsync
        )
        with GridCheckpoint(str(tmp_path / "b.jsonl"), fsync_every=4) as cp:
            self._record_rows(cp, 6)
        # header + row 4 + the close() flush of rows 5-6.
        assert calls["n"] == 3

    def test_batched_checkpoint_still_replays(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        with GridCheckpoint(path, fsync_every=16) as cp:
            self._record_rows(cp, 5)
        resumed = GridCheckpoint(path)
        assert len(resumed) == 5
        assert resumed.get("s", "w", "m", 3) == {"repetition": 3}
        resumed.close()


# ---------------------------------------------------------------------------
# Property (c): the profile cache
# ---------------------------------------------------------------------------
class TestProfileCache:
    @pytest.fixture()
    def workload(self):
        return load_workload("rodinia", "bfs", scale=0.05, seed=0)

    def test_hit_skips_collection_and_matches_exactly(self, tmp_path, workload):
        cache = ProfileCache(str(tmp_path / "cache"))
        t1 = ProfileStore(workload, RTX_2080, seed=3, cache=cache).execution_times()
        assert (cache.misses, cache.stores) == (1, 1)
        t2 = ProfileStore(workload, RTX_2080, seed=3, cache=cache).execution_times()
        assert cache.hits == 1 and cache.misses == 1
        uncached = ProfileStore(workload, RTX_2080, seed=3).execution_times()
        assert np.array_equal(t1, t2)
        assert np.array_equal(t1, uncached)

    def test_disk_layer_survives_process_boundary(self, tmp_path, workload):
        root = str(tmp_path / "cache")
        ProfileStore(workload, RTX_2080, seed=3, cache=ProfileCache(root)).execution_times()
        # A fresh cache object (= another process) hits the disk layer.
        fresh = ProfileCache(root)
        assert len(fresh) == 1
        ProfileStore(workload, RTX_2080, seed=3, cache=fresh).execution_times()
        assert (fresh.hits, fresh.misses) == (1, 0)

    def test_key_invalidation_axes(self, tmp_path, workload):
        cache = ProfileCache(str(tmp_path / "cache"))
        ProfileStore(workload, RTX_2080, seed=3, cache=cache).execution_times()
        # Different seed: miss.
        assert cache.get(workload, RTX_2080, seed=4) is None
        # Different workload contents (rescaled): miss.
        rescaled = load_workload("rodinia", "bfs", scale=0.1, seed=0)
        assert derive_key(rescaled) != derive_key(workload)
        assert cache.get(rescaled, RTX_2080, seed=3) is None
        # Different GPU: miss.
        assert cache.get(workload, get_preset("h100"), seed=3) is None
        # The original key still hits.
        assert cache.get(workload, RTX_2080, seed=3) is not None

    def test_stale_fingerprint_entry_recollected(self, tmp_path, workload):
        """An entry whose stored metadata disagrees with its key is dead."""
        root = str(tmp_path / "cache")
        cache = ProfileCache(root)
        times = ProfileStore(
            workload, RTX_2080, seed=3, cache=cache
        ).execution_times()
        key = ProfileCache.key_for(workload, RTX_2080, 3)
        path = cache._path(key)
        # Forge the entry: right key on disk, wrong fingerprint inside.
        meta = dict(ProfileCache._meta(workload, RTX_2080, 3, "nsys_times"))
        meta["fingerprint"] = "0" * 64
        blob = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, profile=np.zeros(3), meta=blob)

        fresh = ProfileCache(root)
        assert fresh.get(workload, RTX_2080, 3) is None
        recollected = ProfileStore(
            workload, RTX_2080, seed=3, cache=fresh
        ).execution_times()
        assert fresh.stores == 1  # the bad entry was replaced
        assert np.array_equal(recollected, times)

    def test_torn_entry_recollected(self, tmp_path, workload):
        root = str(tmp_path / "cache")
        cache = ProfileCache(root)
        ProfileStore(workload, RTX_2080, seed=3, cache=cache).execution_times()
        path = cache._path(ProfileCache.key_for(workload, RTX_2080, 3))
        with open(path, "wb") as fh:
            fh.write(b"not an npz file")
        fresh = ProfileCache(root)
        assert fresh.get(workload, RTX_2080, 3) is None

    def test_memory_lru_bounded(self, tmp_path, workload):
        cache = ProfileCache(str(tmp_path / "cache"), max_memory_entries=2)
        for seed in range(4):
            cache.put(workload, RTX_2080, seed, np.full(4, float(seed)))
        assert len(cache._memory) == 2
        assert len(cache) == 4  # disk keeps everything

    def test_grid_reuses_cached_profiles(self, tmp_path):
        config = small_config(repetitions=1)
        cache = ProfileCache(str(tmp_path / "cache"))
        baseline = run_suite(
            "rodinia", config=config, methods=METHODS, workload_names=NAMES
        )
        first = run_suite(
            "rodinia",
            config=config,
            methods=METHODS,
            workload_names=NAMES,
            profile_cache=cache,
        )
        misses_after_first = cache.misses
        again = run_suite(
            "rodinia",
            config=config,
            methods=METHODS,
            workload_names=NAMES,
            profile_cache=cache,
        )
        assert cache.misses == misses_after_first  # warm: no recollection
        assert cache.hits > 0
        # Cached and uncached rows are bit-identical.
        assert first == baseline
        assert again == baseline
        # The parallel path reads the same on-disk cache.
        par = run_suite(
            "rodinia",
            config=config,
            methods=METHODS,
            workload_names=NAMES,
            jobs=2,
            profile_cache=cache,
        )
        assert par == baseline


# ---------------------------------------------------------------------------
# Property (d): observability merging
# ---------------------------------------------------------------------------
class TestObsMerging:
    def test_tracer_ingest_remaps_and_tags(self):
        remote = Tracer()
        with remote.span("outer"):
            with remote.span("inner"):
                pass
        parent = Tracer()
        with parent.span("local"):
            pass
        count = parent.ingest(
            [s.to_dict() for s in remote.finished()],
            worker="w-1",
            epoch_wall=remote.epoch_wall,
        )
        assert count == 2
        spans = {s.name: s for s in parent.finished()}
        assert spans["inner"].attrs["worker"] == "w-1"
        # Parent link survived the id remap (completion order is
        # child-first, so this exercises the two-pass mapping).
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].span_id != 1  # remapped off the remote ids
        assert spans["local"].attrs.get("worker") is None

    def test_metrics_state_roundtrip(self):
        a = MetricsRegistry()
        a.inc("jobs.done", 3)
        a.set_gauge("depth", 2.0)
        for v in (1.0, 2.0, 3.0):
            a.observe("lat", v)
        b = MetricsRegistry()
        b.inc("jobs.done", 4)
        b.observe("lat", 5.0)
        b.merge_state(a.export_state())
        snap = b.snapshot()
        assert snap["counters"]["jobs.done"] == 7
        assert snap["gauges"]["depth"] == 2.0
        assert snap["histograms"]["lat"]["count"] == 4
        assert snap["histograms"]["lat"]["sum"] == 11.0
        assert snap["histograms"]["lat"]["max"] == 5.0

    def test_parallel_grid_merges_worker_obs(self):
        session = obs.configure()
        try:
            run_suite(
                "rodinia",
                config=small_config(repetitions=1),
                methods=["stem"],
                workload_names=NAMES,
                jobs=2,
            )
            spans = session.tracer.finished()
            worker_spans = [s for s in spans if s.attrs.get("worker")]
            assert worker_spans, "no worker spans were merged into the parent"
            assert any(s.name == "parallel.grid_task" for s in worker_spans)
            counters = session.metrics.snapshot()["counters"]
            assert counters.get("parallel.grid.tasks_completed", 0) == 2
            # Worker-side counters folded into the parent registry.
            assert counters.get("sim.kernels_executed", 0) > 0
        finally:
            obs.disable()


# ---------------------------------------------------------------------------
# Workload keys (the cache's key ingredient)
# ---------------------------------------------------------------------------
class TestWorkloadFingerprint:
    def test_deterministic_and_content_sensitive(self):
        a = load_workload("rodinia", "bfs", scale=0.05, seed=0)
        b = load_workload("rodinia", "bfs", scale=0.05, seed=0)
        assert derive_key(a) == derive_key(b)
        other_seed = load_workload("rodinia", "bfs", scale=0.05, seed=1)
        other_scale = load_workload("rodinia", "bfs", scale=0.1, seed=0)
        other_wl = load_workload("rodinia", "hotspot", scale=0.05, seed=0)
        keys = {
            derive_key(a),
            derive_key(other_seed),
            derive_key(other_scale),
            derive_key(other_wl),
        }
        assert len(keys) == 4
