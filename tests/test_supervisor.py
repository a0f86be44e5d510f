"""Chaos tests for self-healing parallel execution.

The contract under test (see :mod:`repro.parallel.supervisor` and
docs/robustness.md):

(a) **worker death is a scheduling event** — a SIGKILLed worker rebuilds
    the pool and re-dispatches only unfinished tasks, with results
    bit-identical to an undisturbed run;
(b) **poison quarantine** — a task that keeps killing workers is
    quarantined with a typed error (or recorded in the report) while the
    rest of the fan-out completes; innocents are never quarantined;
(c) **stall detection** — a wedged worker is caught via heartbeats,
    killed, and its task re-dispatched;
(d) **duplicate completions** — a second completion of a finished task
    is checked for purity and dropped, never used;
(e) **grid integration** — seeded process faults (`worker_kill` /
    `cache_corrupt`) leave every non-quarantined grid row bit-identical
    to the faultless sequential run, quarantined cells are enumerated
    and never checkpointed, and unrecoverable failures salvage completed
    cells into the checkpoint before a typed error propagates;
(f) **cache integrity** — corrupted cache entries are quarantined on
    read and recomputed byte-identically instead of poisoning results.

Workers that kill themselves use a *real* SIGKILL: the supervisor is
exercised against genuine pool breakage, not a simulated exception.
"""

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro import obs
from repro.errors import (
    GridExecutionError,
    PoisonedTaskError,
    ReproError,
    WorkerCrashError,
)
from repro.experiments import runner as runner_mod
from repro.experiments.runner import ExperimentConfig, run_suite, run_workload
from repro.hardware import RTX_2080
from repro.keys import derive_key
from repro.memo import ProfileCache, RawKernelSim, SimResultCache, sim_source_digest
from repro.obs.ledger import _resilience_summary
from repro.parallel import (
    SupervisionPolicy,
    SupervisionReport,
    run_tasks,
    supervise_tasks,
)
from repro.parallel.supervisor import _Flight, _Supervisor
from repro.resilience import FaultInjector, FaultPlan, GridCheckpoint
from repro.sim import GpuSimulator
from repro.workloads import load_workload

METHODS = ["random", "stem"]
NAMES = ["gaussian", "bfs"]

#: Pinned by scripts/seed search (see test docstrings): with
#: ``worker_kill_rate=0.3`` and this plan seed, every task index in a
#: 4-task grid draws at most ONE kill across attempts 1..8, so no task
#: can reach ``max_task_kills=2`` strikes under any dispatch schedule —
#: the grid must complete without quarantine.  Index 3 kills on attempt
#: 1, so at least one real worker death occurs.
KILL_RECOVER_SEED = 3672

#: With ``worker_kill_rate=0.6`` and this plan seed, task index 0 of a
#: 2-task grid draws kills on attempts 1..3 (enough for 2 solo strikes
#: under any schedule) while index 1 draws none on attempts 1..8 —
#: exactly one task is quarantined, the innocent never is.
POISON_SEED = 3623


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


# -- module-level workers (picklable by qualified name) ----------------------
def _double(x):
    return x * 2


def _kill_once_worker(arg):
    """SIGKILL our own process the first time the marker is absent."""
    value, marker = arg
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("dying")
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def _poison_worker(arg):
    """A task that kills its worker on every attempt."""
    value, poison = arg
    if poison:
        os.kill(os.getpid(), signal.SIGKILL)
    return value + 10


def _stall_once_worker(arg):
    """Wedge (sleep far past the heartbeat timeout) on the first attempt."""
    value, marker = arg
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("stalling")
        time.sleep(120.0)  # parent SIGKILLs us long before this returns
    return value * 5


# ---------------------------------------------------------------------------
# (a) worker death recovery
# ---------------------------------------------------------------------------
class TestWorkerDeathRecovery:
    def test_sigkilled_worker_recovers_bit_identically(self, tmp_path):
        marker = str(tmp_path / "killed-once")
        payloads = [(i, marker if i == 1 else None) for i in range(6)]
        # jobs=1 would run the self-SIGKILLing worker in-process; the
        # pure result is known statically instead.
        expected = [2 * i for i in range(6)]

        report = SupervisionReport()
        seen = {}
        out = run_tasks(
            _kill_once_worker,
            payloads,
            jobs=2,
            on_result=lambda i, v: seen.update({i: v}),
            report=report,
        )
        assert out == expected
        assert seen == {i: 2 * i for i in range(6)}
        assert report.worker_deaths >= 1
        assert report.pool_rebuilds >= 1
        assert report.redispatches >= 1
        assert report.poisoned == []

    def test_worker_exception_propagates_original_type(self):
        def fail(x):  # pragma: no cover - never submitted (not picklable)
            raise ValueError

        with pytest.raises(ValueError, match="poison"):
            run_tasks(_fail_on_two, [1, 2, 3], jobs=2)

    def test_unpicklable_worker_raises_instead_of_hanging(self, tmp_path):
        """A closure cannot be pickled to a pool worker.  Pool safety has
        no static check, so every test that runs a pool must fail on
        one, not hang.  Run in its own session, so a hang is a failure
        that leaves no worker behind."""
        script = textwrap.dedent("""
            from repro.parallel import run_tasks

            def dispatch(factor):
                def scaled(x):
                    return x * factor
                return run_tasks(scaled, [1, 2, 3], jobs=2)

            for _ in range(8):  # the old deadlock was a race: retry
                try:
                    dispatch(2)
                except Exception as err:
                    print(type(err).__name__, err)
        """)
        out = tmp_path / "out.txt"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        with open(out, "w") as fh:
            proc = subprocess.Popen(
                [sys.executable, "-c", script], stdout=fh,
                stderr=subprocess.STDOUT, env=env, start_new_session=True,
            )
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                pytest.fail("run_tasks hung on an unpicklable worker")
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 8 and all("pickle" in line for line in lines)

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs procfs")
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        """A SIGKILLed parent cannot shut its pool down; its workers
        notice the new parent pid and exit instead of idling forever."""
        script = textwrap.dedent("""
            import os, sys, time
            from repro.parallel import run_tasks

            def park(x):
                open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
                time.sleep(120)
                return x

            run_tasks(park, [1, 2], jobs=2)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            workers = _wait_for(lambda: [int(p.name) for p in tmp_path.iterdir()],
                                count=2, timeout=30)
            assert len(workers) == 2, "pool workers never started"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            alive = _wait_for(
                lambda: [pid for pid in workers if _alive(pid)], count=0, timeout=5
            )
            assert not alive, f"workers {alive} outlived their parent"
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()


def _wait_for(poll, count, timeout):
    """Poll until ``poll()`` returns ``count`` items or ``timeout`` s pass;
    returns the last result."""
    deadline = time.monotonic() + timeout
    got = poll()
    while len(got) != count and time.monotonic() < deadline:
        time.sleep(0.1)
        got = poll()
    return got


def _alive(pid):
    """True while ``pid`` runs; an unreaped zombie counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _fail_on_two(x):
    if x == 2:
        raise ValueError("payload two is poison")
    return x


# ---------------------------------------------------------------------------
# (b) poison-task quarantine
# ---------------------------------------------------------------------------
class TestPoisonQuarantine:
    def test_report_completes_around_poisoned_task(self):
        payloads = [(0, False), (1, True), (2, False), (3, False)]
        report = SupervisionReport()
        results, report = supervise_tasks(
            _poison_worker,
            payloads,
            jobs=2,
            policy=SupervisionPolicy(max_task_kills=2),
            report=report,
        )
        assert results == [10, None, 12, 13]
        assert report.poisoned_indices() == [1]
        assert report.poisoned[0].kills == 2
        assert isinstance(report.poisoned[0].error, PoisonedTaskError)

    def test_without_report_quarantine_raises(self):
        payloads = [(0, False), (1, True), (2, False)]
        with pytest.raises(PoisonedTaskError, match="quarantined") as exc:
            supervise_tasks(
                _poison_worker,
                payloads,
                jobs=2,
                policy=SupervisionPolicy(max_task_kills=2),
            )
        assert exc.value.index == 1
        assert exc.value.kills == 2
        assert isinstance(exc.value, WorkerCrashError)


# ---------------------------------------------------------------------------
# (c) heartbeat stall detection
# ---------------------------------------------------------------------------
class TestStallDetection:
    def test_stalled_worker_is_killed_and_redispatched(self, tmp_path):
        marker = str(tmp_path / "stalled-once")
        payloads = [(i, marker if i == 1 else None) for i in range(3)]
        report = SupervisionReport()
        results, report = supervise_tasks(
            _stall_once_worker,
            payloads,
            jobs=2,
            policy=SupervisionPolicy(heartbeat_timeout=1.0),
            report=report,
        )
        assert results == [5 * i for i in range(3)]
        assert report.stalls_detected >= 1
        assert report.worker_deaths >= 1
        assert report.poisoned == []


# ---------------------------------------------------------------------------
# (d) duplicate completions
# ---------------------------------------------------------------------------
class TestDuplicateCompletion:
    def _bare_supervisor(self) -> _Supervisor:
        return _Supervisor(
            worker=_double,
            payloads=[0, 1],
            jobs=2,
            on_result=None,
            label="t",
            policy=SupervisionPolicy(),
            capture_obs=False,
            fault_plan=None,
            report=SupervisionReport(),
            raise_on_poison=False,
        )

    def test_losing_duplicate_is_verified_not_used(self):
        sup = self._bare_supervisor()
        sup.results[0] = 5
        sup.done.add(0)
        # The second copy agrees: verified and dropped silently.
        sup._complete(_Flight(0, 1, 0.0), {"value": 5})
        assert sup.results[0] == 5
        assert sup.report.duplicate_mismatches == 0
        # NaN payloads (N/A rows) compare unequal to themselves; repr
        # equality is the purity check that must still pass.
        sup.results[1] = float("nan")
        sup.done.add(1)
        sup._complete(_Flight(1, 1, 0.0), {"value": float("nan")})
        assert sup.report.duplicate_mismatches == 0
        # A genuinely different value is a purity violation: counted.
        sup._complete(_Flight(0, 1, 0.0), {"value": 6})
        assert sup.report.duplicate_mismatches == 1
        assert sup.results[0] == 5  # the winner's value is never replaced


# ---------------------------------------------------------------------------
# (e) grid integration under seeded process faults
# ---------------------------------------------------------------------------
class TestGridChaos:
    def test_worker_kill_faults_bit_identical_to_sequential(self):
        plan = FaultPlan(seed=KILL_RECOVER_SEED, worker_kill_rate=0.3)
        config = small_config(fault_plan=plan)
        seq = run_suite(
            "rodinia", config=config, methods=METHODS, workload_names=NAMES
        )
        session = obs.configure()
        try:
            par = run_suite(
                "rodinia",
                config=config,
                methods=METHODS,
                workload_names=NAMES,
                jobs=2,
            )
            counters = session.metrics.snapshot()["counters"]
        finally:
            obs.disable()
        assert rows_equal(par, seq)
        assert not any(r.quarantined for r in par)
        # The faults really fired: at least one genuine worker death.
        assert counters.get("parallel.supervisor.worker_deaths", 0) >= 1
        assert counters.get("parallel.supervisor.redispatches", 0) >= 1

    def test_poisoned_cells_quarantined_and_resumable(self, tmp_path):
        plan = FaultPlan(seed=POISON_SEED, worker_kill_rate=0.6)
        config = small_config(repetitions=1, fault_plan=plan)
        clean_config = small_config(repetitions=1)
        clean = run_suite(
            "rodinia", config=clean_config, methods=METHODS, workload_names=NAMES
        )
        path = str(tmp_path / "chaos-grid.jsonl")
        rows = run_suite(
            "rodinia",
            config=config,
            methods=METHODS,
            workload_names=NAMES,
            checkpoint=path,
            jobs=2,
        )
        quarantined = [r for r in rows if r.quarantined]
        survivors = [r for r in rows if not r.quarantined]
        # Exactly one (workload, rep) task was poisoned: all its methods'
        # cells come back quarantined, N/A-shaped.
        assert {r.workload for r in quarantined} == {quarantined[0].workload}
        assert len(quarantined) == len(METHODS)
        assert all(not r.feasible and math.isnan(r.error_percent)
                   for r in quarantined)
        # Every surviving row is bit-identical to the faultless run.
        clean_by_key = {(r.workload, r.method, r.repetition): r for r in clean}
        expected = [
            clean_by_key[(r.workload, r.method, r.repetition)] for r in survivors
        ]
        assert rows_equal(survivors, expected)
        # Quarantined cells were never checkpointed...
        with open(path) as fh:
            recorded = [json.loads(line) for line in fh if line.strip()]
        recorded_keys = {tuple(l["key"]) for l in recorded if l["kind"] == "row"}
        assert all(
            (r.suite, r.workload, r.method, r.repetition) not in recorded_keys
            for r in quarantined
        )
        assert len(recorded_keys) == len(survivors)
        # ...so a fault-free resume retries exactly them and completes the
        # grid to the clean rows.  (The checkpoint adopts its stored
        # config; the poisoned cells' fault draws are gone with the plan.)
        resume = GridCheckpoint(path)
        try:
            resumed = run_suite(
                "rodinia",
                config=clean_config,
                methods=METHODS,
                workload_names=NAMES,
                checkpoint=resume,
                jobs=2,
            )
        finally:
            resume.close()
        assert rows_equal(resumed, clean)

    def test_unrecoverable_failure_salvages_completed_cells(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "salvage.jsonl")
        real_build = runner_mod.build_plan

        def dying_build(sampler, store, seed):
            if store.workload.name == "bfs":
                raise RuntimeError("simulated worker crash")
            return real_build(sampler, store, seed)

        monkeypatch.setattr(runner_mod, "build_plan", dying_build)
        with pytest.raises(GridExecutionError, match="worker crash") as exc:
            run_suite(
                "rodinia",
                config=small_config(),
                methods=METHODS,
                workload_names=NAMES,
                checkpoint=path,
                jobs=2,
            )
        err = exc.value
        assert isinstance(err, RuntimeError) and isinstance(err, ReproError)
        # The salvaged cells are enumerated and all flushed to disk.
        assert all(key[1] == "gaussian" for key in err.completed_cells)
        with open(path) as fh:
            recorded = [json.loads(line) for line in fh if line.strip()]
        recorded_keys = {tuple(l["key"]) for l in recorded if l["kind"] == "row"}
        assert recorded_keys == {tuple(key) for key in err.completed_cells}

    def test_cache_corruption_recomputed_identically(self, tmp_path):
        plan = FaultPlan(seed=11, cache_corrupt_rate=1.0)
        config = small_config(repetitions=1, fault_plan=plan)
        baseline = run_suite(
            "rodinia",
            config=small_config(repetitions=1),
            methods=METHODS,
            workload_names=NAMES,
        )
        root = str(tmp_path / "cache")
        first = run_suite(
            "rodinia",
            config=config,
            methods=METHODS,
            workload_names=NAMES,
            profile_cache=ProfileCache(root),
        )
        # Every stored entry was corrupted on disk; a second run must
        # quarantine them all and recollect, never reading garbage.
        fresh = ProfileCache(root)
        second = run_suite(
            "rodinia",
            config=config,
            methods=METHODS,
            workload_names=NAMES,
            profile_cache=fresh,
        )
        assert rows_equal(first, baseline)
        assert rows_equal(second, baseline)
        assert fresh.corrupt > 0
        assert os.path.isdir(os.path.join(root, "quarantine"))

    def test_cache_fault_ends_with_its_run(self, tmp_path):
        """A ``cache_corrupt`` run leaves a shared cache handle clean.

        The injector goes with each write, so a fault-free run on the
        same handle afterwards stores entries a fresh handle reads back.
        """
        root = str(tmp_path / "cache")
        cache = ProfileCache(root)
        run_workload(
            load_workload("rodinia", "gaussian", scale=0.05, seed=0),
            config=small_config(
                repetitions=1, fault_plan=FaultPlan(seed=11, cache_corrupt_rate=1.0)
            ),
            methods=["stem"],
            profile_cache=cache,
        )
        bfs = load_workload("rodinia", "bfs", scale=0.05, seed=0)
        clean = small_config()
        first = run_workload(bfs, config=clean, methods=["stem"], profile_cache=cache)
        fresh = ProfileCache(root)
        again = run_workload(bfs, config=clean, methods=["stem"], profile_cache=fresh)
        assert (fresh.hits, fresh.misses, fresh.corrupt) == (2, 0, 0)
        assert rows_equal(first, again)


# ---------------------------------------------------------------------------
# (f) cache integrity: checksums, quarantine, recompute
# ---------------------------------------------------------------------------
class _CacheIntegrity:
    """Quarantine rules of the shared entry store (:mod:`repro.memo.store`).

    Each subclass adapts one cache: ``make(root)`` opens it, ``write``
    stores the reference entry and returns its key, ``read`` returns the
    entry (``None`` on a miss) and ``matches`` compares it with the
    reference.  The same tests then run against both caches.
    """

    def _written(self, tmp_path):
        root = str(tmp_path / "cache")
        cache = self.make(root)
        return root, cache, self.write(cache)

    def _assert_quarantined(self, root):
        fresh = self.make(root)
        assert self.read(fresh) is None
        assert fresh.corrupt == 1
        assert len(fresh) == 0  # quarantine excluded from the entry count
        assert len(os.listdir(os.path.join(root, "quarantine"))) == 1
        return fresh

    def _assert_restores(self, cache):
        """The freed slot takes a re-store that reads back unchanged."""
        self.write(cache)
        cache.clear_memory()
        assert self.matches(self.read(cache))
        assert len(cache) == 1

    def test_unreadable_entry_quarantined(self, tmp_path):
        root, cache, key = self._written(tmp_path)
        with open(cache._path(key), "wb") as fh:
            fh.write(b"not an npz file")
        self._assert_restores(self._assert_quarantined(root))

    def test_checksum_mismatch_quarantines_and_recollects(self, tmp_path):
        root, cache, key = self._written(tmp_path)
        # Rewrite the entry with one array element changed, meta untouched.
        path = cache._path(key)
        with np.load(path, allow_pickle=False) as payload:
            arrays = {name: np.array(payload[name]) for name in payload.files}
        arrays[cache.array_names[-1]].flat[0] += 1
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        self._assert_restores(self._assert_quarantined(root))

    def test_injected_corruption_never_poisons_reads(self, tmp_path):
        root, cache, key = self._written(tmp_path)
        injector = FaultInjector(FaultPlan(seed=7, cache_corrupt_rate=1.0))
        assert injector.cache_corrupt_decision(key)
        injector.corrupt_cache_entry(cache._path(key), key)
        self._assert_restores(self._assert_quarantined(root))

    def test_clean_entry_roundtrip_unaffected(self, tmp_path):
        root, _cache, _key = self._written(tmp_path)
        fresh = self.make(root)
        assert self.matches(self.read(fresh))
        assert fresh.corrupt == 0 and len(fresh) == 1


def _sha256_of(arrays) -> str:
    """The entry checksum, spelled out: dtype, shape, bytes per array."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(str(array.dtype).encode())
        h.update(repr(tuple(array.shape)).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _save_entry(root, key, meta, **arrays) -> None:
    """Write an entry by hand in the v2 on-disk layout."""
    os.makedirs(os.path.join(root, key[:2]), exist_ok=True)
    blob = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(os.path.join(root, key[:2], key + ".npz"), "wb") as fh:
        np.savez(fh, **arrays, meta=blob)


class TestProfileCacheIntegrity(_CacheIntegrity):
    WORKLOAD = load_workload("rodinia", "bfs", scale=0.05, seed=0)
    PROFILE = np.linspace(1.0, 2.0, 16)

    make = ProfileCache

    def write(self, cache):
        return cache.put(self.WORKLOAD, RTX_2080, 3, self.PROFILE)

    def read(self, cache):
        return cache.get(self.WORKLOAD, RTX_2080, 3)

    def matches(self, got):
        return got is not None and np.array_equal(got, self.PROFILE)

    def test_hand_built_entry_reads_back(self, tmp_path):
        root = str(tmp_path / "cache")
        workload = self.WORKLOAD
        key = derive_key((2, "nsys_times", 3, workload, RTX_2080))
        meta = {
            "version": 2,
            "kind": "nsys_times",
            "workload": workload.name,
            "suite": workload.suite,
            "fingerprint": derive_key(workload),
            "gpu": RTX_2080.name,
            "gpu_key": derive_key(RTX_2080),
            "seed": 3,
            "checksum": _sha256_of([self.PROFILE]),
        }
        _save_entry(root, key, meta, profile=self.PROFILE)
        cache = ProfileCache(root)
        assert self.matches(self.read(cache))
        assert (cache.hits, cache.misses, cache.corrupt) == (1, 0, 0)


class TestSimCacheIntegrity(_CacheIntegrity):
    INDICES = [0, 1, 2, 3]
    RAWS = {
        i: RawKernelSim(
            wave_cycles=100.0 + i,
            extrapolation=1.5,
            stall_cycles=10.0 * i,
            events=np.arange(6, dtype=np.int64) + i,
        )
        for i in INDICES
    }

    make = SimResultCache

    def write(self, cache):
        return cache.store("ctx", self.INDICES, self.RAWS)

    def read(self, cache):
        found, missing = cache.load("ctx", self.INDICES)
        return None if missing else found

    def matches(self, got):
        return got is not None and all(
            got[i].wave_cycles == raw.wave_cycles
            and got[i].extrapolation == raw.extrapolation
            and got[i].stall_cycles == raw.stall_cycles
            and np.array_equal(got[i].events, raw.events)
            for i, raw in self.RAWS.items()
        )

    def test_hand_built_entry_reads_back(self, tmp_path):
        root = str(tmp_path / "cache")
        workload = load_workload("rodinia", "bfs", scale=0.05, seed=0)
        spec = GpuSimulator(RTX_2080).spec
        assert SimResultCache.context_for(workload, RTX_2080, 5, spec) == (
            derive_key((2, sim_source_digest(), workload, RTX_2080, 5, spec))
        )
        indices = np.asarray(self.INDICES, dtype=np.int64)
        key = hashlib.sha256(b"ctx" + b"\x00" + indices.tobytes()).hexdigest()
        arrays = dict(
            indices=indices,
            wave_cycles=np.array([r.wave_cycles for r in self.RAWS.values()]),
            extrapolation=np.array([r.extrapolation for r in self.RAWS.values()]),
            stall_cycles=np.array([r.stall_cycles for r in self.RAWS.values()]),
            events=np.stack([r.events for r in self.RAWS.values()]),
        )
        meta = {
            "version": 2,
            "context": "ctx",
            "n": len(indices),
            "checksum": _sha256_of(arrays.values()),
        }
        _save_entry(root, key, meta, **arrays)
        cache = SimResultCache(root)
        assert self.matches(self.read(cache))
        assert (cache.hits, cache.misses, cache.corrupt) == (4, 0, 0)


# ---------------------------------------------------------------------------
# Policy validation, fault-spec parsing, ledger summary
# ---------------------------------------------------------------------------
class TestPlumbing:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(max_task_kills=0)
        with pytest.raises(ValueError):
            SupervisionPolicy(heartbeat_timeout=0.0)
        with pytest.raises(ValueError):
            SupervisionPolicy(poll_interval=-1.0)

    def test_fault_spec_accepts_process_faults(self):
        plan = FaultPlan.from_spec(
            "seed=9,worker_kill=0.2,stall=0.1,stall_s=2.5,cache_corrupt=0.4"
        )
        assert plan.worker_kill_rate == 0.2
        assert plan.worker_stall_rate == 0.1
        assert plan.worker_stall_s == 2.5
        assert plan.cache_corrupt_rate == 0.4
        assert plan.faults_workers and plan.corrupts_cache
        assert "worker_stall_s: 2.5" in plan.describe()

    def test_ci_chaos_plan_corrupts_a_grid_entry(self, tmp_path):
        """CI's chaos-smoke plan must corrupt at least one of its grid's
        profile entries, and its cache rate must not move the kill
        schedule that KILL_RECOVER_SEED was pinned for."""
        root = str(tmp_path / "cache")
        run_suite(
            "rodinia",
            config=small_config(workload_scale=0.05),
            methods=METHODS,
            workload_names=["bfs", "gaussian"],
            profile_cache=ProfileCache(root),
        )
        keys = [
            name[:-4]
            for sub in os.listdir(root)
            for name in os.listdir(os.path.join(root, sub))
        ]
        assert len(keys) == 4
        spec = "seed={},worker_kill=0.3,cache_corrupt={},nan=0.02"
        chaos = FaultInjector(FaultPlan.from_spec(spec.format(KILL_RECOVER_SEED, 0.9)))
        assert any(chaos.cache_corrupt_decision(key) for key in keys)
        before = FaultInjector(FaultPlan.from_spec(spec.format(KILL_RECOVER_SEED, 0.5)))
        assert [
            chaos.worker_decision(i, a).kind for i in range(4) for a in range(1, 9)
        ] == [before.worker_decision(i, a).kind for i in range(4) for a in range(1, 9)]

    def test_worker_decisions_deterministic(self):
        inj = FaultInjector(FaultPlan(seed=5, worker_kill_rate=0.5))
        first = [inj.worker_decision(i, a).kind
                 for i in range(8) for a in (1, 2)]
        again = [inj.worker_decision(i, a).kind
                 for i in range(8) for a in (1, 2)]
        assert first == again
        assert "kill" in first and "ok" in first

    def test_ledger_summary_maps_supervisor_counters(self):
        counters = {
            "parallel.supervisor.worker_deaths": 3,
            "parallel.supervisor.pool_rebuilds": 3,
            "parallel.supervisor.redispatches": 4,
            "parallel.supervisor.tasks_poisoned": 1,
            "parallel.grid.cells_quarantined": 2,
            "parallel.profile_cache.corrupt_quarantined": 2,
            "memo.sim_cache.corrupt_quarantined": 1,
        }
        summary = _resilience_summary(counters, {})
        assert summary["worker_deaths"] == 3
        assert summary["task_redispatches"] == 4
        assert summary["tasks_poisoned"] == 1
        assert summary["cells_quarantined"] == 2
        assert summary["cache_entries_quarantined"] == 3
