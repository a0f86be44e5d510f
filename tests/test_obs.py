"""Tests for the observability layer (repro.obs)."""

import io
import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.baselines import ProfileStore
from repro.core import StemRootSampler, evaluate_plan
from repro.hardware import get_preset
from repro.workloads import load_workload


def _small_store(scale=0.5, seed=0):
    workload = load_workload("rodinia", "bfs", scale=scale, seed=seed)
    return ProfileStore(workload, get_preset("rtx2080"), seed=seed)


class TestTracer:
    def test_span_nesting(self):
        tracer = obs.Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1
        assert outer.depth == 0
        names = [s.name for s in tracer.finished()]
        assert names == ["inner", "outer"]  # completion order

    def test_span_timing_and_attrs(self):
        tracer = obs.Tracer()
        with tracer.span("work", workload="bfs") as sp:
            sp.attrs["extra"] = 7
        assert sp.dur_us >= 0.0
        assert sp.attrs == {"workload": "bfs", "extra": 7}
        assert sp.status == "ok"

    def test_exception_safety(self):
        tracer = obs.Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("fails"):
                raise ValueError("boom")
        (span,) = tracer.finished()
        assert span.status == "error"
        assert span.attrs["error"] == "ValueError"
        assert tracer.current() is None  # stack unwound

    def test_thread_safety(self):
        tracer = obs.Tracer()

        def worker():
            for _ in range(50):
                with tracer.span("outer"):
                    with tracer.span("inner"):
                        pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.finished()
        assert len(spans) == 4 * 50 * 2
        # Nesting stayed per-thread: every inner's parent is on its thread.
        by_id = {s.span_id: s for s in spans}
        for s in spans:
            if s.name == "inner":
                assert by_id[s.parent_id].thread_id == s.thread_id


class TestNoopMode:
    def test_disabled_produces_zero_events(self):
        assert not obs.is_enabled()
        with obs.span("nothing", attr=1):
            obs.inc("some.counter", 5)
            obs.observe("some.hist", 1.0)
            obs.set_gauge("some.gauge", 2.0)
            obs.log_event("some.event", detail="x")
        # A later session sees none of it.
        with obs.scoped() as session:
            assert len(session.tracer) == 0
            assert session.metrics.snapshot() == {
                "counters": {}, "gauges": {}, "histograms": {}
            }
            assert len(session.events) == 0

    def test_noop_span_attr_writes_discarded(self):
        with obs.span("x") as sp:
            sp.attrs["k"] = "v"
        assert obs.NOOP_SPAN.attrs == {}

    def test_scoped_restores_previous_state(self):
        assert obs.current() is None
        with obs.scoped() as session:
            assert obs.current() is session
            with obs.scoped() as nested:
                assert obs.current() is nested
            assert obs.current() is session
        assert obs.current() is None

    def test_pipeline_bit_identical_with_and_without_obs(self):
        plain = StemRootSampler().build_plan_from_store(_small_store(), seed=0)
        with obs.scoped():
            traced = StemRootSampler().build_plan_from_store(
                _small_store(), seed=0
            )
        assert plain.to_json() == traced.to_json()


class TestMetrics:
    def test_counter_gauge(self):
        reg = obs.MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 4)
        reg.set_gauge("g", 2.5)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5

    def test_histogram_percentiles(self):
        h = obs.Histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.count == 100
        assert h.min == 1.0 and h.max == 100.0
        assert h.mean == pytest.approx(50.5)

    def test_empty_histogram_snapshot(self):
        assert obs.Histogram("e").snapshot()["count"] == 0


class TestExport:
    def test_chrome_trace_round_trips_through_json(self, tmp_path):
        with obs.scoped() as session:
            with obs.span("sampler.build_plan", workload="bfs"):
                with obs.span("root.split", invocations=np.int64(7)):
                    pass
            path = tmp_path / "trace.json"
            count = session.write_trace(str(path))
        assert count == 2
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert {e["name"] for e in events} == {"sampler.build_plan", "root.split"}
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
        # numpy attr values were coerced to JSON natives.
        (root,) = [e for e in events if e["name"] == "root.split"]
        assert root["args"]["invocations"] == 7
        # The file parses back to the same complete events.
        with open(path) as fh:
            assert len(json.load(fh)["traceEvents"]) == 2


class TestEvents:
    def test_level_filtering(self):
        log = obs.EventLog(level="info")
        assert not log.emit("quiet", level="debug")
        assert log.emit("loud", level="warning")
        assert [r["event"] for r in log.records()] == ["loud"]

    def test_jsonl_lines_are_strict_json(self):
        stream = io.StringIO()
        log = obs.EventLog(level="debug", stream=stream)
        log.emit("x", value=np.float64(1.5), inf=float("inf"), arr=[1, 2])
        (line,) = stream.getvalue().splitlines()
        record = json.loads(line)
        assert record["value"] == 1.5
        assert record["inf"] == "inf"
        assert record["arr"] == [1, 2]

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            obs.EventLog(level="loud")


class TestRunReport:
    def test_phases_and_self_time(self):
        with obs.scoped() as session:
            plan = StemRootSampler().build_plan_from_store(
                _small_store(), seed=0
            )
            evaluate_plan(plan, _small_store().execution_times())
            report = obs.build_run_report(session.tracer)
            counters = session.metrics.snapshot()["counters"]
        for phase in ("profile", "cluster", "plan", "simulate"):
            assert phase in report.phases, phase
            assert report.phases[phase].self_us > 0.0
        # Self-time never exceeds total span time.
        for summary in report.phases.values():
            assert summary.self_us <= summary.total_us + 1e-6
        assert report.wall_us > 0.0
        assert counters["root.splits_accepted"] > 0


class TestInstrumentation:
    def test_sample_pipeline_populates_series(self):
        with obs.scoped() as session:
            store = _small_store()
            plan = StemRootSampler().build_plan_from_store(store, seed=0)
            evaluate_plan(plan, store.execution_times())
            snap = session.metrics.snapshot()
        assert snap["counters"]["root.splits_accepted"] > 0
        assert snap["counters"]["stem.kkt_calls"] > 0
        assert snap["counters"]["sim.kernels_executed"] > 0
        assert snap["counters"]["sampler.samples_allocated"] == plan.num_samples
        assert snap["histograms"]["root.split_depth"]["count"] > 0
        span_names = {s.name for s in session.tracer.finished()}
        assert {"profile.nsys", "root.split", "sampler.build_plan",
                "sampler.allocate", "sim.evaluate_plan"} <= span_names

    def test_debug_events_record_split_decisions(self):
        with obs.scoped(log_level="debug") as session:
            StemRootSampler().build_plan_from_store(_small_store(), seed=0)
            decisions = session.events.records("root.split_decision")
        assert decisions
        for record in decisions:
            assert set(record) >= {"depth", "size", "accepted",
                                   "tau_old", "tau_new"}
        accepted = sum(bool(r["accepted"]) for r in decisions)
        assert accepted == session.metrics.counter("root.splits_accepted").value

    def test_simulator_metrics(self):
        from repro.sim import GpuSimulator

        with obs.scoped() as session:
            workload = load_workload("rodinia", "bfs", scale=0.2, seed=0)
            GpuSimulator(get_preset("rtx2080")).simulate_workload(
                workload, indices=range(3), seed=0
            )
            snap = session.metrics.snapshot()
        assert snap["counters"]["sim.kernels_executed"] == 3
        assert snap["histograms"]["sim.kernel_cycles"]["count"] == 3

    def test_scalability_uses_spans(self):
        from repro.experiments.scalability import run_scalability

        with obs.scoped() as session:
            points = run_scalability(scales=(0.02, 0.05), suite="rodinia",
                                     workload_name="bfs")
            profile_spans = session.tracer.find("profile.scalability")
            plan_spans = session.tracer.find("sampler.scalability")
        assert len(points) == 2
        assert len(profile_spans) == len(plan_spans) == 2
        for point, prof, plan in zip(points, profile_spans, plan_spans):
            assert point.profile_seconds == pytest.approx(prof.dur_us / 1e6)
            assert point.plan_seconds == pytest.approx(plan.dur_us / 1e6)

    def test_scalability_works_disabled(self):
        from repro.experiments.scalability import run_scalability

        assert not obs.is_enabled()
        points = run_scalability(scales=(0.02,), suite="rodinia",
                                 workload_name="bfs")
        assert points[0].plan_seconds > 0.0
