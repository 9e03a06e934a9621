"""Tests for `repro.obs`: tracing, metrics, audit, exporters, validators.

The integration tests build a small adaptive application with
observability enabled and check the acceptance properties of the
subsystem: the span tree nests build → stage → engine evaluation, the
exported artifacts pass their own validators, every operating-point
switch in a fig5-style scenario has one explained audit entry, and a
seeded run is byte-identical with observability on or off.
"""

import json

import pytest

from repro.core.scenario import Phase, Scenario
from repro.core.toolflow import SocratesToolflow
from repro.core.trace import trace_to_csv
from repro.engine.telemetry import StageEvent, TelemetryRecorder, stage_report
from repro.margot.asrtm import ApplicationRuntimeManager
from repro.margot.goal import ComparisonFunction, Goal
from repro.margot.knowledge import KnowledgeBase, MetricStats, OperatingPoint
from repro.margot.monitor import Monitor
from repro.margot.state import (
    Constraint,
    OptimizationState,
    maximize_throughput,
    maximize_throughput_per_watt_squared,
    minimize_time,
)
from repro.obs import NULL_OBS, NULL_TRACER, Observability
from repro.obs.audit import (
    AdaptationAuditLog,
    AdaptationEntry,
    CandidateTrace,
    ConstraintTrace,
    compose_reason,
    describe_rank,
)
from repro.obs.export import (
    chrome_trace,
    events_jsonl,
    prometheus_text,
    write_audit_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    NULL_METRICS,
)
from repro.obs.tracing import Tracer
from repro.obs.validate import (
    validate_chrome_trace,
    validate_events_jsonl,
    validate_file,
    validate_prometheus_text,
)
from repro.polybench.suite import load


class FakeClock:
    """Deterministic monotonic clock for tracer tests."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestTracer:
    def test_nesting_parent_child(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert tracer.children(outer) == [inner]
        # completion order: inner finishes first
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_child_contained_in_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s
        assert inner.duration_s >= 0.0

    def test_exception_marks_span_not_ok(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.ok is False

    def test_attributes_and_annotate(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("s", kernel="2mm"):
            tracer.annotate(points=32)
        (span,) = tracer.spans
        assert span.attributes == {"kernel": "2mm", "points": 32}

    def test_annotate_outside_span_is_noop(self):
        tracer = Tracer(clock=FakeClock())
        tracer.annotate(ignored=True)
        assert tracer.spans == []

    def test_adopt_lays_out_from_parent_start(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("parent") as parent:
            adopted = tracer.adopt("worker", duration_s=0.25, offset_s=0.5, track="pool-0")
        assert adopted.parent_id == parent.span_id
        assert adopted.start_s == pytest.approx(parent.start_s + 0.5)
        assert adopted.end_s == pytest.approx(parent.start_s + 0.75)
        assert adopted.track == "pool-0"

    def test_find_and_clear(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        with tracer.span("a"):
            pass
        assert len(tracer.find("a")) == 2
        tracer.clear()
        assert tracer.spans == []

    def test_current_tracks_stack(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.current is None
        with tracer.span("s") as span:
            assert tracer.current is span
        assert tracer.current is None

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("ignored", attr=1):
            NULL_TRACER.annotate(attr=2)
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.adopt("w", 1.0) is None
        assert NULL_TRACER.current is None
        assert NULL_TRACER.enabled is False

    def test_null_tracer_shares_context(self):
        # the disabled fast path must not allocate per call
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10.0)
        gauge.inc(5.0)
        gauge.dec(2.0)
        assert gauge.value == 13.0

    def test_histogram_buckets(self):
        hist = MetricsRegistry().histogram("h", boundaries=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        # le=1.0 holds 0.5 and 1.0; le=10.0 holds 5.0; +Inf holds 100.0
        assert hist.bucket_counts == [2, 1, 1]
        assert hist.cumulative_counts() == [2, 3, 4]
        assert hist.count == 4
        assert hist.total == pytest.approx(106.5)
        assert hist.mean == pytest.approx(106.5 / 4)

    def test_histogram_rejects_bad_boundaries(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", boundaries=())
        with pytest.raises(ValueError):
            registry.histogram("bad", boundaries=(2.0, 1.0))

    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert len(registry) == 1
        assert "x" in registry

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_instruments_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta")
        registry.counter("alpha")
        assert [i.name for i in registry.instruments()] == ["alpha", "zeta"]

    def test_absorb_monitor(self):
        registry = MetricsRegistry()
        monitor = Monitor("m", window_size=4)
        for value in (1.0, 2.0, 3.0):
            monitor.push(value)
        registry.absorb_monitor("power", monitor)
        assert registry.get("socrates_monitor_power_average").value == pytest.approx(2.0)
        assert registry.get("socrates_monitor_power_count").value == 3.0
        # re-absorbing is idempotent (gauges, not counters)
        registry.absorb_monitor("power", monitor)
        assert registry.get("socrates_monitor_power_count").value == 3.0

    def test_null_registry_is_inert(self):
        instrument = NULL_METRICS.counter("anything")
        instrument.inc()
        instrument.observe(1.0)
        instrument.set(5.0)
        assert instrument is NULL_METRICS.histogram("other")
        assert len(NULL_METRICS) == 0
        assert NULL_METRICS.enabled is False


def op(threads, time, power):
    return OperatingPoint(
        knobs={"threads": threads},
        metrics={
            "time": MetricStats(time),
            "power": MetricStats(power),
            "throughput": MetricStats(1.0 / time),
        },
    )


@pytest.fixture
def kb():
    return KnowledgeBase(
        [
            op(1, time=8.0, power=45.0),
            op(4, time=2.5, power=70.0),
            op(8, time=1.4, power=95.0),
            op(16, time=0.9, power=130.0),
        ]
    )


class TestAuditLog:
    def _entry(self, **overrides):
        base = dict(
            sequence=0,
            state="perf",
            rank="minimize time^1",
            considered=4,
            survivors=2,
            constraints=[],
            candidates=[
                CandidateTrace(knobs=(("threads", 8),), rank_value=1.4),
                CandidateTrace(knobs=(("threads", 4),), rank_value=2.5),
            ],
            winner={"threads": 8},
            winner_rank=1.4,
            switched_from=None,
            reason="",
        )
        base.update(overrides)
        return AdaptationEntry(**base)

    def test_record_composes_reason(self):
        log = AdaptationAuditLog()
        entry = log.record(self._entry())
        assert "initial selection under state 'perf'" in entry.reason
        assert "threads=8" in entry.reason
        assert "runner-up" in entry.reason

    def test_explicit_reason_kept(self):
        log = AdaptationAuditLog()
        entry = log.record(self._entry(reason="custom"))
        assert entry.reason == "custom"

    def test_switch_reason_names_predecessor(self):
        reason = compose_reason(self._entry(switched_from={"threads": 1}))
        assert "switched from (threads=1)" in reason

    def test_relaxed_constraint_reported(self):
        trace = ConstraintTrace(
            goal="power <= 10.0",
            adjustment=1.0,
            survivors_before=4,
            survivors_after=1,
            relaxed=True,
        )
        reason = compose_reason(self._entry(constraints=[trace]))
        assert "relaxed" in reason

    def test_next_sequence_counts_entries(self):
        log = AdaptationAuditLog()
        assert log.next_sequence() == 0
        log.record(self._entry())
        assert log.next_sequence() == 1

    def test_as_dicts_round_trips_json(self):
        log = AdaptationAuditLog()
        log.record(self._entry())
        (payload,) = log.as_dicts()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["winner"] == {"threads": 8}

    def test_max_candidates_validated(self):
        with pytest.raises(ValueError):
            AdaptationAuditLog(max_candidates=0)

    def test_describe_rank(self):
        assert describe_rank(maximize_throughput_per_watt_squared()) == (
            "maximize throughput^1*power^-2"
        )
        assert describe_rank(minimize_time()).startswith("minimize time")


class TestAsrtmAudit:
    def test_initial_selection_recorded(self, kb):
        audit = AdaptationAuditLog()
        asrtm = ApplicationRuntimeManager(kb, audit=audit)
        asrtm.add_state(OptimizationState("perf", rank=minimize_time()))
        best = asrtm.update()
        (entry,) = audit.entries
        assert entry.switched_from is None
        assert entry.winner == dict(best.knobs)
        assert entry.considered == 4
        assert entry.state == "perf"

    def test_no_entry_without_switch(self, kb):
        audit = AdaptationAuditLog()
        asrtm = ApplicationRuntimeManager(kb, audit=audit)
        asrtm.add_state(OptimizationState("perf", rank=minimize_time()))
        asrtm.update()
        asrtm.update()
        asrtm.update()
        assert len(audit) == 1  # stable selection: only the initial entry

    def test_state_switch_recorded_with_predecessor(self, kb):
        audit = AdaptationAuditLog()
        asrtm = ApplicationRuntimeManager(kb, audit=audit)
        asrtm.add_state(OptimizationState("perf", rank=minimize_time()))
        efficiency = OptimizationState(
            "eff", rank=maximize_throughput_per_watt_squared()
        )
        asrtm.add_state(efficiency)
        first = asrtm.update()
        asrtm.switch_state("eff")
        second = asrtm.update()
        assert second.key != first.key
        assert len(audit) == 2
        entry = audit.entries[-1]
        assert entry.switched_from == dict(first.knobs)
        assert entry.state == "eff"
        assert entry.winner == dict(second.knobs)

    def test_constraint_filtering_traced(self, kb):
        audit = AdaptationAuditLog()
        asrtm = ApplicationRuntimeManager(kb, audit=audit)
        state = OptimizationState("capped", rank=minimize_time())
        state.add_constraint(
            Constraint(Goal("power", ComparisonFunction.LESS_OR_EQUAL, 100.0))
        )
        asrtm.add_state(state)
        best = asrtm.update()
        assert best.knob("threads") == 8
        (entry,) = audit.entries
        (trace,) = entry.constraints
        assert trace.survivors_before == 4
        assert trace.survivors_after == 3  # 130 W excluded
        assert trace.relaxed is False

    def test_relaxation_traced(self, kb):
        audit = AdaptationAuditLog()
        asrtm = ApplicationRuntimeManager(kb, audit=audit)
        state = OptimizationState("impossible", rank=minimize_time())
        state.add_constraint(
            Constraint(Goal("power", ComparisonFunction.LESS_OR_EQUAL, 10.0))
        )
        asrtm.add_state(state)
        asrtm.update()
        (entry,) = audit.entries
        assert entry.constraints[0].relaxed is True
        assert "relaxed" in entry.reason

    def test_candidates_sorted_best_first_and_capped(self, kb):
        audit = AdaptationAuditLog(max_candidates=2)
        asrtm = ApplicationRuntimeManager(kb, audit=audit)
        asrtm.add_state(OptimizationState("perf", rank=minimize_time()))
        asrtm.update()
        (entry,) = audit.entries
        assert len(entry.candidates) == 2
        values = [candidate.rank_value for candidate in entry.candidates]
        assert values == sorted(values)  # minimize: best (lowest) first
        assert dict(entry.candidates[0].knobs) == entry.winner

    def test_audit_off_by_default(self, kb):
        asrtm = ApplicationRuntimeManager(kb)
        assert asrtm.audit is None
        asrtm.add_state(OptimizationState("perf", rank=minimize_time()))
        asrtm.update()  # must not blow up without an audit log


def make_spans():
    tracer = Tracer(clock=FakeClock(step=0.5))
    with tracer.span("build", app="mvt"):
        with tracer.span("stage:profile"):
            with tracer.span("engine.evaluate", points=4):
                tracer.adopt("truth:a", duration_s=0.2, offset_s=0.0, track="pool-0")
                tracer.adopt("truth:b", duration_s=0.3, offset_s=0.2, track="pool-0")
    return tracer.spans


class TestExporters:
    def test_chrome_trace_structure(self):
        document = chrome_trace(make_spans(), process_name="test")
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in metadata} == {"process_name", "thread_name"}
        assert len(spans) == 5
        # re-based to zero and microseconds
        assert min(e["ts"] for e in spans) == 0.0
        # main track is tid 0, the pool lane gets its own tid
        tids = {e["name"]: e["tid"] for e in spans}
        assert tids["build"] == 0
        assert tids["truth:a"] == tids["truth:b"] != 0
        # parent links preserved in args
        build = next(e for e in spans if e["name"] == "build")
        stage = next(e for e in spans if e["name"] == "stage:profile")
        assert stage["args"]["parent_id"] == build["args"]["span_id"]
        assert build["args"]["app"] == "mvt"
        assert build["args"]["ok"] is True

    def test_chrome_trace_round_trip_validates(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(make_spans(), path)
        assert count == 5
        summary = validate_chrome_trace(path)
        assert summary["spans"] == 5

    def test_events_jsonl_stream(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        audit = AdaptationAuditLog()
        audit.record(
            AdaptationEntry(
                sequence=0,
                state="s",
                rank="minimize time^1",
                considered=1,
                survivors=1,
                constraints=[],
                candidates=[CandidateTrace(knobs=(("threads", 1),), rank_value=1.0)],
                winner={"threads": 1},
                winner_rank=1.0,
                switched_from=None,
                reason="",
            )
        )
        lines = list(events_jsonl(make_spans(), registry, audit))
        kinds = [json.loads(line)["type"] for line in lines]
        assert kinds.count("span") == 5
        assert kinds.count("metric") == 1
        assert kinds.count("adaptation") == 1
        path = tmp_path / "events.jsonl"
        assert write_jsonl(path, make_spans(), registry, audit) == 7
        assert validate_events_jsonl(path) == {
            "span": 5,
            "metric": 1,
            "adaptation": 1,
        }
        audit_path = tmp_path / "audit.jsonl"
        assert write_audit_jsonl(audit, audit_path) == 1
        assert validate_events_jsonl(audit_path) == {"adaptation": 1}

    def test_prometheus_text_validates(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("socrates_points_total", help="points").inc(7)
        registry.gauge("socrates_last_power_w").set(93.5)
        hist = registry.histogram(
            "socrates_batch_points", boundaries=DEFAULT_SIZE_BUCKETS
        )
        for value in (2, 40, 5000):
            hist.observe(value)
        text = prometheus_text(registry)
        assert "# TYPE socrates_points_total counter" in text
        assert "socrates_points_total 7" in text
        assert 'socrates_batch_points_bucket{le="+Inf"} 3' in text
        assert "socrates_batch_points_count 3" in text
        path = tmp_path / "metrics.prom"
        write_prometheus(registry, path)
        assert validate_prometheus_text(path)["samples"] >= 11

    def test_empty_spans_export(self):
        document = chrome_trace([])
        assert [e["ph"] for e in document["traceEvents"]] == ["M", "M"]


class TestValidators:
    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            validate_chrome_trace(path)

    def test_rejects_missing_dur(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 0}]}
            )
        )
        with pytest.raises(ValueError, match="lacks 'dur'"):
            validate_chrome_trace(path)

    def test_rejects_partial_overlap(self, tmp_path):
        path = tmp_path / "bad.json"
        events = [
            {"name": "a", "ph": "X", "ts": 0, "dur": 100, "pid": 1, "tid": 0},
            {"name": "b", "ph": "X", "ts": 50, "dur": 100, "pid": 1, "tid": 0},
        ]
        path.write_text(json.dumps({"traceEvents": events}))
        with pytest.raises(ValueError, match="must nest"):
            validate_chrome_trace(path)

    def test_accepts_sibling_spans(self, tmp_path):
        path = tmp_path / "ok.json"
        events = [
            {"name": "a", "ph": "X", "ts": 0, "dur": 50, "pid": 1, "tid": 0},
            {"name": "b", "ph": "X", "ts": 60, "dur": 50, "pid": 1, "tid": 0},
        ]
        path.write_text(json.dumps({"traceEvents": events}))
        assert validate_chrome_trace(path)["spans"] == 2

    def test_rejects_malformed_prometheus_line(self, tmp_path):
        path = tmp_path / "bad.prom"
        path.write_text("metric_one 1\nnot a sample!!\n")
        with pytest.raises(ValueError, match="malformed sample line"):
            validate_prometheus_text(path)

    def test_rejects_non_cumulative_buckets(self, tmp_path):
        path = tmp_path / "bad.prom"
        path.write_text(
            'h_bucket{le="1"} 5\nh_bucket{le="2"} 3\n'
        )
        with pytest.raises(ValueError, match="not cumulative"):
            validate_prometheus_text(path)

    def test_rejects_unknown_jsonl_type(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown event type"):
            validate_events_jsonl(path)

    def test_suffix_dispatch(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x")
        with pytest.raises(ValueError, match="cannot infer artifact kind"):
            validate_file(path)

    @pytest.mark.parametrize("name", ["gone.json", "gone.jsonl", "gone.prom"])
    def test_missing_file_is_a_value_error(self, tmp_path, name):
        # the CLI maps ValueError to a clean `error: ...` + exit 2
        with pytest.raises(ValueError, match="cannot read artifact"):
            validate_file(tmp_path / name)


class TestStageEventOk:
    def test_ok_defaults_true(self):
        event = StageEvent("s", 0.1, 0, 0, 0, 0, 0, 0, 0)
        assert event.ok is True

    def test_recorder_marks_failed_stage(self, compiler, executor, omp):
        from repro.engine.core import EvaluationEngine

        engine = EvaluationEngine(compiler=compiler, executor=executor, omp=omp)
        recorder = TelemetryRecorder(engine)
        with pytest.raises(RuntimeError):
            with recorder.stage("doomed"):
                raise RuntimeError("boom")
        (event,) = recorder.events
        assert event.ok is False
        assert event.stage == "doomed"

    def test_stage_report_totals_derived_from_fields(self):
        events = [
            StageEvent("a", 1.0, 1, 2, 3, 4, 5, 6, 7),
            StageEvent("b", 2.0, 10, 20, 30, 40, 50, 60, 70, ok=False),
        ]
        report = stage_report(events)
        totals = report["totals"]
        assert totals["wall_time_s"] == pytest.approx(3.0)
        assert totals["compile_hits"] == 11
        assert totals["points_evaluated"] == 77
        assert totals["ok"] is False
        assert report["stages"][0]["ok"] is True
        assert report["stages"][1]["ok"] is False

    def test_stage_report_empty(self):
        report = stage_report([])
        assert report["totals"]["ok"] is True
        assert report["stages"] == []

    def test_failed_stage_span_not_ok(self, compiler, executor, omp):
        from repro.engine.core import EvaluationEngine

        engine = EvaluationEngine(compiler=compiler, executor=executor, omp=omp)
        tracer = Tracer(clock=FakeClock())
        recorder = TelemetryRecorder(engine, tracer=tracer)
        with pytest.raises(RuntimeError):
            with recorder.stage("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.find("stage:doomed")
        assert span.ok is False


class TestObservabilityHandle:
    def test_enabled_bundle(self):
        obs = Observability()
        assert obs.enabled
        assert obs.tracer.enabled
        assert obs.metrics.enabled
        assert obs.audit is not None

    def test_null_obs_is_disabled(self):
        assert NULL_OBS.enabled is False
        assert NULL_OBS.tracer is NULL_TRACER
        assert NULL_OBS.metrics is NULL_METRICS
        assert NULL_OBS.audit is None

    def test_absorb_engine(self, compiler, executor, omp):
        from repro.engine.core import EvaluationEngine

        obs = Observability()
        engine = EvaluationEngine(compiler=compiler, executor=executor, omp=omp)
        obs.absorb_engine(engine)
        assert obs.metrics.get("socrates_engine_compile_hits") is not None

    def test_repr(self):
        assert "enabled=False" in repr(NULL_OBS)
        assert "spans=0" in repr(Observability())


def fig5_scenario(duration_s=2.0):
    third = duration_s / 3.0
    return Scenario(
        phases=[
            Phase(0.0, "Thr/W^2"),
            Phase(third, "Throughput"),
            Phase(2 * third, "Thr/W^2"),
        ],
        duration_s=duration_s,
    )


def build_mvt(obs=None):
    flow = SocratesToolflow(dse_repetitions=1, thread_counts=[1, 2], obs=obs)
    result = flow.build(load("mvt"))
    app = result.adaptive
    app.add_state(
        OptimizationState("Thr/W^2", rank=maximize_throughput_per_watt_squared()),
        activate=True,
    )
    app.add_state(OptimizationState("Throughput", rank=maximize_throughput()))
    return flow, result, app


@pytest.fixture(scope="module")
def traced_build():
    """A small obs-enabled build plus a fig5-style scenario run."""
    obs = Observability()
    flow, result, app = build_mvt(obs=obs)
    records = fig5_scenario().run(app)
    obs.absorb_engine(flow.engine)
    obs.absorb_monitors(app.manager.monitors)
    return obs, result, records


class TestToolflowIntegration:
    def test_span_tree_nests_build_stage_engine(self, traced_build):
        obs, _, _ = traced_build
        tracer = obs.tracer
        by_id = {span.span_id: span for span in tracer.spans}

        def ancestors(span):
            names = []
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                names.append(span.name)
            return names

        (build,) = tracer.find("build:mvt")
        assert build.parent_id is None
        stages = [s for s in tracer.spans if s.name.startswith("stage:")]
        assert {s.name for s in stages} >= {
            "stage:characterize",
            "stage:prune",
            "stage:weave",
            "stage:profile",
            "stage:assemble",
        }
        assert all(s.parent_id == build.span_id for s in stages)
        evaluates = tracer.find("engine.evaluate")
        assert evaluates
        assert all("build:mvt" in ancestors(e) for e in evaluates)
        assert any("dse.explore" in ancestors(e) for e in evaluates)

    def test_mapek_iteration_spans(self, traced_build):
        obs, _, records = traced_build
        iterations = obs.tracer.find("mapek.iteration")
        assert len(iterations) == len(records)
        (sample,) = obs.tracer.find("scenario.run")
        children = {s.name for s in obs.tracer.children(iterations[0])}
        assert children == {"margot.update", "kernel.execute", "monitor.observe"}

    def test_stage_events_all_ok(self, traced_build):
        _, result, _ = traced_build
        report = result.stage_report()
        assert report["totals"]["ok"] is True
        assert all(stage["ok"] for stage in report["stages"])

    def test_one_audit_entry_per_op_switch(self, traced_build):
        obs, _, records = traced_build
        switches = sum(
            1
            for before, after in zip(records, records[1:])
            if (before.compiler, before.threads, before.binding)
            != (after.compiler, after.threads, after.binding)
        )
        assert len(obs.audit) == switches + 1  # + the initial selection
        assert all(entry.reason for entry in obs.audit.entries)
        assert obs.audit.entries[0].switched_from is None

    def test_audit_entries_stamped_with_virtual_time(self, traced_build):
        obs, _, _ = traced_build
        stamps = [entry.timestamp for entry in obs.audit.entries]
        assert all(stamp is not None for stamp in stamps)
        assert stamps == sorted(stamps)

    def test_engine_metrics_absorbed(self, traced_build):
        obs, _, _ = traced_build
        assert obs.metrics.get("socrates_engine_points_evaluated").value > 0
        assert obs.metrics.get("socrates_monitor_power_count") is not None
        points = obs.metrics.get("socrates_engine_points_evaluated_total")
        assert points.value > 0

    def test_real_build_artifacts_validate(self, traced_build, tmp_path):
        obs, _, _ = traced_build
        trace_path = tmp_path / "trace.json"
        write_chrome_trace(obs.tracer.spans, trace_path)
        assert validate_chrome_trace(trace_path)["spans"] == len(obs.tracer.spans)
        prom_path = tmp_path / "metrics.prom"
        write_prometheus(obs.metrics, prom_path)
        assert validate_prometheus_text(prom_path)["samples"] > 0
        jsonl_path = tmp_path / "events.jsonl"
        write_jsonl(jsonl_path, obs.tracer.spans, obs.metrics, obs.audit)
        counts = validate_events_jsonl(jsonl_path)
        assert counts["adaptation"] == len(obs.audit)


class TestDeterminism:
    def test_seeded_run_identical_with_obs_on_and_off(self, tmp_path):
        """Instrumentation must never perturb the simulated run."""
        _, _, app_traced = build_mvt(obs=Observability())
        _, _, app_plain = build_mvt(obs=None)
        records_traced = fig5_scenario().run(app_traced)
        records_plain = fig5_scenario().run(app_plain)
        traced_csv = tmp_path / "traced.csv"
        plain_csv = tmp_path / "plain.csv"
        trace_to_csv(records_traced, traced_csv)
        trace_to_csv(records_plain, plain_csv)
        assert traced_csv.read_bytes() == plain_csv.read_bytes()

    def test_knowledge_base_identical(self):
        _, traced, _ = build_mvt(obs=Observability())
        _, plain, _ = build_mvt(obs=None)
        traced_ops = {
            point.key: {m: (s.mean, s.std) for m, s in point.metrics.items()}
            for point in traced.exploration.knowledge
        }
        plain_ops = {
            point.key: {m: (s.mean, s.std) for m, s in point.metrics.items()}
            for point in plain.exploration.knowledge
        }
        assert traced_ops == plain_ops


class TestExemplars:
    """OpenMetrics exemplars: histogram buckets carry the span id of a
    landing observation, survive the text format, and parse back."""

    def test_observe_with_exemplar_lands_in_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", boundaries=[0.1, 1.0])
        histogram.observe(0.05, exemplar={"span_id": "7"})
        histogram.observe(0.5)  # no exemplar: bucket slot stays None
        exemplars = [e for e in histogram.exemplars if e is not None]
        assert len(exemplars) == 1
        labels, value = exemplars[0]
        assert dict(labels) == {"span_id": "7"}
        assert value == 0.05

    def test_text_format_appends_openmetrics_suffix(self):
        from repro.obs.export import prometheus_text

        registry = MetricsRegistry()
        histogram = registry.histogram("h", boundaries=[0.1, 1.0])
        histogram.observe(0.05, exemplar={"span_id": "7"})
        text = prometheus_text(registry)
        (line,) = [l for l in text.splitlines() if 'le="0.1"' in l]
        assert line.endswith('# {span_id="7"} 0.05')

    def test_round_trip_through_parse(self):
        from repro.obs.export import parse_prometheus_text, prometheus_text

        registry = MetricsRegistry()
        histogram = registry.histogram(
            "socrates_stage_duration_seconds",
            help="wall time of each pipeline stage",
            labels={"stage": "weave"},
        )
        histogram.observe(0.004, exemplar={"span_id": "12"})
        histogram.observe(9.0, exemplar={"span_id": "40"})
        text = prometheus_text(registry)
        parsed = parse_prometheus_text(text)
        assert prometheus_text(parsed) == text  # fixed point
        clone = parsed.histogram(
            "socrates_stage_duration_seconds",
            help="wall time of each pipeline stage",
            labels={"stage": "weave"},
        )
        kept = [e for e in clone.exemplars if e is not None]
        assert [dict(labels) for labels, _ in kept] == [
            {"span_id": "12"},
            {"span_id": "40"},
        ]

    def test_exemplar_on_counter_rejected_by_parser(self):
        from repro.obs.export import parse_prometheus_text

        with pytest.raises(ValueError, match="non-histogram"):
            parse_prometheus_text('builds_total 3 # {span_id="1"} 3\n')

    def test_inf_bucket_exemplar_round_trips(self):
        """Regression: an exemplar landing on the final cumulative
        (+Inf) bucket must survive text export and parse intact."""
        from repro.obs.export import parse_prometheus_text, prometheus_text

        registry = MetricsRegistry()
        histogram = registry.histogram("h", boundaries=[0.1, 1.0])
        histogram.observe(50.0, exemplar={"span_id": "99"})
        text = prometheus_text(registry)
        (line,) = [l for l in text.splitlines() if 'le="+Inf"' in l]
        assert line.endswith('# {span_id="99"} 50')
        parsed = parse_prometheus_text(text)
        assert prometheus_text(parsed) == text  # fixed point
        clone = parsed.histogram("h", boundaries=[0.1, 1.0])
        # the overflow slot is the LAST one, after every finite bucket
        assert clone.exemplars[:2] == [None, None]
        labels, value = clone.exemplars[2]
        assert dict(labels) == {"span_id": "99"}
        assert value == 50.0

    def test_inf_bucket_exemplar_in_labeled_family(self):
        """One series' +Inf exemplar must not leak into its siblings."""
        from repro.obs.export import parse_prometheus_text, prometheus_text

        registry = MetricsRegistry()
        hot = registry.histogram("fam", boundaries=[1.0], labels={"k": "a"})
        cold = registry.histogram("fam", boundaries=[1.0], labels={"k": "b"})
        hot.observe(5.0, exemplar={"span_id": "2"})
        cold.observe(0.5, exemplar={"span_id": "3"})
        text = prometheus_text(registry)
        parsed = parse_prometheus_text(text)
        assert prometheus_text(parsed) == text
        clone_hot = parsed.histogram("fam", boundaries=[1.0], labels={"k": "a"})
        clone_cold = parsed.histogram("fam", boundaries=[1.0], labels={"k": "b"})
        assert clone_hot.exemplars == [None, ((("span_id", "2"),), 5.0)]
        assert clone_cold.exemplars == [((("span_id", "3"),), 0.5), None]

    def test_foreign_inf_spelling_is_overflow_not_boundary(self):
        """Regression: the text format admits any float spelling of
        +Inf; a lowercase ``le="+inf"`` bucket must parse as the
        overflow slot, not become a finite boundary (which would also
        shift the exemplar index)."""
        from repro.obs.export import parse_prometheus_text

        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 0\n'
            'h_bucket{le="+inf"} 1 # {span_id="7"} 4\n'
            "h_sum 4\n"
            "h_count 1\n"
        )
        parsed = parse_prometheus_text(text)
        clone = parsed.histogram("h", boundaries=[1.0])
        assert list(clone.boundaries) == [1.0]  # no rogue inf boundary
        assert clone.exemplars == [None, ((("span_id", "7"),), 4.0)]

    def test_stage_histogram_links_to_real_spans(self, traced_build):
        from repro.obs.export import parse_prometheus_text, prometheus_text

        obs, _, _ = traced_build
        span_ids = {
            str(span.span_id): span.name
            for span in obs.tracer.spans
            if span.name.startswith("stage:")
        }
        parsed = parse_prometheus_text(prometheus_text(obs.metrics))
        linked = 0
        for instrument in parsed.instruments():
            if instrument.name != "socrates_stage_duration_seconds":
                continue
            stage = dict(instrument.labels)["stage"]
            for entry in instrument.exemplars:
                if entry is None:
                    continue
                labels, _ = entry
                span_id = dict(labels)["span_id"]
                assert span_ids[span_id] == f"stage:{stage}"
                linked += 1
        assert linked > 0
