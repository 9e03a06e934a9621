"""Tests for the performance observatory: `repro.bench` + the span-name diff.

Covers the robust statistics, the scenario harness, baseline
persistence, the MAD-scaled regression gate (including an injected
slowdown that the gate must attribute to the offending span), the
span-level trace diff, the label-escaping round trip through the
Prometheus exporter, the dashboard renderer, and the ``socrates bench``
/ ``socrates obs diff`` / ``socrates obs top`` CLI surface.
"""

import json
import time
from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA,
    BaselineFormatError,
    BenchBaseline,
    RobustStats,
    StageBaseline,
    baseline_filename,
    compare_result,
    load_baseline,
    mad,
    median,
    peak_rss_kb,
    run_scenario,
    save_baseline,
)
from repro.bench import scenarios as scenarios_mod
from repro.bench.scenarios import all_scenarios, get_scenario, quick_scenarios
from repro.cli import main
from repro.obs import Observability
from repro.obs.dashboard import live_dashboard, render_dashboard
from repro.obs.profile import (
    FlameProfile,
    diff_flame,
    format_name_diff,
    name_totals,
    trace_name_totals,
)
from repro.obs.export import (
    chrome_trace,
    parse_prometheus_text,
    prometheus_text,
    write_chrome_trace,
)
from repro.obs.metrics import (
    MetricsRegistry,
    canonical_labels,
    escape_label_value,
    unescape_label_value,
)
from repro.obs.tracing import Tracer
from repro.obs.validate import validate_chrome_trace, validate_prometheus_text


class FakeClock:
    """Deterministic monotonic clock for tracer tests."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


# ---------------------------------------------------------------------------
# robust statistics
# ---------------------------------------------------------------------------


class TestRobustStats:
    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    def test_mad_ignores_outliers(self):
        # one wild outlier moves the mean by ~200 but the MAD barely
        samples = [1.0, 1.1, 0.9, 1.0, 1000.0]
        assert mad(samples) == pytest.approx(0.1)

    def test_mad_raw_no_consistency_factor(self):
        assert mad([0.0, 1.0, 2.0]) == 1.0

    def test_from_samples_round_trip(self):
        stats = RobustStats.from_samples([2.0, 1.0, 4.0])
        assert (stats.n, stats.median, stats.min, stats.max) == (3, 2.0, 1.0, 4.0)
        assert RobustStats.from_dict(stats.as_dict()) == stats

    def test_limit_is_median_plus_largest_slack(self):
        stats = RobustStats.from_samples([1.0, 2.0, 4.0])  # median 2, MAD 1
        assert stats.limit(0.5, 6.0) == 8.0  # the MAD term dominates
        assert stats.limit(0.5, 0.0) == 3.0  # the relative term
        assert stats.limit(0.5, 0.0, floor=4.0) == 6.0  # the floor

    def test_from_dict_malformed(self):
        with pytest.raises(ValueError, match="malformed robust-stats"):
            RobustStats.from_dict({"n": 3, "median": "xx"})
        with pytest.raises(ValueError):
            RobustStats.from_samples([])


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------


class TestPeakRss:
    def test_peak_rss_positive_on_linux(self):
        assert peak_rss_kb() > 0


# ---------------------------------------------------------------------------
# the scenario harness
# ---------------------------------------------------------------------------


@pytest.fixture
def synthetic_scenario():
    """A registered scenario with an injectable slowdown and a
    twistable fingerprint; unregistered afterwards."""
    name = "_test_synthetic"
    control = {"delay_s": 0.0, "points": 7}

    def runner(obs):
        with obs.tracer.span("work:fast"):
            pass
        with obs.tracer.span("work:slow"):
            if control["delay_s"]:
                time.sleep(control["delay_s"])
        return {"points": control["points"]}

    scenarios_mod._REGISTRY[name] = scenarios_mod.BenchScenario(
        name=name, description="synthetic test workload", runner=runner
    )
    try:
        yield name, control
    finally:
        del scenarios_mod._REGISTRY[name]


class TestScenarioHarness:
    def test_registry_contents(self):
        names = {scenario.name for scenario in all_scenarios()}
        assert {
            "single_build",
            "suite_sweep",
            "dse_exploration",
            "cobayn_corpus",
            "adaptation_loop",
        } <= names
        quick = {scenario.name for scenario in quick_scenarios()}
        assert "suite_sweep" not in quick  # too slow for the default gate
        assert "dse_exploration" in quick

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("nope")

    def test_bad_repeats(self, synthetic_scenario):
        name, _ = synthetic_scenario
        with pytest.raises(ValueError, match="repeats"):
            run_scenario(name, repeats=0)

    def test_run_collects_everything(self, synthetic_scenario):
        name, _ = synthetic_scenario
        result = run_scenario(name, repeats=2)
        assert result.repeats == 2 and len(result.wall_s) == 2
        assert set(result.span_totals) == {f"bench:{name}", "work:fast", "work:slow"}
        assert all(len(samples) == 2 for samples in result.span_totals.values())
        assert result.span_counts["work:fast"] == 1
        assert result.fingerprint == {"points": 7}
        assert result.peak_rss_kb > 0
        assert any(span.name == "work:slow" for span in result.spans)
        # wall time is the root bench span, measured through the tracer
        root = [s for s in result.spans if s.name == f"bench:{name}"]
        assert len(root) == 1
        assert result.wall_s[-1] == root[0].duration_s

    def test_nondeterministic_fingerprint_rejected(self, synthetic_scenario):
        name, control = synthetic_scenario
        original = dict(control)

        def runner(obs):
            control["points"] += 1
            return {"points": control["points"]}

        scenarios_mod._REGISTRY[name] = scenarios_mod.BenchScenario(
            name=name, description="drifting", runner=runner
        )
        try:
            with pytest.raises(ValueError, match="nondeterministic"):
                run_scenario(name, repeats=2)
        finally:
            control.update(original)

    def test_duplicate_registration_rejected(self, synthetic_scenario):
        name, _ = synthetic_scenario
        with pytest.raises(ValueError, match="already registered"):
            scenarios_mod.register(name, "dup")(lambda obs: {})


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


class TestBaseline:
    def test_save_load_round_trip(self, synthetic_scenario, tmp_path):
        name, _ = synthetic_scenario
        result = run_scenario(name, repeats=3)
        baseline = BenchBaseline.from_result(result)
        path = save_baseline(baseline, tmp_path / baseline_filename(name))
        assert path.name == f"BENCH_{name}.json"
        document = json.loads(path.read_text())
        assert document["schema"] == SCHEMA
        assert document["fingerprint"] == {"points": 7}
        loaded = load_baseline(path)
        assert loaded == baseline

    def test_save_is_deterministic(self, synthetic_scenario, tmp_path):
        name, _ = synthetic_scenario
        baseline = BenchBaseline.from_result(run_scenario(name, repeats=2))
        save_baseline(baseline, tmp_path / "a.json")
        save_baseline(baseline, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_stage_mean_guards_zero_count(self):
        total = RobustStats.from_samples([2.0, 2.0, 3.0])
        assert StageBaseline(count=4, total_s=total).mean_s == 0.5
        assert StageBaseline(count=0, total_s=total).mean_s == 0.0

    def test_load_rejects_garbage(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ValueError, match="cannot read"):
            load_baseline(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_baseline(bad)
        bad.write_text("[]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_baseline(bad)
        bad.write_text(json.dumps({"schema": "socrates-bench/999"}))
        with pytest.raises(ValueError, match="unsupported baseline schema"):
            load_baseline(bad)
        bad.write_text(json.dumps({"schema": SCHEMA}))
        with pytest.raises(ValueError, match="required field"):
            load_baseline(bad)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_load_rejects_non_finite(self, synthetic_scenario, tmp_path, value):
        name, _ = synthetic_scenario
        document = BenchBaseline.from_result(run_scenario(name, repeats=2)).as_dict()
        document["wall_s"]["median"] = value
        path = tmp_path / baseline_filename(name)
        path.write_text(json.dumps(document))
        with pytest.raises(BaselineFormatError, match="wall_s: non-finite 'median'"):
            load_baseline(path)
        # the gate stops before running anything: a NaN limit could
        # never be exceeded, so the quantity could never regress
        argv = ["bench", "gate", "--scenario", name, "--baseline-dir", str(tmp_path)]
        assert main(argv) == 2


# ---------------------------------------------------------------------------
# the regression gate
# ---------------------------------------------------------------------------


class TestGate:
    def test_unchanged_workload_passes(self, synthetic_scenario):
        name, _ = synthetic_scenario
        baseline = BenchBaseline.from_result(run_scenario(name, repeats=3))
        report = compare_result(baseline, run_scenario(name, repeats=3))
        assert report.ok
        assert report.fingerprint_ok
        assert not report.offenders
        assert "all spans within thresholds" in report.format()

    def test_injected_slowdown_names_the_span(self, synthetic_scenario):
        name, control = synthetic_scenario
        baseline = BenchBaseline.from_result(run_scenario(name, repeats=3))
        control["delay_s"] = 0.25
        report = compare_result(
            baseline,
            run_scenario(name, repeats=2),
            threshold=0.5,
            mad_k=6.0,
            min_delta_s=0.01,
        )
        assert not report.ok
        assert report.wall.regressed
        offenders = [verdict.name for verdict in report.offenders]
        assert "work:slow" in offenders
        assert "work:fast" not in offenders
        text = report.format()
        assert "REGRESSION attributed to span" in text
        assert "'work:slow'" in text or "'bench:" in text.split("attributed")[1]
        # the trace diff ranks the slow span first among real changes
        assert report.diff is not None
        top_names = [d.stack for d in report.diff.deltas[:2]]
        assert "work:slow" in top_names

    def test_fingerprint_drift_fails_without_timing(self, synthetic_scenario):
        name, control = synthetic_scenario
        baseline = BenchBaseline.from_result(run_scenario(name, repeats=2))
        control["points"] = 8
        report = compare_result(baseline, run_scenario(name, repeats=2))
        assert not report.ok
        assert not report.fingerprint_ok
        assert report.fingerprint_diffs == {"points": (7, 8)}
        assert "fingerprint DRIFTED" in report.format()

    def test_added_and_removed_spans(self, synthetic_scenario):
        name, _ = synthetic_scenario
        baseline = BenchBaseline.from_result(run_scenario(name, repeats=2))

        def runner(obs):
            with obs.tracer.span("work:new"):
                pass
            return {"points": 7}

        scenarios_mod._REGISTRY[name] = scenarios_mod.BenchScenario(
            name=name, description="reshaped", runner=runner
        )
        report = compare_result(baseline, run_scenario(name, repeats=2))
        by_name = {verdict.name: verdict for verdict in report.stages}
        assert by_name["work:slow"].status == "removed"
        assert not by_name["work:slow"].regressed
        assert by_name["work:new"].status == "added"
        assert not by_name["work:new"].regressed  # under the absolute floor

    def test_scenario_mismatch_rejected(self, synthetic_scenario):
        name, _ = synthetic_scenario
        baseline = BenchBaseline.from_result(run_scenario(name, repeats=1))
        result = run_scenario(name, repeats=1)
        object.__setattr__(baseline, "scenario", "other")
        with pytest.raises(ValueError, match="baseline is for scenario"):
            compare_result(baseline, result)


# ---------------------------------------------------------------------------
# trace diffing
# ---------------------------------------------------------------------------


def _spans(names_durations):
    tracer = Tracer(clock=FakeClock(step=0.0))
    clock = tracer._clock  # drive durations explicitly
    for name, duration in names_durations:
        with tracer.span(name):
            clock.now += duration
    return tracer.spans


def _names(spans):
    """The span-name view of live spans."""
    return name_totals((span.name, span.duration_s) for span in spans)


class TestTraceDiff:
    def test_identical_traces_diff_to_exactly_zero(self):
        names = _names(_spans([("a", 1.0), ("b", 2.0), ("a", 0.5)]))
        diff = diff_flame(names, names)
        assert diff.total_b - diff.total_a == 0.0
        assert all(delta.name_status == "unchanged" for delta in diff.deltas)
        assert all(delta.delta_s == 0.0 for delta in diff.deltas)

    def test_aggregation_counts_and_totals(self):
        names = _names(_spans([("a", 1.0), ("a", 2.0), ("b", 4.0)]))
        assert names.stacks["a"].count == 2
        assert names.stacks["a"].self_s == pytest.approx(3.0)
        assert names.stacks["a"].self_s / names.stacks["a"].count == pytest.approx(1.5)

    def test_added_removed_changed_sorted_by_delta(self):
        diff = diff_flame(
            _names(_spans([("gone", 1.0), ("same", 1.0), ("grew", 1.0)])),
            _names(_spans([("same", 1.0), ("grew", 4.0), ("new", 0.5)])),
        )
        statuses = {delta.stack: delta.name_status for delta in diff.deltas}
        assert statuses == {
            "gone": "removed",
            "same": "unchanged",
            "grew": "changed",
            "new": "added",
        }
        assert diff.deltas[0].stack == "grew"  # |+3.0| is the largest
        assert diff.total_b - diff.total_a == pytest.approx(2.5)
        added = [d.stack for d in diff.deltas if d.name_status == "added"]
        assert added == ["new"]

    def test_chrome_trace_round_trip(self, tmp_path):
        spans = _spans([("x", 1.0), ("y", 0.25), ("x", 0.75)])
        path = tmp_path / "trace.json"
        write_chrome_trace(spans, path)
        profile = trace_name_totals(path)
        assert profile.stacks["x"].count == 2
        assert profile.stacks["x"].self_s == pytest.approx(1.75)
        diff = diff_flame(trace_name_totals(path), trace_name_totals(path))
        assert diff.total_b - diff.total_a == 0.0

    def test_profile_rejects_garbage(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            trace_name_totals(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ValueError, match="traceEvents"):
            trace_name_totals(bad)

    def test_format_diff_table(self):
        diff = diff_flame(
            _names(_spans([("alpha", 1.0)])),
            _names(_spans([("alpha", 3.0)])),
            label_a="base",
            label_b="new",
        )
        text = format_name_diff(diff, limit=20, hide_unchanged=True)
        assert "t(base)" in text and "t(new)" in text
        assert "alpha" in text and "+2.0000" in text
        assert text.splitlines()[-1].startswith("TOTAL")

    def test_name_totals_sum_durations_not_stack_containment(self):
        tracer = Tracer(clock=FakeClock(step=0.0))
        clock = tracer._clock
        with tracer.span("a"):
            clock.now += 1.0
            with tracer.span("a"):  # recursion
                clock.now += 2.0
        names = _names(tracer.spans)
        assert names.stacks["a"].count == 2
        assert names.stacks["a"].self_s == 5.0  # outer 3.0 + inner 2.0
        # the flame table counts each stack's self time once per name
        assert FlameProfile.from_spans(tracer.spans).names()["a"].total_s == 3.0


# ---------------------------------------------------------------------------
# exporter edge cases + escaping round trip
# ---------------------------------------------------------------------------


class TestExporterEdgeCases:
    def test_empty_trace_exports_and_validates(self, tmp_path):
        document = chrome_trace([])
        assert [e["ph"] for e in document["traceEvents"]] == ["M", "M"]
        path = tmp_path / "empty.json"
        write_chrome_trace([], path)
        # the exporter handles zero spans; the validator deliberately
        # rejects such a file (an empty trace means broken instrumentation)
        with pytest.raises(ValueError, match="no span events"):
            validate_chrome_trace(path)
        # ...and so does the span-name view, like every trace reader
        with pytest.raises(ValueError, match="no complete"):
            trace_name_totals(path)

    def test_open_spans_excluded_at_export_time(self):
        tracer = Tracer(clock=FakeClock())
        context = tracer.span("still-open")
        context.__enter__()
        with tracer.span("finished"):
            pass
        document = chrome_trace(tracer.spans)
        names = [e["name"] for e in document["traceEvents"] if e["ph"] == "X"]
        assert names == ["finished"]
        context.__exit__(None, None, None)
        names = [
            e["name"] for e in chrome_trace(tracer.spans)["traceEvents"] if e["ph"] == "X"
        ]
        assert sorted(names) == ["finished", "still-open"]

    def test_zero_count_histogram_exports_and_validates(self, tmp_path):
        registry = MetricsRegistry()
        registry.histogram("empty_hist", boundaries=[1.0, 2.0], help="never observed")
        text = prometheus_text(registry)
        assert 'empty_hist_bucket{le="+Inf"} 0' in text
        assert "empty_hist_count 0" in text
        path = tmp_path / "empty.prom"
        path.write_text(text)
        assert validate_prometheus_text(path)["samples"] > 0
        rebuilt = parse_prometheus_text(text)
        instrument = rebuilt.get("empty_hist")
        assert instrument.count == 0 and instrument.total == 0.0

    def test_empty_registry_round_trip(self):
        assert prometheus_text(MetricsRegistry()) == ""
        assert len(parse_prometheus_text("")) == 0


class TestLabelEscaping:
    NASTY = 'back\\slash "quoted"\nnewline'

    def test_escape_unescape_inverse(self):
        escaped = escape_label_value(self.NASTY)
        assert "\n" not in escaped
        assert unescape_label_value(escaped) == self.NASTY

    def test_unescape_rejects_stray_backslash(self):
        with pytest.raises(ValueError, match="bare backslash"):
            unescape_label_value("ends\\")
        with pytest.raises(ValueError, match="invalid escape"):
            unescape_label_value("bad\\q")

    def test_labelled_export_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("hits_total", help="with\nnewline", labels={"path": self.NASTY}).inc(3)
        registry.gauge("depth", labels={"track": 'say "hi"'}).set(2.5)
        registry.histogram(
            "lat_seconds", boundaries=[0.1, 1.0], labels={"stage": "a\\b"}
        ).observe(0.5)
        text = prometheus_text(registry)
        path = tmp_path / "nasty.prom"
        path.write_text(text)
        validate_prometheus_text(path)  # escaped output passes the validator
        rebuilt = parse_prometheus_text(text)
        counter = rebuilt.get("hits_total", labels={"path": self.NASTY})
        assert counter is not None and counter.value == 3
        assert counter.help == "with\nnewline"
        hist = rebuilt.get("lat_seconds", labels={"stage": "a\\b"})
        assert hist.count == 1 and hist.total == pytest.approx(0.5)
        # byte-exact round trip: export(parse(export(r))) == export(r)
        assert prometheus_text(rebuilt) == text

    def test_validator_rejects_unescaped_output(self, tmp_path):
        path = tmp_path / "bad.prom"
        path.write_text('# TYPE m counter\nm{l="a"b"} 1\n')
        with pytest.raises(ValueError):
            validate_prometheus_text(path)
        path.write_text('# TYPE m counter\nm{l="a\\qb"} 1\n')
        with pytest.raises(ValueError):
            validate_prometheus_text(path)

    def test_label_series_are_distinct_instruments(self):
        registry = MetricsRegistry()
        a = registry.counter("reqs", labels={"code": "200"})
        b = registry.counter("reqs", labels={"code": "500"})
        assert a is not b
        assert registry.counter("reqs", labels={"code": "200"}) is a
        assert "reqs" in registry
        assert len(registry) == 2
        with pytest.raises(ValueError, match="invalid label name"):
            canonical_labels({"bad-name": "x"})

    def test_per_series_cumulative_bucket_validation(self, tmp_path):
        registry = MetricsRegistry()
        registry.histogram("d_seconds", boundaries=[1.0], labels={"s": "a"}).observe(0.5)
        registry.histogram("d_seconds", boundaries=[1.0], labels={"s": "b"}).observe(2.0)
        # two interleaved label series each restart their cumulative
        # counts; the validator must key the check per series
        path = tmp_path / "series.prom"
        path.write_text(prometheus_text(registry))
        validate_prometheus_text(path)


# ---------------------------------------------------------------------------
# dashboard
# ---------------------------------------------------------------------------


class TestDashboard:
    def _registry(self):
        registry = MetricsRegistry()
        registry.gauge("socrates_engine_compile_hits").set(30)
        registry.gauge("socrates_engine_compile_misses").set(10)
        registry.gauge("socrates_engine_points_evaluated").set(1200)
        registry.histogram(
            "socrates_stage_duration_seconds", labels={"stage": "prune"}
        ).observe(0.02)
        return registry

    def test_render_dashboard_sections(self):
        frame = render_dashboard(self._registry())
        assert "SOCRATES observability" in frame
        assert "compile" in frame and "75.0%" in frame
        assert "evaluations: 1200 design points" in frame
        assert 'socrates_stage_duration_seconds{stage="prune"}' in frame
        assert "#" in frame  # a meter/bar actually rendered

    def test_render_zero_count_histogram(self):
        registry = MetricsRegistry()
        registry.histogram("empty_seconds", boundaries=[1.0])
        frame = render_dashboard(registry)
        assert "empty_seconds" in frame and "n=0" in frame

    def test_live_dashboard_draws_until_done(self):
        import io

        stream = io.StringIO()
        ticks = {"n": 0}

        def done():
            ticks["n"] += 1
            return ticks["n"] >= 3

        frames = live_dashboard(
            lambda n: f"frame {n}", done, refresh_s=0.0, stream=stream
        )
        assert frames == 3
        assert "frame 2" in stream.getvalue()


# ---------------------------------------------------------------------------
# determinism: benchmarking on/off must not change seeded outputs
# ---------------------------------------------------------------------------


class TestBenchDeterminism:
    def test_seeded_build_identical_under_bench_harness(self, tmp_path):
        from repro.core.toolflow import SocratesToolflow
        from repro.margot.oplist import save_knowledge
        from repro.polybench.suite import load

        def build(obs):
            flow = SocratesToolflow(
                dse_repetitions=1, thread_counts=[1, 4], obs=obs
            )
            return flow.build(load("mvt"))

        plain = build(None)  # observability (and benchmarking) off
        with Observability().tracer.span("bench:manual"):
            traced = build(Observability())  # the bench code path
        assert plain.adaptive_source == traced.adaptive_source
        save_knowledge(plain.exploration.knowledge, tmp_path / "plain.json")
        save_knowledge(traced.exploration.knowledge, tmp_path / "traced.json")
        assert (tmp_path / "plain.json").read_bytes() == (
            tmp_path / "traced.json"
        ).read_bytes()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestBenchCli:
    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "single_build" in out and "suite_sweep" in out
        assert "full" in out and "quick" in out

    def test_bench_run_writes_schema_versioned_baseline(
        self, synthetic_scenario, tmp_path, capsys
    ):
        name, _ = synthetic_scenario
        assert (
            main(
                [
                    "bench",
                    "run",
                    "--scenario",
                    name,
                    "--repeats",
                    "2",
                    "--out-dir",
                    str(tmp_path),
                    "--trace-out-dir",
                    str(tmp_path / "traces"),
                ]
            )
            == 0
        )
        document = json.loads((tmp_path / f"BENCH_{name}.json").read_text())
        assert document["schema"] == SCHEMA
        assert document["repeats"] == 2
        trace = tmp_path / "traces" / f"TRACE_{name}.json"
        assert "traceEvents" in json.loads(trace.read_text())

    def test_bench_run_suite_sweep_acceptance(self, tmp_path, capsys):
        """The acceptance path: one real 12-app sweep baseline."""
        assert (
            main(
                [
                    "bench", "run", "--scenario", "suite_sweep",
                    "--repeats", "1", "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        document = json.loads((tmp_path / "BENCH_suite_sweep.json").read_text())
        assert document["schema"] == SCHEMA
        assert document["fingerprint"]["apps_built"] == 12
        assert document["wall_s"]["median"] > 0
        assert "stage:characterize" in document["stages"]

    def test_bench_run_unknown_scenario(self, capsys):
        assert main(["bench", "run", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bench_gate_ok_then_regression(
        self, synthetic_scenario, tmp_path, capsys
    ):
        name, control = synthetic_scenario
        argv = ["--scenario", name, "--repeats", "2", "--baseline-dir", str(tmp_path)]
        assert main(["bench", "run", "--scenario", name, "--repeats", "3",
                     "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()

        # unchanged tree: exit 0
        assert main(["bench", "gate"] + argv) == 0
        assert "bench gate: OK" in capsys.readouterr().out

        # injected slowdown: exit 3, offending span named, artifacts written
        control["delay_s"] = 0.25
        out_dir = tmp_path / "artifacts"
        code = main(
            ["bench", "gate"] + argv + ["--min-delta-s", "0.01", "--out-dir", str(out_dir)]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "bench gate: FAIL" in out
        assert "REGRESSION attributed to span 'work:slow'" in out
        assert (out_dir / f"BENCH_{name}.json").exists()
        gate_doc = json.loads((out_dir / f"GATE_{name}.json").read_text())
        assert gate_doc["ok"] is False
        assert "work:slow" in gate_doc["offenders"]
        assert "work:slow" in (out_dir / f"DIFF_{name}.txt").read_text()

    def test_bench_compare_always_exits_zero(
        self, synthetic_scenario, tmp_path, capsys
    ):
        name, control = synthetic_scenario
        assert main(["bench", "run", "--scenario", name, "--repeats", "2",
                     "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        control["delay_s"] = 0.2
        assert (
            main(
                [
                    "bench", "compare", "--scenario", name, "--repeats", "1",
                    "--baseline-dir", str(tmp_path), "--min-delta-s", "0.01",
                    "--json",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        reports = json.loads(out)
        assert reports[0]["ok"] is False

    def test_bench_gate_missing_baseline(self, synthetic_scenario, tmp_path, capsys):
        name, _ = synthetic_scenario
        assert (
            main(
                ["bench", "gate", "--scenario", name, "--baseline-dir", str(tmp_path)]
            )
            == 2
        )
        assert "cannot read baseline" in capsys.readouterr().err


class TestObsCli:
    def test_obs_diff_identical_traces(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        write_chrome_trace(_spans([("a", 1.0), ("b", 2.0)]), path)
        assert main(["obs", "diff", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "+0.0000" in out
        assert "identical in both traces" in out

    def test_obs_diff_json_mode(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_chrome_trace(_spans([("x", 1.0)]), a)
        write_chrome_trace(_spans([("x", 2.0)]), b)
        assert main(["obs", "diff", str(a), str(b), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["total_delta_s"] == pytest.approx(1.0)
        assert document["deltas"][0]["name"] == "x"

    def test_obs_diff_bad_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["obs", "diff", str(missing), str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["flame", "diff"])
    @pytest.mark.parametrize(
        "events, reason",
        [
            # a complete event without its timestamp
            ([{"name": "a", "ph": "X", "dur": 1.0, "pid": 1, "tid": 0}], "lacks 'ts'"),
            # metadata only: no complete span events at all
            (chrome_trace([])["traceEvents"], "no complete"),
        ],
    )
    def test_malformed_trace_is_named_exit_2(
        self, tmp_path, capsys, command, events, reason
    ):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"traceEvents": events}))
        if command == "flame":
            argv = ["obs", "flame", "--trace", str(path)]
        else:
            argv = ["obs", "diff", str(path), str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and reason in err

    def test_obs_top_once_from_prom_file(self, tmp_path, capsys):
        registry = MetricsRegistry()
        registry.gauge("socrates_engine_truth_hits").set(5)
        registry.gauge("socrates_engine_truth_misses").set(5)
        path = tmp_path / "metrics.prom"
        path.write_text(prometheus_text(registry))
        assert main(["obs", "top", "--from", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "SOCRATES observability" in out
        assert "truth" in out and "50.0%" in out

    def test_obs_top_once_live_scenario(self, synthetic_scenario, capsys):
        name, _ = synthetic_scenario
        assert main(["obs", "top", "--scenario", name, "--once"]) == 0
        out = capsys.readouterr().out
        assert "SOCRATES observability" in out
        assert "spans:" in out


# ---------------------------------------------------------------------------
# ratio gating: socrates_bench_ratio gauges vs hand-committed caps
# ---------------------------------------------------------------------------


@pytest.fixture
def ratio_scenario():
    """A registered scenario that publishes a controllable
    ``socrates_bench_ratio`` gauge; unregistered afterwards."""
    name = "_test_ratio"
    control = {"ratio": 1.02, "publish": True}

    def runner(obs):
        with obs.tracer.span("work:steady"):
            pass
        if control["publish"]:
            obs.metrics.gauge(
                "socrates_bench_ratio",
                help="dimensionless ratio measured by a bench scenario",
                labels={"name": "overhead"},
            ).set(control["ratio"])
        return {"points": 1}

    scenarios_mod._REGISTRY[name] = scenarios_mod.BenchScenario(
        name=name, description="ratio test workload", runner=runner
    )
    try:
        yield name, control
    finally:
        del scenarios_mod._REGISTRY[name]


class TestRatioGate:
    def test_ratios_harvested_per_repeat(self, ratio_scenario):
        name, _ = ratio_scenario
        result = run_scenario(name, repeats=3)
        assert result.ratios == {"overhead": [1.02, 1.02, 1.02]}

    def test_baseline_medians_ratios_but_never_invents_limits(self, ratio_scenario):
        name, _ = ratio_scenario
        baseline = BenchBaseline.from_result(run_scenario(name, repeats=3))
        assert baseline.ratios == {"overhead": 1.02}
        assert baseline.ratio_limits == {}  # a cap is a policy decision

    def test_limits_pass_through_and_round_trip(self, ratio_scenario, tmp_path):
        name, _ = ratio_scenario
        baseline = BenchBaseline.from_result(
            run_scenario(name, repeats=2), ratio_limits={"overhead": 1.05}
        )
        path = save_baseline(baseline, tmp_path / "BENCH__test_ratio.json")
        loaded = load_baseline(path)
        assert loaded.ratios == baseline.ratios
        assert loaded.ratio_limits == {"overhead": 1.05}

    def test_within_cap_passes(self, ratio_scenario):
        name, _ = ratio_scenario
        baseline = BenchBaseline.from_result(
            run_scenario(name, repeats=2), ratio_limits={"overhead": 1.05}
        )
        report = compare_result(baseline, run_scenario(name, repeats=2))
        assert report.ok
        (verdict,) = report.ratios
        assert not verdict.regressed
        assert verdict.fresh == pytest.approx(1.02)
        assert "within cap" in report.format()

    def test_over_cap_regresses(self, ratio_scenario):
        name, control = ratio_scenario
        baseline = BenchBaseline.from_result(
            run_scenario(name, repeats=2), ratio_limits={"overhead": 1.05}
        )
        control["ratio"] = 1.2
        report = compare_result(baseline, run_scenario(name, repeats=2))
        assert not report.ok
        (verdict,) = report.ratios
        assert verdict.regressed and verdict.fresh == pytest.approx(1.2)
        assert "RATIO 'overhead' REGRESSED" in report.format()
        assert report.as_dict()["ratio_offenders"] == ["overhead"]

    def test_missing_ratio_regresses_as_missing(self, ratio_scenario):
        name, control = ratio_scenario
        baseline = BenchBaseline.from_result(
            run_scenario(name, repeats=2), ratio_limits={"overhead": 1.05}
        )
        control["publish"] = False
        report = compare_result(baseline, run_scenario(name, repeats=2))
        assert not report.ok
        (verdict,) = report.ratios
        assert verdict.regressed
        assert verdict.fresh != verdict.fresh  # NaN: not published
        assert "missing" in report.format()

    def test_uncapped_ratio_is_context_only(self, ratio_scenario):
        name, control = ratio_scenario
        baseline = BenchBaseline.from_result(run_scenario(name, repeats=2))
        control["ratio"] = 99.0  # absurd, but nothing gates it
        report = compare_result(baseline, run_scenario(name, repeats=2))
        assert report.ok
        assert report.ratios == []


# ---------------------------------------------------------------------------
# golden outputs: the span-name diff, the gate report, flight attribution
# ---------------------------------------------------------------------------
#
# Byte-exact pins of user-visible output.  The fixtures cover added,
# removed, changed and unchanged span names, a count-only change, a tie
# in |delta| (pinning the name tie-break) and a foreign trace without
# span_id args; every duration is a binary fraction, so the numbers are
# exact on any platform.

_GOLDEN_A = [
    ("gone", 1.0), ("same", 0.5), ("grew", 1.0), ("count", 0.5),
    ("tie_a", 1.0), ("tie_b", 2.0),
]
_GOLDEN_B = [
    ("same", 0.5), ("grew", 3.0), ("count", 0.25), ("count", 0.25),
    ("tie_a", 2.0), ("tie_b", 1.0), ("new", 0.5),
]
#: a trace from another producer: no span_id/parent_id args, nesting
#: only by interval on one (pid, tid) lane
_GOLDEN_FOREIGN = {
    "traceEvents": [
        {"name": "outer", "ph": "X", "ts": 0, "dur": 500000, "pid": 1, "tid": 7},
        {"name": "inner", "ph": "X", "ts": 100000, "dur": 250000, "pid": 1, "tid": 7},
        {"name": "same", "ph": "X", "ts": 600000, "dur": 500000, "pid": 1, "tid": 8},
    ]
}

_GOLDEN_SCENARIO = "_test_golden"


@pytest.fixture
def golden_traces(tmp_path):
    a, b, foreign = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "f.json"
    write_chrome_trace(_spans(_GOLDEN_A), a)
    write_chrome_trace(_spans(_GOLDEN_B), b)
    foreign.write_text(json.dumps(_GOLDEN_FOREIGN))
    return a, b, foreign


def _golden_result(wall, totals, counts, stacks, stack_counts, **extra):
    root = f"bench:{_GOLDEN_SCENARIO}"
    return scenarios_mod.ScenarioResult(
        scenario=_GOLDEN_SCENARIO,
        repeats=3,
        wall_s=wall,
        span_totals={root: wall, **totals},
        span_counts={root: 1, **counts},
        peak_rss_kb=1024,
        stack_totals=stacks,
        stack_counts=stack_counts,
        **extra,
    )


def _golden_baseline():
    root = f"bench:{_GOLDEN_SCENARIO}"
    return BenchBaseline.from_result(
        _golden_result(
            [2.0, 2.0, 2.25],
            {
                "stage:slow": [0.5, 0.5, 0.5],
                "stage:fast": [0.25, 0.25, 0.25],
                "stage:gone": [0.125, 0.125, 0.125],
                "stage:count": [0.25, 0.25, 0.25],
                "tie:a": [0.5, 0.5, 0.5],
                "tie:b": [0.5, 0.5, 0.5],
            },
            {"stage:slow": 1, "stage:fast": 2, "stage:gone": 1,
             "stage:count": 2, "tie:a": 1, "tie:b": 1},
            {
                root: [0.25, 0.25, 0.5],
                f"{root};stage:slow": [0.5, 0.5, 0.5],
                f"{root};stage:fast": [0.25, 0.25, 0.25],
                f"{root};stage:gone": [0.125, 0.125, 0.125],
            },
            {root: 1, f"{root};stage:slow": 1, f"{root};stage:fast": 2,
             f"{root};stage:gone": 1},
            fingerprint={"points": 7},
            energy_j={"package": 10.0},
            ratios={"overhead": [1.0, 1.0, 1.0]},
        ),
        ratio_limits={"overhead": 1.5},
    )


def _golden_fresh():
    root = f"bench:{_GOLDEN_SCENARIO}"
    return _golden_result(
        [3.5, 3.25, 3.5],
        {
            "stage:slow": [1.5, 1.5, 1.75],
            "stage:fast": [0.25, 0.25, 0.25],
            "stage:new": [0.03125, 0.03125, 0.03125],
            "stage:count": [0.25, 0.25, 0.25],
            "tie:a": [0.75, 0.75, 0.75],
            "tie:b": [0.25, 0.25, 0.25],
        },
        {"stage:slow": 1, "stage:fast": 2, "stage:new": 1,
         "stage:count": 4, "tie:a": 1, "tie:b": 1},
        {
            root: [0.25, 0.25, 0.25],
            f"{root};stage:slow": [1.5, 1.5, 1.75],
            f"{root};stage:fast": [0.25, 0.25, 0.25],
            f"{root};stage:new": [0.03125, 0.03125, 0.03125],
        },
        {root: 1, f"{root};stage:slow": 1, f"{root};stage:fast": 2,
         f"{root};stage:new": 1},
        fingerprint={"points": 8},
        energy_j={"package": 10.25},
        ratios={"overhead": [1.25, 1.25, 1.5]},
    )


@pytest.fixture
def golden_gate(tmp_path, monkeypatch):
    """A registered scenario whose fresh run is the fixed golden result
    (no wall clock), with its baseline committed under tmp_path."""
    import repro.bench

    scenarios_mod._REGISTRY[_GOLDEN_SCENARIO] = scenarios_mod.BenchScenario(
        name=_GOLDEN_SCENARIO, description="golden gate fixture", runner=dict
    )
    monkeypatch.setattr(
        repro.bench, "run_scenario", lambda name, repeats=3: _golden_fresh()
    )
    baseline_dir = tmp_path / "baselines"
    baseline_dir.mkdir()
    save_baseline(_golden_baseline(), baseline_dir / baseline_filename(_GOLDEN_SCENARIO))
    try:
        yield baseline_dir
    finally:
        del scenarios_mod._REGISTRY[_GOLDEN_SCENARIO]


_GOLDEN_WINDOW = {
    "spans": [
        {"name": "stage:slow", "value": 0.5},
        {"name": "stage:fast", "value": 0.0625},
        {"name": "unknown", "value": 9.0},
        {"name": "stage:slow", "value": 0.75},
        {"name": "stage:count", "value": 0.125},
        {"name": "stage:count", "value": 0.125},
    ]
}


_GOLDEN_OBS_DIFF_DEFAULT = """\
trace diff: a=A  b=B
span     status    n(a)    n(b)       t(a)       t(b)      delta
grew    changed       1       1     1.0000     3.0000    +2.0000
gone    removed       1       0     1.0000     0.0000    -1.0000
tie_a   changed       1       1     1.0000     2.0000    +1.0000
tie_b   changed       1       1     2.0000     1.0000    -1.0000
new       added       0       1     0.0000     0.5000    +0.5000
count   changed       1       2     0.5000     0.5000    +0.0000
(1 span name(s) identical in both traces)
TOTAL                               6.0000     7.5000    +1.5000
"""
_GOLDEN_OBS_DIFF_LIMIT_2 = """\
trace diff: a=A  b=B
span    status    n(a)    n(b)       t(a)       t(b)      delta
grew   changed       1       1     1.0000     3.0000    +2.0000
gone   removed       1       0     1.0000     0.0000    -1.0000
... 4 more span name(s) below the cutoff
(1 span name(s) identical in both traces)
TOTAL                               6.0000     7.5000    +1.5000
"""
_GOLDEN_OBS_DIFF_SHOW_UNCHANGED = """\
trace diff: a=A  b=B
span     status    n(a)    n(b)       t(a)       t(b)      delta
grew    changed       1       1     1.0000     3.0000    +2.0000
gone    removed       1       0     1.0000     0.0000    -1.0000
tie_a   changed       1       1     1.0000     2.0000    +1.0000
tie_b   changed       1       1     2.0000     1.0000    -1.0000
new       added       0       1     0.0000     0.5000    +0.5000
count   changed       1       2     0.5000     0.5000    +0.0000
same  unchanged       1       1     0.5000     0.5000    +0.0000
TOTAL                               6.0000     7.5000    +1.5000
"""
_GOLDEN_OBS_DIFF_JSON = (
    '{"deltas":[{"count_a":1,"count_b":1,"delta_s":2.0,"name":"grew","status":"changed","total_a_s":1.0,"total_b_s":3.0},'
    '{"count_a":1,"count_b":0,"delta_s":-1.0,"name":"gone","status":"removed","total_a_s":1.0,"total_b_s":0.0},'
    '{"count_a":1,"count_b":1,"delta_s":1.0,"name":"tie_a","status":"changed","total_a_s":1.0,"total_b_s":2.0},'
    '{"count_a":1,"count_b":1,"delta_s":-1.0,"name":"tie_b","status":"changed","total_a_s":2.0,"total_b_s":1.0},'
    '{"count_a":0,"count_b":1,"delta_s":0.5,"name":"new","status":"added","total_a_s":0.0,"total_b_s":0.5},'
    '{"count_a":1,"count_b":2,"delta_s":0.0,"name":"count","status":"changed","total_a_s":0.5,"total_b_s":0.5},'
    '{"count_a":1,"count_b":1,"delta_s":0.0,"name":"same","status":"unchanged","total_a_s":0.5,"total_b_s":0.5}],"total_a_s":6.0,"total_b_s":7.5,"total_delta_s":1.5}'
    '\n'
)
_GOLDEN_OBS_DIFF_FOREIGN = """\
trace diff: a=A  b=F
span     status    n(a)    n(b)       t(a)       t(b)      delta
tie_b   removed       1       0     2.0000     0.0000    -2.0000
gone    removed       1       0     1.0000     0.0000    -1.0000
grew    removed       1       0     1.0000     0.0000    -1.0000
tie_a   removed       1       0     1.0000     0.0000    -1.0000
count   removed       1       0     0.5000     0.0000    -0.5000
outer     added       0       1     0.0000     0.5000    +0.5000
inner     added       0       1     0.0000     0.2500    +0.2500
same  unchanged       1       1     0.5000     0.5000    +0.0000
TOTAL                               6.0000     1.2500    -4.7500
"""
_GOLDEN_GATE_FORMAT = """\
bench gate: scenario '_test_golden'
  wall 2.0000s -> 3.5000s (limit 3.0000s) REGRESSED
  workload fingerprint DRIFTED:
    points: 7 -> 8
  REGRESSION attributed to span 'stage:slow' (0.5000s -> 1.5000s, +1.0000s over limit 0.7500s)
    offending stack: bench:_test_golden;stage:slow (+1.0000s self)
  energy within tolerance (package 10.00J -> 10.25J)
  ratio 'overhead' 1.2500 within cap 1.5000
  trace diff (baseline -> fresh, |delta| desc):
    span                  status n(base)  n(new)    t(base)     t(new)      delta
    bench:_test_golden   changed       1       1     2.0000     3.5000    +1.5000
    stage:slow           changed       1       1     0.5000     1.5000    +1.0000
    tie:a                changed       1       1     0.5000     0.7500    +0.2500
    tie:b                changed       1       1     0.5000     0.2500    -0.2500
    stage:gone           removed       1       0     0.1250     0.0000    -0.1250
    stage:new              added       0       1     0.0000     0.0312    +0.0312
    stage:count          changed       2       4     0.2500     0.2500    +0.0000
    (1 span name(s) identical in both traces)
    TOTAL                                            4.1250     6.5312    +2.4062
"""[:-1]
_GOLDEN_GATE_DICT = (
    '{"energy": [{"baseline_j": 10.0, "delta_j": 0.25, "domain": "package", "fresh_j": 10.25, "limit_j": 10.5, "regressed": false}], "energy_offenders": [], "fingerprint_diffs": {"points": [7, 8]}, "fingerprint_ok": false, "offenders": ["stage:slow"], "ok": false, "ratio_offenders": [], "ratios": [{"baseline_ratio": 1.0, "fresh": 1.25, "limit": 1.5, "name": "overhead", "regressed": false}], "scenario": "_test_golden", "stack_offenders": [{"delta_s": 1.0, "self_a": 0.5, "self_b": 1.5, "stack": "bench:_test_golden;stage:slow", "status": "grown"},'
    ' {"delta_s": 0.03125, "self_a": 0.0, "self_b": 0.03125, "stack": "bench:_test_golden;stage:new", "status": "new"}], "stages": [{"baseline_s": 0.25, "delta_s": 0.0, "fresh_s": 0.25, "limit_s": 0.375, "name": "stage:count", "regressed": false, "status": "changed"},'
    ' {"baseline_s": 0.25, "delta_s": 0.0, "fresh_s": 0.25, "limit_s": 0.375, "name": "stage:fast", "regressed": false, "status": "changed"},'
    ' {"baseline_s": 0.125, "delta_s": -0.125, "fresh_s": 0.0, "limit_s": 0.1875, "name": "stage:gone", "regressed": false, "status": "removed"},'
    ' {"baseline_s": 0.5, "delta_s": 1.0, "fresh_s": 1.5, "limit_s": 0.75, "name": "stage:slow", "regressed": true, "status": "changed"},'
    ' {"baseline_s": 0.5, "delta_s": 0.25, "fresh_s": 0.75, "limit_s": 0.75, "name": "tie:a", "regressed": false, "status": "changed"},'
    ' {"baseline_s": 0.5, "delta_s": -0.25, "fresh_s": 0.25, "limit_s": 0.75, "name": "tie:b", "regressed": false, "status": "changed"},'
    ' {"baseline_s": 0.0, "delta_s": 0.03125, "fresh_s": 0.03125, "limit_s": 0.05, "name": "stage:new", "regressed": false, "status": "added"}], "wall": {"baseline_s": 2.0, "delta_s": 1.5, "fresh_s": 3.5, "limit_s": 3.0, "name": "wall", "regressed": true, "status": "changed"}}'
)
_GOLDEN_GATE_STDOUT = (
    _GOLDEN_GATE_FORMAT + "\n\nbench gate: FAIL (_test_golden regressed)\n"
)
_GOLDEN_GATE_DIFF_TXT = """\
span                  status n(base)  n(new)    t(base)     t(new)      delta
bench:_test_golden   changed       1       1     2.0000     3.5000    +1.5000
stage:slow           changed       1       1     0.5000     1.5000    +1.0000
tie:a                changed       1       1     0.5000     0.7500    +0.2500
tie:b                changed       1       1     0.5000     0.2500    -0.2500
stage:gone           removed       1       0     0.1250     0.0000    -0.1250
stage:new              added       0       1     0.0000     0.0312    +0.0312
stage:count          changed       2       4     0.2500     0.2500    +0.0000
(1 span name(s) identical in both traces)
TOTAL                                            4.1250     6.5312    +2.4062
"""
_GOLDEN_FLIGHT_DIFF = (
    '{"total_a_s": 1.375, "total_b_s": 1.5625, "total_delta_s": 0.1875, "deltas": [{"name": "stage:slow", "status": "changed", "count_a": 2, "count_b": 2, "total_a_s": 1.0, "total_b_s": 1.25, "delta_s": 0.25},'
    ' {"name": "stage:fast", "status": "changed", "count_a": 1, "count_b": 1, "total_a_s": 0.125, "total_b_s": 0.0625, "delta_s": -0.0625},'
    ' {"name": "stage:count", "status": "unchanged", "count_a": 2, "count_b": 2, "total_a_s": 0.25, "total_b_s": 0.25, "delta_s": 0.0}]}'
)


class TestDiffGoldens:
    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], _GOLDEN_OBS_DIFF_DEFAULT),
            (["--limit", "2"], _GOLDEN_OBS_DIFF_LIMIT_2),
            (["--show-unchanged"], _GOLDEN_OBS_DIFF_SHOW_UNCHANGED),
        ],
    )
    def test_obs_diff_text(self, golden_traces, capsys, flags, expected):
        a, b, _ = golden_traces
        assert main(["obs", "diff", str(a), str(b), *flags]) == 0
        out = capsys.readouterr().out
        assert out.replace(str(a), "A").replace(str(b), "B") == expected

    def test_obs_diff_json_bytes(self, golden_traces, capsys):
        a, b, _ = golden_traces
        assert main(["obs", "diff", str(a), str(b), "--json"]) == 0
        assert capsys.readouterr().out == _GOLDEN_OBS_DIFF_JSON

    def test_obs_diff_foreign_trace(self, golden_traces, capsys):
        a, _, foreign = golden_traces
        assert main(["obs", "diff", str(a), str(foreign), "--show-unchanged"]) == 0
        out = capsys.readouterr().out.replace(str(a), "A")
        out = out.replace(str(foreign), "F")
        assert out == _GOLDEN_OBS_DIFF_FOREIGN

    def test_gate_report_format_and_dict(self):
        report = compare_result(_golden_baseline(), _golden_fresh())
        assert report.format() == _GOLDEN_GATE_FORMAT
        assert json.dumps(report.as_dict(), sort_keys=True) == _GOLDEN_GATE_DICT

    def test_gate_out_dir_diff_text(self, golden_gate, tmp_path, capsys):
        out_dir = tmp_path / "out"
        argv = ["bench", "gate", "--scenario", _GOLDEN_SCENARIO,
                "--baseline-dir", str(golden_gate), "--out-dir", str(out_dir)]
        assert main(argv) == 3
        assert capsys.readouterr().out == _GOLDEN_GATE_STDOUT
        diff_text = (out_dir / f"DIFF_{_GOLDEN_SCENARIO}.txt").read_text()
        assert diff_text == _GOLDEN_GATE_DIFF_TXT

    def test_flight_attribution_against_baseline(self):
        from repro.obs.flight import attribute_incident

        attribution = attribute_incident(
            {"name": "budget_burn:cap"}, _GOLDEN_WINDOW, _golden_baseline()
        )
        assert json.dumps(attribution["diff"]) == _GOLDEN_FLIGHT_DIFF
        assert attribution["diff_top"] == "stage:slow"


# ---------------------------------------------------------------------------
# the adaptive scenarios against their committed baselines
# ---------------------------------------------------------------------------

_BASELINE_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"


class TestAdaptiveScenarioBaselines:
    """One repeat of each adaptive scenario reproduces its committed
    ``BENCH_*.json`` fingerprint exactly and its energy columns within
    1e-6 relative — the work-amount half of the CI bench gate."""

    @pytest.mark.parametrize(
        "name",
        [
            "adaptation_loop",
            "biglittle_power_cap",
            "alerting_overhead",
            "profiling_overhead",
        ],
    )
    def test_matches_committed_baseline(self, name):
        baseline = load_baseline(_BASELINE_DIR / f"BENCH_{name}.json")
        result = run_scenario(name, repeats=1)
        assert result.fingerprint == baseline.fingerprint
        assert sorted(result.energy_j) == sorted(baseline.energy_j)
        for domain, joules in baseline.energy_j.items():
            assert result.energy_j[domain] == pytest.approx(joules, rel=1e-6)
