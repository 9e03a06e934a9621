"""Tests for `repro.obs.alerts` + `repro.obs.flight`.

The streaming SLO alerting layer: the alert engine's virtual clock,
online detectors (EWMA, CUSUM, multi-window burn rate), the bounded
flight recorder, and the incident pipeline (bundle build, schema
validation, deterministic fingerprints, root-cause attribution).
"""

import dataclasses
import json

import pytest

from repro.core.scenario import Phase, Scenario
from repro.core.toolflow import SocratesToolflow
from repro.margot.state import (
    OptimizationState,
    maximize_throughput,
    maximize_throughput_per_watt_squared,
)
from repro.obs import Observability
from repro.obs.alerts import (
    AlertEngine,
    AlertPolicy,
    BurnRateDetector,
    CusumDetector,
    EwmaDetector,
)
from repro.obs.energy import EnergyBudget
from repro.obs.flight import (
    ALERT,
    AUDIT,
    ENERGY,
    EVENT_KINDS,
    INCIDENT_SCHEMA,
    METRIC,
    SPAN,
    FlightRecorder,
    IncidentBundle,
    StreamEvent,
    attribute_incident,
    incident_fingerprint,
    incident_paths,
    load_incident,
)
from repro.obs.validate import validate_file, validate_incident
from repro.polybench.suite import load


# -- the virtual-time stream --------------------------------------------------


class TestTelemetryBus:
    """The stream's virtual clock, owned by the alert engine, and its
    immutable events."""

    def test_clock_is_high_water_mark(self):
        engine = AlertEngine()
        engine.publish(StreamEvent(ENERGY, 1.0, "power.package", 10.0))
        engine.publish(StreamEvent(ENERGY, 2.5, "power.package", 11.0))
        assert engine.now == 2.5
        assert engine.flight.counts()[ENERGY] == 2

    def test_regression_is_a_named_error(self):
        engine = AlertEngine()
        engine.publish(StreamEvent(ENERGY, 2.0, "power.package", 10.0))
        for kind in (ENERGY, ALERT, METRIC, AUDIT):
            with pytest.raises(ValueError, match="virtual time"):
                engine.publish(StreamEvent(kind, 1.0, "x"))
        assert engine.now == 2.0
        assert engine.flight.recorded == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            StreamEvent("bogus", 0.0, "x")

    def test_events_are_immutable(self):
        event = StreamEvent(METRIC, 0.0, "x")
        with pytest.raises(AttributeError):
            event.t = 1.0


# -- detectors ----------------------------------------------------------------


class TestEwmaDetector:
    def test_no_verdict_during_warmup(self):
        detector = EwmaDetector(min_samples=8)
        assert all(detector.update(1.0 + 0.01 * i) is None for i in range(8))

    def test_spike_breaches_after_warmup(self):
        detector = EwmaDetector(alpha=0.2, z_threshold=4.0, min_samples=8)
        for i in range(20):
            detector.update(1.0 + 0.01 * (i % 3))
        z = detector.update(10.0)
        assert z is not None and z > 4.0

    def test_spike_judged_by_pre_update_stats(self):
        # The breaching sample must not dilute its own verdict.
        quiet = EwmaDetector(min_samples=4)
        for _ in range(10):
            quiet.update(1.0)
        mean_before = quiet.mean
        quiet.update(100.0)
        assert quiet.mean > mean_before  # state did absorb the spike

    def test_alpha_validated(self):
        with pytest.raises(ValueError, match="alpha"):
            EwmaDetector(alpha=0.0)


class TestCusumDetector:
    def test_level_shift_up_detected_once(self):
        detector = CusumDetector(k=0.5, h=8.0, min_samples=10)
        for _ in range(10):
            detector.update(50.0)
        verdicts = [detector.update(53.0) for _ in range(40)]
        fired = [v for v in verdicts if v is not None]
        assert len(fired) == 1 and fired[0] > 0

    def test_rewarmup_after_changepoint(self):
        detector = CusumDetector(min_samples=5)
        for _ in range(5):
            detector.update(10.0)
        fired = [v for v in (detector.update(20.0) for _ in range(200)) if v]
        assert fired  # the shift was reported...
        # ...and reset() re-entered warm-up, so the new level becomes
        # the reference and the detector goes quiet instead of
        # alarming forever after one shift
        assert detector.update(20.0) is None
        assert len(detector._warmup) > 0

    def test_downward_shift_is_negative(self):
        detector = CusumDetector(min_samples=5)
        for value in [50.0, 51.0, 50.0, 49.0, 50.0]:
            detector.update(value)
        statistic = None
        for _ in range(100):
            statistic = detector.update(40.0)
            if statistic is not None:
                break
        assert statistic is not None and statistic < 0

    def test_min_samples_validated(self):
        with pytest.raises(ValueError, match="warm-up"):
            CusumDetector(min_samples=1)


class TestBurnRateDetector:
    def budget(self, watts=10.0):
        return EnergyBudget("cap", power_w=watts)

    def feed(self, detector, start, end, watts, step=0.05):
        t = start
        breaches = []
        while t < end:
            breaches.append(detector.update(t, t + step, watts))
            t += step
        return [b for b in breaches if b is not None]

    def test_fires_when_both_windows_burn(self):
        detector = BurnRateDetector(self.budget(10.0), short_s=0.2, long_s=1.0)
        breaches = self.feed(detector, 0.0, 3.0, watts=15.0)
        assert len(breaches) == 1  # armed latch: one alert per excursion
        assert breaches[0]["short_burn"] > 1.0
        assert breaches[0]["long_burn"] > 1.0

    def test_no_alert_before_long_window_fills(self):
        detector = BurnRateDetector(self.budget(10.0), short_s=0.2, long_s=1.0)
        assert not self.feed(detector, 0.0, 0.9, watts=100.0)

    def test_spike_shorter_than_long_window_filtered(self):
        detector = BurnRateDetector(self.budget(10.0), short_s=0.2, long_s=1.0)
        assert not self.feed(detector, 0.0, 2.0, watts=5.0)
        # a 0.3s spike at 2x cannot push the 1.0s window over 1x
        assert not self.feed(detector, 2.0, 2.3, watts=20.0)
        assert not self.feed(detector, 2.3, 3.0, watts=5.0)

    def test_rearms_after_recovery(self):
        detector = BurnRateDetector(self.budget(10.0), short_s=0.2, long_s=1.0)
        assert len(self.feed(detector, 0.0, 3.0, watts=15.0)) == 1
        self.feed(detector, 3.0, 6.0, watts=1.0)  # cool down, rearm
        assert detector.armed
        assert len(self.feed(detector, 6.0, 9.0, watts=15.0)) == 1

    def test_window_sums_match_ring_contents(self):
        detector = BurnRateDetector(self.budget(10.0), short_s=0.2, long_s=1.0)
        self.feed(detector, 0.0, 5.0, watts=7.0)
        assert detector._short_dt == pytest.approx(
            sum(dt for _, dt, _ in detector._short)
        )
        assert detector._long_j == pytest.approx(
            sum(j for _, _, j in detector._long)
        )

    def test_total_energy_accumulates(self):
        detector = BurnRateDetector(self.budget(10.0), short_s=0.2, long_s=1.0)
        self.feed(detector, 0.0, 2.0, watts=10.0)
        assert detector.total_energy_j == pytest.approx(20.0, rel=0.05)

    def test_window_ordering_validated(self):
        with pytest.raises(ValueError, match="short"):
            BurnRateDetector(self.budget(), short_s=1.0, long_s=0.5)


# -- flight recorder ----------------------------------------------------------


def span_event(t, name="stage"):
    return StreamEvent(SPAN, t, name, 0.0)


class TestFlightRecorder:
    def test_bounded_eviction_in_order(self):
        evicted = []
        flight = FlightRecorder(capacity=3, on_evict=evicted.append)
        for t in range(5):
            flight.record(span_event(float(t)))
        assert flight.recorded == 5
        assert flight.evicted == 2
        assert [event.t for event in evicted] == [0.0, 1.0]
        assert [event.t for event in flight.events(SPAN)] == [2.0, 3.0, 4.0]

    def test_virtual_time_order_is_mandatory(self):
        flight = FlightRecorder(capacity=4)
        flight.record_span(2.0, object())
        with pytest.raises(ValueError, match="virtual-time order"):
            flight.record_span(1.0, object())
        flight.record_energy(5.0, object())
        with pytest.raises(ValueError, match="virtual-time order"):
            flight.record_energy(4.0, object())
        for kind in (ALERT, METRIC, AUDIT):
            flight.record(StreamEvent(kind, 2.0, "x"))
            with pytest.raises(ValueError, match="virtual-time order"):
                flight.record(StreamEvent(kind, 1.0, "x"))
        assert flight.recorded == 5

    def test_kinds_ring_independently(self):
        flight = FlightRecorder(capacity=2)
        flight.record(span_event(1.0))
        flight.record(StreamEvent(ENERGY, 0.5, "power.package", 9.0))
        # energy behind spans is fine: per-kind clocks
        assert flight.counts()[SPAN] == 1
        assert flight.counts()[ENERGY] == 1

    def test_raw_entries_wrapped_lazily(self):
        class FakeSpan:
            name = "stage:weave"
            duration_s = 0.25

        flight = FlightRecorder(capacity=4)
        flight.record_span(1.0, FakeSpan())
        events = flight.events(SPAN)
        assert events[0].name == "stage:weave"
        assert events[0].value == 0.25
        assert isinstance(events[0], StreamEvent)

    def test_invocation_record_payload_is_its_fields_in_order(self):
        from repro.core.adaptive import InvocationRecord

        record = InvocationRecord(
            timestamp=1.5, state="Throughput", compiler="-O3", threads=4,
            binding="close", time_s=0.25, power_w=40.0, energy_j=10.0,
            cluster="xeon",
        )
        event = StreamEvent(ENERGY, 1.5, "power.package", 40.0, payload=record)
        payload = event.as_dict()["payload"]
        assert list(payload.items()) == list(dataclasses.asdict(record).items())

    def test_snapshot_covers_every_kind(self):
        flight = FlightRecorder(capacity=4)
        window = flight.snapshot()
        assert len(window) == len(EVENT_KINDS)
        assert all(isinstance(events, list) for events in window.values())


# -- incident bundles ---------------------------------------------------------


@dataclasses.dataclass
class FakeRecord:
    timestamp: float
    time_s: float
    power_w: float
    energy_j: float = 0.0
    compiler: str = "-O3"
    threads: int = 4
    binding: str = "close"
    cluster: str = ""
    state: str = "Throughput"

    def __post_init__(self):
        self.energy_j = self.power_w * self.time_s

    def as_dict(self):
        return dataclasses.asdict(self)


def burning_engine(power_w=50.0, budget_w=10.0, steps=60):
    """An engine fed synthetic invocations that burn the budget."""
    policy = AlertPolicy(
        budgets=(EnergyBudget("cap", power_w=budget_w),),
        burn_short_s=0.1,
        burn_long_s=0.5,
        flight_capacity=32,
    )
    engine = AlertEngine(policy=policy, kernel="fake")
    step = 0.05
    for i in range(steps):
        end = (i + 1) * step
        engine.observe_invocation(
            "fake", FakeRecord(timestamp=end, time_s=step, power_w=power_w)
        )
    return engine


class TestAlertEngine:
    def test_burn_alert_fires_and_opens_incident(self):
        engine = burning_engine()
        assert len(engine.alerts) >= 1
        burn = [a for a in engine.alerts if a.detector == "burn_rate"]
        assert burn and burn[0].name == "budget_burn:cap"
        assert len(engine.incidents) == len(engine.alerts)

    def test_quiet_workload_stays_quiet(self):
        engine = burning_engine(power_w=5.0, budget_w=10.0)
        assert engine.alerts == []
        assert engine.incidents == []

    def test_cooldown_suppresses_duplicate_alerts(self):
        policy = AlertPolicy(
            budgets=(
                EnergyBudget("a", power_w=10.0),
                EnergyBudget("b", power_w=10.0),
            ),
            burn_short_s=0.1,
            burn_long_s=0.5,
            cooldown_s=10.0,
        )
        engine = AlertEngine(policy=policy)
        step = 0.05
        for i in range(100):
            end = (i + 1) * step
            engine.observe_invocation(
                "fake", FakeRecord(timestamp=end, time_s=step, power_w=50.0)
            )
        names = [a.name for a in engine.alerts]
        assert len(names) == len(set(names))  # one alert per budget
        assert engine.suppressed == 0  # distinct names never collide

    def test_flight_ring_receives_spans_via_sink(self):
        class FakeSpan:
            name = "stage:weave"
            duration_s = 0.01

        engine = AlertEngine()
        engine.now = 1.0
        engine.on_span(FakeSpan())
        assert engine.flight.counts()[SPAN] == 1
        assert engine.flight.events(SPAN)[0].t == 1.0

    def test_regressing_invocation_is_rejected(self):
        engine = AlertEngine()
        engine.observe_invocation(
            "fake", FakeRecord(timestamp=2.0, time_s=0.5, power_w=10.0)
        )
        with pytest.raises(ValueError, match="virtual-time order"):
            engine.observe_invocation(
                "fake", FakeRecord(timestamp=1.0, time_s=0.5, power_w=10.0)
            )
        # rejected before the clock or the ring moved
        assert engine.now == 2.0
        assert engine.flight.counts()[ENERGY] == 1

    def test_bundle_schema_and_validation(self, tmp_path):
        engine = burning_engine()
        bundle = engine.incidents[0]
        document = bundle.as_dict()
        assert document["schema"] == INCIDENT_SCHEMA
        assert document["incident_id"].startswith("inc-")
        path = bundle.write(tmp_path)
        summary = validate_incident(path)
        assert summary["incident_id"] == bundle.incident_id
        assert validate_file(path) == summary
        assert load_incident(path)["kernel"] == "fake"
        assert incident_paths(tmp_path) == [path]

    def test_fingerprint_stable_across_runs(self):
        first = burning_engine().incidents[0]
        second = burning_engine().incidents[0]
        assert first.incident_id == second.incident_id
        assert first.as_dict() == second.as_dict()

    def test_fingerprint_sensitive_to_window(self):
        first = burning_engine().incidents[0]
        other = burning_engine(power_w=51.0).incidents[0]
        assert first.incident_id != other.incident_id

    def test_attribution_names_offender_and_domain(self):
        engine = burning_engine()
        attribution = engine.incidents[0].attribution
        assert attribution["domain"] == "package"
        assert "kernel.execute" in attribution["span"]
        assert attribution["operating_point"]["threads"] == 4
        assert attribution["energy_share"] == pytest.approx(1.0)

    def test_cusum_fires_on_power_level_shift(self):
        policy = AlertPolicy(cusum_min_samples=10)
        engine = AlertEngine(policy=policy)
        step = 0.05
        t = 0.0
        for _ in range(10):
            t += step
            engine.observe_invocation(
                "fake", FakeRecord(timestamp=t, time_s=step, power_w=50.0)
            )
        for _ in range(60):
            t += step
            engine.observe_invocation(
                "fake", FakeRecord(timestamp=t, time_s=step, power_w=80.0)
            )
        cusum = [a for a in engine.alerts if a.detector == "cusum"]
        assert cusum and cusum[0].name == "power_changepoint:package"
        assert "shifted up" in cusum[0].message

    def test_alert_counters_exported(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        policy = AlertPolicy(
            budgets=(EnergyBudget("cap", power_w=10.0),),
            burn_short_s=0.1,
            burn_long_s=0.5,
        )
        engine = AlertEngine(policy=policy, metrics=metrics)
        step = 0.05
        for i in range(60):
            engine.observe_invocation(
                "fake",
                FakeRecord(timestamp=(i + 1) * step, time_s=step, power_w=50.0),
            )
        text = metrics.prometheus_text() if hasattr(metrics, "prometheus_text") else ""
        fired = metrics.counter(
            "socrates_alerts_total",
            help="alerts fired by the streaming detectors",
            labels={"alert": "budget_burn:cap", "severity": "page"},
        )
        assert fired.value >= 1


class TestAttribution:
    def test_empty_window_falls_back_to_alert_name(self):
        attribution = attribute_incident(
            {"name": "budget_burn:cap", "message": "m"}, {"energy": []}
        )
        assert attribution["span"] == "budget_burn:cap"
        assert attribution["domain"] == "package"

    def test_argmax_is_deterministic_under_ties(self):
        window = {
            "energy": [
                {
                    "payload": {
                        "compiler": "-O2",
                        "threads": 1,
                        "binding": "spread",
                        "cluster": "",
                        "energy_j": 5.0,
                    }
                },
                {
                    "payload": {
                        "compiler": "-O3",
                        "threads": 2,
                        "binding": "close",
                        "cluster": "",
                        "energy_j": 5.0,
                    }
                },
            ]
        }
        first = attribute_incident({"name": "a"}, window)
        second = attribute_incident({"name": "a"}, window)
        assert first["span"] == second["span"]

    def test_fingerprint_ignores_wall_clock_span_payloads(self):
        base = {
            "kernel": "k",
            "alert": {"name": "a"},
            "window": {
                "spans": [
                    {
                        "name": "stage",
                        "t": 1.0,
                        "payload": {"duration_s": 0.5, "attributes": {}},
                    }
                ]
            },
        }
        other = json.loads(json.dumps(base))
        other["window"]["spans"][0]["payload"]["duration_s"] = 0.9
        assert incident_fingerprint(base) == incident_fingerprint(other)


# -- the null-object discipline ----------------------------------------------


def quick_workload(obs):
    flow = SocratesToolflow(dse_repetitions=1, thread_counts=[1, 2], obs=obs)
    app = flow.build(load("mvt")).adaptive
    app.add_state(
        OptimizationState("Thr/W^2", rank=maximize_throughput_per_watt_squared()),
        activate=True,
    )
    app.add_state(OptimizationState("Throughput", rank=maximize_throughput()))
    scenario = Scenario(
        phases=[Phase(0.0, "Thr/W^2"), Phase(0.5, "Throughput")], duration_s=1.0
    )
    return scenario.run(app)


class TestNullObjectDiscipline:
    def test_alerts_none_unless_enabled(self):
        assert Observability().alerts is None
        assert Observability(enabled=False).alerts is None
        assert Observability(alerting=True).alerts is not None

    def test_seeded_run_identical_with_alerting_on_or_off(self):
        policy = AlertPolicy(
            budgets=(EnergyBudget("cap", power_w=40.0),),
            burn_short_s=0.1,
            burn_long_s=0.5,
        )
        plain = quick_workload(Observability())
        alerting = quick_workload(Observability(alerting=True, alert_policy=policy))
        assert plain == alerting


# -- the overhead probe -------------------------------------------------------


class TestAlertOverheadProbe:
    def test_accounts_and_clamps(self):
        import time

        from repro.bench.measure import AlertOverheadProbe

        engine = AlertEngine()
        probe = AlertOverheadProbe(engine, clamp_s=0.001).install()

        class FakeSpan:
            name = "s"
            duration_s = 0.0

        engine.now = 1.0
        engine.on_span(FakeSpan())
        assert probe.hooks == 1
        assert 0.0 < probe.hook_s <= 0.001

        # a hook that stalls past the clamp is billed the clamp only;
        # both hooks reach the recorder through its one append path
        original = engine.flight._append

        def slow(kind, t, entry):
            time.sleep(0.005)
            original(kind, t, entry)

        engine.flight._append = slow
        probe.clamped = 0
        before = probe.hook_s
        engine.on_span(FakeSpan())
        assert probe.hook_s - before == pytest.approx(0.001)
        before = probe.hook_s
        engine.observe_invocation(
            "fake", FakeRecord(timestamp=2.0, time_s=1.0, power_w=1.0)
        )
        assert probe.hook_s - before == pytest.approx(0.001)
        assert probe.clamped == 2
        assert probe.hooks == 3
        assert engine.flight.counts()[SPAN] == 2
        assert engine.flight.counts()[ENERGY] == 1

    def test_overhead_ratio(self):
        from repro.bench.measure import AlertOverheadProbe

        probe = AlertOverheadProbe(AlertEngine())
        probe.hook_s = 0.5
        assert probe.overhead_ratio(2.0) == pytest.approx(2.0 / 1.5)
        assert probe.overhead_ratio(0.25) == float("inf")
