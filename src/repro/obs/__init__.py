"""`repro.obs` — the unified observability subsystem.

One :class:`Observability` object bundles the three pillars that the
rest of the codebase is instrumented against:

* :attr:`Observability.tracer` — hierarchical span tracing
  (:mod:`repro.obs.tracing`), threaded through the toolflow stages,
  engine evaluations (including process-pool workers), DSE sweeps,
  COBAYN training and the adaptive runtime's MAPE-K iterations;
* :attr:`Observability.metrics` — the counter/gauge/histogram registry
  (:mod:`repro.obs.metrics`) that absorbs the engine counters and the
  mARGOt monitor statistics;
* :attr:`Observability.audit` — the adaptation audit log
  (:mod:`repro.obs.audit`) explaining every operating-point switch.

The disabled instance :data:`NULL_OBS` is what every component gets by
default: its tracer and registry are shared no-op singletons and its
audit is ``None``, so instrumentation costs one attribute lookup and
one no-op call on hot paths, and **seeded runs are byte-identical with
observability on or off** (instrumentation never touches any random
stream).

Exports (:mod:`repro.obs.export`) cover a JSONL event stream, Chrome
``trace_event`` JSON for Perfetto/``chrome://tracing``, and a
Prometheus-style text dump; :mod:`repro.obs.validate` checks each
format, and the ``socrates obs`` CLI wires both up.

:mod:`repro.obs.energy` builds on all three pillars: the virtual-RAPL
energy observatory reconstructs per-domain power(t) timelines from
runtime traces, books joules onto operating points in an
:class:`~repro.obs.energy.EnergyLedger`, and watches declared
power/energy budgets (``socrates energy report|timeline|slo``).

The *streaming* layer (:mod:`repro.obs.alerts`,
:mod:`repro.obs.flight`) turns the same telemetry into online
verdicts: construct with ``alerting=True`` and
:attr:`Observability.alerts` carries an
:class:`~repro.obs.alerts.AlertEngine` that owns a virtual clock,
rings span closures, metric updates and energy samples into a bounded
flight recorder, and watches the metric and energy streams with its
detectors, snapshotting the recorder into deterministic incident
bundles when an SLO burns (``socrates obs incidents``).  With alerting
off, ``alerts`` is ``None`` and every hook is one attribute lookup.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, Optional

from repro.obs.audit import (
    AdaptationAuditLog,
    AdaptationEntry,
    CandidateTrace,
    CheckTrace,
    ConstraintTrace,
    PruneTrace,
    SloTrace,
    compose_reason,
    describe_rank,
)
from repro.obs.energy import (
    BudgetVerdict,
    EnergyBudget,
    EnergyLedger,
    EnergySample,
    EnergyTimeline,
    LedgerConservationError,
    attribute_record,
    build_timeline,
    check_budgets,
)
from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
)
from repro.obs.alerts import Alert, AlertEngine, AlertPolicy
from repro.obs.audit import IncidentTrace
from repro.obs.flight import INCIDENT_SCHEMA, FlightRecorder, IncidentBundle, StreamEvent
from repro.obs.profile import (
    FlameProfile,
    ProfileNode,
    StackDiff,
    WhatIfReport,
    attribute_energy,
    build_tree,
    diff_flame,
    load_chrome_trace,
    render_svg,
    rescale_tree,
    total_virtual_s,
    whatif,
)
from repro.obs.provenance import ProvenanceEdge, ProvenanceGraph
from repro.obs.store import (
    RUN_SCHEMA,
    ArtifactBlob,
    SlowdownTracer,
    TelemetryStore,
    VirtualClock,
    canonical_json,
    parse_slowdowns,
    recording_observability,
    run_id_for,
)
from repro.obs.tracing import MAIN_TRACK, NULL_TRACER, NullTracer, Span, Tracer

# NOTE: repro.obs.trend is intentionally not imported here — it pulls
# in repro.bench, whose scenarios import repro.obs, and a top-level
# import would make that cycle real.  Import it as repro.obs.trend.

__all__ = [
    "AdaptationAuditLog",
    "AdaptationEntry",
    "Alert",
    "AlertEngine",
    "AlertPolicy",
    "BudgetVerdict",
    "CandidateTrace",
    "CheckTrace",
    "ConstraintTrace",
    "Counter",
    "EnergyBudget",
    "EnergyLedger",
    "EnergySample",
    "EnergyTimeline",
    "FlightRecorder",
    "INCIDENT_SCHEMA",
    "IncidentBundle",
    "IncidentTrace",
    "LedgerConservationError",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MAIN_TRACK",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_OBS",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "Observability",
    "ProvenanceEdge",
    "ProvenanceGraph",
    "RUN_SCHEMA",
    "ArtifactBlob",
    "SloTrace",
    "SlowdownTracer",
    "Span",
    "StreamEvent",
    "TelemetryStore",
    "Tracer",
    "VirtualClock",
    "attribute_record",
    "canonical_json",
    "FlameProfile",
    "ProfileNode",
    "PruneTrace",
    "StackDiff",
    "WhatIfReport",
    "attribute_energy",
    "build_timeline",
    "build_tree",
    "check_budgets",
    "compose_reason",
    "describe_rank",
    "diff_flame",
    "load_chrome_trace",
    "parse_slowdowns",
    "recording_observability",
    "render_svg",
    "rescale_tree",
    "run_id_for",
    "total_virtual_s",
    "whatif",
]


class Observability:
    """Tracer + metrics registry + adaptation audit log, as one handle."""

    def __init__(
        self,
        enabled: bool = True,
        max_audit_candidates: int = 5,
        clock: Callable[[], float] = time.perf_counter,
        alerting: bool = False,
        alert_policy: Optional[AlertPolicy] = None,
    ) -> None:
        self.enabled = enabled
        self.alerts: Optional[AlertEngine] = None
        if enabled:
            self.tracer: Tracer = Tracer(clock=clock)
            self.metrics: MetricsRegistry = MetricsRegistry()
            self.audit: Optional[AdaptationAuditLog] = AdaptationAuditLog(
                max_candidates=max_audit_candidates
            )
            if alerting:
                self.alerts = AlertEngine(
                    policy=alert_policy, metrics=self.metrics, audit=self.audit
                )
                self.tracer.sink = self.alerts
        else:
            self.tracer = NULL_TRACER
            self.metrics = NULL_METRICS
            self.audit = None

    # -- snapshots of legacy instrumentation ----------------------------------

    def absorb_engine(self, engine) -> None:
        """Mirror an engine's cache/evaluation counters into the registry."""
        self.metrics.absorb_engine_counters(engine.counters)
        if self.alerts is not None:
            self.alerts.observe_engine(engine.counters)

    def absorb_monitors(self, monitors: Mapping[str, object]) -> None:
        """Mirror mARGOt monitor statistics into the registry."""
        self.metrics.absorb_monitors(monitors)

    def __repr__(self) -> str:
        if not self.enabled:
            return "Observability(enabled=False)"
        return (
            f"Observability(spans={len(self.tracer.spans)}, "
            f"metrics={len(self.metrics)}, "
            f"audit_entries={len(self.audit) if self.audit else 0})"
        )


#: Process-wide disabled observability (the default everywhere).
NULL_OBS = Observability(enabled=False)
