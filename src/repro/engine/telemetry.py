"""Stage-event telemetry: what each pipeline stage cost.

The toolflow wraps every Figure 1 stage in
:meth:`TelemetryRecorder.stage`, which snapshots the engine's cache
and evaluation counters around the stage body and appends one
:class:`StageEvent` with the wall time and counter deltas.  The CLI
dumps the events as JSON (``socrates build --stage-report`` /
``socrates stats``).

Since the introduction of :mod:`repro.obs`, the recorder is a thin
adapter over the span tracer: each stage additionally opens a
``stage:<name>`` span on the tracer it was given (the shared no-op
tracer by default), so stage events and the hierarchical trace always
agree on stage boundaries.  Given a metrics registry, each stage also
lands in the labelled ``socrates_stage_duration_seconds{stage=...}``
histogram, which is what ``socrates obs top`` renders as the
per-stage histogram panel.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import Dict, Iterator, List, Optional

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Tracer


@dataclass(frozen=True)
class StageEvent:
    """Cost accounting of one pipeline stage."""

    stage: str
    wall_time_s: float
    compile_hits: int
    compile_misses: int
    profile_hits: int
    profile_misses: int
    truth_hits: int
    truth_misses: int
    points_evaluated: int
    ok: bool = True

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


#: StageEvent fields summed into the report totals — every numeric
#: counter except the identifying/boolean ones, derived from the
#: dataclass so a newly added counter cannot be silently omitted.
_TOTALED_FIELDS = tuple(
    f.name for f in fields(StageEvent) if f.name not in ("stage", "ok")
)


def stage_report(events: List[StageEvent]) -> Dict[str, object]:
    """JSON-able report: per-stage events plus totals.

    ``totals`` sums every numeric :class:`StageEvent` field; ``ok`` is
    the conjunction over stages (``True`` for an empty report).
    """
    totals: Dict[str, object] = {
        name: sum(getattr(event, name) for event in events)
        for name in _TOTALED_FIELDS
    }
    totals["ok"] = all(event.ok for event in events)
    return {
        "stages": [event.as_dict() for event in events],
        "totals": totals,
    }


class TelemetryRecorder:
    """Collects :class:`StageEvent` records around an engine's stages."""

    def __init__(
        self,
        engine,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._engine = engine
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._events: List[StageEvent] = []

    @property
    def events(self) -> List[StageEvent]:
        return list(self._events)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        before = self._engine.counters
        # Time stages on the tracer's clock so a virtual clock (the
        # telemetry warehouse's determinism device) governs stage wall
        # times and the duration histogram too, not just spans.  The
        # no-op tracer carries no clock; fall back to the real one.
        clock = getattr(self._tracer, "_clock", time.perf_counter)
        start = clock()
        ok = True
        span = None
        try:
            with self._tracer.span(f"stage:{name}") as span:
                yield
        except BaseException:
            ok = False
            raise
        finally:
            wall = clock() - start
            after = self._engine.counters
            # The span that landed in this bucket becomes the bucket's
            # OpenMetrics exemplar (span is None under NULL_TRACER).
            self._metrics.histogram(
                "socrates_stage_duration_seconds",
                help="wall time of each pipeline stage",
                labels={"stage": name},
            ).observe(
                wall,
                exemplar={"span_id": str(span.span_id)} if span is not None else None,
            )
            self._events.append(
                StageEvent(
                    stage=name,
                    wall_time_s=wall,
                    compile_hits=after.compile_hits - before.compile_hits,
                    compile_misses=after.compile_misses - before.compile_misses,
                    profile_hits=after.profile_hits - before.profile_hits,
                    profile_misses=after.profile_misses - before.profile_misses,
                    truth_hits=after.truth_hits - before.truth_hits,
                    truth_misses=after.truth_misses - before.truth_misses,
                    points_evaluated=after.points_evaluated
                    - before.points_evaluated,
                    ok=ok,
                )
            )

    def report(self) -> Dict[str, object]:
        return stage_report(self._events)
