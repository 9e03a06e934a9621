"""Flight recorder and incident bundles (`repro.obs.flight`).

An always-on alerting layer cannot retain full traces (Endo et al.:
online adaptation is only viable with strictly bounded monitoring
overhead), so the flight recorder keeps one bounded ring buffer per
telemetry kind — spans, metric updates, energy-plane samples,
adaptation-audit entries, fired alerts — and evicts oldest-first in
strict virtual-time order.  When an alert fires, the rings are
snapshotted into a schema-versioned **incident bundle**
(``socrates-incident/1``) with automatic root-cause attribution: the
violated energy domain, the operating point that dominated the energy
spent inside the window, and (when a bench baseline is at hand) a
span-name diff (:func:`repro.obs.profile.diff_flame` over per-name
totals) against the baseline's stage profile.

Incident identifiers are content addresses: ``inc-`` plus a SHA-256
prefix over the *virtual-time* content of the bundle (wall-clock span
durations are excluded), so a seeded run produces the same incident id
every time it is repeated.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence, Union

from repro.obs.profile import (
    FlameProfile,
    StackStat,
    diff_flame,
    name_diff_dict,
    name_totals,
)
from repro.obs.stream import ALERT, AUDIT, ENERGY, EVENT_KINDS, METRIC, SPAN, StreamEvent

PathLike = Union[str, Path]

__all__ = [
    "INCIDENT_SCHEMA",
    "FlightRecorder",
    "IncidentBundle",
    "attribute_incident",
    "incident_fingerprint",
    "incident_paths",
    "load_incident",
]

#: Schema tag written into every bundle; bump on breaking layout changes.
INCIDENT_SCHEMA = "socrates-incident/1"

#: ring kind -> window key in the incident bundle
_WINDOW_KEYS = {
    SPAN: "spans",
    METRIC: "metrics",
    ENERGY: "energy",
    AUDIT: "audit",
    ALERT: "alerts",
}


class FlightRecorder:
    """Bounded per-kind ring buffers over the telemetry stream.

    ``capacity`` bounds each ring independently (the span ring fills
    ~4x faster than the energy ring, so a shared ring would starve the
    slow kinds).  Appends must be non-decreasing in virtual time per
    ring; a regression raises ``ValueError`` because it would corrupt
    the eviction order the incident fingerprint relies on.
    """

    def __init__(
        self,
        capacity: int = 256,
        on_evict: Optional[Callable[[StreamEvent], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"flight recorder capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.on_evict = on_evict
        self._rings: Dict[str, Deque[StreamEvent]] = {
            kind: deque(maxlen=capacity)
            for kind in EVENT_KINDS
            if kind not in (SPAN, ENERGY)
        }
        # The span and energy rings are the hot ones: every span
        # closure and every invocation's energy sample in the whole run
        # lands here, but only ``capacity`` survive.  They store raw
        # ``(t, producer)`` pairs and wrap them into StreamEvents
        # lazily at inspection time, so the steady-state cost per
        # closure is a tuple and a deque append — no event allocation.
        # (Events that do arrive through the bus are stored as-is and
        # need no wrapping either.)
        self._span_ring: Deque[object] = deque(maxlen=capacity)
        self._energy_ring: Deque[object] = deque(maxlen=capacity)
        self._span_last_t: Optional[float] = None
        self._energy_last_t: Optional[float] = None
        self._last_t: Dict[str, float] = {}
        self.recorded = 0
        self.evicted = 0

    def record(self, event: StreamEvent) -> None:
        """Append one event to its kind's ring (the bus subscriber)."""
        kind = event.kind
        if kind == SPAN:
            self._append_span(event.t, event)
            return
        if kind == ENERGY:
            self._append_energy(event.t, event)
            return
        ring = self._rings[kind]
        last = self._last_t.get(kind)
        if last is not None and event.t < last - 1e-9:
            raise ValueError(
                f"flight recorder: {kind} event {event.name!r} at "
                f"t={event.t:.9f}s arrives behind the ring's last event "
                f"(t={last:.9f}s); virtual-time order is mandatory"
            )
        if len(ring) == ring.maxlen:
            self.evicted += 1
            if self.on_evict is not None:
                self.on_evict(ring[0])
        ring.append(event)
        self._last_t[kind] = event.t
        self.recorded += 1

    def record_span(self, t: float, span: object) -> None:
        """Hot-path helper: ring a span closure stamped at bus time."""
        self._append_span(t, (t, span))

    def record_energy(self, t: float, record: object) -> None:
        """Hot-path helper: ring one invocation's energy sample."""
        self._append_energy(t, (t, record))

    def _append_span(self, t: float, entry: object) -> None:
        last = self._span_last_t
        if last is not None and t < last - 1e-9:
            raise ValueError(
                f"flight recorder: span event at t={t:.9f}s arrives "
                f"behind the ring's last event (t={last:.9f}s); "
                f"virtual-time order is mandatory"
            )
        ring = self._span_ring
        if len(ring) == self.capacity:
            self.evicted += 1
            if self.on_evict is not None:
                self.on_evict(self._wrap_span(ring[0]))
        ring.append(entry)
        self._span_last_t = t
        self.recorded += 1

    def _append_energy(self, t: float, entry: object) -> None:
        last = self._energy_last_t
        if last is not None and t < last - 1e-9:
            raise ValueError(
                f"flight recorder: energy event at t={t:.9f}s arrives "
                f"behind the ring's last event (t={last:.9f}s); "
                f"virtual-time order is mandatory"
            )
        ring = self._energy_ring
        if len(ring) == self.capacity:
            self.evicted += 1
            if self.on_evict is not None:
                self.on_evict(self._wrap_energy(ring[0]))
        ring.append(entry)
        self._energy_last_t = t
        self.recorded += 1

    @staticmethod
    def _wrap_span(entry: object) -> StreamEvent:
        if type(entry) is not tuple:
            return entry  # arrived through the bus as a real event
        t, span = entry
        return StreamEvent(
            SPAN,
            t,
            getattr(span, "name", "?"),
            getattr(span, "duration_s", 0.0),
            payload=span,
        )

    @staticmethod
    def _wrap_energy(entry: object) -> StreamEvent:
        if type(entry) is not tuple:
            return entry
        t, record = entry
        return StreamEvent(
            ENERGY,
            t,
            "power.package",
            getattr(record, "power_w", 0.0),
            payload=record,
        )

    def events(self, kind: str) -> List[StreamEvent]:
        if kind == SPAN:
            return [self._wrap_span(entry) for entry in self._span_ring]
        if kind == ENERGY:
            return [self._wrap_energy(entry) for entry in self._energy_ring]
        return list(self._rings[kind])

    def counts(self) -> Dict[str, int]:
        counts = {}
        for kind in EVENT_KINDS:
            if kind == SPAN:
                counts[kind] = len(self._span_ring)
            elif kind == ENERGY:
                counts[kind] = len(self._energy_ring)
            else:
                counts[kind] = len(self._rings[kind])
        return counts

    def snapshot(self) -> Dict[str, List[dict]]:
        """Materialize the rings into the incident-bundle window."""
        return {
            _WINDOW_KEYS[kind]: [event.as_dict() for event in self.events(kind)]
            for kind in EVENT_KINDS
        }


# -- fingerprinting -----------------------------------------------------------


def _reduce_span_event(event: Mapping[str, object]) -> dict:
    """A span event minus its wall-clock content.

    Span *durations* are wall time and differ between repeats of the
    same seed; the virtual timestamp, name and attributes are
    deterministic, so only those enter the fingerprint.
    """
    payload = event.get("payload")
    attributes = {}
    if isinstance(payload, Mapping):
        attributes = payload.get("attributes") or {}
    return {
        "name": event.get("name"),
        "t": event.get("t"),
        "attributes": attributes,
    }


def _reduce_event(event: Mapping[str, object]) -> dict:
    reduced = {
        "name": event.get("name"),
        "t": event.get("t"),
        "value": event.get("value"),
    }
    if event.get("attributes"):
        reduced["attributes"] = event["attributes"]
    payload = event.get("payload")
    if isinstance(payload, Mapping):
        # Invocation records / audit entries are fully virtual-time
        # deterministic; drop only wall-clock keys if present.
        reduced["payload"] = {
            key: value
            for key, value in payload.items()
            if key not in ("start_s", "end_s", "duration_s", "wall_s")
        }
    return reduced


def incident_fingerprint(document: Mapping[str, object]) -> str:
    """Deterministic content address of an incident bundle.

    Hashes the alert, the kernel, and the virtual-time reduction of
    the window (span wall durations excluded).  Stable across repeat
    runs of the same seed, and recomputable by ``obs validate``.
    """
    window = document.get("window") or {}
    payload = {
        "schema": INCIDENT_SCHEMA,
        "kernel": document.get("kernel", ""),
        "alert": document.get("alert", {}),
        "window": {
            "spans": [_reduce_span_event(e) for e in window.get("spans", [])],
            "metrics": [_reduce_event(e) for e in window.get("metrics", [])],
            "energy": [_reduce_event(e) for e in window.get("energy", [])],
            "audit": [_reduce_event(e) for e in window.get("audit", [])],
            "alerts": [_reduce_event(e) for e in window.get("alerts", [])],
        },
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    return f"inc-{digest[:12]}"


# -- attribution --------------------------------------------------------------


def attribute_incident(
    alert: Mapping[str, object],
    window: Mapping[str, Sequence[Mapping[str, object]]],
    baseline: object = None,
) -> Dict[str, object]:
    """Automatic root-cause attribution for an incident window.

    * ``domain`` — the energy plane the alert's detector watched (from
      the alert context; defaults to ``package``).
    * ``operating_point`` / ``span`` — the (compiler, threads,
      binding, cluster) configuration that consumed the most energy
      inside the window, named as the ``kernel.execute`` span it ran
      under: on a power-budget burn the offender is whatever the
      MAPE-K loop was running while the budget burned.
    * ``diff`` — when a :class:`repro.bench.baseline.BenchBaseline` is
      supplied, a span-name diff of the window's per-name totals
      against the baseline's per-stage means, scaled to the window's
      span counts (informational: wall-clock based).
    """
    context = alert.get("context") or {}
    domain = str(context.get("domain", "package"))

    energy_by_op: Dict[tuple, float] = {}
    states: Dict[tuple, str] = {}
    for event in window.get("energy", []):
        payload = event.get("payload")
        if not isinstance(payload, Mapping):
            continue
        op = (
            str(payload.get("compiler", "?")),
            int(payload.get("threads", 0)),
            str(payload.get("binding", "")),
            str(payload.get("cluster", "")),
        )
        energy_by_op[op] = energy_by_op.get(op, 0.0) + float(payload.get("energy_j", 0.0))
        states.setdefault(op, str(payload.get("state", "")))

    attribution: Dict[str, object] = {
        "domain": domain,
        "detail": str(alert.get("message", "")),
    }
    total_j = sum(energy_by_op.values())
    if energy_by_op:
        # Deterministic arg-max: energy descending, then the tuple
        # itself as tie-break.
        offender = max(energy_by_op, key=lambda op: (energy_by_op[op], op))
        compiler, threads, binding, cluster = offender
        label = f"kernel.execute(compiler={compiler}, threads={threads}"
        if binding:
            label += f", binding={binding}"
        if cluster:
            label += f", cluster={cluster}"
        label += ")"
        attribution["span"] = label
        attribution["operating_point"] = {
            "compiler": compiler,
            "threads": threads,
            "binding": binding,
            "cluster": cluster,
            "state": states.get(offender, ""),
        }
        attribution["energy_j"] = energy_by_op[offender]
        attribution["energy_share"] = (
            energy_by_op[offender] / total_j if total_j > 0.0 else 0.0
        )
    else:
        attribution["span"] = str(alert.get("name", "?"))

    if baseline is not None:
        diff = _diff_against_baseline(window.get("spans", []), baseline)
        if diff is not None:
            attribution["diff"] = name_diff_dict(diff)
            changed = [
                d for d in diff.deltas if d.name_status == "changed" and d.delta_s > 0
            ]
            if changed:
                attribution["diff_top"] = changed[0].stack
    return attribution


def _diff_against_baseline(
    span_events: Sequence[Mapping[str, object]], baseline: object
):
    """Window span profile vs the baseline's scaled stage means."""
    stages = getattr(baseline, "stages", None)
    if not stages:
        return None
    observed = name_totals(
        (str(event.get("name", "?")), float(event.get("value", 0.0)))
        for event in span_events
    )
    expected = FlameProfile(
        {
            name: StackStat(self_s=stages[name].mean_s * stat.count, count=stat.count)
            for name, stat in observed.stacks.items()
            if name in stages and stages[name].count
        }
    )
    if not expected.stacks:
        return None
    observed.stacks = {name: observed.stacks[name] for name in expected.stacks}
    return diff_flame(expected, observed)


# -- bundles ------------------------------------------------------------------


class IncidentBundle:
    """One schema-versioned incident: alert + window + attribution."""

    def __init__(
        self,
        kernel: str,
        t: float,
        alert: Mapping[str, object],
        window: Mapping[str, List[dict]],
        attribution: Mapping[str, object],
        incident_id: str = "",
    ) -> None:
        self.kernel = kernel
        self.t = float(t)
        self.alert = dict(alert)
        self.window = {key: list(events) for key, events in window.items()}
        self.attribution = dict(attribution)
        self.incident_id = incident_id or incident_fingerprint(
            {"kernel": kernel, "alert": self.alert, "window": self.window}
        )

    @classmethod
    def build(
        cls,
        kernel: str,
        alert: Mapping[str, object],
        flight: FlightRecorder,
        baseline: object = None,
    ) -> "IncidentBundle":
        window = flight.snapshot()
        return cls(
            kernel=kernel,
            t=float(alert.get("t", 0.0)),
            alert=alert,
            window=window,
            attribution=attribute_incident(alert, window, baseline),
        )

    def counts(self) -> Dict[str, int]:
        return {key: len(events) for key, events in sorted(self.window.items())}

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": INCIDENT_SCHEMA,
            "incident_id": self.incident_id,
            "kernel": self.kernel,
            "t": self.t,
            "alert": self.alert,
            "attribution": self.attribution,
            "counts": self.counts(),
            "window": self.window,
        }

    def write(self, directory: PathLike) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"INC_{self.incident_id}.json"
        path.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n")
        return path


# -- loading ------------------------------------------------------------------


def _require_keys(
    value: object, keys: Sequence[str], what: str, path: PathLike
) -> None:
    """Raise unless ``value`` is an object carrying every one of ``keys``."""
    if not isinstance(value, dict):
        raise ValueError(f"{path}: {what} is not an object")
    for key in keys:
        if key not in value:
            raise ValueError(f"{path}: {what} lacks required key {key!r}")


def load_incident(path: PathLike) -> Dict[str, object]:
    """Read and check one incident bundle, with named errors.

    Checks the schema shape (alert, attribution, per-kind window
    lists), that every window's events are in non-decreasing
    virtual-time order (the flight recorder's eviction invariant), and
    that the ``incident_id`` matches the recomputed content
    fingerprint — a tampered or truncated bundle fails loudly.
    """
    try:
        text = Path(path).read_text()
    except OSError as error:
        raise ValueError(f"{path}: cannot read incident bundle ({error})") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from None
    if not isinstance(document, dict):
        raise ValueError(f"{path}: incident bundle must be a JSON object")
    if document.get("schema") != INCIDENT_SCHEMA:
        raise ValueError(
            f"{path}: unknown schema {document.get('schema')!r} "
            f"(expected {INCIDENT_SCHEMA!r})"
        )
    _require_keys(
        document,
        ("incident_id", "kernel", "t", "alert", "attribution", "window"),
        "incident bundle",
        path,
    )
    if not isinstance(document["kernel"], str):
        raise ValueError(f"{path}: 'kernel' is not a string")
    if not isinstance(document["t"], (int, float)):
        raise ValueError(f"{path}: 't' is not a number")
    alert_keys = ("name", "detector", "severity", "t", "message")
    _require_keys(document["alert"], alert_keys, "alert", path)
    _require_keys(document["attribution"], ("span", "domain"), "attribution", path)
    _require_keys(document["window"], (), "window", path)
    for kind in _WINDOW_KEYS.values():
        ring = document["window"].get(kind)
        if not isinstance(ring, list):
            raise ValueError(f"{path}: window lacks event list {kind!r}")
        last = None
        for index, event in enumerate(ring):
            if not isinstance(event, dict) or not isinstance(
                event.get("t"), (int, float)
            ):
                raise ValueError(
                    f"{path}: window {kind}[{index}] lacks a numeric 't'"
                )
            t = float(event["t"])
            if last is not None and t < last - 1e-9:
                raise ValueError(
                    f"{path}: window {kind}[{index}] at t={t!r}s breaks "
                    f"virtual-time order (previous event at t={last!r}s)"
                )
            last = t
    expected = incident_fingerprint(document)
    if document["incident_id"] != expected:
        raise ValueError(
            f"{path}: incident_id {document['incident_id']!r} does not match "
            f"the recomputed content fingerprint {expected!r} "
            "(bundle modified or truncated?)"
        )
    return document


def incident_paths(directory: PathLike) -> List[Path]:
    """All ``INC_*.json`` bundles under ``directory``, sorted by name."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"{directory}: not a directory (no incidents recorded?)")
    return sorted(directory.glob("INC_*.json"))
