"""Exporters: JSONL event stream, Chrome trace, Prometheus text.

Three formats, three audiences:

* :func:`events_jsonl` — everything (spans, metrics, audit entries) as
  one JSON object per line, for ad-hoc ``jq``-style analysis;
* :func:`chrome_trace` — the span tree as Chrome ``trace_event``
  *complete* events (``"ph": "X"``), loadable in Perfetto or
  ``chrome://tracing``; spans on the same track share a ``tid`` so the
  viewer reconstructs the nesting from timestamps;
* :func:`prometheus_text` — the metrics registry in the Prometheus
  text exposition format (``# HELP`` / ``# TYPE`` / sample lines,
  histograms with cumulative ``_bucket{le=...}`` series).

All exports are re-based so the earliest span starts at t=0: the
monotonic clock's epoch is arbitrary, and a zero-based trace makes two
seeded runs diff cleanly apart from durations.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.audit import AdaptationAuditLog
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LabelItems,
    MetricsRegistry,
    escape_label_value,
    format_labels,
    unescape_label_value,
)
from repro.obs.tracing import MAIN_TRACK, Span

__all__ = [
    "chrome_trace",
    "escape_label_value",
    "events_jsonl",
    "parse_prometheus_text",
    "prometheus_text",
    "unescape_label_value",
    "write_audit_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]

PathLike = Union[str, Path]


def _origin(spans: Sequence[Span]) -> float:
    return min((span.start_s for span in spans), default=0.0)


# -- Chrome trace_event -------------------------------------------------------


def chrome_trace(
    spans: Sequence[Span],
    process_name: str = "socrates",
    counters: Sequence[Dict[str, object]] = (),
) -> Dict[str, object]:
    """The span tree as a Chrome ``trace_event`` JSON document.

    ``counters`` are pre-built counter events (``"ph": "C"``, e.g. the
    energy observatory's ``power.<domain>`` tracks from
    :meth:`~repro.obs.energy.EnergyTimeline.counter_events`); they are
    appended verbatim so Perfetto draws the power steps alongside the
    span tree.  Counter timestamps are the scenario's *virtual*
    microseconds while span timestamps are re-based wall-clock — both
    start at 0, so the tracks align at the origin even though the time
    bases differ.
    """
    origin = _origin(spans)
    track_ids: Dict[str, int] = {MAIN_TRACK: 0}
    events: List[Dict[str, object]] = []
    for span in sorted(spans, key=lambda s: (s.start_s, -s.end_s, s.span_id)):
        tid = track_ids.setdefault(span.track, len(track_ids))
        args: Dict[str, object] = {str(k): v for k, v in span.attributes.items()}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args["ok"] = span.ok
        events.append(
            {
                "name": span.name,
                "cat": span.track,
                "ph": "X",
                "ts": round((span.start_s - origin) * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    metadata: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for track, tid in sorted(track_ids.items(), key=lambda item: item[1]):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": track},
            }
        )
    return {
        "traceEvents": metadata + events + list(counters),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(
    spans: Sequence[Span],
    path: PathLike,
    process_name: str = "socrates",
    counters: Sequence[Dict[str, object]] = (),
) -> int:
    """Write the Chrome trace; returns the number of span events."""
    document = chrome_trace(spans, process_name=process_name, counters=counters)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return len(spans)


# -- JSONL event stream -------------------------------------------------------


def events_jsonl(
    spans: Sequence[Span] = (),
    metrics: Optional[MetricsRegistry] = None,
    audit: Optional[AdaptationAuditLog] = None,
) -> Iterator[str]:
    """Yield one JSON line per span / metric / audit entry."""
    origin = _origin(spans)
    for span in sorted(spans, key=lambda s: (s.start_s, s.span_id)):
        record = span.as_dict()
        record["start_s"] = span.start_s - origin
        record["end_s"] = span.end_s - origin
        yield json.dumps({"type": "span", **record}, sort_keys=True)
    if metrics is not None:
        for instrument in metrics.instruments():
            yield json.dumps(
                {"type": "metric", **instrument.as_dict()}, sort_keys=True  # type: ignore[attr-defined]
            )
    if audit is not None:
        for entry in audit.entries:
            yield json.dumps({"type": "adaptation", **entry.as_dict()}, sort_keys=True)


def write_jsonl(
    path: PathLike,
    spans: Sequence[Span] = (),
    metrics: Optional[MetricsRegistry] = None,
    audit: Optional[AdaptationAuditLog] = None,
) -> int:
    """Write the JSONL event stream; returns the number of lines."""
    count = 0
    with open(path, "w") as handle:
        for line in events_jsonl(spans, metrics, audit):
            handle.write(line + "\n")
            count += 1
    return count


def write_audit_jsonl(audit: AdaptationAuditLog, path: PathLike) -> int:
    """Write the audit log as JSONL; returns the number of lines.

    Each line carries a ``type`` discriminator: ``adaptation`` for the
    MAPE-K decisions, ``check`` for static-analysis diagnostics, and
    ``prune`` for lattice points a :class:`PrunePlan` masked.
    """
    count = 0
    with open(path, "w") as handle:
        for entry in audit.entries:
            handle.write(
                json.dumps({"type": "adaptation", **entry.as_dict()}, sort_keys=True)
                + "\n"
            )
            count += 1
        for record in audit.checks_as_dicts():
            handle.write(json.dumps({"type": "check", **record}, sort_keys=True) + "\n")
            count += 1
        for record in audit.prunes_as_dicts():
            handle.write(json.dumps({"type": "prune", **record}, sort_keys=True) + "\n")
            count += 1
    return count


# -- Prometheus text exposition ----------------------------------------------


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    # HELP text escapes only backslash and newline (no quoting involved)
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _histogram_labels(instrument: Histogram, boundary: str) -> str:
    items = list(instrument.labels) + [("le", boundary)]
    body = ",".join(f'{key}="{escape_label_value(val)}"' for key, val in items)
    return "{" + body + "}"


def _format_exemplar(exemplar: Optional[Tuple]) -> str:
    """An OpenMetrics exemplar suffix: `` # {span_id="17"} 0.0931``."""
    if exemplar is None:
        return ""
    labels, value = exemplar
    body = ",".join(
        f'{key}="{escape_label_value(str(val))}"' for key, val in labels
    )
    return " # {" + body + "} " + _format_value(value)


def prometheus_text(metrics: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format.

    Instruments sharing a metric name (labelled series) are grouped
    under one ``# HELP`` / ``# TYPE`` header; label values are escaped
    per the exposition spec (``\\\\``, ``\\"``, ``\\n``).
    """
    lines: List[str] = []
    seen_header: set = set()
    for instrument in metrics.instruments():
        name = instrument.name  # type: ignore[attr-defined]
        if name not in seen_header:
            seen_header.add(name)
            if instrument.help:  # type: ignore[attr-defined]
                lines.append(
                    f"# HELP {name} {_escape_help(instrument.help)}"  # type: ignore[attr-defined]
                )
            if isinstance(instrument, (Counter, Gauge, Histogram)):
                lines.append(f"# TYPE {name} {instrument.kind}")
        labels = format_labels(instrument.labels)  # type: ignore[attr-defined]
        if isinstance(instrument, Histogram):
            cumulative = instrument.cumulative_counts()
            exemplars = instrument.exemplars
            for index, (boundary, count) in enumerate(
                zip(instrument.boundaries, cumulative)
            ):
                lines.append(
                    f"{name}_bucket"
                    f"{_histogram_labels(instrument, _format_value(boundary))} {count}"
                    f"{_format_exemplar(exemplars[index])}"
                )
            lines.append(
                f"{name}_bucket{_histogram_labels(instrument, '+Inf')} "
                f"{instrument.count}"
                f"{_format_exemplar(exemplars[-1])}"
            )
            lines.append(f"{name}_sum{labels} {_format_value(instrument.total)}")
            lines.append(f"{name}_count{labels} {instrument.count}")
        elif isinstance(instrument, (Counter, Gauge)):
            lines.append(f"{name}{labels} {_format_value(instrument.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(metrics: MetricsRegistry, path: PathLike) -> int:
    """Write the Prometheus dump; returns the number of instruments."""
    with open(path, "w") as handle:
        handle.write(prometheus_text(metrics))
    return len(metrics)


# -- Prometheus text parsing (round-trip / dashboard --from) ------------------
#
# The accepted subset is what :func:`prometheus_text` writes: ``# HELP``
# and ``# TYPE`` comments, every sample in a family typed ``counter``,
# ``gauge`` or ``histogram``, histograms with at least one finite
# bucket, no sample timestamps, and OpenMetrics exemplars on histogram
# ``_bucket`` samples only.

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_VALUE = r"[-+]?(?:\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|Inf|NaN)"
_PARSE_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:\\.|[^"\\])*)"')
_PARSE_SAMPLE = re.compile(
    rf"^({_NAME})(?:\{{(.+?)\}})? ({_VALUE})(?: # \{{(.+)\}} ({_VALUE}))?$"
)
_PARSE_COMMENT = re.compile(rf"^# (HELP|TYPE) ({_NAME})(?: (.*))?$")
_KINDS = ("counter", "gauge", "histogram")


def _parse_label_body(body: str, context: str) -> List[Tuple[str, str]]:
    items: List[Tuple[str, str]] = []
    position = 0
    while position < len(body):
        match = _PARSE_LABEL.match(body, position)
        if match is None:
            raise ValueError(f"{context}: malformed labels {body!r}")
        items.append((match.group(1), unescape_label_value(match.group(2))))
        position = match.end()
        if position < len(body):
            if body[position] != ",":
                raise ValueError(f"{context}: malformed labels {body!r}")
            position += 1
    return items


def _histogram_part(name: str, kinds: Mapping[str, str]) -> Tuple[str, str]:
    """``(family, suffix)`` of a histogram sample, ``("", "")`` otherwise."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and kinds.get(name[: -len(suffix)]) == "histogram":
            return name[: -len(suffix)], suffix
    return "", ""


def parse_prometheus_text(text: str) -> MetricsRegistry:
    """Rebuild a :class:`MetricsRegistry` from a text exposition dump.

    The inverse of :func:`prometheus_text`, and the one Prometheus
    reader: ``socrates obs top --from metrics.prom``, ``socrates obs
    validate`` and the escaping round-trip tests.  Raises
    :class:`ValueError` naming the line on anything outside the subset
    the exporter writes, and on bucket counts that are not cumulative
    per label series (checked as lines are read, so the first defect in
    file order is the one reported).
    """
    kinds: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    # (name, labels-without-le) -> {"buckets": [(le, cum)], "sum": v, "count": v}
    histograms: Dict[Tuple[str, LabelItems], Dict[str, object]] = {}
    scalars: List[Tuple[str, LabelItems, float]] = []
    # (bucket sample name, labels-without-le) -> last cumulative count
    cumulative: Dict[Tuple[str, LabelItems], float] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        context = f"line {number}"
        if line.startswith("#"):
            comment = _PARSE_COMMENT.match(line)
            if comment is None:
                raise ValueError(f"{context}: unsupported comment {line!r}")
            keyword, name, rest = comment.groups()
            rest = rest or ""
            if keyword == "HELP":
                helps[name] = unescape_label_value(rest)
            elif rest.strip() in _KINDS:
                kinds[name] = rest.strip()
            else:
                raise ValueError(
                    f"{context}: unsupported metric type {rest!r} for {name!r} "
                    f"(expected one of {', '.join(_KINDS)})"
                )
            continue
        match = _PARSE_SAMPLE.match(line)
        if match is None:
            raise ValueError(f"{context}: malformed sample line {line!r}")
        name, label_body, raw_value, ex_body, ex_value = match.groups()
        labels = _parse_label_body(label_body, context) if label_body else []
        rest_labels = tuple((k, v) for k, v in labels if k != "le")
        value = float(raw_value)
        if name.endswith("_bucket"):
            previous = cumulative.get((name, rest_labels), 0.0)
            if not value >= previous:  # a NaN count fails too
                raise ValueError(
                    f"{context}: histogram {name[: -len('_bucket')]!r} bucket "
                    f"counts are not cumulative ({raw_value} < {previous:g})"
                )
            cumulative[(name, rest_labels)] = value
        base, suffix = _histogram_part(name, kinds)
        exemplar: Optional[Tuple[LabelItems, float]] = None
        if ex_body is not None:
            if suffix != "_bucket":
                raise ValueError(
                    f"{context}: exemplar on non-histogram or non-bucket "
                    f"sample {name!r}"
                )
            exemplar = (tuple(_parse_label_body(ex_body, context)), float(ex_value))
        if not base:
            scalars.append((name, tuple(labels), value))
            continue
        if suffix != "_sum" and not math.isfinite(value):
            raise ValueError(f"{context}: {name!r} count {raw_value} is not finite")
        series = histograms.setdefault(
            (base, rest_labels),
            {"buckets": [], "sum": 0.0, "count": 0, "exemplars": []},
        )
        if suffix == "_bucket":
            le = [v for k, v in labels if k == "le"]
            if not le:
                raise ValueError(f"{context}: bucket sample lacks 'le'")
            try:
                boundary = float(le[0])
            except ValueError:
                raise ValueError(
                    f"{context}: bucket boundary le={le[0]!r} is not a number"
                ) from None
            series["buckets"].append((boundary, int(value)))  # type: ignore[attr-defined]
            series["exemplars"].append(exemplar)  # type: ignore[attr-defined]
        elif suffix == "_sum":
            series["sum"] = value
        else:
            series["count"] = int(value)

    registry = MetricsRegistry()
    for name, labels, value in scalars:
        kind = kinds.get(name)
        if kind == "counter":
            registry.counter(name, help=helps.get(name, ""), labels=dict(labels)).inc(
                value
            )
        elif kind == "gauge":
            registry.gauge(name, help=helps.get(name, ""), labels=dict(labels)).set(
                value
            )
        else:
            raise ValueError(
                f"sample {name!r} has no counter or gauge # TYPE declaration"
            )
    for (name, labels), series in histograms.items():
        # the text format admits any float spelling of +Inf ("+inf",
        # "Inf", ...): the overflow bucket is the one whose le parses
        # to +inf, never a literal string match
        boundaries = [
            le for le, _ in series["buckets"] if le != math.inf  # type: ignore[union-attr]
        ]
        if not boundaries:
            raise ValueError(f"histogram {name!r} has no finite buckets")
        instrument = registry.histogram(
            name,
            boundaries=boundaries,
            help=helps.get(name, ""),
            labels=dict(labels),
        )
        cumulative_counts = [count for _, count in series["buckets"]]  # type: ignore[union-attr]
        previous = 0
        per_bucket: List[int] = []
        for count in cumulative_counts:
            per_bucket.append(count - previous)
            previous = count
        instrument.bucket_counts = per_bucket
        instrument.total = float(series["sum"])  # type: ignore[arg-type]
        instrument.count = int(series["count"])  # type: ignore[arg-type]
        # Re-attach OpenMetrics exemplars bucket by bucket.  The +Inf
        # bucket maps to the final (overflow) slot whatever its spelling
        # or position — an exemplar on the last cumulative bucket must
        # survive the round trip like any finite bucket's.
        finite = 0
        for (le, _), exemplar in zip(series["buckets"], series["exemplars"]):  # type: ignore[arg-type]
            if le == math.inf:
                index = len(instrument.boundaries)
            else:
                index = finite
                finite += 1
            if exemplar is not None:
                instrument.exemplars[index] = exemplar
    return registry
