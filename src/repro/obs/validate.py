"""Validators for the exported observability artifacts.

Used by ``socrates obs validate`` and the CI observability smoke job.
Each validator raises :class:`ValueError` with a precise message on
the first problem found, and returns a small summary dict on success.

* :func:`validate_chrome_trace` — the document parses, every span
  event carries the required ``trace_event`` fields, spans on the
  same (pid, tid) are properly nested (a child never outlives its
  enclosing span; no partial overlaps), and counter events (``"C"``,
  the energy observatory's power tracks) carry numeric values.
* :func:`validate_energy_ledger` — a ``socrates-energy/1`` ledger
  document is well-formed and conserves energy: every entry's
  component domains sum to its package joules, and entries sum to the
  document totals.
* :func:`validate_prometheus_text` — every line matches the text
  exposition grammar (``# HELP`` / ``# TYPE`` comments, bare or
  labelled sample lines with a float value) and histogram bucket
  series are cumulative.
* :func:`validate_events_jsonl` — every line is a JSON object with a
  known ``type``.
* :func:`validate_incident` — a ``socrates-incident/1`` flight-recorder
  bundle is well-formed, its window events are in virtual-time order,
  and its ``incident_id`` matches the recomputed content fingerprint.
* profiling observatory exports — ``.folded`` flame-graph stacks and
  ``socrates-profile/1`` JSON documents delegate to
  :func:`repro.obs.profile.validate_folded_text` /
  :func:`repro.obs.profile.validate_profile_json`, which check the
  folded grammar and the virtual-time conservation invariant.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Tuple, Union

PathLike = Union[str, Path]

_REQUIRED_SPAN_FIELDS = ("name", "ph", "ts", "pid", "tid")

_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
#: A label value: any run of characters where backslash only appears in
#: the three escapes the exposition format allows (\\, \", \n).  A raw
#: double-quote terminates the value, so an unescaped quote (or a stray
#: backslash) makes the whole line unmatchable — exactly what the
#: validator should reject.
_LABEL_VALUE = r"(?:\\\\|\\\"|\\n|[^\"\\])*"
_LABELS = (
    rf"\{{[a-zA-Z_][a-zA-Z0-9_]*=\"{_LABEL_VALUE}\""
    rf"(,[a-zA-Z_][a-zA-Z0-9_]*=\"{_LABEL_VALUE}\")*\}}"
)
_VALUE = r"[-+]?(\d+(\.\d+)?([eE][-+]?\d+)?|\.\d+([eE][-+]?\d+)?|Inf|NaN)"
#: OpenMetrics exemplar suffix on histogram bucket lines:
#: `` # {span_id="17"} 0.0931`` — a labelset plus the exemplar value.
_EXEMPLAR = rf"( # {_LABELS} {_VALUE})?"
_SAMPLE_LINE = re.compile(rf"^{_METRIC_NAME}({_LABELS})? {_VALUE}( \d+)?{_EXEMPLAR}$")
_COMMENT_LINE = re.compile(rf"^# (HELP|TYPE) {_METRIC_NAME}( .*)?$")
_ONE_LABEL = re.compile(rf"[a-zA-Z_][a-zA-Z0-9_]*=\"{_LABEL_VALUE}\"")

#: Tolerance when checking span containment, in microseconds.
_NESTING_SLACK_US = 0.5


def _read_text(path: PathLike) -> str:
    try:
        return Path(path).read_text()
    except OSError as error:
        raise ValueError(f"{path}: cannot read artifact ({error})") from None


def _open_for_read(path: PathLike):
    try:
        return open(path)
    except OSError as error:
        raise ValueError(f"{path}: cannot read artifact ({error})") from None


def validate_chrome_trace(path: PathLike) -> Dict[str, object]:
    """Validate a Chrome ``trace_event`` JSON file; raise on problems."""
    try:
        document = json.loads(_read_text(path))
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from None
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError(f"{path}: missing top-level 'traceEvents' array")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError(f"{path}: 'traceEvents' is not a list")
    spans: List[dict] = []
    counters = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"{path}: event {index} is not an object")
        phase = event.get("ph")
        if phase == "M":
            continue  # metadata events carry no timing
        if phase == "C":
            _check_counter_event(event, index, str(path))
            counters += 1
            continue
        for fieldname in _REQUIRED_SPAN_FIELDS:
            if fieldname not in event:
                raise ValueError(
                    f"{path}: event {index} ({event.get('name', '?')!r}) "
                    f"lacks required field {fieldname!r}"
                )
        if phase != "X":
            raise ValueError(
                f"{path}: event {index} has unsupported phase {phase!r} "
                "(expected complete events 'X' or counter events 'C')"
            )
        if "dur" not in event:
            raise ValueError(f"{path}: complete event {index} lacks 'dur'")
        for numeric in ("ts", "dur"):
            value = event[numeric]
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(
                    f"{path}: event {index} field {numeric!r} is not a "
                    f"non-negative number (got {value!r})"
                )
        spans.append(event)
    if not spans and not counters:
        raise ValueError(
            f"{path}: trace contains no span events ('X') or counter events ('C')"
        )
    _check_nesting(spans, str(path))
    return {"events": len(events), "spans": len(spans), "counters": counters}


def _check_counter_event(event: dict, index: int, label: str) -> None:
    """Counter events ("ph": "C") draw Perfetto's power tracks: they
    need a name, a non-negative timestamp, a pid, and an ``args``
    object mapping series names to finite numbers."""
    for fieldname in ("name", "ts", "pid", "args"):
        if fieldname not in event:
            raise ValueError(
                f"{label}: counter event {index} ({event.get('name', '?')!r}) "
                f"lacks required field {fieldname!r}"
            )
    ts = event["ts"]
    if not isinstance(ts, (int, float)) or ts < 0:
        raise ValueError(
            f"{label}: counter event {index} field 'ts' is not a "
            f"non-negative number (got {ts!r})"
        )
    args = event["args"]
    if not isinstance(args, dict) or not args:
        raise ValueError(
            f"{label}: counter event {index} 'args' must be a non-empty object"
        )
    for series, value in args.items():
        if not isinstance(value, (int, float)) or value != value:
            raise ValueError(
                f"{label}: counter event {index} series {series!r} value "
                f"is not a finite number (got {value!r})"
            )


def _check_nesting(spans: List[dict], label: str) -> None:
    by_track: Dict[Tuple[object, object], List[dict]] = {}
    for span in spans:
        by_track.setdefault((span["pid"], span["tid"]), []).append(span)
    for (pid, tid), members in by_track.items():
        members.sort(key=lambda e: (e["ts"], -(e["ts"] + e["dur"])))
        stack: List[Tuple[float, float, str]] = []  # (start, end, name)
        for event in members:
            start = float(event["ts"])
            end = start + float(event["dur"])
            while stack and start >= stack[-1][1] - _NESTING_SLACK_US:
                stack.pop()
            if stack and end > stack[-1][1] + _NESTING_SLACK_US:
                raise ValueError(
                    f"{label}: span {event['name']!r} "
                    f"[{start:.1f}us, {end:.1f}us) on tid {tid} partially "
                    f"overlaps enclosing span {stack[-1][2]!r} "
                    f"ending at {stack[-1][1]:.1f}us — spans must nest"
                )
            stack.append((start, end, str(event["name"])))


def validate_prometheus_text(path: PathLike) -> Dict[str, object]:
    """Validate a Prometheus text dump; raise on grammar violations."""
    text = _read_text(path)
    samples = 0
    histogram_cumulative: Dict[str, int] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if not _COMMENT_LINE.match(line):
                raise ValueError(
                    f"{path}:{number}: malformed comment line {line!r} "
                    "(expected '# HELP name ...' or '# TYPE name ...')"
                )
            continue
        if not _SAMPLE_LINE.match(line):
            raise ValueError(
                f"{path}:{number}: malformed sample line {line!r}"
            )
        samples += 1
        # strip any exemplar suffix before reading the sample value /
        # label body: ``... 42 # {span_id="17"} 0.093``
        sample_part = line.split(" # ", 1)[0]
        name = sample_part.split("{", 1)[0].split(" ", 1)[0]
        if name.endswith("_bucket"):
            count = int(float(sample_part.rsplit(" ", 1)[1]))
            base = name[: -len("_bucket")]
            # cumulative counts restart per label series: key the check
            # on the labels minus 'le'
            label_body = (
                sample_part[sample_part.index("{") + 1 : sample_part.rindex("}")]
                if "{" in sample_part
                else ""
            )
            series = ",".join(
                part
                for part in _ONE_LABEL.findall(label_body)
                if not part.startswith('le="')
            )
            key = f"{base}{{{series}}}"
            previous = histogram_cumulative.get(key, 0)
            if count < previous:
                raise ValueError(
                    f"{path}:{number}: histogram {base!r} bucket counts "
                    f"are not cumulative ({count} < {previous})"
                )
            histogram_cumulative[key] = count
    if samples == 0:
        raise ValueError(f"{path}: no metric samples found")
    return {"samples": samples}


def validate_events_jsonl(path: PathLike) -> Dict[str, object]:
    """Validate a JSONL event stream; raise on malformed lines."""
    known = {"span", "metric", "adaptation", "check", "prune"}
    counts: Dict[str, int] = {}
    with _open_for_read(path) as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{number}: not valid JSON ({error})"
                ) from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{number}: line is not a JSON object")
            kind = record.get("type")
            if kind not in known:
                raise ValueError(
                    f"{path}:{number}: unknown event type {kind!r} "
                    f"(expected one of {sorted(known)})"
                )
            counts[kind] = counts.get(kind, 0) + 1
    if not counts:
        raise ValueError(f"{path}: stream contains no events")
    return counts


def validate_energy_ledger(path: PathLike) -> Dict[str, object]:
    """Validate a ``socrates-energy/1`` ledger document.

    Checks the schema shape and the conservation invariants: every
    entry's component domains sum to its package joules, and the
    operating points plus the idle floor sum to ``totals_j`` — all
    within the observatory's 1e-9 relative tolerance.
    """
    from repro.obs.energy import (
        COMPONENT_DOMAINS,
        CONSERVATION_TOL,
        DOMAINS,
        LEDGER_SCHEMA,
    )

    try:
        document = json.loads(_read_text(path))
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from None
    if not isinstance(document, dict):
        raise ValueError(f"{path}: ledger document is not a JSON object")
    schema = document.get("schema")
    if schema != LEDGER_SCHEMA:
        raise ValueError(
            f"{path}: unexpected ledger schema {schema!r} "
            f"(expected {LEDGER_SCHEMA!r})"
        )
    for key in ("kernel", "totals_j", "operating_points", "idle"):
        if key not in document:
            raise ValueError(f"{path}: ledger lacks required key {key!r}")

    def energy_of(container: object, label: str) -> Dict[str, float]:
        if not isinstance(container, dict) or not isinstance(
            container.get("energy_j"), dict
        ):
            raise ValueError(f"{path}: {label} lacks an 'energy_j' object")
        energy = container["energy_j"]
        for domain in DOMAINS:
            if not isinstance(energy.get(domain), (int, float)):
                raise ValueError(
                    f"{path}: {label} energy_j lacks numeric domain {domain!r}"
                )
        return energy

    def check_closure(energy: Dict[str, float], label: str) -> None:
        package = float(energy["package"])
        components = sum(float(energy[d]) for d in COMPONENT_DOMAINS)
        if abs(components - package) > CONSERVATION_TOL * max(1.0, abs(package)):
            raise ValueError(
                f"{path}: {label} domain sum {components!r} J does not "
                f"match package {package!r} J"
            )

    totals = document["totals_j"]
    if not isinstance(totals, dict):
        raise ValueError(f"{path}: 'totals_j' is not an object")
    check_closure(totals, "totals_j")

    entries = document["operating_points"]
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'operating_points' is not a list")
    booked = {domain: 0.0 for domain in DOMAINS}
    for index, entry in enumerate(entries):
        energy = energy_of(entry, f"operating point {index}")
        check_closure(energy, f"operating point {index}")
        for domain in DOMAINS:
            booked[domain] += float(energy[domain])
    idle = energy_of(document["idle"], "idle entry")
    check_closure(idle, "idle entry")
    for domain in DOMAINS:
        booked[domain] += float(idle[domain])
        total = float(totals[domain])
        if abs(booked[domain] - total) > CONSERVATION_TOL * max(1.0, abs(total)):
            raise ValueError(
                f"{path}: booked {domain} energy {booked[domain]!r} J does "
                f"not match totals_j {total!r} J"
            )
    stages = document.get("stages", [])
    if not isinstance(stages, list):
        raise ValueError(f"{path}: 'stages' is not a list")
    for index, stage in enumerate(stages):
        check_closure(
            energy_of(stage, f"stage {index}"),
            f"stage {index}",
        )
    return {
        "kernel": document["kernel"],
        "operating_points": len(entries),
        "stages": len(stages),
        "package_j": float(totals["package"]),
    }


def validate_incident(path: PathLike) -> Dict[str, object]:
    """Validate a ``socrates-incident/1`` flight-recorder bundle.

    Checks the schema shape (alert, attribution, per-kind window
    lists), that every window's events are in non-decreasing
    virtual-time order (the flight recorder's eviction invariant), and
    that the ``incident_id`` matches the recomputed content
    fingerprint — a tampered or truncated bundle fails loudly.
    """
    from repro.obs.flight import incident_fingerprint, load_incident

    document = load_incident(path)
    for key in ("incident_id", "kernel", "t", "alert", "attribution", "window"):
        if key not in document:
            raise ValueError(f"{path}: incident bundle lacks required key {key!r}")
    alert = document["alert"]
    if not isinstance(alert, dict):
        raise ValueError(f"{path}: 'alert' is not an object")
    for key in ("name", "detector", "severity", "t", "message"):
        if key not in alert:
            raise ValueError(f"{path}: alert lacks required key {key!r}")
    attribution = document["attribution"]
    if not isinstance(attribution, dict):
        raise ValueError(f"{path}: 'attribution' is not an object")
    for key in ("span", "domain"):
        if key not in attribution:
            raise ValueError(f"{path}: attribution lacks required key {key!r}")
    window = document["window"]
    if not isinstance(window, dict):
        raise ValueError(f"{path}: 'window' is not an object")
    events = 0
    for kind in ("spans", "metrics", "energy", "audit", "alerts"):
        ring = window.get(kind)
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
            events += 1
    expected = incident_fingerprint(document)
    if document["incident_id"] != expected:
        raise ValueError(
            f"{path}: incident_id {document['incident_id']!r} does not match "
            f"the recomputed content fingerprint {expected!r} "
            "(bundle modified or truncated?)"
        )
    return {
        "incident_id": document["incident_id"],
        "kernel": document["kernel"],
        "alert": alert["name"],
        "events": events,
    }


def validate_run_record_file(path: PathLike) -> Dict[str, object]:
    """Validate a ``socrates-run/1`` telemetry-warehouse run record.

    Delegates to :func:`repro.obs.store.validate_run_record`, which
    recomputes the run id from the identity fields — a hand-edited
    record fails loudly.
    """
    from repro.obs.store import validate_run_record

    try:
        document = json.loads(_read_text(path))
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from None
    return validate_run_record(document, label=str(path))


def validate_bench_baseline(path: PathLike) -> Dict[str, object]:
    """Validate a ``socrates-bench/1`` baseline / stored bench report."""
    from repro.bench.baseline import load_baseline

    baseline = load_baseline(path)
    return {
        "scenario": baseline.scenario,
        "repeats": baseline.repeats,
        "stages": len(baseline.stages),
        "stacks": len(baseline.stacks),
    }


def validate_file(path: PathLike) -> Dict[str, object]:
    """Dispatch on file suffix: .json → Chrome trace, energy ledger,
    incident bundle, flame profile, bench baseline or warehouse run
    record (sniffed on content), .jsonl → event stream, .prom/.txt →
    Prometheus text, .folded → folded flame-graph stacks."""
    suffix = Path(path).suffix.lower()
    if suffix == ".jsonl":
        return validate_events_jsonl(path)
    if suffix == ".folded":
        from repro.obs.profile import validate_folded_text

        return validate_folded_text(path)
    if suffix == ".json":
        from repro.bench.baseline import SCHEMA as BENCH_SCHEMA
        from repro.obs.energy import LEDGER_SCHEMA
        from repro.obs.flight import INCIDENT_SCHEMA
        from repro.obs.profile import PROFILE_SCHEMA, validate_profile_json
        from repro.obs.store import RUN_SCHEMA

        try:
            document = json.loads(_read_text(path))
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: not valid JSON ({error})") from None
        if isinstance(document, dict) and document.get("schema") == LEDGER_SCHEMA:
            return validate_energy_ledger(path)
        if isinstance(document, dict) and document.get("schema") == INCIDENT_SCHEMA:
            return validate_incident(path)
        if isinstance(document, dict) and document.get("schema") == PROFILE_SCHEMA:
            return validate_profile_json(path)
        if isinstance(document, dict) and document.get("schema") == BENCH_SCHEMA:
            return validate_bench_baseline(path)
        if isinstance(document, dict) and document.get("schema") == RUN_SCHEMA:
            return validate_run_record_file(path)
        return validate_chrome_trace(path)
    if suffix in (".prom", ".txt"):
        return validate_prometheus_text(path)
    raise ValueError(
        f"{path}: cannot infer artifact kind from suffix {suffix!r} "
        "(expected .json, .jsonl, .prom, .txt or .folded)"
    )


#: Suffixes :func:`validate_file` can dispatch; anything else inside a
#: directory walk is counted as skipped rather than failing the run.
VALIDATABLE_SUFFIXES = (".json", ".jsonl", ".prom", ".txt", ".folded")

