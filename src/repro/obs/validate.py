"""Validators for the exported observability artifacts.

Used by ``socrates obs validate`` and the CI observability smoke job.
Each validator raises :class:`ValueError` with a precise message on
the first problem found, and returns a small summary dict on success.

Every format with a consuming command is read by that command's own
reader, so ``obs validate`` accepts exactly what the consumers accept;
a validator adds only the whole-file rules it alone owns:

* :func:`validate_chrome_trace` — :func:`repro.obs.profile.
  _read_chrome_trace` (``obs flame``/``obs diff``/``obs whatif``), plus
  "at least one span or counter event".
* :func:`validate_prometheus_text` — :func:`repro.obs.export.
  parse_prometheus_text` (``obs top --from``), plus "at least one
  sample".
* :func:`validate_folded_text` / :func:`validate_profile_json` —
  :func:`repro.obs.profile.load_flame_profile` (``obs flame --diff``),
  plus "at least one stack".
* :func:`validate_incident` — :func:`repro.obs.flight.load_incident`
  (``obs incidents``).
* :func:`validate_energy_ledger` — a ``socrates-energy/1`` ledger has
  no other reader: the validator checks its shape, runs the ledger's
  own domain-closure rule on every entry, and checks that the entries
  sum to the document totals.
* :func:`validate_events_jsonl` — every line is a JSON object with a
  known ``type``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

PathLike = Union[str, Path]


def _read_text(path: PathLike) -> str:
    try:
        return Path(path).read_text()
    except OSError as error:
        raise ValueError(f"{path}: cannot read artifact ({error})") from None


def _read_json(path: PathLike) -> object:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from None


def validate_chrome_trace(path: PathLike) -> Dict[str, object]:
    """Validate a Chrome ``trace_event`` JSON file; raise on problems."""
    from repro.obs.profile import _read_chrome_trace

    trace = _read_chrome_trace(path)
    if not trace.spans and not trace.counters:
        raise ValueError(
            f"{path}: trace contains no span events ('X') or counter events ('C')"
        )
    return {
        "events": trace.events,
        "spans": len(trace.spans),
        "counters": trace.counters,
    }


def validate_prometheus_text(path: PathLike) -> Dict[str, object]:
    """Validate a Prometheus text dump; raise on problems."""
    from repro.obs.export import parse_prometheus_text

    text = _read_text(path)
    try:
        parse_prometheus_text(text)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None
    # every non-comment line of a parsed dump is a sample
    samples = sum(
        1 for line in text.splitlines() if line.strip() and not line.startswith("#")
    )
    if samples == 0:
        raise ValueError(f"{path}: no metric samples found")
    return {"samples": samples}


def validate_events_jsonl(path: PathLike) -> Dict[str, object]:
    """Validate a JSONL event stream; raise on malformed lines."""
    known = {"span", "metric", "adaptation", "check", "prune"}
    counts: Dict[str, int] = {}
    for number, line in enumerate(_read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}:{number}: not valid JSON ({error})") from None
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
    entry obeys the ledger's domain closure (components sum to the
    package, per cluster plane too), and the operating points plus the
    idle floor sum to ``totals_j`` — all within the observatory's 1e-9
    relative tolerance.
    """
    from repro.obs.energy import (
        CONSERVATION_TOL,
        DOMAINS,
        LEDGER_SCHEMA,
        _check_domain_closure,
    )

    document = _read_json(path)
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

    def closed_energy(energy: object, label: str) -> Dict[str, float]:
        """``energy`` once it has every domain (and only numeric ones)
        and passes the ledger's own domain-closure rule."""
        if not isinstance(energy, dict):
            raise ValueError(f"{path}: {label} lacks an 'energy_j' object")
        for domain in DOMAINS + tuple(energy):
            if not isinstance(energy.get(domain), (int, float)):
                raise ValueError(
                    f"{path}: {label} energy_j lacks numeric domain {domain!r}"
                )
        try:
            _check_domain_closure(energy, label, CONSERVATION_TOL)
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from None
        return energy

    def entry_energy(container: object, label: str) -> Dict[str, float]:
        energy = container.get("energy_j") if isinstance(container, dict) else None
        return closed_energy(energy, label)

    if not isinstance(document["totals_j"], dict):
        raise ValueError(f"{path}: 'totals_j' is not an object")
    totals = closed_energy(document["totals_j"], "totals_j")
    entries = document["operating_points"]
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'operating_points' is not a list")
    booked = [
        entry_energy(entry, f"operating point {index}")
        for index, entry in enumerate(entries)
    ]
    booked.append(entry_energy(document["idle"], "idle entry"))
    for domain in DOMAINS:
        total = float(totals[domain])
        booked_j = sum(float(energy[domain]) for energy in booked)
        if abs(booked_j - total) > CONSERVATION_TOL * max(1.0, abs(total)):
            raise ValueError(
                f"{path}: booked {domain} energy {booked_j!r} J does "
                f"not match totals_j {total!r} J"
            )
    stages = document.get("stages", [])
    if not isinstance(stages, list):
        raise ValueError(f"{path}: 'stages' is not a list")
    for index, stage in enumerate(stages):
        entry_energy(stage, f"stage {index}")
    return {
        "kernel": document["kernel"],
        "operating_points": len(entries),
        "stages": len(stages),
        "package_j": float(totals["package"]),
    }


def validate_incident(path: PathLike) -> Dict[str, object]:
    """Validate a ``socrates-incident/1`` flight-recorder bundle."""
    from repro.obs.flight import _WINDOW_KEYS, load_incident

    document = load_incident(path)
    return {
        "incident_id": document["incident_id"],
        "kernel": document["kernel"],
        "alert": document["alert"]["name"],
        "events": sum(
            len(document["window"][kind]) for kind in _WINDOW_KEYS.values()
        ),
    }


def validate_folded_text(path: PathLike) -> Dict[str, object]:
    """Validate a folded-stack export; raise :class:`ValueError`."""
    from repro.obs.profile import FlameProfile

    return _profile_summary(FlameProfile.load_folded(path), path)


def validate_profile_json(path: PathLike) -> Dict[str, object]:
    """Validate a ``socrates-profile/1`` JSON document."""
    from repro.obs.profile import load_flame_profile

    return _profile_summary(load_flame_profile(path), path)


def _profile_summary(profile, path: PathLike) -> Dict[str, object]:
    if not profile.stacks:
        raise ValueError(f"{path}: profile contains no stacks")
    summary: Dict[str, object] = {
        "stacks": len(profile.stacks),
        "total_self_s": profile.total_self_s,
    }
    if profile.has_energy:
        summary["total_energy_j"] = profile.total_energy_j
    return summary


def validate_run_record_file(path: PathLike) -> Dict[str, object]:
    """Validate a ``socrates-run/1`` telemetry-warehouse run record.

    Delegates to :func:`repro.obs.store.validate_run_record`, which
    recomputes the run id from the identity fields — a hand-edited
    record fails loudly.
    """
    from repro.obs.store import validate_run_record

    return validate_run_record(_read_json(path), label=str(path))


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
        return validate_folded_text(path)
    if suffix == ".json":
        from repro.bench.baseline import SCHEMA as BENCH_SCHEMA
        from repro.obs.energy import LEDGER_SCHEMA
        from repro.obs.flight import INCIDENT_SCHEMA
        from repro.obs.profile import PROFILE_SCHEMA
        from repro.obs.store import RUN_SCHEMA

        by_schema = {
            LEDGER_SCHEMA: validate_energy_ledger,
            INCIDENT_SCHEMA: validate_incident,
            PROFILE_SCHEMA: validate_profile_json,
            BENCH_SCHEMA: validate_bench_baseline,
            RUN_SCHEMA: validate_run_record_file,
        }
        document = _read_json(path)
        schema = str(document.get("schema")) if isinstance(document, dict) else ""
        return by_schema.get(schema, validate_chrome_trace)(path)
    if suffix in (".prom", ".txt"):
        return validate_prometheus_text(path)
    raise ValueError(
        f"{path}: cannot infer artifact kind from suffix {suffix!r} "
        "(expected .json, .jsonl, .prom, .txt or .folded)"
    )


#: Suffixes :func:`validate_file` can dispatch; anything else inside a
#: directory walk is counted as skipped rather than failing the run.
VALIDATABLE_SUFFIXES = (".json", ".jsonl", ".prom", ".txt", ".folded")

