"""The telemetry warehouse: a content-addressed, on-disk run store.

Every pipeline invocation recorded here becomes a first-class **run
record**: a ``socrates-run/1`` JSON document whose id is a hash of the
*seeded content* of the run — source fingerprint, machine name, seed,
knob configuration, injected slowdowns — and never of wall-clock time.
The record links every artifact the run emitted (Chrome trace,
Prometheus snapshot, energy ledger, audit JSONL, folded stacks, bench
report) by content hash, with blob-level dedup, plus the provenance
edges connecting them (see :mod:`repro.obs.provenance`).

Determinism is what makes the warehouse useful: two invocations of the
same seeded workload must produce byte-identical artifacts, so the
store's state after recording a run twice is byte-identical to
recording it once.  The virtual clock below delivers that — spans
timed through a :class:`VirtualClock` advance a fixed tick per clock
read, making every timestamp a pure function of call order.
:class:`SlowdownTracer` then injects *synthetic* regressions (for CI
drills and ``socrates obs trend`` tests) by stretching the virtual
time of selected span names, which is itself deterministic and part
of the run identity.

Store layout (everything human-inspectable)::

    <store>/
      objects/<aa>/<sha256><suffix>   content-addressed blobs (dedup)
      runs/<run_id>.json              socrates-run/1 records
      journal                         run ids, one per line, record order
      pins/<run_id>                   GC pins (empty marker files)
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.obs.tracing import Span, Tracer

PathLike = Union[str, Path]

#: Current run-record schema identifier.
RUN_SCHEMA = "socrates-run/1"

#: The fields hashed into a run id, in canonical order.  Everything
#: here is seeded content — never a timestamp, never a path.
IDENTITY_FIELDS = (
    "kind",
    "app",
    "machine",
    "scenario",
    "seed",
    "label",
    "source",
    "knobs",
)

#: Hex digits of the sha256 identity hash kept as the run id.
RUN_ID_LENGTH = 16


def canonical_json(document: object) -> str:
    """The canonical one-line JSON form used for hashing and ``--json``."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_identity(record: Mapping[str, object]) -> Dict[str, object]:
    """The identity sub-document of a run record (hash input)."""
    return {name: record.get(name) for name in IDENTITY_FIELDS}


def run_id_for(identity: Mapping[str, object]) -> str:
    """Deterministic run id: sha256 of the canonical identity JSON."""
    digest = hashlib.sha256(canonical_json(identity).encode()).hexdigest()
    return digest[:RUN_ID_LENGTH]


# -- the virtual clock ---------------------------------------------------------


class VirtualClock:
    """A clock whose reading is a pure function of how often it was read.

    Every call returns the current virtual time and advances it by a
    fixed tick (1 µs by default, which keeps Chrome-trace microsecond
    rounding exact), so span timestamps under this clock depend only
    on the order of instrumentation calls — i.e. on the seeded
    workload, never on the machine.  :meth:`advance` jumps the clock
    forward explicitly (used by :class:`SlowdownTracer`).
    """

    def __init__(self, tick_s: float = 1e-6) -> None:
        if tick_s <= 0:
            raise ValueError(f"tick_s must be positive, got {tick_s}")
        self.tick_s = tick_s
        self.now_s = 0.0

    def __call__(self) -> float:
        current = self.now_s
        self.now_s += self.tick_s
        return current

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance the clock by {seconds}s")
        self.now_s += seconds


class SlowdownTracer(Tracer):
    """A tracer that injects deterministic synthetic slowdowns.

    When a span whose name has an entry in ``slowdowns`` closes, the
    virtual clock jumps forward by ``(factor - 1)`` times the span's
    elapsed virtual time *before* the closing timestamp is read — the
    span grows by exactly that factor, its ancestors absorb the
    stretch, and nesting stays intact.  Used by ``--inject-slowdown``
    to stage regressions for ``socrates obs trend`` drills.
    """

    def __init__(self, clock: VirtualClock, slowdowns: Mapping[str, float]) -> None:
        super().__init__(clock=clock)
        self._vclock = clock
        self._slowdowns = dict(slowdowns)

    def _finish(self, span: Span) -> None:
        factor = self._slowdowns.get(span.name)
        if factor is not None and factor > 1.0:
            elapsed = self._vclock.now_s - span.start_s
            if elapsed > 0:
                self._vclock.advance((factor - 1.0) * elapsed)
        super()._finish(span)


def parse_slowdowns(tokens: Optional[Sequence[str]]) -> Dict[str, float]:
    """Parse ``--inject-slowdown SPAN:FACTOR`` tokens.

    Span names may themselves contain colons (``stage:profile``), so
    the factor is split off the *last* colon.
    """
    slowdowns: Dict[str, float] = {}
    for token in tokens or ():
        name, sep, raw = token.rpartition(":")
        if not sep or not name:
            raise ValueError(
                f"--inject-slowdown expects SPAN:FACTOR, got {token!r}"
            )
        try:
            factor = float(raw)
        except ValueError:
            raise ValueError(
                f"--inject-slowdown factor {raw!r} is not a number"
            ) from None
        if factor < 1.0:
            raise ValueError(
                f"--inject-slowdown factor must be >= 1.0, got {factor!r}"
            )
        slowdowns[name] = factor
    return slowdowns


def recording_observability(slowdowns: Optional[Mapping[str, float]] = None):
    """An :class:`~repro.obs.Observability` on a virtual clock.

    All spans (and, through them, stage events and duration
    histograms) become pure functions of the seeded workload, so the
    exported artifacts are byte-identical across invocations — the
    property every warehouse record relies on.
    """
    from repro.obs import Observability

    clock = VirtualClock()
    obs = Observability(clock=clock)
    if slowdowns:
        obs.tracer = SlowdownTracer(clock, slowdowns)
    return obs


# -- run records ---------------------------------------------------------------


@dataclass(frozen=True)
class ArtifactBlob:
    """One artifact to store with a run: a name and its exact bytes."""

    name: str
    data: bytes

    @property
    def suffix(self) -> str:
        return Path(self.name).suffix.lower()


def validate_run_record(record: object, label: str = "run record") -> Dict[str, object]:
    """Check a ``socrates-run/1`` document; raise ValueError on problems.

    The integrity invariant: the ``run_id`` must equal the recomputed
    hash of the identity fields, so a tampered or hand-edited record
    fails loudly.
    """
    if not isinstance(record, dict):
        raise ValueError(f"{label}: run record is not a JSON object")
    schema = record.get("schema")
    if schema != RUN_SCHEMA:
        raise ValueError(
            f"{label}: unsupported run schema {schema!r} (expected {RUN_SCHEMA!r})"
        )
    for required in ("run_id", "kind", "metrics", "artifacts", "edges"):
        if required not in record:
            raise ValueError(f"{label}: run record lacks required field {required!r}")
    expected = run_id_for(run_identity(record))
    if record["run_id"] != expected:
        raise ValueError(
            f"{label}: run_id {record['run_id']!r} does not match the "
            f"recomputed identity hash {expected!r} (record modified?)"
        )
    artifacts = record["artifacts"]
    if not isinstance(artifacts, list):
        raise ValueError(f"{label}: 'artifacts' is not a list")
    for index, entry in enumerate(artifacts):
        if not isinstance(entry, dict):
            raise ValueError(f"{label}: artifact {index} is not an object")
        for required in ("name", "sha256", "bytes"):
            if required not in entry:
                raise ValueError(
                    f"{label}: artifact {index} lacks required field {required!r}"
                )
    edges = record["edges"]
    if not isinstance(edges, list):
        raise ValueError(f"{label}: 'edges' is not a list")
    for index, edge in enumerate(edges):
        if not isinstance(edge, dict) or not all(
            key in edge for key in ("src", "dst", "relation")
        ):
            raise ValueError(
                f"{label}: edge {index} lacks src/dst/relation fields"
            )
    if not isinstance(record["metrics"], dict):
        raise ValueError(f"{label}: 'metrics' is not an object")
    return {
        "run_id": record["run_id"],
        "kind": record["kind"],
        "artifacts": len(artifacts),
        "edges": len(edges),
    }


# -- query grammar -------------------------------------------------------------

_QUERY_OPS = ("<=", ">=", "!=", "=", "<", ">")


def parse_query(text: str) -> List[Tuple[str, str, str]]:
    """Parse a small filter expression into (field, op, value) clauses.

    Grammar: ``clause [and clause]...`` where each clause is
    ``field OP value`` with OP one of ``= != < <= > >=``.  Fields are
    run-record identity fields (``kind``, ``app``, ``machine``,
    ``scenario``, ``seed``, ``label``) or metric names.
    """
    clauses: List[Tuple[str, str, str]] = []
    text = text.strip()
    if not text:
        return clauses
    for part in text.split(" and "):
        part = part.strip()
        for op in _QUERY_OPS:
            if op in part:
                field, value = part.split(op, 1)
                field, value = field.strip(), value.strip()
                if not field or not value:
                    raise ValueError(f"query clause {part!r} lacks a field or value")
                clauses.append((field, op, value))
                break
        else:
            raise ValueError(
                f"query clause {part!r} has no operator "
                f"(expected one of {', '.join(_QUERY_OPS)})"
            )
    return clauses


def _clause_matches(record: Mapping[str, object], field: str, op: str, value: str) -> bool:
    actual: object
    if field in IDENTITY_FIELDS or field == "run_id":
        actual = record.get(field)
    else:
        metrics = record.get("metrics")
        actual = metrics.get(field) if isinstance(metrics, dict) else None
    if actual is None:
        return False
    try:
        left, right = float(actual), float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        left, right = str(actual), value  # type: ignore[assignment]
        if op not in ("=", "!="):
            return False
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def filter_runs(
    records: Iterable[Mapping[str, object]],
    clauses: Sequence[Tuple[str, str, str]],
) -> List[Mapping[str, object]]:
    return [
        record
        for record in records
        if all(_clause_matches(record, *clause) for clause in clauses)
    ]


def run_metric(record: Mapping[str, object], metric: str) -> Optional[float]:
    """A run's value of ``metric``: None when the run does not carry
    it, ValueError when what it carries is not a number."""
    metrics = record.get("metrics")
    if not isinstance(metrics, dict) or metric not in metrics:
        return None
    value = metrics[metric]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(
            f"run {record.get('run_id', '?')}: metric {metric!r} is not "
            f"a number ({value!r})"
        )
    return float(value)


def aggregate_runs(
    records: Sequence[Mapping[str, object]], spec: str
) -> Dict[str, object]:
    """Evaluate one aggregation spec: ``count`` or ``fn:metric`` with
    fn one of median/mean/min/max/sum."""
    from repro.bench.stats import median as _median

    if spec == "count":
        return {"agg": "count", "value": len(records)}
    fn, sep, metric = spec.partition(":")
    if not sep or fn not in ("median", "mean", "min", "max", "sum"):
        raise ValueError(
            f"unknown aggregation {spec!r} "
            "(expected count, or median:|mean:|min:|max:|sum:<metric>)"
        )
    values = [run_metric(record, metric) for record in records]
    samples = [value for value in values if value is not None]
    if not samples:
        raise ValueError(f"no run carries numeric metric {metric!r}")
    value: float
    if fn == "median":
        value = _median(samples)
    elif fn == "mean":
        value = sum(samples) / len(samples)
    elif fn == "min":
        value = min(samples)
    elif fn == "max":
        value = max(samples)
    else:
        value = sum(samples)
    return {"agg": spec, "value": value, "n": len(samples)}


# -- the store -----------------------------------------------------------------


def _write_atomic(target: Path, data: bytes) -> None:
    """Write ``data`` to ``target`` through a per-process temp file in
    the same directory that is then renamed over ``target``, so the
    path only ever holds complete bytes.  The ".tmp-" prefix never
    matches a sha256 or a run id."""
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(f".tmp-{os.getpid()}-{target.name}")
    try:
        temp.write_bytes(data)
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _holds_valid_record(path: Path) -> bool:
    try:
        validate_run_record(json.loads(path.read_text()), label=str(path))
    except (OSError, ValueError):
        return False
    return True


class TelemetryStore:
    """The on-disk warehouse: blobs, run records, journal, pins."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    # paths

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    @property
    def journal_path(self) -> Path:
        return self.root / "journal"

    @property
    def pins_dir(self) -> Path:
        return self.root / "pins"

    def blob_path(self, sha256: str, suffix: str) -> Path:
        return self.objects_dir / sha256[:2] / f"{sha256}{suffix}"

    # blobs

    def put_blob(self, data: bytes, suffix: str) -> Tuple[str, bool]:
        """Store ``data``; returns (sha256, created).  Dedup by content.

        Crash-safe (:func:`_write_atomic`; a temp file a crash leaves
        behind is an orphan :meth:`gc` sweeps).  A file already there
        counts as a dedup hit only if it hashes back to ``sha256``; one
        left truncated by an older writer is rewritten.
        """
        sha = content_hash(data)
        target = self.blob_path(sha, suffix)
        if target.exists() and content_hash(target.read_bytes()) == sha:
            return sha, False
        _write_atomic(target, data)
        return sha, True

    def find_blob(self, sha256: str, suffix: str = "") -> Optional[Path]:
        if suffix:
            target = self.blob_path(sha256, suffix)
            return target if target.exists() else None
        bucket = self.objects_dir / sha256[:2]
        if not bucket.is_dir():
            return None
        for candidate in sorted(bucket.iterdir()):
            if candidate.name.startswith(sha256):
                return candidate
        return None

    def blobs(self) -> List[Path]:
        if not self.objects_dir.is_dir():
            return []
        return sorted(path for path in self.objects_dir.rglob("*") if path.is_file())

    # runs

    def record(
        self,
        kind: str,
        app: str = "",
        machine: str = "",
        scenario: str = "",
        seed: int = 0,
        label: str = "",
        source: str = "",
        knobs: Optional[Mapping[str, object]] = None,
        metrics: Optional[Mapping[str, object]] = None,
        artifacts: Sequence[ArtifactBlob] = (),
        derivations: Sequence[Tuple[str, str, str]] = (),
    ) -> Tuple[str, bool]:
        """Record one run; returns (run_id, created).

        Idempotent: when a valid record with the same identity already
        exists, nothing is written (no blobs, no journal line) and
        ``created`` is False — so recording the same seeded run twice
        leaves the store byte-identical.  The record is written like a
        blob (:func:`_write_atomic`), and one that no longer validates,
        say truncated by an older writer, is rewritten and journalled.

        ``derivations`` are artifact-to-artifact provenance edges by
        artifact *name*, e.g. ``("trace.json", "profile.folded",
        "collapsed")``.
        """
        identity = {
            "kind": kind,
            "app": app,
            "machine": machine,
            "scenario": scenario,
            "seed": seed,
            "label": label,
            "source": source,
            "knobs": dict(knobs or {}),
        }
        run_id = run_id_for(identity)
        record_path = self.runs_dir / f"{run_id}.json"
        if _holds_valid_record(record_path):
            return run_id, False
        entries: List[Dict[str, object]] = []
        sha_by_name: Dict[str, str] = {}
        for artifact in artifacts:
            sha, _ = self.put_blob(artifact.data, artifact.suffix)
            sha_by_name[artifact.name] = sha
            entries.append(
                {
                    "name": artifact.name,
                    "sha256": sha,
                    "bytes": len(artifact.data),
                    "suffix": artifact.suffix,
                }
            )
        edges: List[Dict[str, str]] = []
        if source:
            edges.append(
                {"src": f"source:{source}", "dst": f"run:{run_id}", "relation": "input"}
            )
        for entry in entries:
            edges.append(
                {
                    "src": f"run:{run_id}",
                    "dst": f"artifact:{entry['sha256']}",
                    "relation": "produced",
                }
            )
        for src_name, dst_name, relation in derivations:
            if src_name in sha_by_name and dst_name in sha_by_name:
                edges.append(
                    {
                        "src": f"artifact:{sha_by_name[src_name]}",
                        "dst": f"artifact:{sha_by_name[dst_name]}",
                        "relation": relation,
                    }
                )
        document: Dict[str, object] = {
            "schema": RUN_SCHEMA,
            "run_id": run_id,
            **identity,
            "metrics": dict(metrics or {}),
            "artifacts": entries,
            "edges": edges,
        }
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
        _write_atomic(record_path, text.encode())
        with open(self.journal_path, "a") as handle:
            handle.write(run_id + "\n")
        return run_id, True

    def run_ids(self) -> List[str]:
        """Run ids in record order (the journal), existing records only."""
        if not self.journal_path.exists():
            return []
        seen: Set[str] = set()
        ids: List[str] = []
        for line in self.journal_path.read_text().splitlines():
            run_id = line.strip()
            if (
                run_id
                and run_id not in seen
                and (self.runs_dir / f"{run_id}.json").exists()
            ):
                seen.add(run_id)
                ids.append(run_id)
        return ids

    def load_run(self, run_id: str) -> Dict[str, object]:
        path = self.runs_dir / f"{run_id}.json"
        try:
            document = json.loads(path.read_text())
        except OSError:
            raise ValueError(f"{self.root}: no run {run_id!r}") from None
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: not valid JSON ({error})") from None
        validate_run_record(document, label=str(path))
        return document

    def runs(self) -> List[Dict[str, object]]:
        return [self.load_run(run_id) for run_id in self.run_ids()]

    def resolve_run(self, prefix: str) -> str:
        """A full run id from an unambiguous prefix."""
        matches = [run_id for run_id in self.run_ids() if run_id.startswith(prefix)]
        if not matches:
            raise ValueError(f"{self.root}: no run id starts with {prefix!r}")
        if len(matches) > 1:
            raise ValueError(
                f"run id prefix {prefix!r} is ambiguous: {', '.join(matches)}"
            )
        return matches[0]

    # pins

    def pin(self, run_id: str) -> None:
        run_id = self.resolve_run(run_id)
        self.pins_dir.mkdir(parents=True, exist_ok=True)
        (self.pins_dir / run_id).touch()

    def unpin(self, run_id: str) -> None:
        run_id = self.resolve_run(run_id)
        marker = self.pins_dir / run_id
        if marker.exists():
            marker.unlink()

    def pinned(self) -> Set[str]:
        if not self.pins_dir.is_dir():
            return set()
        return {path.name for path in self.pins_dir.iterdir() if path.is_file()}

    # retention

    def _referenced_blobs(self, run_ids: Iterable[str]) -> Set[str]:
        referenced: Set[str] = set()
        for run_id in run_ids:
            record = self.load_run(run_id)
            for entry in record["artifacts"]:  # type: ignore[index]
                referenced.add(str(entry["sha256"]))  # type: ignore[index]
        return referenced

    def gc(
        self, keep: Optional[int] = None, dry_run: bool = False
    ) -> Dict[str, object]:
        """Garbage-collect the store.

        Without ``keep``, only orphan blobs (referenced by no run) are
        swept.  With ``keep=N``, unpinned runs beyond the N most
        recent (journal order) are dropped first, then orphans swept.
        The hard invariant — GC never breaks an edge reachable from a
        pinned run — is enforced twice: pinned runs are
        unconditionally retained, and a full :meth:`verify` pass runs
        afterwards (conservation check), so a bug here fails loudly
        rather than corrupting history.
        """
        if keep is not None and keep < 0:
            raise ValueError(f"--keep must be >= 0, got {keep}")
        ids = self.run_ids()
        pinned = self.pinned()
        removed_runs: List[str] = []
        kept: List[str] = list(ids)
        if keep is not None:
            unpinned = [run_id for run_id in ids if run_id not in pinned]
            drop = set(unpinned[: max(0, len(unpinned) - keep)])
            removed_runs = [run_id for run_id in ids if run_id in drop]
            kept = [run_id for run_id in ids if run_id not in drop]
        referenced = self._referenced_blobs(kept)
        removed_blobs: List[str] = []
        for blob in self.blobs():
            sha = blob.name[: len(blob.name) - len(blob.suffix)] if blob.suffix else blob.name
            if sha not in referenced:
                removed_blobs.append(blob.name)
                if not dry_run:
                    blob.unlink()
                    if not any(blob.parent.iterdir()):
                        blob.parent.rmdir()
        if not dry_run:
            for run_id in removed_runs:
                (self.runs_dir / f"{run_id}.json").unlink()
            if removed_runs and self.journal_path.exists():
                surviving = [run_id for run_id in ids if run_id in set(kept)]
                self.journal_path.write_text(
                    "".join(run_id + "\n" for run_id in surviving)
                )
        summary: Dict[str, object] = {
            "removed_runs": removed_runs,
            "removed_blobs": len(removed_blobs),
            "kept_runs": len(kept),
            "kept_blobs": len(self.blobs()) if not dry_run else None,
            "pinned": sorted(pinned & set(ids)),
            "dry_run": dry_run,
        }
        if not dry_run:
            summary["verified"] = bool(self.verify())
        return summary

    # integrity

    def verify(self) -> Dict[str, object]:
        """Full conservation check; raises ValueError on any violation.

        Every journalled run record must validate (including the
        recomputed run id), and every artifact it references must
        exist as a blob whose content hashes back to its recorded
        sha256 — i.e. no reachable edge is broken.
        """
        runs = 0
        artifact_count = 0
        for run_id in self.run_ids():
            record = self.load_run(run_id)  # validates schema + run id
            runs += 1
            for entry in record["artifacts"]:  # type: ignore[index]
                sha = str(entry["sha256"])  # type: ignore[index]
                suffix = str(entry.get("suffix", ""))  # type: ignore[union-attr]
                blob = self.find_blob(sha, suffix)
                if blob is None:
                    raise ValueError(
                        f"{self.root}: run {run_id} references missing "
                        f"artifact {entry['name']!r} ({sha})"  # type: ignore[index]
                    )
                actual = content_hash(blob.read_bytes())
                if actual != sha:
                    raise ValueError(
                        f"{self.root}: blob {blob.name} content hashes to "
                        f"{actual}, not its recorded {sha} (corrupted?)"
                    )
                artifact_count += 1
        return {
            "runs": runs,
            "artifacts": artifact_count,
            "blobs": len(self.blobs()),
            "pinned": len(self.pinned()),
        }
