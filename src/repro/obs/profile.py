"""`repro.obs.profile` — the causal profiling observatory.

The tracer already records *where time went* (the span tree, including
process-pool worker lanes) and the energy observatory records *where
the joules went* (the ledger).  This module turns both into answers to
the question an optimization effort actually asks: **what is worth
speeding up, and what would that buy end-to-end?**  Three pillars:

* **Virtual-time flame graphs** — :func:`build_tree` reconstructs the
  span tree from live :class:`~repro.obs.tracing.Span` records or an
  exported Chrome trace, and :class:`FlameProfile` collapses it into
  folded-stack format (``a;b;c <self seconds>``), a self/total profile
  table, and a self-contained SVG.  Per-stack ``energy_j`` comes from
  :func:`attribute_energy`, which joins the
  :class:`~repro.obs.energy.EnergyLedger` onto the tree — toolflow
  stage entries onto their ``stage:<name>`` spans, operating-point
  entries onto the ``kernel.execute`` spans that carry the matching
  (compiler, threads, binding) attributes.

* **Differential profiles** — :func:`diff_flame` compares two profiles
  stack by stack (grown / shrunk / new / gone, sorted by ``|Δself|``);
  against the per-stack medians a ``BENCH_<scenario>.json`` baseline
  committed (``BenchBaseline.stack_profile``) it lets a bench-gate
  regression name the offending *stack*, not just the span name, and
  :meth:`StackDiff.grown` is the one rule for "which stacks grew".
  The span-name diff (``socrates obs diff``, the bench gate's per-name
  table) is the same :func:`diff_flame` run over the flat per-name
  profiles :func:`name_totals` builds.

* **Causal what-if analysis** — :func:`whatif` replays the tree in
  virtual time with a virtual speedup applied to the *self* time of
  every span matching a target (a span name, a ``prefix:*`` family, or
  a ``knob:key=value`` dimension), recomputes the critical path — the
  serial chain on each span's own track versus the makespan of its
  worker lanes — and reports the predicted end-to-end and energy
  improvement per speedup.  A 0% speedup reproduces the original
  timings *exactly* (unchanged subtrees return their recorded
  durations bit for bit), and energy stays ledger-conserving: matched
  joules scale with time at constant power, everything else is carried
  through unchanged.

Everything is post-hoc and deterministic: profiling a trace consumes
no random stream and never touches the workload, so a seeded run is
byte-identical with profiling on or off.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

PathLike = Union[str, Path]

#: Schema identifier of the JSON profile document.
PROFILE_SCHEMA = "socrates-profile/1"

#: Frame separator of the folded-stack format.
STACK_SEP = ";"

#: A stack's self time changed between two profiles when it moved by
#: more than this: virtual-clock runs accumulate float residue below it.
DIFF_EPSILON = 1e-9

#: Virtual speedups evaluated by default: the fractions of a matched
#: span's self time that the hypothetical optimization removes.
DEFAULT_SPEEDUPS = (0.10, 0.25, 0.50, 0.75)

#: Collapse/expand round-trips and what-if conservation are exact to
#: this absolute-or-relative tolerance (mirrors the energy ledger's).
CONSERVATION_TOL = 1e-9

#: Attribute keys treated as adaptation knob dimensions by the what-if
#: target enumeration.
KNOB_KEYS = ("compiler", "threads", "binding", "cluster")


# -- the span tree -------------------------------------------------------------


@dataclass
class ProfileNode:
    """One span in the reconstructed tree, with its self time."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    end_s: float
    track: str = "main"
    ok: bool = True
    attributes: Dict[str, object] = field(default_factory=dict)
    children: List["ProfileNode"] = field(default_factory=list)
    #: duration minus same-track children (cross-track worker lanes
    #: overlap the parent in virtual time, so they never subtract)
    self_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def _frame(name: str) -> str:
    """A span name as a folded-stack frame (separator-safe)."""
    return name.replace(STACK_SEP, ":").replace("\n", " ")


def build_tree(spans: Sequence[object]) -> List[ProfileNode]:
    """Reconstruct the span tree from finished spans.

    Accepts :class:`~repro.obs.tracing.Span` objects or any objects
    with the same attributes.  Returns the roots, children ordered by
    (start, span_id); each node's ``self_s`` is its duration minus the
    durations of its same-track children.
    """
    nodes: List[ProfileNode] = []
    for span in spans:
        nodes.append(
            ProfileNode(
                name=str(span.name),
                span_id=int(span.span_id),
                parent_id=span.parent_id if span.parent_id is None else int(span.parent_id),
                start_s=float(span.start_s),
                end_s=float(span.end_s),
                track=str(getattr(span, "track", "main")),
                ok=bool(getattr(span, "ok", True)),
                attributes=dict(getattr(span, "attributes", {}) or {}),
            )
        )
    by_id = {node.span_id: node for node in nodes}
    roots: List[ProfileNode] = []
    for node in sorted(nodes, key=lambda n: (n.start_s, n.span_id)):
        parent = by_id.get(node.parent_id) if node.parent_id is not None else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes:
        node.self_s = node.duration_s - sum(
            child.duration_s for child in node.children if child.track == node.track
        )
    return roots


def _walk(roots: Sequence[ProfileNode]) -> Iterable[ProfileNode]:
    stack = list(reversed(list(roots)))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def total_virtual_s(roots: Sequence[ProfileNode]) -> float:
    """Total virtual time: the sum of every node's self time.

    Equals the sum of lane-root durations — each genuine root plus
    each adopted worker subtree contributes its own clock lane.
    """
    return sum(node.self_s for node in _walk(roots))


#: Slack when checking that spans on one (pid, tid) lane nest, in
#: seconds: the exporter rounds ``ts`` and ``dur`` separately, so two
#: adjacent spans may overlap by rounding noise.
_NESTING_SLACK_S = 0.5e-6

#: Per event phase: the event kind, its required fields, and the fields
#: that must be non-negative numbers.  Metadata ('M') events carry no
#: timing and have no rules.
_EVENT_RULES = {
    "X": ("span", ("name", "ts", "dur", "pid", "tid"), ("ts", "dur")),
    "C": ("counter", ("name", "ts", "pid", "args"), ("ts",)),
}


class ChromeTrace(NamedTuple):
    """One checked Chrome ``trace_event`` document."""

    #: number of trace events of every phase
    events: int
    #: the complete ('X') span events, in file order
    spans: List[dict]
    #: number of counter ('C') events
    counters: int
    #: thread-name metadata: tid -> track name
    track_names: Dict[object, str]
    #: ``(span index, enclosing span index or None)`` for every span,
    #: in the order :func:`_nest_lanes` walks them
    nesting: List[Tuple[int, Optional[int]]]


def _check_event(event: object, index: int, path: PathLike) -> None:
    """Raise unless ``event`` is an 'X', 'C' or 'M' event object with
    its required fields, non-negative timing and finite counter values."""
    if not isinstance(event, dict):
        raise ValueError(f"{path}: event {index} is not an object")
    phase = event.get("ph")
    if phase == "M":
        return
    if phase not in _EVENT_RULES:
        raise ValueError(
            f"{path}: event {index} has unsupported phase {phase!r} "
            "(expected complete 'X', counter 'C' or metadata 'M' events)"
        )
    kind, fields, numeric = _EVENT_RULES[phase]
    for key in fields:
        if key not in event:
            raise ValueError(f"{path}: {kind} event {index} lacks {key!r}")
    for key in ("pid", "tid") if phase == "X" else ():
        if not isinstance(event[key], (int, float, str)):
            raise ValueError(
                f"{path}: span event {index} field {key!r} is not a number "
                f"or string (got {event[key]!r})"
            )
    for key in numeric:
        value = event[key]
        if not (isinstance(value, (int, float)) and 0 <= value < math.inf):
            raise ValueError(
                f"{path}: {kind} event {index} field {key!r} is not a "
                f"non-negative number (got {value!r})"
            )
    if phase == "C":
        args = event["args"]
        if not isinstance(args, dict) or not args:
            raise ValueError(
                f"{path}: counter event {index} 'args' must be a non-empty object"
            )
        for series, value in args.items():
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(
                    f"{path}: counter event {index} series {series!r} value "
                    f"is not a finite number (got {value!r})"
                )


def _nest_lanes(
    spans: Sequence[dict], path: PathLike
) -> List[Tuple[int, Optional[int]]]:
    """Pair every span with the span enclosing it on its (pid, tid) lane.

    Lanes are walked in ``str`` order, each lane's spans by start time,
    longest first.  A span closes the open span when it starts at or
    after that span's end, or when it starts within the slack of that
    end and runs past it (rounding noise between adjacent siblings).
    Any other span that outlives the open span overlaps it partially,
    which raises a :class:`ValueError` naming ``path``.
    """
    by_lane: Dict[Tuple[object, object], List[int]] = {}
    for index, event in enumerate(spans):
        by_lane.setdefault((event["pid"], event["tid"]), []).append(index)
    nesting: List[Tuple[int, Optional[int]]] = []
    for lane in sorted(by_lane, key=str):
        members = sorted(
            by_lane[lane],
            key=lambda i: (
                float(spans[i]["ts"]),
                -(float(spans[i]["ts"]) + float(spans[i]["dur"])),
            ),
        )
        open_spans: List[Tuple[int, float]] = []  # (span index, end_s)
        for index in members:
            start = float(spans[index]["ts"]) / 1e6
            end = start + float(spans[index]["dur"]) / 1e6
            while open_spans:
                top_end = open_spans[-1][1]
                nested = start < top_end - 1e-12 and end <= top_end + _NESTING_SLACK_S
                if nested or start < top_end - _NESTING_SLACK_S:
                    break  # a child, or a partial overlap reported below
                open_spans.pop()
            if open_spans and end > open_spans[-1][1] + _NESTING_SLACK_S:
                top, top_end = open_spans[-1]
                raise ValueError(
                    f"{path}: span {spans[index]['name']!r} "
                    f"[{start * 1e6:.1f}us, {end * 1e6:.1f}us) on tid {lane[1]} "
                    f"partially overlaps enclosing span {spans[top]['name']!r} "
                    f"ending at {top_end * 1e6:.1f}us — spans must nest"
                )
            nesting.append((index, open_spans[-1][0] if open_spans else None))
            open_spans.append((index, end))
    return nesting


def _read_chrome_trace(path: PathLike) -> ChromeTrace:
    """Read and check a Chrome ``trace_event`` file.

    The one trace reader: behind :func:`load_chrome_trace`,
    :func:`trace_name_totals` and ``obs validate``.  A malformed file
    raises a :class:`ValueError` naming ``path``; what counts as an
    empty trace is left to each caller.
    """
    try:
        document = json.loads(Path(path).read_text())
    except OSError as error:
        raise ValueError(f"{path}: cannot read trace ({error})") from None
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from None
    if not isinstance(document, dict) or not isinstance(
        document.get("traceEvents"), list
    ):
        raise ValueError(f"{path}: missing top-level 'traceEvents' array")
    events = document["traceEvents"]
    track_names: Dict[object, str] = {}
    spans: List[dict] = []
    counters = 0
    for index, event in enumerate(events):
        _check_event(event, index, path)
        if event["ph"] == "X":
            spans.append(event)
        elif event["ph"] == "C":
            counters += 1
        elif event.get("name") == "thread_name" and isinstance(
            event.get("tid"), (int, float, str)
        ):  # no span lane can have any other tid
            args = event.get("args")
            track_names[event.get("tid")] = str(
                (args if isinstance(args, dict) else {}).get("name", event.get("tid"))
            )
    return ChromeTrace(
        len(events), spans, counters, track_names, _nest_lanes(spans, path)
    )


def _read_span_trace(path: PathLike) -> ChromeTrace:
    """:func:`_read_chrome_trace` for the span views, which need at
    least one complete span."""
    trace = _read_chrome_trace(path)
    if not trace.spans:
        raise ValueError(f"{path}: trace contains no complete ('X') span events")
    return trace


def load_chrome_trace(path: PathLike) -> List[ProfileNode]:
    """Rebuild the span tree from an exported Chrome trace_event file.

    Our exporter stamps every span's ``span_id``/``parent_id`` into
    ``args``, so parentage survives the export exactly.  Traces from
    other producers lack those args; parents are then the enclosing
    spans per (pid, tid) lane.
    """
    trace = _read_span_trace(path)

    def node(
        event: dict, span_id: int, parent_id: Optional[int], **extra
    ) -> ProfileNode:
        start = float(event["ts"]) / 1e6
        if "cat" in event:
            track = str(event["cat"])
        else:
            track = trace.track_names.get(event.get("tid"), str(event.get("tid")))
        return ProfileNode(
            name=str(event["name"]),
            span_id=span_id,
            parent_id=parent_id,
            start_s=start,
            end_s=start + float(event["dur"]) / 1e6,
            track=track,
            **extra,
        )

    native = all(
        isinstance(event.get("args"), dict) and "span_id" in event["args"]
        for event in trace.spans
    )
    spans: List[ProfileNode] = []
    if native:
        for event in trace.spans:
            args = dict(event["args"])
            span_id = int(args.pop("span_id"))
            parent_id = args.pop("parent_id", None)
            ok = bool(args.pop("ok", True))
            spans.append(
                node(
                    event,
                    span_id,
                    None if parent_id is None else int(parent_id),
                    ok=ok,
                    attributes=args,
                )
            )
    else:
        # foreign trace: the enclosing span on the lane is the parent
        span_ids: Dict[int, int] = {}
        for index, parent in trace.nesting:
            span_ids[index] = len(span_ids) + 1
            event = trace.spans[index]
            spans.append(
                node(
                    event,
                    span_ids[index],
                    None if parent is None else span_ids[parent],
                    attributes=dict(event.get("args") or {}),
                )
            )
    return build_tree(spans)


# -- energy attribution --------------------------------------------------------


def attribute_energy(
    roots: Sequence[ProfileNode], ledger
) -> Dict[int, float]:
    """Join an :class:`~repro.obs.energy.EnergyLedger` onto the tree.

    Returns ``{span_id: package joules}``.  Toolflow stage entries land
    on their ``stage:<name>`` spans; operating-point entries land on
    the ``kernel.execute`` spans whose (compiler, threads, binding)
    attributes match, entries summed across clusters.  When several
    spans share one ledger entry the joules split proportionally to
    span duration, so the attributed total equals the booked total
    exactly (idle-floor joules stay unattributed — no span ran).
    """
    nodes = list(_walk(roots))
    energy: Dict[int, float] = {}

    def distribute(joules: float, members: List[ProfileNode]) -> None:
        if not members or joules == 0.0:
            return
        weights = [max(node.duration_s, 0.0) for node in members]
        scale = sum(weights)
        if scale <= 0.0:
            weights = [1.0] * len(members)
            scale = float(len(members))
        for node, weight in zip(members, weights):
            energy[node.span_id] = energy.get(node.span_id, 0.0) + joules * (
                weight / scale
            )

    by_stage: Dict[str, List[ProfileNode]] = {}
    by_op: Dict[Tuple[str, int, str], List[ProfileNode]] = {}
    for node in nodes:
        if node.name.startswith("stage:"):
            by_stage.setdefault(node.name[len("stage:"):], []).append(node)
        elif node.name == "kernel.execute":
            attrs = node.attributes
            if {"compiler", "threads", "binding"} <= set(attrs):
                key = (
                    str(attrs["compiler"]),
                    int(attrs["threads"]),  # type: ignore[arg-type]
                    str(attrs["binding"]),
                )
                by_op.setdefault(key, []).append(node)
    for stage in ledger.stages:
        distribute(
            float(stage.energy_j.get("package", 0.0)),
            by_stage.get(stage.stage, []),
        )
    op_joules: Dict[Tuple[str, int, str], float] = {}
    for entry in ledger.entries:
        key = (entry.compiler, entry.threads, entry.binding)
        op_joules[key] = op_joules.get(key, 0.0) + float(
            entry.energy_j.get("package", 0.0)
        )
    for key, joules in op_joules.items():
        distribute(joules, by_op.get(key, []))
    return energy


# -- flame profiles (folded stacks) --------------------------------------------


@dataclass
class StackStat:
    """One folded stack's aggregated cost."""

    self_s: float = 0.0
    count: int = 0
    energy_j: float = 0.0


@dataclass
class NameStat:
    """One span name's profile-table row."""

    count: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    energy_j: float = 0.0


class FlameProfile:
    """A collapsed span tree: folded stacks with self times.

    The invariant behind every export is *conservation*: the sum of
    all stacks' ``self_s`` equals :func:`total_virtual_s` of the tree
    it was collapsed from, and survives folded-text round-trips to
    better than :data:`CONSERVATION_TOL`.
    """

    def __init__(
        self,
        stacks: Optional[Dict[str, StackStat]] = None,
        label: str = "",
        has_energy: bool = False,
    ) -> None:
        self.stacks: Dict[str, StackStat] = dict(stacks or {})
        self.label = label
        self.has_energy = has_energy

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_tree(
        cls,
        roots: Sequence[ProfileNode],
        label: str = "",
        energy: Optional[Mapping[int, float]] = None,
    ) -> "FlameProfile":
        profile = cls(label=label, has_energy=energy is not None)

        def visit(node: ProfileNode, prefix: str) -> None:
            stack = (
                f"{prefix}{STACK_SEP}{_frame(node.name)}"
                if prefix
                else _frame(node.name)
            )
            stat = profile.stacks.setdefault(stack, StackStat())
            stat.self_s += node.self_s
            stat.count += 1
            if energy is not None:
                stat.energy_j += float(energy.get(node.span_id, 0.0))
            for child in node.children:
                visit(child, stack)

        for root in roots:
            visit(root, "")
        return profile

    @classmethod
    def from_spans(
        cls,
        spans: Sequence[object],
        label: str = "",
        energy: Optional[Mapping[int, float]] = None,
    ) -> "FlameProfile":
        return cls.from_tree(build_tree(spans), label=label, energy=energy)

    @classmethod
    def from_chrome_trace(cls, path: PathLike, label: str = "") -> "FlameProfile":
        return cls.from_tree(load_chrome_trace(path), label=label or str(path))

    # -- totals and tables -----------------------------------------------------

    @property
    def total_self_s(self) -> float:
        return sum(stat.self_s for stat in self.stacks.values())

    @property
    def total_energy_j(self) -> float:
        return sum(stat.energy_j for stat in self.stacks.values())

    def names(self) -> Dict[str, NameStat]:
        """Per span-name table: self, inclusive total, count, energy.

        A name's inclusive total is the self time of every stack that
        contains it as a frame (counted once per stack, so recursive
        occurrences never double-count).
        """
        table: Dict[str, NameStat] = {}
        for stack, stat in self.stacks.items():
            frames = stack.split(STACK_SEP)
            leaf = frames[-1]
            row = table.setdefault(leaf, NameStat())
            row.count += stat.count
            row.self_s += stat.self_s
            row.energy_j += stat.energy_j
            for name in set(frames):
                table.setdefault(name, NameStat()).total_s += stat.self_s
        return table

    def format_table(self, limit: int = 20) -> str:
        """The self/total profile table, hottest self time first."""
        rows = sorted(
            self.names().items(), key=lambda item: (-item[1].self_s, item[0])
        )
        if limit:
            rows = rows[:limit]
        width = max([len(name) for name, _ in rows] + [4])
        header = f"{'span name':{width}s} {'count':>6s} {'self_s':>10s} {'total_s':>10s}"
        if self.has_energy:
            header += f" {'energy_j':>10s}"
        lines = [header]
        for name, row in rows:
            line = (
                f"{name:{width}s} {row.count:6d} "
                f"{row.self_s:10.4f} {row.total_s:10.4f}"
            )
            if self.has_energy:
                line += f" {row.energy_j:10.2f}"
            lines.append(line)
        return "\n".join(lines)

    # -- folded-stack text -----------------------------------------------------

    def as_folded(self) -> str:
        """The canonical folded-stack text: ``stack <self seconds>``.

        Values are written with ``repr`` so a parse restores the exact
        float — the collapse/expand round-trip is lossless.
        """
        lines = [
            f"{stack} {self.stacks[stack].self_s!r}"
            for stack in sorted(self.stacks)
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_folded(cls, text: str, label: str = "") -> "FlameProfile":
        profile = cls(label=label)
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                stack, value = line.rsplit(" ", 1)
                self_s = float(value)
            except ValueError:
                raise ValueError(
                    f"folded line {number}: expected 'stack <seconds>', got {line!r}"
                ) from None
            if any(not frame for frame in stack.split(STACK_SEP)):
                raise ValueError(
                    f"folded line {number}: stack {stack!r} has an empty frame"
                )
            if not math.isfinite(self_s):
                raise ValueError(
                    f"folded line {number}: stack {stack!r} self time is not finite"
                )
            if self_s < 0:
                raise ValueError(
                    f"folded line {number}: stack {stack!r} has negative self "
                    f"time ({self_s!r}s)"
                )
            stat = profile.stacks.setdefault(stack, StackStat())
            stat.self_s += self_s
            stat.count += 1
        return profile

    @classmethod
    def load_folded(cls, path: PathLike) -> "FlameProfile":
        try:
            text = Path(path).read_text()
        except OSError as error:
            raise ValueError(f"{path}: cannot read folded profile ({error})") from None
        try:
            return cls.from_folded(text, label=str(path))
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from None

    # -- JSON ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        stacks: Dict[str, object] = {}
        for stack in sorted(self.stacks):
            stat = self.stacks[stack]
            record: Dict[str, object] = {
                "self_s": stat.self_s,
                "count": stat.count,
            }
            if self.has_energy:
                record["energy_j"] = stat.energy_j
            stacks[stack] = record
        document: Dict[str, object] = {
            "schema": PROFILE_SCHEMA,
            "label": self.label,
            "total_self_s": self.total_self_s,
            "stacks": stacks,
        }
        if self.has_energy:
            document["total_energy_j"] = self.total_energy_j
        return document

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "FlameProfile":
        if document.get("schema") != PROFILE_SCHEMA:
            raise ValueError(
                f"unsupported profile schema {document.get('schema')!r} "
                f"(expected {PROFILE_SCHEMA!r})"
            )
        stacks_raw = document.get("stacks")
        if not isinstance(stacks_raw, Mapping):
            raise ValueError("profile document lacks a 'stacks' object")
        has_energy = any(
            isinstance(record, Mapping) and "energy_j" in record
            for record in stacks_raw.values()
        )
        profile = cls(label=str(document.get("label", "")), has_energy=has_energy)
        for stack, record in stacks_raw.items():
            if not isinstance(record, Mapping):
                raise ValueError(f"stack {stack!r}: record is not an object")
            profile.stacks[str(stack)] = StackStat(
                self_s=float(record["self_s"]),
                count=int(record.get("count", 0)),
                energy_j=float(record.get("energy_j", 0.0)),
            )
        declared = document.get("total_self_s")
        if not isinstance(declared, (int, float)):
            raise ValueError("profile lacks a numeric 'total_self_s'")
        actual = profile.total_self_s
        if abs(actual - declared) > CONSERVATION_TOL * max(1.0, abs(declared)):
            raise ValueError(
                f"declared total_self_s {declared!r} does not match the "
                f"stacks' sum {actual!r} — the profile does not conserve "
                "virtual time"
            )
        return profile

    # -- per-stack medians (bench integration) ---------------------------------

    def self_by_stack(self) -> Dict[str, float]:
        return {stack: stat.self_s for stack, stat in self.stacks.items()}


def load_flame_profile(path: PathLike) -> FlameProfile:
    """Load a :class:`FlameProfile` from any of its three exchange forms.

    ``.folded`` text, a ``socrates-profile/1`` JSON document, or a raw
    Chrome trace export (collapsed on the fly).  A malformed file
    raises a :class:`ValueError` naming ``path``.
    """
    source = Path(path)
    if source.suffix == ".folded":
        return FlameProfile.load_folded(source)
    try:
        document = json.loads(source.read_text())
    except OSError as error:
        raise ValueError(f"{path}: cannot read profile ({error})") from None
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from None
    if not (isinstance(document, dict) and "schema" in document):
        return FlameProfile.from_chrome_trace(source)
    try:
        profile = FlameProfile.from_dict(document)
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"{path}: malformed profile ({error})") from None
    profile.label = profile.label or str(path)
    return profile


# -- SVG rendering -------------------------------------------------------------

_SVG_ROW_H = 17
_SVG_PAD = 10
_SVG_CHAR_W = 6.7  # monospace estimate for label clipping


def _frame_color(name: str) -> str:
    """Deterministic warm color per frame name (crc32, not hash())."""
    digest = zlib.crc32(name.encode("utf-8"))
    hue = digest % 55  # red..yellow band
    light = 52 + (digest >> 8) % 16
    return f"hsl({hue},78%,{light}%)"


def render_svg(
    profile: FlameProfile, title: str = "SOCRATES virtual-time flame graph",
    width: int = 1200,
) -> str:
    """A self-contained SVG flame graph (icicle layout, root on top)."""
    # fold the stacks back into a frame tree
    root: Dict[str, object] = {"self": 0.0, "energy": 0.0, "children": {}}
    for stack in sorted(profile.stacks):
        stat = profile.stacks[stack]
        node = root
        for frame in stack.split(STACK_SEP):
            node = node["children"].setdefault(  # type: ignore[union-attr]
                frame, {"self": 0.0, "energy": 0.0, "children": {}}
            )
        node["self"] += stat.self_s  # type: ignore[operator]
        node["energy"] += stat.energy_j  # type: ignore[operator]

    def value(node: Mapping[str, object]) -> float:
        return float(node["self"]) + sum(  # type: ignore[arg-type]
            value(child) for child in node["children"].values()  # type: ignore[union-attr]
        )

    total = value(root)
    usable = width - 2 * _SVG_PAD
    scale = usable / total if total > 0 else 0.0

    def depth(node: Mapping[str, object]) -> int:
        children = node["children"]
        if not children:  # type: ignore[truthy-bool]
            return 0
        return 1 + max(depth(child) for child in children.values())  # type: ignore[union-attr]

    rows = depth(root) + 1
    height = rows * _SVG_ROW_H + 2 * _SVG_PAD + 24
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<text x="{_SVG_PAD}" y="16">{_escape(title)} '
        f"(total {total:.4f}s virtual"
        + (
            f", {profile.total_energy_j:.2f} J attributed"
            if profile.has_energy
            else ""
        )
        + ")</text>",
    ]

    def emit(name: str, node: Mapping[str, object], x: float, level: int, stack: str) -> None:
        node_value = value(node)
        w = node_value * scale
        if w < 0.1:
            return
        y = 24 + _SVG_PAD + level * _SVG_ROW_H
        tip = f"{stack} — {node_value:.6f}s total, {float(node['self']):.6f}s self"
        if profile.has_energy and float(node["energy"]) > 0.0:  # type: ignore[arg-type]
            tip += f", {float(node['energy']):.2f} J"  # type: ignore[arg-type]
        parts.append(
            f'<g><title>{_escape(tip)}</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{max(w - 0.5, 0.5):.2f}" '
            f'height="{_SVG_ROW_H - 1}" fill="{_frame_color(name)}" rx="1"/>'
        )
        label_chars = int(w / _SVG_CHAR_W)
        if label_chars >= 3:
            text = name if len(name) <= label_chars else name[: label_chars - 1] + "…"
            parts.append(
                f'<text x="{x + 2:.2f}" y="{y + 12}">{_escape(text)}</text>'
            )
        parts.append("</g>")
        cursor = x + float(node["self"]) * scale  # type: ignore[arg-type]
        for child_name in sorted(node["children"]):  # type: ignore[call-overload]
            child = node["children"][child_name]  # type: ignore[index]
            emit(child_name, child, cursor, level + 1, f"{stack}{STACK_SEP}{child_name}")
            cursor += value(child) * scale

    cursor = float(_SVG_PAD)
    for name in sorted(root["children"]):  # type: ignore[call-overload]
        child = root["children"][name]  # type: ignore[index]
        emit(name, child, cursor, 0, name)
        cursor += value(child) * scale
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


# -- differential profiles -----------------------------------------------------


@dataclass(frozen=True)
class StackDelta:
    """One stack's change between two profiles."""

    stack: str
    self_a: float
    self_b: float
    status: str  # "new" | "gone" | "grown" | "shrunk" | "unchanged"
    count_a: int
    count_b: int

    @property
    def delta_s(self) -> float:
        return self.self_b - self.self_a

    @property
    def name_status(self) -> str:
        """The status word of the span-name view: ``added`` /
        ``removed``, else ``changed`` when the total or the count
        differs at all, else ``unchanged``."""
        if self.status in ("new", "gone"):
            return "added" if self.status == "new" else "removed"
        if (self.self_a, self.count_a) != (self.self_b, self.count_b):
            return "changed"
        return "unchanged"

    def as_dict(self) -> Dict[str, object]:
        return {
            "stack": self.stack,
            "status": self.status,
            "self_a": self.self_a,
            "self_b": self.self_b,
            "delta_s": self.delta_s,
        }


@dataclass
class StackDiff:
    """Per-stack differential profile, sorted by ``|Δself|``."""

    deltas: List[StackDelta]
    total_a: float
    total_b: float
    label_a: str = "a"
    label_b: str = "b"

    @property
    def changed(self) -> List[StackDelta]:
        return [delta for delta in self.deltas if delta.status != "unchanged"]

    def grown(self, frame: Optional[str] = None) -> List[StackDelta]:
        """Stacks whose self time grew by more than :data:`DIFF_EPSILON`,
        largest growth first; with ``frame``, only the stacks that have
        that span name as a frame."""
        return [
            delta
            for delta in self.deltas
            if delta.delta_s > DIFF_EPSILON
            and (frame is None or frame in delta.stack.split(STACK_SEP))
        ]

    def as_dict(self) -> Dict[str, object]:
        return {
            "label_a": self.label_a,
            "label_b": self.label_b,
            "total_a": self.total_a,
            "total_b": self.total_b,
            "delta_total_s": self.total_b - self.total_a,
            "stacks": [delta.as_dict() for delta in self.deltas],
        }


def diff_flame(
    a: FlameProfile,
    b: FlameProfile,
    epsilon: float = DIFF_EPSILON,
    label_a: str = "a",
    label_b: str = "b",
) -> StackDiff:
    """Compare two flame profiles stack by stack."""
    deltas: List[StackDelta] = []
    absent = StackStat()
    for stack in set(a.stacks) | set(b.stacks):
        in_a = a.stacks.get(stack, absent)
        in_b = b.stacks.get(stack, absent)
        self_a, self_b = in_a.self_s, in_b.self_s
        if stack not in a.stacks:
            status = "new"
        elif stack not in b.stacks:
            status = "gone"
        elif self_b - self_a > epsilon:
            status = "grown"
        elif self_a - self_b > epsilon:
            status = "shrunk"
        else:
            status = "unchanged"
        deltas.append(
            StackDelta(
                stack=stack,
                self_a=self_a,
                self_b=self_b,
                status=status,
                count_a=in_a.count,
                count_b=in_b.count,
            )
        )
    deltas.sort(key=lambda delta: (-abs(delta.delta_s), delta.stack))
    return StackDiff(
        deltas=deltas,
        total_a=a.total_self_s,
        total_b=b.total_self_s,
        label_a=label_a,
        label_b=label_b,
    )


def format_stack_diff(
    diff: StackDiff, limit: int = 20, hide_unchanged: bool = True
) -> str:
    """Fixed-width table of a :class:`StackDiff`, |Δself| first."""
    deltas = diff.changed if hide_unchanged else diff.deltas
    shown = deltas[:limit] if limit else deltas
    lines = [
        f"stack diff: {diff.label_a} -> {diff.label_b} "
        f"(total {diff.total_a:.4f}s -> {diff.total_b:.4f}s, "
        f"{len(diff.changed)} stack(s) changed)",
        f"{'status':9s} {'self_a':>10s} {'self_b':>10s} {'delta_s':>10s}  stack",
    ]
    for delta in shown:
        lines.append(
            f"{delta.status:9s} {delta.self_a:10.4f} {delta.self_b:10.4f} "
            f"{delta.delta_s:+10.4f}  {delta.stack}"
        )
    hidden = len(deltas) - len(shown)
    if hidden > 0:
        lines.append(f"... {hidden} more stack(s) not shown")
    return "\n".join(lines)


# -- the span-name view --------------------------------------------------------


def name_totals(spans: Iterable[Tuple[str, float]]) -> FlameProfile:
    """A flat profile of ``(name, duration_s)`` pairs, keyed by name.

    Each entry's ``self_s`` is the name's *summed span durations* and
    ``count`` its span count — the view a bench baseline commits per
    stage.  It is not ``FlameProfile.names()[name].total_s``, which
    sums self time by stack containment and so differs on cross-track
    worker lanes and recursion.  :func:`diff_flame` over two of these
    is the span-name diff (``socrates obs diff``).
    """
    profile = FlameProfile()
    for name, duration_s in spans:
        stat = profile.stacks.setdefault(name, StackStat())
        stat.self_s += duration_s
        stat.count += 1
    return profile


def trace_name_totals(path: PathLike) -> FlameProfile:
    """:func:`name_totals` of an exported Chrome trace file."""
    return name_totals(
        (str(event["name"]), float(event["dur"]) / 1e6)
        for event in _read_span_trace(path).spans
    )


def name_diff_dict(diff: StackDiff) -> Dict[str, object]:
    """A span-name diff as a JSON document (``obs diff --json``)."""
    return {
        "total_a_s": diff.total_a,
        "total_b_s": diff.total_b,
        "total_delta_s": diff.total_b - diff.total_a,
        "deltas": [
            {
                "name": delta.stack,
                "status": delta.name_status,
                "count_a": delta.count_a,
                "count_b": delta.count_b,
                "total_a_s": delta.self_a,
                "total_b_s": delta.self_b,
                "delta_s": delta.delta_s,
            }
            for delta in diff.deltas
        ],
    }


def format_name_diff(diff: StackDiff, limit: int, hide_unchanged: bool) -> str:
    """Fixed-width table of a span-name diff, |delta| first."""
    label_a, label_b = diff.label_a, diff.label_b
    rows = [
        delta
        for delta in diff.deltas
        if not (hide_unchanged and delta.name_status == "unchanged")
    ]
    shown = rows[: limit if limit > 0 else len(rows)]
    name_width = max([len(delta.stack) for delta in shown] + [len("span")])
    lines = [
        f"{'span':<{name_width}s} {'status':>9s} {'n(' + label_a + ')':>7s} "
        f"{'n(' + label_b + ')':>7s} {'t(' + label_a + ')':>10s} "
        f"{'t(' + label_b + ')':>10s} {'delta':>10s}"
    ]
    for delta in shown:
        lines.append(
            f"{delta.stack:<{name_width}s} {delta.name_status:>9s} "
            f"{delta.count_a:7d} {delta.count_b:7d} "
            f"{delta.self_a:10.4f} {delta.self_b:10.4f} "
            f"{delta.delta_s:+10.4f}"
        )
    hidden = len(rows) - len(shown)
    if hidden > 0:
        lines.append(f"... {hidden} more span name(s) below the cutoff")
    unchanged = len(diff.deltas) - len(rows)
    if hide_unchanged and unchanged > 0:
        lines.append(f"({unchanged} span name(s) identical in both traces)")
    lines.append(
        f"{'TOTAL':<{name_width}s} {'':>9s} {'':>7s} {'':>7s} "
        f"{diff.total_a:10.4f} {diff.total_b:10.4f} "
        f"{diff.total_b - diff.total_a:+10.4f}"
    )
    return "\n".join(lines)


# -- causal what-if analysis ---------------------------------------------------


@dataclass(frozen=True)
class WhatIfTarget:
    """One hypothetical optimization target.

    ``matcher`` is the general contract; the optional ``name`` /
    ``prefix`` / ``knob`` hints let :func:`whatif` resolve the matched
    spans from a prebuilt index instead of scanning every node per
    target, which is what keeps the default 100+-target sweep cheap.
    A hinted target's matcher must agree with its hint.
    """

    label: str
    kind: str  # "span" | "family" | "knob"
    matcher: Callable[[ProfileNode], bool]
    name: Optional[str] = None  # exact span-name index lookup
    prefix: Optional[str] = None  # family: names starting "<prefix>:"
    knob: Optional[Tuple[str, str]] = None  # (attribute key, value)


def _knob_value(node: ProfileNode, key: str) -> Optional[str]:
    value = node.attributes.get(key)
    return None if value is None else str(value)


def default_targets(roots: Sequence[ProfileNode]) -> List[WhatIfTarget]:
    """Enumerate causal targets: span names, families, knob dimensions.

    Names sharing a ``prefix:`` (the ``truth:``/``build:`` instance
    families) collapse into one ``prefix:*`` family target; remaining
    names become individual targets.  Attribute keys from
    :data:`KNOB_KEYS` with at least two observed values contribute one
    ``knob:key=value`` target per value.
    """
    names: Dict[str, float] = {}
    knob_values: Dict[str, Dict[str, int]] = {}
    for node in _walk(roots):
        names[node.name] = names.get(node.name, 0.0) + node.self_s
        for key in KNOB_KEYS:
            value = _knob_value(node, key)
            if value is not None:
                counts = knob_values.setdefault(key, {})
                counts[value] = counts.get(value, 0) + 1
    by_prefix: Dict[str, List[str]] = {}
    for name in names:
        if ":" in name:
            by_prefix.setdefault(name.split(":", 1)[0], []).append(name)
    targets: List[WhatIfTarget] = []
    covered: set = set()
    for prefix in sorted(by_prefix):
        members = by_prefix[prefix]
        if len(members) < 2:
            continue
        covered.update(members)
        targets.append(
            WhatIfTarget(
                label=f"{prefix}:*",
                kind="family",
                matcher=lambda node, _p=prefix: node.name.startswith(_p + ":"),
                prefix=prefix,
            )
        )
    for name in sorted(set(names) - covered):
        targets.append(
            WhatIfTarget(
                label=name,
                kind="span",
                matcher=lambda node, _n=name: node.name == _n,
                name=name,
            )
        )
    for key in sorted(knob_values):
        values = knob_values[key]
        if len(values) < 2:
            continue  # one observed value is not a dimension to tune
        for value in sorted(values):
            targets.append(
                WhatIfTarget(
                    label=f"knob:{key}={value}",
                    kind="knob",
                    matcher=lambda node, _k=key, _v=value: _knob_value(node, _k)
                    == _v,
                    knob=(key, value),
                )
            )
    return targets


def _scaled_duration(
    node: ProfileNode,
    factors: Mapping[int, float],
    dirty: Optional[AbstractSet[int]] = None,
) -> Tuple[float, bool]:
    """(new duration, changed) of a subtree under self-time scaling.

    The replay model: a span's serial chain is its own self time plus
    its same-track children in sequence; adopted worker lanes run
    concurrently, each lane's makespan being the sum of its members.
    The new duration is the critical path — the longest of the serial
    chain and every lane.  An *unchanged* subtree short-circuits to the
    recorded duration, so a 0% speedup reproduces the original timings
    exactly (no float re-association).

    ``dirty`` is an optional pruning set — span ids whose subtree may
    contain a scaled span (matched spans plus their ancestors).  Any
    subtree outside it returns its recorded duration without
    recursing, which turns a replay from O(trace) into O(matched x
    depth) and keeps ``socrates obs whatif`` cheap on big traces.
    """
    if dirty is not None and node.span_id not in dirty:
        return node.duration_s, False
    factor = factors.get(node.span_id, 1.0)
    changed = factor != 1.0
    serial = node.self_s * factor
    # each worker lane is its own serial chain: members in order with
    # their measured gaps (idle lane time belongs to the parent, so it
    # scales with the parent's factor), makespan measured from the
    # parent's start
    lanes: Dict[str, Tuple[float, float]] = {}  # track -> (makespan, prev_end)
    for child in node.children:
        child_dur, child_changed = _scaled_duration(child, factors, dirty)
        changed = changed or child_changed
        if child.track == node.track:
            serial += child_dur
        else:
            makespan, previous_end = lanes.get(child.track, (0.0, node.start_s))
            gap = child.start_s - previous_end
            lanes[child.track] = (makespan + gap * factor + child_dur, child.end_s)
    if not changed:
        return node.duration_s, False
    return max([serial] + [makespan for makespan, _ in lanes.values()]), True


def scaled_end_to_end_s(
    roots: Sequence[ProfileNode],
    factors: Mapping[int, float],
    dirty: Optional[AbstractSet[int]] = None,
) -> float:
    """End-to-end virtual wall time under self-time scaling.

    Root spans execute in sequence on the main track, so the end-to-end
    time is the sum of their (replayed) durations.
    """
    return sum(_scaled_duration(root, factors, dirty)[0] for root in roots)


def _ancestor_closure(
    matched: Sequence[ProfileNode], parent_of: Mapping[int, int]
) -> AbstractSet[int]:
    """Matched span ids plus every ancestor's — the replay's dirty set."""
    dirty: set = set()
    for node in matched:
        span_id: Optional[int] = node.span_id
        while span_id is not None and span_id not in dirty:
            dirty.add(span_id)
            span_id = parent_of.get(span_id)
    return dirty


def rescale_tree(
    roots: Sequence[ProfileNode], factors: Mapping[int, float]
) -> List[ProfileNode]:
    """Physically re-lay the trace with scaled self times.

    An independent replay (used to cross-check :func:`whatif`): every
    span's own work — including the gaps between its children, which
    are part of its self time — scales by its factor; same-track
    children are laid back out in order with their gaps, worker lanes
    keep their relative offsets scaled, and each span closes when its
    serial chain and all lanes have finished.
    """

    def rebuild(node: ProfileNode, start: float) -> ProfileNode:
        factor = factors.get(node.span_id, 1.0)
        clone = ProfileNode(
            name=node.name,
            span_id=node.span_id,
            parent_id=node.parent_id,
            start_s=start,
            end_s=start,
            track=node.track,
            ok=node.ok,
            attributes=dict(node.attributes),
        )
        cursor = start
        previous_end = node.start_s
        lanes: Dict[str, Tuple[float, float]] = {}  # track -> (cursor, prev_end)
        lane_ends: List[float] = []
        for child in node.children:
            if child.track == node.track:
                gap = child.start_s - previous_end
                child_clone = rebuild(child, cursor + gap * factor)
                cursor = child_clone.end_s
                previous_end = child.end_s
            else:
                lane_cursor, lane_prev = lanes.get(child.track, (start, node.start_s))
                gap = child.start_s - lane_prev
                child_clone = rebuild(child, lane_cursor + gap * factor)
                lanes[child.track] = (child_clone.end_s, child.end_s)
                lane_ends.append(child_clone.end_s)
            clone.children.append(child_clone)
        trailing = node.end_s - previous_end
        serial_end = cursor + trailing * factor
        clone.end_s = max([serial_end] + lane_ends)
        clone.self_s = clone.duration_s - sum(
            child.duration_s
            for child in clone.children
            if child.track == clone.track
        )
        return clone

    rebuilt: List[ProfileNode] = []
    cursor: Optional[float] = None
    previous_end: Optional[float] = None
    for root in roots:
        if cursor is None:
            start = root.start_s
        else:
            start = cursor + (root.start_s - previous_end)
        clone = rebuild(root, start)
        rebuilt.append(clone)
        cursor = clone.end_s
        previous_end = root.end_s
    return rebuilt


@dataclass
class WhatIfOutcome:
    """One (target, speedup) cell of the what-if table."""

    speedup: float
    end_to_end_s: float
    improvement: float
    energy_j: Optional[float] = None
    energy_improvement: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "speedup": self.speedup,
            "end_to_end_s": self.end_to_end_s,
            "improvement": self.improvement,
        }
        if self.energy_j is not None:
            record["energy_j"] = self.energy_j
            record["energy_improvement"] = self.energy_improvement
        return record


@dataclass
class WhatIfRow:
    """One causal target's predicted payoffs."""

    target: str
    kind: str
    matched_spans: int
    matched_self_s: float
    matched_energy_j: Optional[float]
    outcomes: List[WhatIfOutcome]

    def outcome_at(self, speedup: float) -> Optional[WhatIfOutcome]:
        for outcome in self.outcomes:
            if abs(outcome.speedup - speedup) < 1e-12:
                return outcome
        return None

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "target": self.target,
            "kind": self.kind,
            "matched_spans": self.matched_spans,
            "matched_self_s": self.matched_self_s,
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
        }
        if self.matched_energy_j is not None:
            record["matched_energy_j"] = self.matched_energy_j
        return record


@dataclass
class WhatIfReport:
    """The ranked what-if table."""

    baseline_end_to_end_s: float
    rows: List[WhatIfRow]
    speedups: Tuple[float, ...]
    rank_speedup: float
    baseline_energy_j: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "baseline_end_to_end_s": self.baseline_end_to_end_s,
            "speedups": list(self.speedups),
            "rank_speedup": self.rank_speedup,
            "rows": [row.as_dict() for row in self.rows],
        }
        if self.baseline_energy_j is not None:
            record["baseline_energy_j"] = self.baseline_energy_j
        return record

    def format(self, limit: int = 15) -> str:
        rows = self.rows[:limit] if limit else self.rows
        width = max([len(row.target) for row in rows] + [6])
        header = (
            f"what-if: end-to-end {self.baseline_end_to_end_s:.4f}s"
            + (
                f", energy {self.baseline_energy_j:.2f} J"
                if self.baseline_energy_j is not None
                else ""
            )
            + f", {len(self.rows)} causal target(s); "
            "cells are predicted end-to-end improvement"
        )
        columns = " ".join(f"{speedup:>6.0%}" for speedup in self.speedups)
        lines = [
            header,
            f"{'target':{width}s} {'spans':>5s} {'self_s':>9s} {columns}"
            + (
                f" {'energy@' + format(self.rank_speedup, '.0%'):>11s}"
                if self.baseline_energy_j is not None
                else ""
            ),
        ]
        for row in rows:
            cells = " ".join(
                f"{outcome.improvement:>6.1%}" for outcome in row.outcomes
            )
            line = (
                f"{row.target:{width}s} {row.matched_spans:5d} "
                f"{row.matched_self_s:9.4f} {cells}"
            )
            if self.baseline_energy_j is not None:
                at_rank = self.outcome_energy(row)
                line += f" {at_rank:>11.1%}" if at_rank is not None else f" {'-':>11s}"
            lines.append(line)
        hidden = len(self.rows) - len(rows)
        if hidden > 0:
            lines.append(f"... {hidden} more target(s) not shown")
        return "\n".join(lines)

    def outcome_energy(self, row: WhatIfRow) -> Optional[float]:
        outcome = row.outcome_at(self.rank_speedup)
        return None if outcome is None else outcome.energy_improvement


def whatif(
    roots: Sequence[ProfileNode],
    speedups: Sequence[float] = DEFAULT_SPEEDUPS,
    targets: Optional[Sequence[WhatIfTarget]] = None,
    energy: Optional[Mapping[int, float]] = None,
    total_energy_j: Optional[float] = None,
    rank_speedup: float = 0.50,
) -> WhatIfReport:
    """Rank causal targets by predicted end-to-end payoff.

    For every target and every speedup ``s`` the matched spans' *self*
    time is scaled by ``1 - s`` and the tree replayed in virtual time
    (see :func:`_scaled_duration`).  With an ``energy`` attribution
    map the matched joules scale with time at constant power and the
    rest of the ledger is carried through unchanged, so the predicted
    total stays conserving: ``new = total - matched * s``.
    """
    for speedup in speedups:
        if not 0.0 <= speedup < 1.0:
            raise ValueError(f"speedup must be in [0, 1), got {speedup!r}")
    roots = list(roots)
    baseline = sum(root.duration_s for root in roots)
    if targets is None:
        targets = default_targets(roots)
    all_nodes = list(_walk(roots))
    parent_of: Dict[int, int] = {}
    by_name: Dict[str, List[ProfileNode]] = {}
    by_knob: Dict[Tuple[str, str], List[ProfileNode]] = {}
    for node in all_nodes:
        for child in node.children:
            parent_of[child.span_id] = node.span_id
        by_name.setdefault(node.name, []).append(node)
        for key in KNOB_KEYS:
            value = _knob_value(node, key)
            if value is not None:
                by_knob.setdefault((key, value), []).append(node)
    if total_energy_j is None and energy is not None:
        total_energy_j = sum(energy.values())

    def resolve(target: WhatIfTarget) -> List[ProfileNode]:
        if target.name is not None:
            return by_name.get(target.name, [])
        if target.prefix is not None:
            marker = target.prefix + ":"
            return [
                node
                for name in sorted(by_name)
                if name.startswith(marker)
                for node in by_name[name]
            ]
        if target.knob is not None:
            return by_knob.get(target.knob, [])
        return [node for node in all_nodes if target.matcher(node)]

    rows: List[WhatIfRow] = []
    for target in targets:
        matched = resolve(target)
        if not matched:
            continue
        dirty = _ancestor_closure(matched, parent_of)
        matched_self = sum(node.self_s for node in matched)
        matched_energy = (
            sum(energy.get(node.span_id, 0.0) for node in matched)
            if energy is not None
            else None
        )
        outcomes: List[WhatIfOutcome] = []
        for speedup in speedups:
            factors = {node.span_id: 1.0 - speedup for node in matched}
            new_total = scaled_end_to_end_s(roots, factors, dirty)
            improvement = (
                (baseline - new_total) / baseline if baseline > 0 else 0.0
            )
            outcome = WhatIfOutcome(
                speedup=speedup,
                end_to_end_s=new_total,
                improvement=improvement,
            )
            if matched_energy is not None and total_energy_j:
                saved = matched_energy * speedup
                outcome.energy_j = total_energy_j - saved
                outcome.energy_improvement = saved / total_energy_j
            outcomes.append(outcome)
        rows.append(
            WhatIfRow(
                target=target.label,
                kind=target.kind,
                matched_spans=len(matched),
                matched_self_s=matched_self,
                matched_energy_j=matched_energy,
                outcomes=outcomes,
            )
        )

    def rank_key(row: WhatIfRow) -> Tuple[float, str]:
        outcome = row.outcome_at(rank_speedup)
        improvement = (
            outcome.improvement if outcome is not None else -float("inf")
        )
        return (-improvement, row.target)

    rows.sort(key=rank_key)
    return WhatIfReport(
        baseline_end_to_end_s=baseline,
        rows=rows,
        speedups=tuple(speedups),
        rank_speedup=rank_speedup,
        baseline_energy_j=total_energy_j,
    )
