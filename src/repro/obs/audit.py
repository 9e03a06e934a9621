"""The adaptation audit log: why the AS-RTM picked what it picked.

Every time ``margot_update`` switches the application to a different
operating point, the AS-RTM (when auditing is enabled) records one
:class:`AdaptationEntry` explaining the decision end to end:

* which optimization state was active and what its rank objective was;
* how each constraint filtered the operating-point list — including
  the runtime-feedback adjustment applied and whether the constraint
  had to be *relaxed* because no OP satisfied it;
* the top-ranked surviving candidates with their rank values;
* the winner, the OP it replaced, and a human-readable ``reason``.

This makes every configuration change in a Figure 5 scenario
explainable: "why did the application move to 16 threads at t=112s?"
is answered by the entry stamped 112s, not by re-deriving the
selection by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class ConstraintTrace:
    """How one constraint behaved during one selection."""

    goal: str
    adjustment: float
    survivors_before: int
    survivors_after: int
    relaxed: bool

    def as_dict(self) -> Dict[str, object]:
        return {
            "goal": self.goal,
            "adjustment": self.adjustment,
            "survivors_before": self.survivors_before,
            "survivors_after": self.survivors_after,
            "relaxed": self.relaxed,
        }


@dataclass(frozen=True)
class CandidateTrace:
    """One surviving operating point and its rank value."""

    knobs: Tuple[Tuple[str, object], ...]
    rank_value: float

    def as_dict(self) -> Dict[str, object]:
        return {"knobs": dict(self.knobs), "rank_value": self.rank_value}


@dataclass(frozen=True)
class CheckTrace:
    """One static-analysis diagnostic surfaced through the audit log.

    Kept separate from the adaptation entries (and from
    :meth:`AdaptationAuditLog.as_dicts`) so the adaptation JSONL
    schema and its validators are unaffected; ``checks_as_dicts``
    exposes them for reporting.
    """

    app: str
    rule: str
    severity: str
    message: str
    location: str
    phase: str = "woven"

    def as_dict(self) -> Dict[str, object]:
        return {
            "app": self.app,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "location": self.location,
            "phase": self.phase,
        }


@dataclass(frozen=True)
class SloTrace:
    """One energy/power budget violation surfaced through the audit log.

    Like :class:`CheckTrace`, kept separate from the adaptation entries
    so the adaptation JSONL schema and its validators are unaffected;
    ``slos_as_dicts`` exposes them for reporting.  Landing the
    violation next to the adaptation decisions lets a reader answer
    "which operating-point switch blew the 90 W budget?" from one log.
    """

    budget: str
    kernel: str
    mean_power_w: float
    peak_power_w: float
    total_energy_j: float
    violations: Tuple[str, ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "budget": self.budget,
            "kernel": self.kernel,
            "mean_power_w": self.mean_power_w,
            "peak_power_w": self.peak_power_w,
            "total_energy_j": self.total_energy_j,
            "violations": list(self.violations),
        }


@dataclass(frozen=True)
class IncidentTrace:
    """One fired alert's incident, cross-linked into the audit log.

    Like :class:`CheckTrace`/:class:`SloTrace`, kept separate from the
    adaptation entries so the adaptation JSONL schema and its
    validators are unaffected.  ``adaptation_sequence`` is the
    sequence number the *next* adaptation entry will get when the
    incident fired, so "which MAPE-K switches happened around this
    incident?" is answered by comparing sequence numbers: entries with
    ``sequence < adaptation_sequence`` preceded the incident, later
    ones reacted to (or followed) it.
    """

    incident_id: str
    alert: str
    detector: str
    severity: str
    t: float
    kernel: str
    message: str
    adaptation_sequence: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "incident_id": self.incident_id,
            "alert": self.alert,
            "detector": self.detector,
            "severity": self.severity,
            "t": self.t,
            "kernel": self.kernel,
            "message": self.message,
            "adaptation_sequence": self.adaptation_sequence,
        }


@dataclass(frozen=True)
class PruneTrace:
    """One lattice point skipped by a static :class:`PrunePlan`.

    Like :class:`CheckTrace`, kept separate from the adaptation
    entries so the adaptation JSONL schema and its validators are
    unaffected.  One trace per masked point makes every saved
    evaluation auditable: which rule masked it, which point it was
    predicted to be dominated by, and at what predicted cost.
    """

    kernel: str
    point: str
    rule: str
    reason: str
    dominated_by: str
    predicted_time_s: float
    predicted_power_w: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "point": self.point,
            "rule": self.rule,
            "reason": self.reason,
            "dominated_by": self.dominated_by,
            "predicted_time_s": self.predicted_time_s,
            "predicted_power_w": self.predicted_power_w,
        }


@dataclass
class AdaptationEntry:
    """One explained operating-point switch."""

    sequence: int
    state: str
    rank: str
    considered: int
    survivors: int
    constraints: List[ConstraintTrace]
    candidates: List[CandidateTrace]
    winner: Dict[str, object]
    winner_rank: float
    switched_from: Optional[Dict[str, object]]
    reason: str
    timestamp: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "sequence": self.sequence,
            "timestamp": self.timestamp,
            "state": self.state,
            "rank": self.rank,
            "considered": self.considered,
            "survivors": self.survivors,
            "constraints": [trace.as_dict() for trace in self.constraints],
            "candidates": [candidate.as_dict() for candidate in self.candidates],
            "winner": dict(self.winner),
            "winner_rank": self.winner_rank,
            "switched_from": dict(self.switched_from)
            if self.switched_from is not None
            else None,
            "reason": self.reason,
        }


def describe_rank(rank) -> str:
    """Compact human-readable form of a mARGOt rank objective."""
    from repro.margot.state import RankComposition

    if rank.composition is RankComposition.GEOMETRIC:
        terms = "*".join(f"{f.metric}^{f.coefficient:g}" for f in rank.fields)
    else:
        terms = " + ".join(
            f.metric if f.coefficient == 1.0 else f"{f.coefficient:g}*{f.metric}"
            for f in rank.fields
        )
    return f"{rank.direction.value} {terms}"


def _knobs_text(knobs: Dict[str, object]) -> str:
    return ", ".join(f"{name}={value}" for name, value in sorted(knobs.items()))


def compose_reason(entry: AdaptationEntry) -> str:
    """The default one-line explanation for an entry."""
    parts: List[str] = []
    if entry.switched_from is None:
        parts.append(f"initial selection under state {entry.state!r}")
    else:
        parts.append(
            f"switched from ({_knobs_text(entry.switched_from)}) "
            f"under state {entry.state!r}"
        )
    relaxed = [trace.goal for trace in entry.constraints if trace.relaxed]
    if relaxed:
        parts.append(
            f"constraint(s) {', '.join(relaxed)} relaxed (no OP satisfied them)"
        )
    elif entry.constraints:
        parts.append(
            f"{entry.survivors}/{entry.considered} OPs satisfy all "
            f"{len(entry.constraints)} constraint(s)"
        )
    parts.append(
        f"{entry.rank} picks ({_knobs_text(entry.winner)}) "
        f"with rank {entry.winner_rank:.6g}"
    )
    if len(entry.candidates) > 1:
        runner_up = entry.candidates[1]
        parts.append(
            f"runner-up ({_knobs_text(dict(runner_up.knobs))}) "
            f"at {runner_up.rank_value:.6g}"
        )
    return "; ".join(parts)


class AdaptationAuditLog:
    """Append-only log of explained operating-point switches."""

    def __init__(self, max_candidates: int = 5) -> None:
        if max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        self._max_candidates = max_candidates
        self._entries: List[AdaptationEntry] = []
        self._checks: List[CheckTrace] = []
        self._slos: List[SloTrace] = []
        self._incidents: List[IncidentTrace] = []
        self._prunes: List[PruneTrace] = []

    @property
    def max_candidates(self) -> int:
        return self._max_candidates

    @property
    def entries(self) -> List[AdaptationEntry]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, entry: AdaptationEntry) -> AdaptationEntry:
        if not entry.reason:
            entry.reason = compose_reason(entry)
        self._entries.append(entry)
        return entry

    def stamp_last(self, timestamp: float) -> None:
        """Set the virtual-time stamp of the most recent entry."""
        if self._entries:
            self._entries[-1].timestamp = timestamp

    def next_sequence(self) -> int:
        return len(self._entries)

    def as_dicts(self) -> List[Dict[str, object]]:
        return [entry.as_dict() for entry in self._entries]

    # -- static-analysis check traces -----------------------------------------

    @property
    def checks(self) -> List[CheckTrace]:
        return list(self._checks)

    def record_check(self, trace: CheckTrace) -> CheckTrace:
        self._checks.append(trace)
        return trace

    def checks_as_dicts(self) -> List[Dict[str, object]]:
        return [trace.as_dict() for trace in self._checks]

    # -- static prune traces ----------------------------------------------------

    @property
    def prunes(self) -> List[PruneTrace]:
        return list(self._prunes)

    def record_prune(self, trace: PruneTrace) -> PruneTrace:
        self._prunes.append(trace)
        return trace

    def prunes_as_dicts(self) -> List[Dict[str, object]]:
        return [trace.as_dict() for trace in self._prunes]

    # -- energy SLO traces ------------------------------------------------------

    @property
    def slos(self) -> List[SloTrace]:
        return list(self._slos)

    def record_slo(self, trace: SloTrace) -> SloTrace:
        self._slos.append(trace)
        return trace

    def slos_as_dicts(self) -> List[Dict[str, object]]:
        return [trace.as_dict() for trace in self._slos]

    # -- incident traces --------------------------------------------------------

    @property
    def incidents(self) -> List[IncidentTrace]:
        return list(self._incidents)

    def record_incident(self, trace: IncidentTrace) -> IncidentTrace:
        self._incidents.append(trace)
        return trace
