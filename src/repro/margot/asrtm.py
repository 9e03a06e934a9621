"""The Application-Specific Run-Time Manager (AS-RTM).

The AS-RTM fuses mARGOt's three information sources:

1. **application requirements** — the active
   :class:`~repro.margot.state.OptimizationState`;
2. **design-time knowledge** — the
   :class:`~repro.margot.knowledge.KnowledgeBase` from profiling;
3. **monitor feedback** — observed/expected ratios per metric, learned
   online, which rescale the design-time expectations before every
   selection (so the manager adapts when the machine behaves unlike
   the profiling runs).

Selection follows mARGOt's semantics: constraints filter the OP list
in priority order; if a constraint wipes out every surviving OP it is
*relaxed* — the OPs closest to satisfying it are kept instead; the
rank then orders the survivors.

When an :class:`~repro.obs.audit.AdaptationAuditLog` is attached,
every selection that *switches* the operating point records one
explained entry — candidates considered, constraint filtering (with
feedback adjustments and relaxations), rank values, and the reason the
winner won.  Without an audit log attached, ``update`` takes the exact
pre-observability fast path.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.margot.knowledge import KnowledgeBase, OperatingPoint
from repro.margot.monitor import Monitor
from repro.margot.state import Constraint, OptimizationState
from repro.obs.audit import (
    AdaptationAuditLog,
    AdaptationEntry,
    CandidateTrace,
    ConstraintTrace,
    describe_rank,
)


class AsrtmError(RuntimeError):
    """Raised on lifecycle misuse (no state, empty knowledge, ...)."""


class ApplicationRuntimeManager:
    """One AS-RTM instance manages one kernel / region of interest."""

    def __init__(
        self,
        knowledge: KnowledgeBase,
        audit: Optional[AdaptationAuditLog] = None,
    ) -> None:
        if not knowledge:
            raise AsrtmError("cannot build an AS-RTM over an empty knowledge base")
        self._knowledge = knowledge
        self._states: Dict[str, OptimizationState] = {}
        self._active_state: Optional[str] = None
        self._feedback: Dict[str, float] = {}
        self._feedback_smoothing = 0.5
        self._observations: Dict[str, Monitor] = {}
        self._current: Optional[OperatingPoint] = None
        self._audit = audit
        self._alerts = None
        self._knob_filters: Dict[str, object] = {}

    # -- state management -----------------------------------------------------

    @property
    def knowledge(self) -> KnowledgeBase:
        return self._knowledge

    def add_state(self, state: OptimizationState, activate: bool = False) -> None:
        """Register an optimization state under its name."""
        if state.name in self._states:
            raise AsrtmError(f"state {state.name!r} already exists")
        self._states[state.name] = state
        if activate or self._active_state is None:
            self._active_state = state.name

    def switch_state(self, name: str) -> None:
        """Change the active requirements (SOCRATES' runtime lever)."""
        if name not in self._states:
            raise AsrtmError(f"unknown state {name!r}")
        self._active_state = name

    @property
    def active_state(self) -> OptimizationState:
        if self._active_state is None:
            raise AsrtmError("no optimization state defined")
        return self._states[self._active_state]

    def state_names(self) -> List[str]:
        return list(self._states)

    # -- monitor feedback -------------------------------------------------------

    def attach_monitor(self, metric: str, monitor: Monitor) -> None:
        """Use ``monitor`` as the runtime observation source of ``metric``."""
        self._observations[metric] = monitor

    def adjustment(self, metric: str) -> float:
        """Current observed/expected scale factor of a metric (1.0 = on model)."""
        return self._feedback.get(metric, 1.0)

    def ingest_feedback(self) -> None:
        """Update the observed/expected ratios from the attached monitors.

        Must be called while the configuration that produced the
        observations is still current (mARGOt calls this inside
        ``update`` at the start of every region).
        """
        if self._current is None:
            return
        for metric, monitor in self._observations.items():
            if monitor.empty or metric not in self._current.metrics:
                continue
            expected = self._current.metric(metric).mean
            if expected == 0:
                continue
            ratio = monitor.average() / expected
            previous = self._feedback.get(metric, 1.0)
            blended = (
                self._feedback_smoothing * previous
                + (1.0 - self._feedback_smoothing) * ratio
            )
            self._feedback[metric] = blended

    def reset_feedback(self) -> None:
        self._feedback.clear()

    # -- knob filters -------------------------------------------------------------

    def set_knob_filter(self, name: str, value: object) -> None:
        """Pin a knob: only operating points with ``knobs[name] == value``
        are considered until the filter is cleared.

        This is how an external agent (a system-wide resource manager,
        or the big.LITTLE power governor) restricts the AS-RTM to a
        subset of the space — e.g. ``set_knob_filter("cluster", "E")``
        confines selection to the efficiency cluster.  Filters are hard:
        unlike constraints they are never relaxed.
        """
        self._knob_filters[name] = value

    def clear_knob_filters(self) -> None:
        """Remove every knob filter."""
        self._knob_filters.clear()

    def knob_filters(self) -> Dict[str, object]:
        return dict(self._knob_filters)

    # -- selection ----------------------------------------------------------------

    def update(self, now: Optional[float] = None) -> OperatingPoint:
        """Select the best operating point under the active state.

        Implements the mARGOt decision: ingest monitor feedback, filter
        by constraints (with relaxation), rank, remember the choice.
        ``now`` is an optional (virtual) timestamp used only to stamp
        audit entries.
        """
        self.ingest_feedback()
        state = self.active_state
        auditing = self._audit is not None
        constraint_traces: Optional[List[ConstraintTrace]] = (
            [] if auditing else None
        )
        survivors = self._filter(state, trace=constraint_traces)
        if auditing:
            best, ranked = self._rank_all(state, survivors)
        else:
            best = self._rank(state, survivors)
        switched = self._current is None or best.key != self._current.key
        if switched and self._current is not None:
            # configuration change: observations of the old operating
            # point must not be attributed to the new one
            for monitor in self._observations.values():
                monitor.clear()
        entry = None
        if auditing and switched:
            entry = self._record_audit(
                state, best, ranked, constraint_traces or [], now=now
            )
        if switched and self._alerts is not None:
            # Cross-link the deliberate switch into the alerting
            # stream: incident windows show surrounding adaptations,
            # and the CUSUM reference re-warms so an *intended* power
            # change is not reported as a change-point anomaly.
            self._alerts.observe_adaptation(
                now=now if now is not None else 0.0,
                state=state.name,
                winner=dict(best.knobs),
                entry=entry,
            )
        self._current = best
        return best

    @property
    def current(self) -> Optional[OperatingPoint]:
        return self._current

    @property
    def audit(self) -> Optional[AdaptationAuditLog]:
        return self._audit

    def attach_alerts(self, alerts) -> None:
        """Notify an :class:`~repro.obs.alerts.AlertEngine` of switches."""
        self._alerts = alerts

    def _record_audit(
        self,
        state: OptimizationState,
        best: OperatingPoint,
        ranked: List[Tuple[OperatingPoint, float]],
        constraint_traces: List[ConstraintTrace],
        now: Optional[float],
    ) -> AdaptationEntry:
        assert self._audit is not None
        limit = self._audit.max_candidates
        candidates = [
            CandidateTrace(knobs=point.key, rank_value=value)
            for point, value in ranked[:limit]
        ]
        winner_rank = next(
            value for point, value in ranked if point.key == best.key
        )
        return self._audit.record(
            AdaptationEntry(
                sequence=self._audit.next_sequence(),
                timestamp=now,
                state=state.name,
                rank=describe_rank(state.rank),
                considered=len(self._knowledge),
                survivors=len(ranked),
                constraints=constraint_traces,
                candidates=candidates,
                winner=dict(best.knobs),
                winner_rank=winner_rank,
                switched_from=dict(self._current.knobs)
                if self._current is not None
                else None,
                reason="",  # composed by the log from the fields above
            )
        )

    def _adjusted_metrics(self, point: OperatingPoint) -> Dict[str, float]:
        values: Dict[str, float] = {}
        for name, stats in point.metrics.items():
            values[name] = stats.mean * self._feedback.get(name, 1.0)
        for name, value in point.knobs.items():
            if isinstance(value, (int, float)) and name not in values:
                values[name] = float(value)
        return values

    def _filter(
        self,
        state: OptimizationState,
        trace: Optional[List[ConstraintTrace]] = None,
    ) -> List[OperatingPoint]:
        survivors = self._knowledge.points()
        if self._knob_filters:
            survivors = [
                point
                for point in survivors
                if all(
                    point.knobs.get(name) == value
                    for name, value in self._knob_filters.items()
                )
            ]
            if not survivors:
                raise AsrtmError(
                    f"knob filters {self._knob_filters!r} match no operating point"
                )
        for constraint in state.constraints:
            adjust = self._feedback.get(constraint.goal.field, 1.0)
            before = len(survivors)
            satisfying = [
                point for point in survivors if constraint.satisfied_by(point, adjust)
            ]
            if satisfying:
                survivors = satisfying
                relaxed = False
            else:
                # relaxation: keep the OPs with the smallest violation of
                # this constraint so more important (earlier) constraints
                # stay enforced and selection never comes up empty
                best_violation = min(
                    constraint.violation(point, adjust) for point in survivors
                )
                survivors = [
                    point
                    for point in survivors
                    if constraint.violation(point, adjust) <= best_violation + 1e-12
                ]
                relaxed = True
            if trace is not None:
                trace.append(
                    ConstraintTrace(
                        goal=str(constraint.goal),
                        adjustment=adjust,
                        survivors_before=before,
                        survivors_after=len(survivors),
                        relaxed=relaxed,
                    )
                )
        return survivors

    def _rank(
        self, state: OptimizationState, candidates: List[OperatingPoint]
    ) -> OperatingPoint:
        if not candidates:
            raise AsrtmError("constraint filtering produced no candidates")
        best_point = candidates[0]
        best_value = state.rank.evaluate(self._adjusted_metrics(best_point))
        for point in candidates[1:]:
            value = state.rank.evaluate(self._adjusted_metrics(point))
            if state.rank.better(value, best_value):
                best_value = value
                best_point = point
        return best_point

    def _rank_all(
        self, state: OptimizationState, candidates: List[OperatingPoint]
    ) -> Tuple[OperatingPoint, List[Tuple[OperatingPoint, float]]]:
        """Auditing variant of :meth:`_rank`: same winner (first-best on
        ties, like the linear scan), plus every candidate's rank value
        in best-first order."""
        if not candidates:
            raise AsrtmError("constraint filtering produced no candidates")
        valued = [
            (point, state.rank.evaluate(self._adjusted_metrics(point)))
            for point in candidates
        ]
        best_point, best_value = valued[0]
        for point, value in valued[1:]:
            if state.rank.better(value, best_value):
                best_value = value
                best_point = point
        reverse = state.rank.better(1.0, 0.0)  # maximize ⇒ big first
        ranked = sorted(
            enumerate(valued),
            key=lambda item: (
                -item[1][1] if reverse else item[1][1],
                item[0],  # stable: knowledge order breaks ties
            ),
        )
        return best_point, [pair for _, pair in ranked]
