"""Optimization states: mARGOt's constrained multi-objective problems.

A state is *what the application wants right now*: an ordered list of
constraints (hard requirements, by priority) plus a rank (the
objective used to order the surviving operating points).  SOCRATES
switches between states at runtime — e.g. Figure 5 alternates between
a ``maximize throughput/power^2`` state and a ``maximize throughput``
state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.margot.goal import ComparisonFunction, Goal
from repro.margot.knowledge import OperatingPoint


class RankDirection(enum.Enum):
    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


class RankComposition(enum.Enum):
    """How multiple rank fields combine into one scalar."""

    LINEAR = "linear"  # sum of coefficient * field
    GEOMETRIC = "geometric"  # product of field ** coefficient


@dataclass(frozen=True)
class RankField:
    """One term of the rank objective.

    ``coefficient`` is a weight for LINEAR composition and an exponent
    for GEOMETRIC composition (so throughput/power^2 is geometric with
    fields (throughput, 1) and (power, -2)).
    """

    metric: str
    coefficient: float = 1.0


@dataclass(frozen=True)
class Rank:
    """The objective of an optimization state."""

    direction: RankDirection
    composition: RankComposition
    fields: Sequence[RankField]

    def evaluate(self, values: Mapping[str, float]) -> float:
        """Scalar rank of one OP given its (adjusted) metric means."""
        if self.composition is RankComposition.LINEAR:
            return sum(f.coefficient * values[f.metric] for f in self.fields)
        result = 1.0
        for f in self.fields:
            base = values[f.metric]
            if base <= 0:
                # geometric rank is undefined on non-positive values;
                # clamp to a tiny epsilon so ordering remains sane
                base = 1e-30
            result *= base**f.coefficient
        return result

    def better(self, lhs: float, rhs: float) -> bool:
        """Is rank value ``lhs`` better than ``rhs``?"""
        if self.direction is RankDirection.MAXIMIZE:
            return lhs > rhs
        return lhs < rhs

    def best_index(self, values: Sequence[float]) -> int:
        """Index of the best of ``values``; the first one wins a tie.

        ``max``/``min`` replace their pick only on a strictly
        :meth:`better` value, exactly like a first-best linear scan.
        """
        pick = max if self.direction is RankDirection.MAXIMIZE else min
        return pick(range(len(values)), key=values.__getitem__)


@dataclass
class Constraint:
    """A prioritized hard requirement on one metric (or knob).

    ``confidence`` counts standard deviations added to the expected
    value before comparison (mARGOt's way of trading optimism for
    safety); ``priority`` orders relaxation — lower numbers are more
    important and relaxed last.
    """

    goal: Goal
    priority: int = 10
    confidence: float = 0.0

    def expected_value(self, point: OperatingPoint, adjust: float = 1.0) -> float:
        """The value this constraint checks for ``point``.

        ``adjust`` is the runtime-feedback scale factor for the metric
        (observed/expected ratio learned by the AS-RTM).
        """
        if self.goal.field in point.metrics:
            stats = point.metric(self.goal.field)
            pessimistic = self.confidence if self._pessimism_adds() else -self.confidence
            return (stats.mean + pessimistic * stats.std) * adjust
        knob_value = point.knob(self.goal.field)
        return float(knob_value)  # type: ignore[arg-type]

    def _pessimism_adds(self) -> bool:
        """For <=-style goals pessimism adds sigmas; for >= it subtracts."""
        return self.goal.comparison in (
            ComparisonFunction.LESS,
            ComparisonFunction.LESS_OR_EQUAL,
        )

    def satisfied_by(self, point: OperatingPoint, adjust: float = 1.0) -> bool:
        return self.goal.check(self.expected_value(point, adjust))

    def violation(self, point: OperatingPoint, adjust: float = 1.0) -> float:
        return self.goal.violation(self.expected_value(point, adjust))


@dataclass
class OptimizationState:
    """A named (constraints, rank) pair the AS-RTM can switch to."""

    name: str
    rank: Rank
    constraints: List[Constraint] = field(default_factory=list)

    def add_constraint(self, constraint: Constraint) -> None:
        self.constraints.append(constraint)
        self.constraints.sort(key=lambda c: c.priority)

    def remove_constraint(self, metric: str) -> None:
        self.constraints = [c for c in self.constraints if c.goal.field != metric]

    def constraint_on(self, metric: str) -> Optional[Constraint]:
        for constraint in self.constraints:
            if constraint.goal.field == metric:
                return constraint
        return None


# -- convenience constructors used across examples and benchmarks ---------


def maximize_throughput() -> Rank:
    """Plain performance objective (Figure 5's 100s-200s phase)."""
    return Rank(
        direction=RankDirection.MAXIMIZE,
        composition=RankComposition.LINEAR,
        fields=(RankField("throughput", 1.0),),
    )


def maximize_throughput_per_watt_squared() -> Rank:
    """The paper's energy-efficiency objective Thr/W^2."""
    return Rank(
        direction=RankDirection.MAXIMIZE,
        composition=RankComposition.GEOMETRIC,
        fields=(RankField("throughput", 1.0), RankField("power", -2.0)),
    )


def minimize_time() -> Rank:
    """Figure 4's objective: minimize execution time."""
    return Rank(
        direction=RankDirection.MINIMIZE,
        composition=RankComposition.LINEAR,
        fields=(RankField("time", 1.0),),
    )
