"""Scenarios: scripted requirement changes over simulated time.

Figure 5 of the paper drives 2mm for 300 seconds while the
requirement flips between an energy-efficient policy (maximize
Thr/W^2) and a performance policy (maximize throughput) every 100
seconds.  A :class:`Scenario` expresses such schedules and replays
them against an :class:`~repro.core.adaptive.AdaptiveApplication`;
:func:`fig5_flip` and :func:`power_cap_flip` build the two three-phase
requirement flips the CLI and the bench scenarios replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.core.adaptive import AdaptiveApplication, InvocationRecord
from repro.margot.goal import ComparisonFunction, Goal
from repro.margot.state import (
    Constraint,
    OptimizationState,
    maximize_throughput,
    maximize_throughput_per_watt_squared,
)


@dataclass(frozen=True)
class Phase:
    """One interval of a scenario: from ``start_s`` use state ``state``."""

    start_s: float
    state: str


@dataclass
class Scenario:
    """An ordered schedule of optimization-state switches.

    Phases must start at strictly increasing times; the first phase
    should start at 0.
    """

    phases: Sequence[Phase]
    duration_s: float

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a scenario needs at least one phase")
        starts = [phase.start_s for phase in self.phases]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError("phase start times must be strictly increasing")
        if starts[0] != 0.0:
            raise ValueError("the first phase must start at t=0")
        if self.duration_s <= starts[-1]:
            raise ValueError("duration must extend past the last phase start")

    def state_at(self, time_s: float) -> str:
        """The state name that should be active at ``time_s``."""
        active = self.phases[0].state
        for phase in self.phases:
            if time_s >= phase.start_s:
                active = phase.state
            else:
                break
        return active

    def run(self, app: AdaptiveApplication) -> List[InvocationRecord]:
        """Drive ``app`` through the schedule; returns the full trace.

        The state switch happens between invocations, exactly like a
        requirement update arriving at the weaved update() call.
        """
        records: List[InvocationRecord] = []
        start = app.now
        with app.obs.tracer.span(
            "scenario.run",
            app=app.name,
            phases=len(self.phases),
            duration_s=self.duration_s,
        ):
            while app.now - start < self.duration_s:
                wanted = self.state_at(app.now - start)
                if app.active_state_name != wanted:
                    app.switch_state(wanted)
                records.append(app.run_once())
        return records


def _thirds(outer: str, middle: str, duration_s: float) -> Scenario:
    """``outer`` for the first and last third of ``duration_s``,
    ``middle`` in between."""
    third = duration_s / 3.0
    return Scenario(
        phases=[Phase(0.0, outer), Phase(third, middle), Phase(2 * third, outer)],
        duration_s=duration_s,
    )


def fig5_flip(app: AdaptiveApplication, duration_s: float) -> Scenario:
    """The Figure 5 requirement flip on ``app``.

    Adds the energy-efficient ``Thr/W^2`` state (activated) and the
    performance ``Throughput`` state, and returns the schedule that
    runs Thr/W^2 for the first third of ``duration_s``, Throughput for
    the middle third and Thr/W^2 again for the last.
    """
    app.add_state(
        OptimizationState("Thr/W^2", rank=maximize_throughput_per_watt_squared()),
        activate=True,
    )
    app.add_state(OptimizationState("Throughput", rank=maximize_throughput()))
    return _thirds("Thr/W^2", "Throughput", duration_s)


def power_cap_flip(
    app: AdaptiveApplication, cap_w: float, duration_s: float
) -> Scenario:
    """A power cap imposed for the middle third of ``duration_s``.

    Adds an uncapped ``Throughput`` state (activated) and a
    ``PowerCap`` state maximizing throughput under ``power <= cap_w``,
    and returns the Throughput / PowerCap / Throughput schedule.
    """
    app.add_state(
        OptimizationState("Throughput", rank=maximize_throughput()), activate=True
    )
    capped = OptimizationState("PowerCap", rank=maximize_throughput())
    capped.add_constraint(
        Constraint(Goal("power", ComparisonFunction.LESS_OR_EQUAL, cap_w))
    )
    app.add_state(capped)
    return _thirds("Throughput", "PowerCap", duration_s)
