"""Integration tests: end-to-end toolflow runs and the qualitative
shapes of the paper's three experiments (the quantitative harnesses
live in benchmarks/)."""

import numpy as np
import pytest

from repro.core.paper import pareto_spread, power_budget_sweep
from repro.core.scenario import Phase, Scenario
from repro.dse.pareto import pareto_filter
from repro.margot.goal import ComparisonFunction, Goal
from repro.margot.state import (
    Constraint,
    OptimizationState,
    maximize_throughput,
    maximize_throughput_per_watt_squared,
    minimize_time,
)


class TestToolflowEndToEnd:
    def test_full_build_produces_consistent_artifacts(self, built_2mm):
        assert built_2mm.app.name == "2mm"
        assert len(built_2mm.compiler_configs) == 8
        assert built_2mm.exploration.coverage == 1.0
        assert built_2mm.weaving_report.bloat > 0

    def test_second_app_shares_trained_tuner(self, toolflow):
        """Leave-one-out caches: building another app must reuse the
        executor/compiler and still produce a valid result."""
        from repro.polybench.suite import load

        result = toolflow.build(load("mvt"), training_apps=None)
        assert len(result.custom_flags) == 4
        assert len(result.exploration.knowledge) > 0


class TestFigure3Shape:
    """No one-fits-all configuration: the Pareto front of each kernel
    spans a wide power/throughput range."""

    def test_pareto_spread_is_wide(self, built_2mm):
        powers, throughputs = pareto_spread(built_2mm.exploration.knowledge)
        assert len(powers) >= 5
        assert powers.max() / powers.min() > 1.5
        assert throughputs.max() / throughputs.min() > 2.0

    def test_front_mixes_thread_counts(self, built_2mm):
        front = pareto_filter(
            built_2mm.exploration.knowledge.points(),
            [("throughput", True), ("power", False)],
        )
        threads = {p.knob("threads") for p in front}
        assert len(threads) >= 3


class TestFigure4Shape:
    """Static power-budget autotuning: execution time falls (weakly)
    as the budget grows, and the selected knobs jump around."""

    @pytest.fixture()
    def budget_sweep(self, built_2mm):
        return power_budget_sweep(
            built_2mm.exploration.knowledge, np.linspace(45, 140, 12)
        )

    def test_time_monotone_nonincreasing(self, budget_sweep):
        times = [row["time_ms"] for row in budget_sweep]
        for earlier, later in zip(times, times[1:]):
            assert later <= earlier * 1.001

    def test_power_within_budget(self, budget_sweep):
        for row in budget_sweep:
            assert row["power"] <= row["budget"] * 1.02

    def test_threads_grow_with_budget(self, budget_sweep):
        first = budget_sweep[0]["threads"]
        last = budget_sweep[-1]["threads"]
        assert last > first

    def test_selected_compilers_vary(self, budget_sweep):
        compilers = {row["compiler"] for row in budget_sweep}
        threads = {row["threads"] for row in budget_sweep}
        # "no clear trend in the selected software-knobs": several
        # distinct configurations appear across the sweep
        assert len(threads) >= 4
        assert len(compilers) >= 1


class TestFigure5Shape:
    """Runtime adaptation: the performance phase draws more power and
    runs faster than the energy-efficient phases around it."""

    @pytest.fixture()
    def trace(self, built_2mm):
        from repro.core.adaptive import AdaptiveApplication
        from repro.machine.power import RaplMeter

        base = built_2mm.adaptive
        app = AdaptiveApplication(
            name="2mm",
            versions=base._versions,
            knowledge=built_2mm.exploration.knowledge,
            executor=base._executor,
            omp=base._omp,
            meter=RaplMeter(base._executor.power_model, seed=11),
        )
        app.add_state(
            OptimizationState(
                "efficiency", rank=maximize_throughput_per_watt_squared()
            ),
            activate=True,
        )
        app.add_state(OptimizationState("performance", rank=maximize_throughput()))
        scenario = Scenario(
            phases=[
                Phase(0.0, "efficiency"),
                Phase(30.0, "performance"),
                Phase(60.0, "efficiency"),
            ],
            duration_s=90.0,
        )
        return scenario.run(app)

    def _phase(self, trace, lo, hi):
        return [r for r in trace if lo <= r.timestamp < hi]

    def test_all_phases_executed(self, trace):
        assert {record.state for record in trace} == {"efficiency", "performance"}

    def test_performance_phase_faster_and_hotter(self, trace):
        eff = self._phase(trace, 5.0, 30.0)
        perf = self._phase(trace, 35.0, 60.0)
        eff_power = np.mean([r.power_w for r in eff])
        perf_power = np.mean([r.power_w for r in perf])
        eff_time = np.mean([r.time_s for r in eff])
        perf_time = np.mean([r.time_s for r in perf])
        assert perf_power > eff_power + 20.0
        assert perf_time < eff_time

    def test_knobs_switch_at_boundaries(self, trace):
        eff = self._phase(trace, 5.0, 30.0)
        perf = self._phase(trace, 35.0, 60.0)
        assert (eff[-1].compiler, eff[-1].threads) != (
            perf[-1].compiler,
            perf[-1].threads,
        )

    def test_efficiency_phases_agree(self, trace):
        eff1 = self._phase(trace, 5.0, 30.0)
        eff2 = self._phase(trace, 65.0, 90.0)
        assert eff1[-1].threads == eff2[-1].threads
        assert abs(np.mean([r.power_w for r in eff1]) - np.mean([r.power_w for r in eff2])) < 8.0

    def test_power_envelope_matches_paper(self, trace):
        powers = [r.power_w for r in trace]
        assert min(powers) > 55.0
        assert max(powers) < 160.0


class TestEnergyBudget:
    """Extension scenario from DESIGN.md: a per-invocation energy cap
    (joules) instead of a power cap."""

    def test_energy_cap_sweep_monotone(self, built_2mm):
        from repro.margot.asrtm import ApplicationRuntimeManager

        knowledge = built_2mm.exploration.knowledge
        low, high = knowledge.metric_bounds("energy")
        asrtm = ApplicationRuntimeManager(knowledge)
        goal = Goal("energy", ComparisonFunction.LESS_OR_EQUAL, high)
        state = OptimizationState("joule-cap", rank=minimize_time())
        state.add_constraint(Constraint(goal))
        asrtm.add_state(state)
        times = []
        for cap in np.linspace(low * 1.05, high, 8):
            goal.value = float(cap)
            point = asrtm.update()
            assert point.metric("energy").mean <= cap * 1.02
            times.append(point.metric("time").mean)
        # tighter energy caps cost execution time (weakly)
        assert times[0] >= times[-1]

    def test_energy_cap_excludes_hungry_configurations(self, built_2mm):
        """A tight joule cap must actually filter: the picked OP sits
        in the cap-feasible subset, which excludes most of the space.
        (Race-to-idle means the fastest configuration is often also the
        most energy-frugal, so the *selection* may coincide with the
        unconstrained one — the filter itself is what we verify.)"""
        from repro.margot.asrtm import ApplicationRuntimeManager

        knowledge = built_2mm.exploration.knowledge
        low, high = knowledge.metric_bounds("energy")
        cap = low * 1.2
        feasible = [
            point for point in knowledge if point.metric("energy").mean <= cap
        ]
        assert 0 < len(feasible) < len(knowledge) // 2
        asrtm = ApplicationRuntimeManager(knowledge)
        state = OptimizationState("joule-cap", rank=minimize_time())
        state.add_constraint(
            Constraint(Goal("energy", ComparisonFunction.LESS_OR_EQUAL, cap))
        )
        asrtm.add_state(state)
        chosen = asrtm.update()
        assert chosen.key in {point.key for point in feasible}
