"""Tests for the SOCRATES toolflow and the adaptive application."""

import copy

import pytest

from repro.core.adaptive import AdaptiveApplication, KernelVersion
from repro.core.scenario import Phase, Scenario, fig5_flip, power_cap_flip
from repro.margot.goal import ComparisonFunction, Goal
from repro.margot.state import (
    Constraint,
    OptimizationState,
    maximize_throughput,
    maximize_throughput_per_watt_squared,
    minimize_time,
)


def perf_state(name="performance"):
    return OptimizationState(name=name, rank=maximize_throughput())


def eff_state(name="efficiency"):
    return OptimizationState(name=name, rank=maximize_throughput_per_watt_squared())


def fresh_adaptive(built, executor):
    """A fresh adaptive app sharing ``built``'s knowledge, seeded meter."""
    from repro.machine.power import RaplMeter

    source = built.adaptive
    return AdaptiveApplication(
        name="2mm",
        versions=source._versions,
        knowledge=built.exploration.knowledge,
        executor=executor,
        omp=source._omp,
        meter=RaplMeter(executor.power_model, seed=3),
    )


@pytest.fixture
def adaptive(built_2mm):
    """A fresh adaptive app sharing the session-scoped knowledge."""
    return fresh_adaptive(built_2mm, built_2mm.adaptive._executor)


class TestToolflowResult:
    def test_cobayn_produced_four_custom_flags(self, built_2mm):
        assert len(built_2mm.custom_flags) == 4
        assert len(set(built_2mm.custom_flags)) == 4

    def test_compiler_space_is_standard_plus_custom(self, built_2mm):
        labels = [config.label for config in built_2mm.compiler_configs]
        assert labels[:4] == ["-Os", "-O1", "-O2", "-O3"]
        assert len(labels) == 8

    def test_weaving_report_attached(self, built_2mm):
        assert built_2mm.weaving_report.benchmark == "2mm"
        assert built_2mm.weaving_report.weaved_loc > built_2mm.weaving_report.original_loc

    def test_knowledge_covers_full_factorial(self, built_2mm, toolflow):
        expected = 8 * len(toolflow._thread_counts) * 2
        assert len(built_2mm.exploration.knowledge) == expected

    def test_adaptive_source_contains_margot_glue(self, built_2mm):
        source = built_2mm.adaptive_source
        assert "margot_init();" in source
        assert "kernel_2mm__wrapper" in source

    def test_adaptive_source_reparses(self, built_2mm):
        from repro.cir import parse, to_source

        printed = built_2mm.adaptive_source
        assert to_source(parse(printed)) == printed

    def test_versions_cover_all_configs_and_bindings(self, built_2mm):
        versions = built_2mm.adaptive._versions
        assert len(versions) == 16
        compilers = {key[0] for key in versions}
        assert len(compilers) == 8


class TestAdaptiveApplication:
    def test_run_once_produces_record(self, adaptive):
        adaptive.add_state(perf_state(), activate=True)
        record = adaptive.run_once()
        assert record.time_s > 0
        assert record.power_w > 40.0
        assert record.timestamp == pytest.approx(adaptive.now)

    def test_performance_state_uses_many_threads(self, adaptive):
        adaptive.add_state(perf_state(), activate=True)
        for _ in range(5):
            record = adaptive.run_once()
        assert record.threads >= 16

    def test_efficiency_state_uses_fewer_threads_and_less_power(self, adaptive):
        adaptive.add_state(perf_state(), activate=True)
        adaptive.add_state(eff_state())
        perf_records = [adaptive.run_once() for _ in range(5)]
        adaptive.switch_state("efficiency")
        eff_records = [adaptive.run_once() for _ in range(5)]
        assert eff_records[-1].power_w < perf_records[-1].power_w - 15.0
        assert eff_records[-1].threads <= perf_records[-1].threads

    def test_power_budget_state(self, adaptive):
        state = OptimizationState(name="capped", rank=minimize_time())
        state.add_constraint(
            Constraint(Goal("power", ComparisonFunction.LESS_OR_EQUAL, 80.0))
        )
        adaptive.add_state(state, activate=True)
        records = [adaptive.run_once() for _ in range(8)]
        # after feedback settles, measured power must respect the budget
        assert sum(r.power_w for r in records[3:]) / len(records[3:]) < 84.0

    def test_trace_accumulates(self, adaptive):
        adaptive.add_state(perf_state(), activate=True)
        adaptive.run_once()
        adaptive.run_once()
        assert len(adaptive.trace) == 2

    def test_run_for_advances_clock(self, adaptive):
        adaptive.add_state(perf_state(), activate=True)
        records = adaptive.run_for(0.5)
        assert adaptive.now >= 0.5
        assert records

    def test_clock_monotone(self, adaptive):
        adaptive.add_state(perf_state(), activate=True)
        stamps = [adaptive.run_once().timestamp for _ in range(4)]
        assert stamps == sorted(stamps)

    def test_dispatch_unknown_version_raises(self, built_2mm, adaptive):
        from repro.margot.knowledge import MetricStats, OperatingPoint

        bogus = OperatingPoint(
            knobs={"compiler": "-O9", "threads": 2, "binding": "close"},
            metrics={"time": MetricStats(1.0)},
        )
        with pytest.raises(KeyError):
            adaptive._dispatch(bogus)


class TestScenario:
    def test_phase_validation(self):
        with pytest.raises(ValueError):
            Scenario(phases=[], duration_s=10.0)
        with pytest.raises(ValueError):
            Scenario(phases=[Phase(5.0, "a")], duration_s=10.0)
        with pytest.raises(ValueError):
            Scenario(phases=[Phase(0.0, "a"), Phase(0.0, "b")], duration_s=10.0)
        with pytest.raises(ValueError):
            Scenario(phases=[Phase(0.0, "a")], duration_s=0.0)

    def test_state_at(self):
        scenario = Scenario(
            phases=[Phase(0.0, "a"), Phase(10.0, "b"), Phase(20.0, "a")],
            duration_s=30.0,
        )
        assert scenario.state_at(0.0) == "a"
        assert scenario.state_at(9.99) == "a"
        assert scenario.state_at(10.0) == "b"
        assert scenario.state_at(25.0) == "a"

    def test_scenario_switches_states(self, adaptive):
        adaptive.add_state(eff_state(), activate=True)
        adaptive.add_state(perf_state())
        scenario = Scenario(
            phases=[Phase(0.0, "efficiency"), Phase(2.0, "performance")],
            duration_s=4.0,
        )
        records = scenario.run(adaptive)
        states = {record.state for record in records}
        assert states == {"efficiency", "performance"}
        # the trailing records must be in the performance phase
        assert records[-1].state == "performance"


class TestScenarioBuilders:
    """The builders replay exactly the hand-built states and phases
    they replaced in the CLI and the bench scenarios."""

    @staticmethod
    def twin(built):
        """An adaptive app whose executor noise stream starts where
        every other twin's does."""
        return fresh_adaptive(built, copy.deepcopy(built.adaptive._executor))

    @staticmethod
    def hand_built_fig5(app, duration_s):
        app.add_state(
            OptimizationState("Thr/W^2", rank=maximize_throughput_per_watt_squared()),
            activate=True,
        )
        app.add_state(OptimizationState("Throughput", rank=maximize_throughput()))
        third = duration_s / 3.0
        return Scenario(
            phases=[
                Phase(0.0, "Thr/W^2"),
                Phase(third, "Throughput"),
                Phase(2 * third, "Thr/W^2"),
            ],
            duration_s=duration_s,
        )

    @staticmethod
    def hand_built_power_cap(app, cap_w, duration_s):
        app.add_state(
            OptimizationState("Throughput", rank=maximize_throughput()), activate=True
        )
        capped = OptimizationState("PowerCap", rank=maximize_throughput())
        capped.add_constraint(
            Constraint(Goal("power", ComparisonFunction.LESS_OR_EQUAL, cap_w))
        )
        app.add_state(capped)
        third = duration_s / 3.0
        return Scenario(
            phases=[
                Phase(0.0, "Throughput"),
                Phase(third, "PowerCap"),
                Phase(2 * third, "Throughput"),
            ],
            duration_s=duration_s,
        )

    @pytest.mark.parametrize("duration_s", [3.0, 10.0])
    def test_fig5_flip_matches_hand_built(self, built_2mm, duration_s):
        reference = self.twin(built_2mm)
        expected = self.hand_built_fig5(reference, duration_s).run(reference)
        app = self.twin(built_2mm)
        scenario = fig5_flip(app, duration_s)
        assert scenario.run(app) == expected
        assert {record.state for record in expected} == {"Thr/W^2", "Throughput"}

    @pytest.mark.parametrize("duration_s", [3.0, 10.0])
    def test_power_cap_flip_matches_hand_built(self, built_2mm, duration_s):
        reference = self.twin(built_2mm)
        expected = self.hand_built_power_cap(reference, 60.0, duration_s).run(
            reference
        )
        app = self.twin(built_2mm)
        scenario = power_cap_flip(app, 60.0, duration_s)
        assert scenario.run(app) == expected
        assert {record.state for record in expected} == {"Throughput", "PowerCap"}

    def test_three_second_phases_are_exact(self, adaptive):
        # the bench scenarios' committed baselines were recorded with
        # the literal phase starts 1.0 and 2.0
        scenario = fig5_flip(adaptive, 3.0)
        assert [phase.start_s for phase in scenario.phases] == [0.0, 1.0, 2.0]
        assert scenario.duration_s == 3.0
