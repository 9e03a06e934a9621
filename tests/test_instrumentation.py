"""Tests for the timing-instrumentation strategy and Pareto-pruned
runtime knowledge."""

import pytest

from repro.cir import parse, to_source
from repro.lara.strategies.instrumentation import TimingInstrumentation
from repro.lara.weaver import Weaver
from repro.polybench.suite import load

SOURCE = """
#include <stdio.h>
#define N 64
#define DATA_TYPE double
static DATA_TYPE A[N];

void helper(int n)
{
  int i;
  for (i = 0; i < n; i++)
    A[i] = A[i] + 1.0;
}

void kernel_two_loops(int n)
{
  int i, j;
#pragma omp parallel for
  for (i = 0; i < n; i++)
    A[i] = 0.0;
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++)
      A[i] = A[i] + A[j];
  helper(n);
}
"""


@pytest.fixture
def weaver():
    return Weaver(parse(SOURCE, name="inst.c"))


class TestTimingInstrumentation:
    def test_outermost_loops_instrumented(self, weaver):
        strategy = TimingInstrumentation(loops=True)
        (result,) = strategy.apply(weaver, ["kernel_two_loops"])
        assert result.instrumented_loops == 2  # inner j loop skipped
        printed = to_source(weaver.unit)
        assert printed.count("omp_get_wtime()") == 2 * 2
        assert "socrates loop:0" in printed

    def test_all_loops_when_not_outermost_only(self, weaver):
        strategy = TimingInstrumentation(loops=True, outermost_only=False)
        (result,) = strategy.apply(weaver, ["kernel_two_loops"])
        assert result.instrumented_loops == 3

    def test_timer_lands_above_omp_pragma(self, weaver):
        strategy = TimingInstrumentation(loops=True)
        strategy.apply(weaver, ["kernel_two_loops"])
        printed = to_source(weaver.unit)
        kernel_start = printed.index("void kernel_two_loops")
        timer_pos = printed.index("__socrates_timer_0", kernel_start)
        pragma_pos = printed.index("#pragma omp parallel for", kernel_start)
        loop_pos = printed.index("for (i = 0; i < n; i++)", kernel_start)
        assert timer_pos < pragma_pos < loop_pos

    def test_call_instrumentation(self, weaver):
        strategy = TimingInstrumentation(loops=False, calls=["helper"])
        (result,) = strategy.apply(weaver, ["kernel_two_loops"])
        assert result.instrumented_calls == 1
        assert result.instrumented_loops == 0
        assert "socrates call:helper" in to_source(weaver.unit)

    def test_instrumented_source_reparses(self, weaver):
        TimingInstrumentation(loops=True, calls=["helper"]).apply(
            weaver, ["kernel_two_loops", "helper"]
        )
        printed = to_source(weaver.unit)
        assert to_source(parse(printed)) == printed

    def test_includes_inserted(self, weaver):
        TimingInstrumentation().apply(weaver, ["helper"])
        printed = to_source(weaver.unit)
        assert "#include <omp.h>" in printed

    def test_works_on_polybench(self):
        app = load("jacobi-2d")
        weaver = Weaver(app.parse())
        strategy = TimingInstrumentation(loops=True)
        (result,) = strategy.apply(weaver, [app.kernels[0]])
        assert result.instrumented_loops == 1  # the t loop
        printed = to_source(weaver.unit)
        assert to_source(parse(printed)) == printed

    def test_actions_metered(self, weaver):
        strategy = TimingInstrumentation(loops=True)
        before = weaver.metrics.actions_performed
        strategy.apply(weaver, ["kernel_two_loops"])
        assert weaver.metrics.actions_performed > before


class TestParetoPrunedToolflow:
    @pytest.fixture(scope="class")
    def pruned_build(self):
        from repro.core.toolflow import SocratesToolflow

        flow = SocratesToolflow(
            dse_repetitions=2, thread_counts=[1, 4, 8, 16, 32], pareto_prune=True
        )
        return flow.build(load("mvt"))

    def test_runtime_knowledge_smaller_than_exploration(self, pruned_build):
        runtime_kb = pruned_build.adaptive.manager.asrtm.knowledge
        assert len(runtime_kb) < len(pruned_build.exploration.knowledge)

    def test_pruned_app_still_selects_extremes(self, pruned_build):
        from repro.margot.state import (
            OptimizationState,
            maximize_throughput,
            maximize_throughput_per_watt_squared,
        )

        app = pruned_build.adaptive
        app.add_state(
            OptimizationState("perf", rank=maximize_throughput()), activate=True
        )
        app.add_state(
            OptimizationState("eff", rank=maximize_throughput_per_watt_squared())
        )
        perf = app.run_once()
        app.switch_state("eff")
        eff = app.run_once()
        # mvt is tiny and memory-bound, so the two policies can land on
        # near-identical points; efficiency must never burn *more* power
        assert eff.power_w <= perf.power_w + 3.0
        assert perf.throughput >= eff.throughput * 0.9

    def test_pruned_selection_matches_unpruned_optimum(self, pruned_build):
        """Dominated points can never win a monotone rank: pruning must
        not change the unconstrained selections."""
        from repro.dse.pareto import pareto_front
        from repro.margot.asrtm import ApplicationRuntimeManager
        from repro.margot.state import OptimizationState, minimize_time

        full = pruned_build.exploration.knowledge
        pruned = pareto_front(full, [("throughput", True), ("power", False)])
        selections = []
        for kb in (full, pruned):
            asrtm = ApplicationRuntimeManager(kb)
            asrtm.add_state(OptimizationState("perf", rank=minimize_time()))
            point = asrtm.update()
            assert point.metric("time").mean > 0
            selections.append(point.key)
        assert selections[0] == selections[1]


class TestInstrumentedExecution:
    def test_timer_reports_appear_when_interpreted(self):
        """The woven timers actually fire: interpreting the
        instrumented source captures one report per outermost loop."""
        from repro.cir import parse, to_source
        from repro.cir.interp import Interpreter

        weaver = Weaver(parse(SOURCE, name="inst.c"))
        TimingInstrumentation(loops=True).apply(weaver, ["kernel_two_loops"])
        interp = Interpreter(weaver.unit, macro_overrides={"N": 8})
        interp.call("kernel_two_loops", 8)
        reports = [line for line in interp.stderr if line.startswith("socrates loop:")]
        assert len(reports) == 2
        for line in reports:
            elapsed = float(line.rsplit(" ", 1)[1])
            assert elapsed > 0.0
