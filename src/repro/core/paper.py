"""The paper's evaluation: Table I and the data behind Figures 3 and 4.

``socrates table1/fig3/fig4`` print these results and the claim tests
under ``benchmarks/`` assert on them, so each experiment has one
implementation.  Figure 5's schedule is
:func:`repro.core.scenario.fig5_flip`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.dse.pareto import pareto_filter
from repro.gcc.flags import paper_custom_flags, standard_levels
from repro.lara.metrics import WeavingReport, weave_benchmark
from repro.margot.asrtm import ApplicationRuntimeManager
from repro.margot.goal import ComparisonFunction, Goal
from repro.margot.knowledge import KnowledgeBase
from repro.margot.state import Constraint, OptimizationState, minimize_time
from repro.polybench.suite import BENCHMARK_NAMES, load


def table1_reports() -> Dict[str, WeavingReport]:
    """Table I: each benchmark's weaving metrics over the paper's eight
    compiler configurations, in ``BENCHMARK_NAMES`` order."""
    configs = standard_levels() + paper_custom_flags()
    return {name: weave_benchmark(load(name), configs)[0] for name in BENCHMARK_NAMES}


def pareto_spread(knowledge: KnowledgeBase) -> Tuple[np.ndarray, np.ndarray]:
    """Figure 3: the power and throughput of the (maximize throughput,
    minimize power) Pareto front, each divided by its mean over the
    front."""
    front = pareto_filter(knowledge.points(), [("throughput", True), ("power", False)])
    powers = np.array([point.metric("power").mean for point in front])
    throughputs = np.array([point.metric("throughput").mean for point in front])
    return powers / powers.mean(), throughputs / throughputs.mean()


def power_budget_sweep(knowledge: KnowledgeBase, budgets_w: Sequence[float]) -> List[dict]:
    """Figure 4: minimize execution time under ``power <= budget`` for
    each budget in turn, on one AS-RTM whose goal moves between calls.

    Returns one row per budget: the budget, the selected point's time
    (ms) and power, and its compiler, threads and binding knobs.
    """
    asrtm = ApplicationRuntimeManager(knowledge)
    goal = Goal("power", ComparisonFunction.LESS_OR_EQUAL, 0.0)
    state = OptimizationState("power-budget", rank=minimize_time())
    state.add_constraint(Constraint(goal))
    asrtm.add_state(state)
    rows = []
    for budget in budgets_w:
        goal.value = float(budget)
        point = asrtm.update()
        rows.append(
            {
                "budget": float(budget),
                "time_ms": point.metric("time").mean * 1e3,
                "power": point.metric("power").mean,
                "compiler": str(point.knob("compiler")),
                "threads": int(point.knob("threads")),
                "binding": str(point.knob("binding")),
            }
        )
    return rows
