"""Self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import run
import workloads
from layers import TARGETS, LayerTracer

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _bindings():
    """Every (module, attribute) -> object binding of a wrapped function."""
    originals = {}
    for _, module_name, qualname in TARGETS:
        owner = sys.modules[module_name]
        for part in qualname.split("."):
            owner = vars(owner)[part]
        originals[id(owner)] = owner
    return {
        (name, attribute): value
        for name, module in list(sys.modules.items())
        if module is not None and hasattr(module, "__dict__")
        for attribute, value in list(vars(module).items())
        if id(value) in originals and originals[id(value)] is value
    }


def test_wrappers_restore_the_originals():
    from repro.core import adaptive, toolflow
    from repro.lara import metrics

    before = _bindings()
    method = adaptive.AdaptiveApplication.run_once
    assert ("repro.core.toolflow", "weave_benchmark") in before
    with LayerTracer():
        assert toolflow.weave_benchmark is metrics.weave_benchmark
        assert toolflow.weave_benchmark.__wrapped_layer__ == "lara.weave_benchmark"
        assert adaptive.AdaptiveApplication.run_once is not method
    assert _bindings() == before
    assert adaptive.AdaptiveApplication.run_once is method
    assert not hasattr(toolflow.weave_benchmark, "__wrapped_layer__")


def test_wrappers_count_only_while_active():
    from repro.engine.core import EvaluationEngine
    from repro.polybench.suite import load

    with LayerTracer() as tracer:
        EvaluationEngine().profile(load("atax"))
        assert tracer.stats["polybench.profile_kernel"].calls == 0
        tracer.active = True
        EvaluationEngine().profile(load("atax"))
        tracer.active = False
    assert tracer.stats["polybench.profile_kernel"].calls == 1
    assert tracer.stats["cir.parse"].calls == 1
    assert 0 < tracer.stats["cir.parse"].self_s < tracer.top_level_s


def test_every_op_is_paired_with_a_reference_sample():
    timer = workloads.OpTimer()
    for _ in range(5):
        timer.time(lambda: sum(range(1000)))
    output = timer.output()
    assert len(output.ref_s) == len(output.op_s) == 5
    assert all(ref > 0 for ref in output.ref_s)
    assert output.reference_s >= sum(set(output.ref_s))


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads(BENCHMARK_JSON.read_text())
    key = "per_layer" if trace else "end_to_end"
    expected = {metric["name"]: metric["unit"] for metric in spec[key]}
    result = run.run("dse_prune", 3, 0.01, trace, size=workloads.MINIMAL)
    printed = {name: value["unit"] for name, value in result["metrics"].items()}
    assert printed == expected
    assert result["failed"] == 0
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_minimal_run_passes_its_checks(name):
    result = run.run(name, 5, 0.01, False, size=workloads.MINIMAL)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert all(value["value"] > 0 for value in result["metrics"].values())


def test_second_seed_changes_the_schedule_and_still_passes():
    first = workloads.make_schedule(5, 1.0)
    second = workloads.make_schedule(6, 1.0)
    assert list(first.phases) != list(second.phases)
    for schedule in (first, second):
        ends = [phase.start_s for phase in schedule.phases[1:]] + [schedule.duration_s]
        per_state = {}
        for phase, end in zip(schedule.phases, ends):
            per_state[phase.state] = per_state.get(phase.state, 0.0) + end - phase.start_s
        assert set(per_state) == set(workloads.STATES)
        assert all(total == pytest.approx(1.0 / 3) for total in per_state.values())
    result = run.run("adapt_loop", 6, 0.01, False, size=workloads.MINIMAL)
    assert result["failed"] == 0 and result["attempted"] > 0
