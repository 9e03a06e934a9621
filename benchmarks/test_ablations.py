"""Ablation benchmarks for SOCRATES' design choices.

Five ablations (DESIGN.md §6):

1. **DSE strategy** — the paper uses full-factorial profiling but
   claims strategy-agnosticism; random and latin-hypercube sampling at
   a quarter of the cost must find near-optimal operating points.
2. **COBAYN vs. random pruning** — replacing the Bayesian-network
   prediction with random picks from the 128-combo space degrades the
   quality of the compiler sub-space.
3. **Monitor feedback on/off** — when the machine drifts from its
   design-time profile, only the feedback-coupled AS-RTM keeps a power
   budget honest.
4. **Dataset drift** — LARGE-profiled knowledge still selects a
   near-optimal configuration on a MEDIUM dataset.
5. **Turbo/DVFS model** — the Xeon with its turbo bins as a DVFS table
   shifts single-thread performance most and raises full-load power,
   without changing any qualitative conclusion.
6. **COBAYN leave-one-out quality** — the full cross-validation sweep:
   every held-out kernel's predicted combinations land near the top of
   the true 128-combination ranking.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cobayn.autotuner import CobaynAutotuner
from repro.cobayn.corpus import build_corpus
from repro.dse.explorer import DesignSpace, DesignSpaceExplorer
from repro.dse.strategies import (
    FullFactorialStrategy,
    LatinHypercubeStrategy,
    RandomStrategy,
)
from repro.gcc.flags import cobayn_space, standard_levels
from repro.machine.openmp import BindingPolicy
from repro.margot.asrtm import ApplicationRuntimeManager
from repro.margot.goal import ComparisonFunction, Goal
from repro.margot.monitor import PowerMonitor
from repro.margot.state import Constraint, OptimizationState, minimize_time
from repro.milepost.features import extract_features
from repro.polybench.suite import load
from repro.polybench.workload import profile_kernel

# ---------------------------------------------------------------------------
# ablation 1: DSE strategies
# ---------------------------------------------------------------------------


def _best_time(knowledge):
    return min(point.metric("time").mean for point in knowledge)


def _run_dse_ablation(full_toolflow):
    profile = profile_kernel(load("2mm"))
    space = DesignSpace(
        compiler_configs=standard_levels(),
        thread_counts=list(range(1, 33)),
    )
    explorer = DesignSpaceExplorer(
        full_toolflow.compiler, full_toolflow.executor, full_toolflow.omp, repetitions=3
    )
    outcomes = {}
    strategies = [
        FullFactorialStrategy(),
        RandomStrategy(fraction=0.25, minimum=32),
        LatinHypercubeStrategy(samples=64),
    ]
    for strategy in strategies:
        result = explorer.explore(profile, space, strategy=strategy, seed=1)
        outcomes[strategy.name] = {
            "points": result.explored_points,
            "best_ms": _best_time(result.knowledge) * 1e3,
        }
    return outcomes


def test_ablation_dse_strategies(benchmark, full_toolflow, capsys):
    outcomes = benchmark.pedantic(
        _run_dse_ablation, args=(full_toolflow,), rounds=1, iterations=1
    )
    lines = ["", "Ablation 1 -- DSE strategy (2mm, 4 levels x 32 threads x 2 bindings)"]
    for name, row in outcomes.items():
        lines.append(f"  {name:16s} points={row['points']:4d} best={row['best_ms']:8.1f} ms")
    print("\n".join(lines))

    full = outcomes["full-factorial"]
    for name in ("random", "latin-hypercube"):
        sampled = outcomes[name]
        assert sampled["points"] <= full["points"] // 3
        # sampling still finds a configuration within 40% of the optimum
        assert sampled["best_ms"] <= full["best_ms"] * 1.4


# ---------------------------------------------------------------------------
# ablation 2: COBAYN vs random flag pruning
# ---------------------------------------------------------------------------


def _flag_space_quality(configs, profile, toolflow):
    placement = toolflow.omp.place(16, BindingPolicy.CLOSE)
    return min(
        toolflow.executor.evaluate(
            toolflow.compiler.compile(profile, config), placement
        ).time_s
        for config in configs
    )


def _run_pruning_ablation(full_toolflow):
    target = load("2mm")
    train = [app for app in (load(n) for n in (
        "3mm", "atax", "correlation", "doitgen", "gemver", "jacobi-2d",
        "mvt", "nussinov", "seidel-2d", "syr2k", "syrk",
    ))]
    corpus = build_corpus(train, full_toolflow.compiler, full_toolflow.executor, full_toolflow.omp)
    tuner = CobaynAutotuner()
    tuner.train(corpus)
    features = extract_features(target.parse(), target.kernels[0])
    profile = profile_kernel(target)

    cobayn_picks = tuner.predict_top(features, 4)
    rng = np.random.default_rng(99)
    space = cobayn_space()
    random_trials = []
    for _ in range(20):
        picks = [space[index] for index in rng.choice(len(space), size=4, replace=False)]
        random_trials.append(_flag_space_quality(picks, profile, full_toolflow))
    return {
        "cobayn_ms": _flag_space_quality(cobayn_picks, profile, full_toolflow) * 1e3,
        "random_mean_ms": float(np.mean(random_trials)) * 1e3,
        "random_best_ms": float(np.min(random_trials)) * 1e3,
        "oracle_ms": _flag_space_quality(space, profile, full_toolflow) * 1e3,
    }


def test_ablation_cobayn_vs_random_pruning(benchmark, full_toolflow):
    rows = benchmark.pedantic(
        _run_pruning_ablation, args=(full_toolflow,), rounds=1, iterations=1
    )
    print(
        "\nAblation 2 -- compiler-space pruning quality (2mm, best time in the 4-combo space)\n"
        f"  COBAYN top-4:      {rows['cobayn_ms']:8.1f} ms\n"
        f"  random-4 (mean):   {rows['random_mean_ms']:8.1f} ms\n"
        f"  random-4 (best):   {rows['random_best_ms']:8.1f} ms\n"
        f"  oracle (all 128):  {rows['oracle_ms']:8.1f} ms"
    )
    # COBAYN's picks beat the average random 4-subset and sit close to
    # the oracle over the whole 128-combo space
    assert rows["cobayn_ms"] <= rows["random_mean_ms"]
    assert rows["cobayn_ms"] <= rows["oracle_ms"] * 1.6


# ---------------------------------------------------------------------------
# ablation 3: monitor feedback on/off
# ---------------------------------------------------------------------------


def _run_feedback_ablation(full_toolflow):
    """The machine draws 20% more power than profiled; a 100 W budget
    must still be met — but only the feedback-enabled AS-RTM does it."""
    profile = profile_kernel(load("2mm"))
    space = DesignSpace(
        compiler_configs=standard_levels(), thread_counts=list(range(1, 33))
    )
    explorer = DesignSpaceExplorer(
        full_toolflow.compiler, full_toolflow.executor, full_toolflow.omp, repetitions=3
    )
    knowledge = explorer.explore(profile, space).knowledge
    drift = 1.20

    outcomes = {}
    for feedback_enabled in (False, True):
        asrtm = ApplicationRuntimeManager(knowledge)
        state = OptimizationState("budget", rank=minimize_time())
        state.add_constraint(
            Constraint(Goal("power", ComparisonFunction.LESS_OR_EQUAL, 100.0))
        )
        asrtm.add_state(state)
        monitor = PowerMonitor()
        if feedback_enabled:
            asrtm.attach_monitor("power", monitor)
        measured = []
        for _ in range(12):
            point = asrtm.update()
            true_power = point.metric("power").mean * drift
            monitor.push(true_power)
            measured.append(true_power)
        outcomes["with-feedback" if feedback_enabled else "no-feedback"] = {
            "settled_power": float(np.mean(measured[-4:])),
        }
    return outcomes


def test_ablation_feedback_adaptation(benchmark, full_toolflow):
    outcomes = benchmark.pedantic(
        _run_feedback_ablation, args=(full_toolflow,), rounds=1, iterations=1
    )
    print(
        "\nAblation 3 -- power budget (100 W) under a +20% machine drift\n"
        f"  no feedback:   settled at {outcomes['no-feedback']['settled_power']:6.1f} W\n"
        f"  with feedback: settled at {outcomes['with-feedback']['settled_power']:6.1f} W"
    )
    assert outcomes["no-feedback"]["settled_power"] > 102.0  # budget blown
    assert outcomes["with-feedback"]["settled_power"] <= 102.0  # budget held


# ---------------------------------------------------------------------------
# ablation 4: dataset drift (knowledge profiled at LARGE, run at MEDIUM)
# ---------------------------------------------------------------------------


def _run_dataset_drift(full_toolflow):
    """Design-time knowledge comes from the LARGE dataset; production
    inputs shrink to MEDIUM.  The *relative* ordering of configurations
    barely moves, so the knowledge still selects a near-optimal point —
    the premise that lets SOCRATES profile once and adapt forever."""
    from repro.polybench.datasets import dataset_sizes

    app = load("2mm")
    space = DesignSpace(
        compiler_configs=standard_levels(), thread_counts=[1, 2, 4, 8, 16, 24, 32]
    )
    explorer = DesignSpaceExplorer(
        full_toolflow.compiler, full_toolflow.executor, full_toolflow.omp, repetitions=3
    )
    knowledge_large = explorer.explore(profile_kernel(app), space).knowledge
    asrtm = ApplicationRuntimeManager(knowledge_large)
    asrtm.add_state(OptimizationState("perf", rank=minimize_time()))
    choice = asrtm.update()

    # evaluate the chosen configuration and the true optimum at MEDIUM
    medium_profile = profile_kernel(
        app, size_overrides=dataset_sizes("2mm", "MEDIUM")
    )
    from repro.gcc.flags import parse_label

    def medium_time(point):
        compiled = full_toolflow.compiler.compile(
            medium_profile, parse_label(str(point.knob("compiler")))
        )
        placement = full_toolflow.omp.place(
            int(point.knob("threads")),
            BindingPolicy(str(point.knob("binding"))),
        )
        return full_toolflow.executor.evaluate(compiled, placement).time_s

    chosen_ms = medium_time(choice) * 1e3
    best_ms = min(medium_time(point) for point in knowledge_large) * 1e3
    return {"chosen_ms": chosen_ms, "best_ms": best_ms}


def test_ablation_dataset_drift(benchmark, full_toolflow):
    rows = benchmark.pedantic(
        _run_dataset_drift, args=(full_toolflow,), rounds=1, iterations=1
    )
    print(
        "\nAblation 4 -- LARGE-profiled knowledge driving a MEDIUM dataset (2mm)\n"
        f"  selected config at MEDIUM: {rows['chosen_ms']:8.2f} ms\n"
        f"  oracle config at MEDIUM:   {rows['best_ms']:8.2f} ms"
    )
    # the LARGE-trained choice stays within 2x of the MEDIUM oracle
    assert rows["chosen_ms"] <= rows["best_ms"] * 2.0


# ---------------------------------------------------------------------------
# ablation 5: turbo bins as a DVFS table on/off
# ---------------------------------------------------------------------------


def _run_turbo_ablation(full_toolflow):
    from repro.machine.executor import MachineExecutor
    from repro.machine.topology import Cluster, Machine

    profile = profile_kernel(load("syrk"))
    compiled = full_toolflow.compiler.compile(profile, standard_levels()[2])  # -O2
    machine = full_toolflow.machine
    base = MachineExecutor(machine)
    # the same Xeon with its turbo bins as a per-cluster DVFS table
    turbo_xeon = Cluster(name="xeon", dvfs_states=(2.6e9, 2.8e9, 3.0e9, 3.2e9))
    boosted = MachineExecutor(Machine((turbo_xeon,) * machine.sockets))
    rows = {}
    for threads in (1, 8, 16, 32):
        placement = full_toolflow.omp.place(threads, BindingPolicy.CLOSE)
        rows[threads] = {
            "base_ms": base.evaluate(compiled, placement).time_s * 1e3,
            "turbo_ms": boosted.evaluate(compiled, placement).time_s * 1e3,
            "base_w": base.evaluate(compiled, placement).power_w,
            "turbo_w": boosted.evaluate(compiled, placement).power_w,
        }
    return rows


def test_ablation_turbo_model(benchmark, full_toolflow):
    rows = benchmark.pedantic(
        _run_turbo_ablation, args=(full_toolflow,), rounds=1, iterations=1
    )
    lines = ["", "Ablation 5 -- turbo bins as a Xeon DVFS table (syrk, -O2, close binding)"]
    lines.append(f"  {'threads':>7s} {'base[ms]':>9s} {'turbo[ms]':>9s} {'base[W]':>8s} {'turbo[W]':>8s}")
    for threads, row in rows.items():
        lines.append(
            f"  {threads:7d} {row['base_ms']:9.1f} {row['turbo_ms']:9.1f} "
            f"{row['base_w']:8.1f} {row['turbo_w']:8.1f}"
        )
    print("\n".join(lines))
    # single-thread turbo gain is the largest (3.2 vs 2.4 GHz bins)
    gain_1 = rows[1]["base_ms"] / rows[1]["turbo_ms"]
    gain_16 = rows[16]["base_ms"] / rows[16]["turbo_ms"]
    assert gain_1 > gain_16
    assert gain_1 > 1.15
    # turbo burns more power at full load
    assert rows[16]["turbo_w"] > rows[16]["base_w"]


# ---------------------------------------------------------------------------
# ablation 6: COBAYN leave-one-out quality over the whole suite
# ---------------------------------------------------------------------------


def _run_loocv(full_toolflow, apps):
    from repro.cobayn.evaluation import loocv_report

    return loocv_report(
        apps, full_toolflow.compiler, full_toolflow.executor, full_toolflow.omp, k=4
    )


def test_ablation_cobayn_loocv(benchmark, full_toolflow, apps):
    report = benchmark.pedantic(
        _run_loocv, args=(full_toolflow, apps), rounds=1, iterations=1
    )
    print("\nAblation 6 -- COBAYN leave-one-out quality (true rank of predictions)")
    print(report.to_table())
    # every held-out app gets at least one prediction in the true top
    # quartile, and the mean predicted rank crushes the random baseline
    assert report.worst_best_rank < 32
    assert report.mean_rank < report.random_baseline_mean_rank() / 2.0
