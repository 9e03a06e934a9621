"""The benchmark scenario registry: standardized, repeatable workloads.

Each scenario is one named, self-contained workload exercising a
pipeline the repo's performance story depends on — a single adaptive
build, the 12-app suite sweep (the 2.0x engine win), a DSE
exploration, a COBAYN corpus build, a MAPE-K adaptation loop.  The
harness (:func:`run_scenario`) runs a scenario N times, each repeat
under a fresh enabled :class:`~repro.obs.Observability`, and collects:

* **wall time** — the duration of the root ``bench:<scenario>`` span
  (timed through the tracer, the same code path every other
  measurement in the repo uses);
* **per-span-name totals** — the trace folded per span name with
  :func:`repro.obs.profile.name_totals` (count and summed durations),
  so a baseline knows where the time went, not just how much there
  was;
* **engine counters and a workload fingerprint** — deterministic
  numbers (cache misses, points evaluated, knowledge-base sizes) that
  must be identical across repeats; a mismatch means the workload
  itself is nondeterministic and the run is rejected;
* **peak RSS** — recorded as context (never gated on).

Scenario configurations are deliberately small (reduced thread sweeps,
two DSE repetitions) so a full bench run stays CI-friendly; they are
fixed constants, because a baseline is only comparable to runs of the
exact same configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.obs import Observability
from repro.obs.profile import FlameProfile, name_totals
from repro.obs.tracing import Span

from repro.bench.measure import peak_rss_kb

#: Thread counts used by the quick scenario configurations.
_QUICK_THREADS = [1, 4, 16]
#: DSE repetitions used by the quick scenario configurations.
_QUICK_REPS = 2


@dataclass(frozen=True)
class BenchScenario:
    """One registered workload."""

    name: str
    description: str
    runner: Callable[[Observability], Dict[str, object]]
    quick: bool = True  # cheap enough for the default CI gate


_REGISTRY: Dict[str, BenchScenario] = {}


def register(
    name: str, description: str, quick: bool = True
) -> Callable[[Callable], Callable]:
    """Decorator adding a runner to the registry under ``name``."""

    def wrap(runner: Callable[[Observability], Dict[str, object]]) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} already registered")
        _REGISTRY[name] = BenchScenario(
            name=name, description=description, runner=runner, quick=quick
        )
        return runner

    return wrap


def get_scenario(name: str) -> BenchScenario:
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown scenario {name!r} (known: {known})")
    return _REGISTRY[name]


def all_scenarios() -> List[BenchScenario]:
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def quick_scenarios() -> List[BenchScenario]:
    return [scenario for scenario in all_scenarios() if scenario.quick]


# -- the workloads ------------------------------------------------------------


def _quick_toolflow(obs: Observability, **kwargs):
    from repro.core.toolflow import SocratesToolflow

    return SocratesToolflow(
        dse_repetitions=_QUICK_REPS,
        thread_counts=_QUICK_THREADS,
        obs=obs,
        **kwargs,
    )


def _fig5_workload(obs: Observability):
    """Quick build of mvt plus 3 virtual seconds of the Figure 5
    requirement flip; returns ``(toolflow, app, records)``."""
    from repro.core.scenario import fig5_flip
    from repro.polybench.suite import load

    flow = _quick_toolflow(obs)
    app = flow.build(load("mvt")).adaptive
    return flow, app, fig5_flip(app, 3.0).run(app)


@register(
    "single_build",
    "full Figure 1 toolflow for one app (2mm), reduced thread sweep",
)
def _run_single_build(obs: Observability) -> Dict[str, object]:
    from repro.polybench.suite import load

    flow = _quick_toolflow(obs)
    result = flow.build(load("2mm"))
    counters = flow.engine.counters
    return {
        "knowledge_points": len(result.exploration.knowledge),
        "coverage": round(result.exploration.coverage, 6),
        "points_evaluated": counters.points_evaluated,
        "compile_misses": counters.compile_misses,
        "truth_misses": counters.truth_misses,
    }


@register(
    "suite_sweep",
    "build all 12 Polybench apps through one shared engine (the PR 1 "
    "2.0x hot path)",
    quick=False,  # ~8 s per repeat: run on demand, not in the default gate
)
def _run_suite_sweep(obs: Observability) -> Dict[str, object]:
    from repro.polybench.suite import all_apps

    flow = _quick_toolflow(obs)
    total_points = 0
    for app in all_apps():
        result = flow.build(app)
        total_points += len(result.exploration.knowledge)
    counters = flow.engine.counters
    return {
        "apps_built": len(all_apps()),
        "knowledge_points": total_points,
        "points_evaluated": counters.points_evaluated,
        "compile_misses": counters.compile_misses,
        "truth_hits": counters.truth_hits,
        "truth_misses": counters.truth_misses,
    }


@register(
    "dse_exploration",
    "full-factorial design-space exploration of 2mm over the standard "
    "levels x 1..32 threads",
)
def _run_dse_exploration(obs: Observability) -> Dict[str, object]:
    from repro.dse.explorer import DesignSpace, DesignSpaceExplorer
    from repro.engine.core import EvaluationEngine
    from repro.gcc.flags import standard_levels
    from repro.polybench.suite import load

    engine = EvaluationEngine(obs=obs)
    explorer = DesignSpaceExplorer(
        engine.compiler,
        engine.executor,
        engine.omp,
        repetitions=3,
        engine=engine,
    )
    space = DesignSpace(
        compiler_configs=standard_levels(), thread_counts=list(range(1, 33))
    )
    exploration = explorer.explore(engine.profile(load("2mm")), space)
    counters = engine.counters
    return {
        "knowledge_points": len(exploration.knowledge),
        "coverage": round(exploration.coverage, 6),
        "points_evaluated": counters.points_evaluated,
        "truth_misses": counters.truth_misses,
    }


@register(
    "dse_exploration_pruned",
    "statically pruned vs full DSE of syr2k: bit-identical fronts, "
    "fewer engine evaluations",
)
def _run_dse_exploration_pruned(obs: Observability) -> Dict[str, object]:
    from repro.analysis.cost import build_prune_plan
    from repro.dse.explorer import DesignSpace, DesignSpaceExplorer
    from repro.dse.pareto import canonical_front, pareto_front
    from repro.engine.core import EvaluationEngine
    from repro.gcc.flags import standard_levels
    from repro.polybench.suite import load

    app = load("syr2k")
    space = DesignSpace(
        compiler_configs=standard_levels(), thread_counts=list(range(1, 33))
    )
    objectives = [("throughput", True), ("power", False)]

    # each leg gets a fresh engine: the noise stream is positional, so
    # a shared engine would hand the second leg different draws
    def leg(plan):
        engine = EvaluationEngine(obs=obs)
        explorer = DesignSpaceExplorer(
            engine.compiler,
            engine.executor,
            engine.omp,
            repetitions=3,
            engine=engine,
        )
        profile = engine.profile(app)
        result = explorer.explore(profile, space, prune_plan=plan)
        return engine, profile, result, pareto_front(result.knowledge, objectives)

    full_engine, profile, full, full_front = leg(None)
    plan = build_prune_plan(
        app, space, machine=full_engine.machine, profile=profile
    )
    pruned_engine, _, pruned, pruned_front = leg(plan)

    counters = pruned_engine.counters
    audit_records = len(obs.audit.prunes) if obs.audit is not None else 0
    return {
        "space_size": full.space_size,
        "full_points_evaluated": full_engine.counters.points_evaluated,
        "points_masked": counters.points_masked,
        "pruned_points": pruned.pruned_points,
        "points_evaluated": counters.points_evaluated,
        "fronts_identical": (
            canonical_front(full_front) == canonical_front(pruned_front)
        ),
        "front_size": len(pruned_front),
        "audit_records": audit_records,
    }


@register(
    "cobayn_corpus",
    "iterative-compilation training corpus over the whole suite",
)
def _run_cobayn_corpus(obs: Observability) -> Dict[str, object]:
    from repro.cobayn.corpus import build_corpus
    from repro.engine.core import EvaluationEngine
    from repro.polybench.suite import all_apps

    engine = EvaluationEngine(obs=obs)
    corpus = build_corpus(
        all_apps(), engine.compiler, engine.executor, engine.omp, engine=engine
    )
    counters = engine.counters
    return {
        "examples": len(corpus.examples),
        "points_evaluated": counters.points_evaluated,
        "compile_misses": counters.compile_misses,
    }


@register(
    "adaptation_loop",
    "MAPE-K adaptation loop: quick build of mvt + 3 virtual seconds of "
    "a fig5-style requirement flip (~6k invocations)",
)
def _run_adaptation_loop(obs: Observability) -> Dict[str, object]:
    flow, app, records = _fig5_workload(obs)
    obs.absorb_engine(flow.engine)
    # the virtual-RAPL energy columns: recorded as metrics (picked up
    # by ScenarioResult.energy_j), NOT in the fingerprint — energy is
    # floating point and compared with a tolerance by the gate, while
    # the fingerprint demands exact equality
    from repro.obs.energy import build_timeline

    build_timeline(app, records).record_metrics(obs.metrics)
    return {
        "invocations": len(records),
        "switches": len(obs.audit) if obs.audit is not None else 0,
        "points_evaluated": flow.engine.counters.points_evaluated,
    }


@register(
    "biglittle_power_cap",
    "heterogeneous adaptation: quick build of mvt on biglittle_4p4e, "
    "power cap flips the cluster knob from P (race-to-idle) to E "
    "(slow-and-steady); ledger verified per cluster domain",
)
def _run_biglittle_power_cap(obs: Observability) -> Dict[str, object]:
    from repro.core.scenario import power_cap_flip
    from repro.obs.energy import EnergyLedger, build_timeline
    from repro.polybench.suite import load

    flow = _quick_toolflow(obs, machine="biglittle_4p4e")
    app = flow.build(load("mvt")).adaptive
    records = power_cap_flip(app, 22.0, 3.0).run(app)
    obs.absorb_engine(flow.engine)
    timeline = build_timeline(app, records)
    timeline.record_metrics(obs.metrics)
    # per-cluster conservation is part of the scenario's contract: the
    # P:/E: planes must close against the machine-wide domains
    EnergyLedger.from_timeline(timeline).verify(records)
    clusters_by_state: Dict[str, str] = {}
    for record in records:
        votes = clusters_by_state.setdefault(record.state, {})  # type: ignore[assignment]
        votes[record.cluster] = votes.get(record.cluster, 0) + 1  # type: ignore[index]
    dominant = {
        state: max(votes, key=votes.get)  # type: ignore[arg-type]
        for state, votes in clusters_by_state.items()
    }
    return {
        "invocations": len(records),
        "clusters_used": sorted({record.cluster for record in records}),
        "uncapped_cluster": dominant.get("Throughput", ""),
        "capped_cluster": dominant.get("PowerCap", ""),
        "points_evaluated": flow.engine.counters.points_evaluated,
    }


@register(
    "alerting_overhead",
    "adaptation loop with streaming SLO alerting under an in-situ hook "
    "probe — gating the alerting-cost ratio via the baseline's "
    "ratio_limits, plus a plain leg proving byte-identical records",
)
def _run_alerting_overhead(obs: Observability) -> Dict[str, object]:
    import time as _time

    from repro.obs.alerts import AlertPolicy
    from repro.obs.energy import EnergyBudget

    # Each leg gets its OWN identically-seeded toolflow: sharing one
    # engine would let the first leg advance shared RNG state and
    # desync the second.  The overhead is NOT measured by comparing
    # the legs' clocks — on a shared runner the legs see different
    # interference windows and either wall or CPU clocks disagree by
    # up to ±15% on identical work.  Instead an AlertOverheadProbe
    # times the alerting hooks *inside* one leg, where numerator and
    # denominator share a clock and an interference window (see the
    # probe's docstring).  Two probed legs are run and the smaller
    # ratio wins: contention only ever inflates the reading, so the
    # lower leg is the one that saw the quieter window.  The 85 W
    # budget sits below the workload's ~91 W draw, so the burn
    # detector works continuously — the measured overhead includes
    # the alert/incident path, not just idle detector updates.
    from repro.bench.measure import AlertOverheadProbe

    policy = AlertPolicy(
        budgets=(EnergyBudget("bench_cap", power_w=85.0),),
        burn_short_s=0.1,
        burn_long_s=0.5,
        flight_capacity=128,
    )
    pc = _time.perf_counter
    ratios: List[float] = []
    flow_alert = None
    records_alert = None
    engine = None
    for _leg in range(2):
        alert_obs = Observability(alerting=True, alert_policy=policy)
        engine = alert_obs.alerts
        assert engine is not None
        probe = AlertOverheadProbe(engine).install()
        with obs.tracer.span("overhead:alerting"):
            started = pc()
            flow_alert, _, records_alert = _fig5_workload(alert_obs)
            total_s = pc() - started
        ratios.append(probe.overhead_ratio(total_s))
    with obs.tracer.span("overhead:baseline"):
        _, _, records_plain = _fig5_workload(Observability())
    ratio = min(ratios)
    obs.metrics.gauge(
        "socrates_bench_ratio",
        help="dimensionless ratio measured by a bench scenario",
        labels={"name": "alerting_overhead"},
    ).set(ratio)
    assert engine is not None and flow_alert is not None
    return {
        "invocations": len(records_alert),
        # alerting on vs. off must not perturb the workload itself —
        # the null-object discipline's contract, checked every repeat
        "records_identical": records_plain == records_alert,
        "alerts": len(engine.alerts),
        "incidents": len(engine.incidents),
        "points_evaluated": flow_alert.engine.counters.points_evaluated,
    }


@register(
    "profiling_overhead",
    "adaptation loop plus an in-situ probe of the causal profiling "
    "observatory: flame collapse, folded round-trip and what-if replay "
    "timed against the workload wall, gated via ratio_limits",
)
def _run_profiling_overhead(obs: Observability) -> Dict[str, object]:
    import time as _time

    from repro.obs.profile import (
        CONSERVATION_TOL,
        FlameProfile,
        build_tree,
        default_targets,
        total_virtual_s,
        whatif,
    )

    # Same measurement discipline as alerting_overhead: numerator and
    # denominator share one leg's clock and interference window, two
    # legs run and the smaller ratio wins (contention only inflates
    # the reading).  Profiling is post-hoc — it runs *after* the
    # workload on the finished trace — so the probe times exactly what
    # a user of `socrates obs flame` + `obs whatif` pays.
    pc = _time.perf_counter
    ratios: List[float] = []
    leg_records = []
    profile = None
    report = None
    conserved = False
    for _leg in range(2):
        inner = Observability()
        with obs.tracer.span("overhead:workload"):
            started = pc()
            _, _, records = _fig5_workload(inner)
            workload_s = pc() - started
        leg_records.append(records)
        spans = inner.tracer.spans
        with obs.tracer.span("overhead:profiling"):
            started = pc()
            roots = build_tree(spans)
            profile = FlameProfile.from_tree(roots)
            round_trip = FlameProfile.from_folded(profile.as_folded())
            report = whatif(
                roots, speedups=(0.5,), targets=default_targets(roots)
            )
            profiling_s = pc() - started
        conserved = (
            abs(round_trip.total_self_s - total_virtual_s(roots))
            <= CONSERVATION_TOL * max(1.0, total_virtual_s(roots))
        )
        ratios.append(profiling_s / workload_s)
    ratio = min(ratios)
    obs.metrics.gauge(
        "socrates_bench_ratio",
        help="dimensionless ratio measured by a bench scenario",
        labels={"name": "profiling_overhead"},
    ).set(ratio)
    assert profile is not None and report is not None
    return {
        "invocations": len(leg_records[0]),
        # profiling between seeded runs must not perturb them: the two
        # legs' records stay byte-identical even though a full
        # collapse + what-if ran in between
        "records_identical": leg_records[0] == leg_records[1],
        "stacks": len(profile.stacks),
        "targets": len(report.rows),
        "folded_round_trip_conserves": conserved,
    }


def _energy_totals(metrics) -> Dict[str, float]:
    """Per-domain joules from the ``socrates_energy_joules_total``
    counters a scenario recorded (summed over kernels)."""
    totals: Dict[str, float] = {}
    for instrument in metrics.instruments():
        if getattr(instrument, "name", None) != "socrates_energy_joules_total":
            continue
        domain = dict(instrument.labels).get("domain")
        if domain is not None:
            totals[domain] = totals.get(domain, 0.0) + instrument.value
    return totals


def _ratio_values(metrics) -> Dict[str, float]:
    """Named dimensionless ratios a scenario published through the
    ``socrates_bench_ratio{name=...}`` gauges."""
    ratios: Dict[str, float] = {}
    for instrument in metrics.instruments():
        if getattr(instrument, "name", None) != "socrates_bench_ratio":
            continue
        name = dict(instrument.labels).get("name")
        if name is not None:
            ratios[name] = instrument.value
    return ratios


# -- the harness --------------------------------------------------------------


@dataclass
class ScenarioResult:
    """Everything one multi-repeat scenario run measured."""

    scenario: str
    repeats: int
    wall_s: List[float]
    #: per span-name: total seconds in each repeat (missing names = 0.0)
    span_totals: Dict[str, List[float]]
    #: per span-name: span count (identical across repeats)
    span_counts: Dict[str, int]
    #: deterministic workload fingerprint (identical across repeats)
    fingerprint: Dict[str, object]
    peak_rss_kb: int
    #: the last repeat's finished spans, for Chrome-trace export
    spans: List[Span] = field(default_factory=list)
    #: per-domain joules from the energy observatory (empty when the
    #: scenario records no energy metrics); gated with a tolerance,
    #: never part of the exact-match fingerprint
    energy_j: Dict[str, float] = field(default_factory=dict)
    #: per ratio name: the value from each repeat (scenarios publish
    #: these as ``socrates_bench_ratio{name=...}`` gauges); gated
    #: against the baseline's committed ``ratio_limits``
    ratios: Dict[str, List[float]] = field(default_factory=dict)
    #: per folded stack: self seconds in each repeat (the profiling
    #: observatory's collapse of the trace) — lets the gate attribute
    #: a regression to a *stack*, not just a span name
    stack_totals: Dict[str, List[float]] = field(default_factory=dict)
    #: per folded stack: span count (identical across repeats)
    stack_counts: Dict[str, int] = field(default_factory=dict)


def per_repeat_columns(
    profiles: List[FlameProfile],
) -> Tuple[Dict[str, List[float]], Dict[str, int]]:
    """Per key of repeated profiles: its ``self_s`` in each repeat (0.0
    where absent) and its first-repeat count — a scenario result's
    columns, also the trend gate's history."""
    keys = sorted(set().union(*(profile.stacks for profile in profiles)))
    totals = {
        key: [p.stacks[key].self_s if key in p.stacks else 0.0 for p in profiles]
        for key in keys
    }
    counts = {key: stat.count for key, stat in profiles[0].stacks.items()}
    return totals, counts


def run_scenario(
    name: str,
    repeats: int = 3,
    obs_factory: Optional[Callable[[], Observability]] = None,
) -> ScenarioResult:
    """Run scenario ``name`` ``repeats`` times under tracing.

    Raises :class:`ValueError` for unknown scenarios, a repeat count
    < 1, or a workload whose fingerprint varies between repeats
    (nondeterminism would make the baseline meaningless).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    scenario = get_scenario(name)
    factory = obs_factory if obs_factory is not None else Observability
    wall_s: List[float] = []
    per_repeat_names: List[FlameProfile] = []
    per_repeat_stacks: List[FlameProfile] = []
    fingerprint: Optional[Dict[str, object]] = None
    last_spans: List[Span] = []
    energy_j: Dict[str, float] = {}
    ratios: Dict[str, List[float]] = {}
    for repeat in range(repeats):
        obs = factory()
        with obs.tracer.span(f"bench:{name}", scenario=name, repeat=repeat):
            result = scenario.runner(obs)
        spans = obs.tracer.spans
        root = next(span for span in spans if span.name == f"bench:{name}")
        wall_s.append(root.duration_s)
        per_repeat_names.append(
            name_totals((span.name, span.duration_s) for span in spans)
        )
        per_repeat_stacks.append(FlameProfile.from_spans(spans))
        if repeat == 0:
            fingerprint = dict(result)
        elif dict(result) != fingerprint:
            raise ValueError(
                f"scenario {name!r} is nondeterministic: repeat {repeat} "
                f"fingerprint {result!r} != repeat 0 {fingerprint!r}"
            )
        last_spans = spans
        energy_j = _energy_totals(obs.metrics)
        for ratio_name, value in _ratio_values(obs.metrics).items():
            ratios.setdefault(ratio_name, []).append(value)
    span_totals, span_counts = per_repeat_columns(per_repeat_names)
    stack_totals, stack_counts = per_repeat_columns(per_repeat_stacks)
    return ScenarioResult(
        scenario=name,
        repeats=repeats,
        wall_s=wall_s,
        span_totals=span_totals,
        span_counts=span_counts,
        fingerprint=fingerprint or {},
        peak_rss_kb=peak_rss_kb(),
        spans=last_spans,
        energy_j=energy_j,
        ratios=ratios,
        stack_totals=stack_totals,
        stack_counts=stack_counts,
    )
