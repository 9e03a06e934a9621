"""The three benchmark workloads: set-up, one timed pass, output checks.

Every workload is a closed loop in one process on the serial engine
backend: each build, DSE or kernel invocation starts only when the
previous one has finished.  A *pass* is the unit the timed phase
repeats; an *op* is the unit whose latency is reported:

* ``suite_build`` — a pass builds all twelve Polybench apps through
  one fresh ``SocratesToolflow`` (one shared engine, leave-one-out
  COBAYN); an op is one ``build(app)``.
* ``adapt_loop`` — a pass replays a seeded requirement schedule on the
  adaptive ``mvt`` built in set-up; an op is one ``run_once()``
  (one MAPE-K iteration).
* ``dse_prune`` — a pass takes every app from source to its statically
  pruned Pareto front, with a fresh engine per app; an op is one app.

The workload seed is the toolflow/executor seed and also draws the
adapt_loop schedule; the program only ever sees the generated inputs.

Every op is timed by an :class:`OpTimer`, which also times a fixed
reference computation between ops, so that each op's time can be
expressed relative to how fast the host ran just then (see ``run.py``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import time
from dataclasses import astuple, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.analysis.cost import PrunePlan, build_prune_plan
from repro.core.adaptive import AdaptiveApplication
from repro.core.scenario import Phase, Scenario
from repro.core.toolflow import SocratesToolflow
from repro.dse.explorer import DesignSpace, DesignSpaceExplorer
from repro.dse.pareto import pareto_front
from repro.engine.core import EngineCounters, EvaluationEngine
from repro.gcc.flags import standard_levels
from repro.machine.executor import MachineExecutor
from repro.machine.power import RaplMeter
from repro.machine.registry import resolve_machine
from repro.margot.goal import ComparisonFunction, Goal
from repro.margot.oplist import knowledge_to_dict
from repro.margot.state import (
    Constraint,
    OptimizationState,
    maximize_throughput,
    maximize_throughput_per_watt_squared,
)
from repro.obs.energy import EnergyLedger, LedgerConservationError, build_timeline
from repro.polybench.suite import BENCHMARK_NAMES, load

#: The toolflow's own default seed; pinned outputs exist for it only.
DEFAULT_SEED = 0x50CA

#: The adapt_loop requirement states.  The cap state keeps the
#: throughput rank but filters the knowledge base by power.
STATE_EFFICIENT = "Thr/W^2"
STATE_FAST = "Throughput"
STATE_CAPPED = "PowerCap"
STATES = (STATE_EFFICIENT, STATE_FAST, STATE_CAPPED)

#: Phases of each state in one adapt_loop schedule.
PHASES_PER_STATE = 3

#: Share of the knowledge base's operating points at or under the cap:
#: a third, so the cap removes the throughput-optimal points and the
#: constraint filter always has work to do.
CAP_QUANTILE = 1 / 3

PARETO_OBJECTIVES = [("throughput", True), ("power", False)]

#: Op time between two reference samples, at least: long enough that
#: the samples add a few percent to a pass, short enough that the host's
#: speed (which changes over seconds) is the same across the segment.
SEGMENT_S = 0.05

#: Back-to-back runs of the reference per sample; a sample is their
#: fastest, so an interrupt in one run does not count as a slow host.
REFERENCE_RUNS = 3

T = TypeVar("T")


@dataclass(frozen=True)
class Size:
    """Input size of a run.  :data:`FULL` is what the benchmark measures;
    smaller sizes exist for the benchmark's own tests."""

    apps: Tuple[str, ...] = tuple(BENCHMARK_NAMES)
    #: ``None`` sweeps every hardware thread (1..32 on the default machine)
    thread_counts: Optional[Tuple[int, ...]] = None
    dse_repetitions: int = 5
    #: virtual seconds of one adapt_loop schedule pass
    schedule_s: float = 2.25


FULL = Size()
MINIMAL = Size(
    apps=("mvt", "syr2k", "nussinov"),
    thread_counts=(1, 4, 16),
    dse_repetitions=2,
    schedule_s=0.06,
)


class Checks:
    """Counts output checks; each failure is kept with its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _reference() -> float:
    """A fixed pure-Python computation of about a millisecond, in the
    program's idiom (tuple keys, dict updates, calls, float maths).  Its
    time measures the host's speed, not the program's: no ``repro``
    code runs in it."""
    table: Dict[Tuple[int, int], float] = {}
    for i in range(4500):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0.0) + math.sqrt(i) * 0.5
    return sum(sorted(table.values()))


def reference_sample() -> float:
    """Seconds of the reference, the fastest of :data:`REFERENCE_RUNS`
    back-to-back runs, with the cyclic garbage collector held off so
    that the program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        fastest = math.inf
        for _ in range(REFERENCE_RUNS):
            started = time.perf_counter()
            _reference()
            fastest = min(fastest, time.perf_counter() - started)
        return fastest
    finally:
        if enabled:
            gc.enable()


class OpTimer:
    """Times ops, and the reference between segments of them.

    Each op is paired with the mean of the two reference samples that
    bracket its segment (:data:`SEGMENT_S` of op time, or one op if that
    is longer), so an op and its reference ran at the same host speed.
    """

    def __init__(self) -> None:
        self.op_s: List[float] = []
        self.ref_s: List[float] = []
        #: seconds spent sampling the reference (not op time)
        self.reference_s = 0.0
        self._segment_s = 0.0
        self._before = self._sample()

    def _sample(self) -> float:
        started = time.perf_counter()
        sample = reference_sample()
        self.reference_s += time.perf_counter() - started
        return sample

    def time(self, op: Callable[[], T]) -> T:
        started = time.perf_counter()
        result = op()
        elapsed = time.perf_counter() - started
        self.op_s.append(elapsed)
        self._segment_s += elapsed
        if self._segment_s >= SEGMENT_S:
            self._close()
        return result

    def _close(self) -> None:
        after = self._sample()
        self.ref_s.extend([(self._before + after) / 2] * (len(self.op_s) - len(self.ref_s)))
        self._before = after
        self._segment_s = 0.0

    def output(self, **fields) -> "PassOutput":
        if len(self.ref_s) < len(self.op_s):
            self._close()
        return PassOutput(
            op_s=self.op_s, ref_s=self.ref_s, reference_s=self.reference_s, **fields
        )


@dataclass
class PassOutput:
    """What one timed pass produced, for metrics and for checking."""

    #: latency of each op, seconds
    op_s: List[float]
    #: per op, seconds of the reference sampled around it
    ref_s: List[float]
    #: seconds the pass spent sampling the reference
    reference_s: float
    #: counters of every engine the pass used (empty: no engine)
    engines: List[EngineCounters] = field(default_factory=list)
    #: configuration changes between consecutive invocations
    switches: int = 0
    #: virtual joules of the pass's invocation trace
    energy_j: float = 0.0
    #: workload-specific results, handed to the workload's check
    payload: object = None


def sha256_json(document: object) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _toolflow(seed: int, size: Size) -> SocratesToolflow:
    return SocratesToolflow(
        seed=seed,
        dse_repetitions=size.dse_repetitions,
        thread_counts=size.thread_counts,
    )


class Workload:
    """Interface of a workload: ``setup`` builds the inputs (and is
    repeated to time it), ``run_pass`` is timed, ``check`` is not."""

    name = ""

    def __init__(self, seed: int, size: Size, pinned: Optional[Dict[str, object]]):
        self.seed = seed
        self.size = size
        #: pinned reference outputs, or None where none apply
        self.pinned = pinned
        #: output summary of the first timed pass; later passes must match
        self.first_pass: Optional[object] = None

    def setup(self, checks: Checks) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassOutput:
        raise NotImplementedError

    def check(self, output: PassOutput, checks: Checks) -> None:
        raise NotImplementedError

    def _check_repeatable(self, summary: object, checks: Checks) -> None:
        """Every pass of a seeded workload must reproduce the first."""
        if self.first_pass is None:
            self.first_pass = summary
            return
        checks.expect(
            summary == self.first_pass,
            f"{self.name}: a later pass differs from the first (nondeterminism)",
        )


class SuiteBuild(Workload):
    """Build every app with the default paper configuration."""

    name = "suite_build"

    def setup(self, checks: Checks) -> None:
        self.apps = [load(name) for name in self.size.apps]
        # one throwaway build finishes the toolflow's lazy imports and
        # first-use initialisation before anything is timed
        _toolflow(self.seed, self.size).build(load("mvt"))

    def run_pass(self) -> PassOutput:
        flow = _toolflow(self.seed, self.size)
        timer = OpTimer()
        results = [timer.time(lambda: flow.build(app)) for app in self.apps]
        return timer.output(engines=[flow.engine.counters], payload=results)

    def check(self, output: PassOutput, checks: Checks) -> None:
        summary: Dict[str, object] = {}
        for result in output.payload:  # type: ignore[union-attr]
            name = result.app.name
            exploration = result.exploration
            checks.expect(
                exploration.coverage == 1.0,
                f"{name}: knowledge-base coverage {exploration.coverage} != 1.0",
            )
            summary[name] = {
                "top_k": [config.label for config in result.custom_flags],
                "oplist_sha256": sha256_json(knowledge_to_dict(exploration.knowledge)),
            }
        self._check_repeatable(summary, checks)
        if self.pinned is not None:
            for name, values in summary.items():
                checks.expect(
                    values == self.pinned.get(name),
                    f"{name}: COBAYN top-k or oplist digest differs from the pinned value",
                )


class AdaptLoop(Workload):
    """MAPE-K invocations of the adaptive mvt under a seeded schedule."""

    name = "adapt_loop"

    def setup(self, checks: Checks) -> None:
        flow = _toolflow(self.seed, self.size)
        self.build = flow.build(load("mvt"))
        self.flow = flow
        knowledge = self.build.exploration.knowledge
        powers = sorted(point.metric("power").mean for point in knowledge)
        self.cap_w = powers[int(len(powers) * CAP_QUANTILE)]
        checks.expect(
            powers[0] < self.cap_w < powers[-1],
            f"power cap {self.cap_w} W is not inside the knowledge base's range",
        )
        self.schedule = make_schedule(self.seed, self.size.schedule_s)

    def _fresh_app(self) -> AdaptiveApplication:
        """The built adaptive application, reset to its initial state, so
        every pass replays the same seeded trace."""
        executor = self.flow.executor
        executor.reseed(self.seed)
        built = self.build.adaptive
        app = AdaptiveApplication(
            name=built.name,
            versions=built.versions,
            knowledge=self.build.exploration.knowledge,
            executor=executor,
            omp=self.flow.omp,
            meter=RaplMeter(executor.power_model, seed=self.seed ^ 0xFF),
        )
        app.add_state(
            OptimizationState(
                STATE_EFFICIENT, rank=maximize_throughput_per_watt_squared()
            )
        )
        app.add_state(OptimizationState(STATE_FAST, rank=maximize_throughput()))
        capped = OptimizationState(STATE_CAPPED, rank=maximize_throughput())
        capped.add_constraint(
            Constraint(Goal("power", ComparisonFunction.LESS_OR_EQUAL, self.cap_w))
        )
        app.add_state(capped)
        app.switch_state(self.schedule.state_at(0.0))
        return app

    def run_pass(self) -> PassOutput:
        app = self._fresh_app()
        schedule = self.schedule
        asrtm = app.manager.asrtm
        timer = OpTimer()
        records = []
        # mARGOt rescales the knowledge base's power by the observed /
        # expected ratio before filtering; until the next update() the
        # manager still holds the ratio its last decision used
        power_feedback = []

        def invocation():
            wanted = schedule.state_at(app.now)
            if app.active_state_name != wanted:
                app.switch_state(wanted)
            return app.run_once()

        while app.now < schedule.duration_s:
            records.append(timer.time(invocation))
            power_feedback.append(asrtm.adjustment("power"))
        switches = sum(
            1
            for before, after in zip(records, records[1:])
            if (before.compiler, before.threads, before.binding)
            != (after.compiler, after.threads, after.binding)
        )
        return timer.output(
            switches=switches,
            energy_j=sum(record.energy_j for record in records),
            payload=(app, records, power_feedback),
        )

    def check(self, output: PassOutput, checks: Checks) -> None:
        app, records, power_feedback = output.payload  # type: ignore[misc]
        failure = ""
        try:
            EnergyLedger.from_timeline(build_timeline(app, records)).verify(records)
        except LedgerConservationError as error:
            failure = f"energy ledger does not close: {error}"
        checks.expect(not failure, failure)
        knowledge = self.build.exploration.knowledge
        over_cap = 0
        wrong_state = 0
        for record, feedback in zip(records, power_feedback):
            started = record.timestamp - record.time_s
            if record.state != self.schedule.state_at(started):
                wrong_state += 1
            if record.state == STATE_CAPPED:
                point = knowledge.find(
                    compiler=record.compiler,
                    threads=record.threads,
                    binding=record.binding,
                )
                if point.metric("power").mean * feedback > self.cap_w:
                    over_cap += 1
        checks.expect(
            wrong_state == 0, f"{wrong_state} invocations ran outside their scheduled state"
        )
        checks.expect(
            over_cap == 0,
            f"{over_cap} capped invocations chose a point over the {self.cap_w} W cap",
        )
        checks.expect(
            any(record.state == STATE_CAPPED for record in records),
            "the schedule never reached the capped state",
        )
        summary = {"trace_sha256": sha256_json([astuple(r) for r in records])}
        self._check_repeatable(summary, checks)
        if self.pinned is not None:
            checks.expect(
                summary == self.pinned, "adapt_loop trace digest differs from the pinned value"
            )


class DsePrune(Workload):
    """Source to statically pruned Pareto front, app by app."""

    name = "dse_prune"
    #: app name -> exact unpruned front, from the latest set-up
    reference: Optional[Dict[str, object]] = None

    def setup(self, checks: Checks) -> None:
        self.apps = [load(name) for name in self.size.apps]
        self.space = DesignSpace(
            compiler_configs=standard_levels(),
            thread_counts=list(self.size.thread_counts or range(1, 33)),
        )
        reference = {app.name: front_key(self._front(app, pruned=False)[1]) for app in self.apps}
        if self.reference is not None:
            checks.expect(
                self.reference == reference, "unpruned reference fronts differ between set-ups"
            )
        self.reference = reference

    def _front(self, app, pruned: bool):
        """(engine, Pareto front, prune plan or None) of one app, from a
        fresh engine: the noise stream is positional, so a shared engine
        would hand each app different draws."""
        engine = EvaluationEngine(executor=MachineExecutor(resolve_machine(None), seed=self.seed))
        profile = engine.profile(app)
        plan = (
            build_prune_plan(app, self.space, machine=engine.machine, profile=profile)
            if pruned
            else None
        )
        explorer = DesignSpaceExplorer(
            engine.compiler,
            engine.executor,
            engine.omp,
            repetitions=self.size.dse_repetitions,
            engine=engine,
        )
        result = explorer.explore(profile, self.space, prune_plan=plan)
        return engine, pareto_front(result.knowledge, PARETO_OBJECTIVES), plan

    def run_pass(self) -> PassOutput:
        timer = OpTimer()
        engines = []
        results = []
        for app in self.apps:
            engine, front, plan = timer.time(lambda: self._front(app, pruned=True))
            engines.append(engine.counters)
            results.append((app.name, front, plan))
        return timer.output(engines=engines, payload=results)

    def check(self, output: PassOutput, checks: Checks) -> None:
        for name, front, plan in output.payload:  # type: ignore[union-attr]
            checks.expect(
                front_key(front) == self.reference[name],
                f"{name}: pruned Pareto front differs from the unpruned reference",
            )
            document = plan.as_dict()
            round_trip = PrunePlan.from_dict(json.loads(json.dumps(document))).as_dict()
            checks.expect(round_trip == document, f"{name}: PrunePlan JSON round-trip differs")


WORKLOADS = {cls.name: cls for cls in (SuiteBuild, AdaptLoop, DsePrune)}


def front_key(front: Sequence) -> List[Tuple[object, ...]]:
    """Exact identity of a Pareto front: knobs plus every metric's
    mean and std, in front order."""
    return [
        (
            tuple(sorted(point.knobs.items())),
            tuple((name, s.mean, s.std) for name, s in sorted(point.metrics.items())),
        )
        for point in front
    ]


def make_schedule(seed: int, duration_s: float) -> Scenario:
    """A seeded requirement schedule over :data:`STATES`.

    Each state gets the same total virtual time, split unevenly over
    :data:`PHASES_PER_STATE` phases; the seed draws the order (never the
    same state twice in a row) and the split.  Equal totals keep the
    work of a pass comparable across seeds.
    """
    rng = random.Random(seed)
    while True:
        order = list(STATES) * PHASES_PER_STATE
        rng.shuffle(order)
        if all(a != b for a, b in zip(order, order[1:])):
            break
    share = duration_s / len(STATES)
    lengths = {}
    for state in STATES:
        weights = [rng.uniform(1.0, 2.0) for _ in range(PHASES_PER_STATE)]
        lengths[state] = [share * weight / sum(weights) for weight in weights]
    phases = []
    start = 0.0
    for state in order:
        phases.append(Phase(start, state))
        start += lengths[state].pop()
    return Scenario(phases=phases, duration_s=duration_s)
