"""The DSE driver: profile the autotuning space into a knowledge base.

For every selected design point (compiler configuration, thread count,
binding policy) the explorer measures the kernel ``repetitions`` times
on the simulated machine (as mARGOt's profiling task does on the real
one) and stores mean/std of each EFP as an operating point.

The measurements themselves run through the shared
:class:`~repro.engine.EvaluationEngine` — compilation is memoized per
configuration, and the engine's backend decides whether design points
are evaluated serially or sharded across a process pool.  The
``DesignPoint`` / ``DesignSpace`` / ``ProfiledSample`` types are
re-exported from :mod:`repro.engine.model` for compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.dse.strategies import FullFactorialStrategy, SamplingStrategy
from repro.engine.core import EvaluationEngine
from repro.engine.model import DesignPoint, DesignSpace, ProfiledSample
from repro.gcc.compiler import Compiler
from repro.machine.executor import MachineExecutor
from repro.machine.openmp import OpenMPRuntime
from repro.margot.knowledge import KnowledgeBase, MetricStats, OperatingPoint
from repro.polybench.workload import WorkloadProfile

__all__ = [
    "DesignPoint",
    "DesignSpace",
    "DesignSpaceExplorer",
    "ExplorationResult",
    "ProfiledSample",
    "KNOB_BINDING",
    "KNOB_CLUSTER",
    "KNOB_COMPILER",
    "KNOB_THREADS",
]

#: Names of the knobs every SOCRATES operating point carries.
KNOB_COMPILER = "compiler"
KNOB_THREADS = "threads"
KNOB_BINDING = "binding"
#: The fourth knob, present only on heterogeneous machines (operating
#: points from an unpinned, whole-machine run omit it entirely so the
#: paper's three-knob knowledge bases stay unchanged).
KNOB_CLUSTER = "cluster"


@dataclass
class ExplorationResult:
    """Everything the DSE produced for one kernel."""

    kernel: str
    knowledge: KnowledgeBase
    samples: List[ProfiledSample]
    explored_points: int
    space_size: int
    pruned_points: int = 0

    @property
    def coverage(self) -> float:
        return self.explored_points / self.space_size if self.space_size else 0.0


class DesignSpaceExplorer:
    """Profiles design points on the simulated machine."""

    def __init__(
        self,
        compiler: Compiler,
        executor: MachineExecutor,
        omp: OpenMPRuntime,
        repetitions: int = 5,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        """``engine`` shares caches with other measurement consumers;
        when omitted, a private engine wraps the given components."""
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        self._engine = engine or EvaluationEngine(
            compiler=compiler, executor=executor, omp=omp
        )
        self._compiler = self._engine.compiler
        self._executor = self._engine.executor
        self._omp = self._engine.omp
        self._repetitions = repetitions

    @property
    def engine(self) -> EvaluationEngine:
        return self._engine

    def explore(
        self,
        profile: WorkloadProfile,
        space: DesignSpace,
        strategy: Optional[SamplingStrategy] = None,
        seed: int = 0xD5E,
        prune_plan=None,
    ) -> ExplorationResult:
        """Profile ``profile`` over ``space`` and build the knowledge base.

        ``prune_plan`` (a :class:`repro.analysis.cost.PrunePlan`) masks
        statically-dominated points: they keep their position in the
        noise stream — so surviving samples are bit-identical to an
        unpruned run — but are never compiled or measured.  Each
        masked point leaves one audit record in the engine's
        observability log.
        """
        strategy = strategy or FullFactorialStrategy()
        rng = np.random.default_rng(seed)
        selected = strategy.select(space.points(), rng)
        mask = None
        pruned = 0
        if prune_plan is not None:
            mask = [prune_plan.is_masked(point) for point in selected]
            pruned = sum(mask)
            self._record_prunes(profile, selected, mask, prune_plan)
        tracer = self._engine.obs.tracer
        with tracer.span(
            "dse.explore",
            kernel=profile.kernel,
            strategy=type(strategy).__name__,
            space_size=space.size,
            selected=len(selected),
            pruned=pruned,
            repetitions=self._repetitions,
        ):
            samples = self._engine.evaluate(
                profile, selected, repetitions=self._repetitions, mask=mask
            )
            knowledge = self._knowledge(samples)
        return ExplorationResult(
            kernel=profile.kernel,
            knowledge=knowledge,
            samples=samples,
            explored_points=len(selected) - pruned,
            space_size=space.size,
            pruned_points=pruned,
        )

    def _record_prunes(self, profile, selected, mask, plan) -> None:
        """One audit record per masked point."""
        from repro.analysis.cost import point_key
        from repro.obs.audit import PruneTrace

        audit = self._engine.obs.audit
        if audit is None:  # observability disabled: nothing to record to
            return
        for point, masked in zip(selected, mask):
            if not masked:
                continue
            record = plan.masked[point_key(point)]
            audit.record_prune(
                PruneTrace(
                    kernel=profile.kernel,
                    point=record.key,
                    rule="COST001",
                    reason=record.reason,
                    dominated_by=record.dominated_by,
                    predicted_time_s=record.predicted_time_s,
                    predicted_power_w=record.predicted_power_w,
                )
            )

    # -- internals ----------------------------------------------------------

    def _knowledge(self, samples: List[ProfiledSample]) -> KnowledgeBase:
        """One operating point per sample.  Each metric's mean and std
        are taken over its (points x repetitions) matrix at once; the
        row reductions give the bits of per-sample ``mean``/``std``."""
        shape = (len(samples), self._repetitions)
        times = np.array([s.times for s in samples], dtype=float).reshape(shape)
        powers = np.array([s.powers for s in samples], dtype=float).reshape(shape)
        columns = {}
        for name, values in (
            ("time", times),
            ("throughput", 1.0 / times),
            ("power", powers),
            ("energy", times * powers),
        ):
            means = values.mean(axis=1).tolist()
            stds = (
                values.std(axis=1, ddof=1).tolist()
                if self._repetitions > 1
                else [0.0] * len(samples)
            )
            columns[name] = [MetricStats(mean=m, std=s) for m, s in zip(means, stds)]
        knowledge = KnowledgeBase()
        for index, sample in enumerate(samples):
            knobs = {
                KNOB_COMPILER: sample.point.compiler.label,
                KNOB_THREADS: sample.point.threads,
                KNOB_BINDING: sample.point.binding.value,
            }
            if sample.point.cluster is not None:
                knobs[KNOB_CLUSTER] = sample.point.cluster
            knowledge.add(
                OperatingPoint(
                    knobs=knobs,
                    metrics={name: column[index] for name, column in columns.items()},
                )
            )
        return knowledge
