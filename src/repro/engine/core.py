"""The unified evaluation engine: one compile→place→run path.

Every layer that needs a measurement — the SOCRATES toolflow, the
design-space explorer and the COBAYN corpus builder — shares one
:class:`EvaluationEngine`.  The engine owns:

* the **compile cache** — one compilation per distinct
  ``(WorkloadProfile, FlagConfiguration.label)`` pair;
* the **profile cache** — one parse + workload analysis per app;
* the **batched evaluation API** — :meth:`evaluate` turns a list of
  design points into :class:`ProfiledSample` measurements through a
  pluggable backend (serial by default, process pool optionally);
* the **counters** the telemetry layer snapshots per pipeline stage.

Determinism contract: model truths are pure functions of
``(kernel, placement)``, and measurement noise is drawn from the
executor's single seeded stream in canonical point order — one vector
draw per call with the values of the historical per-run pairs — *before*
truths are computed.  Serial and process-pool backends therefore
produce bit-identical samples, and both reproduce the pre-engine
hand-rolled loops byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.backends import ProcessPoolBackend, SerialBackend, Truth, WorkItem
from repro.engine.caching import CompileCache, CompileKey, ProfileCache
from repro.engine.model import DesignPoint, ProfiledSample
from repro.gcc.compiler import CompiledKernel, Compiler
from repro.gcc.flags import FlagConfiguration
from repro.machine.executor import MachineExecutor
from repro.machine.openmp import OpenMPRuntime
from repro.machine.registry import resolve_machine
from repro.machine.topology import Machine
from repro.milepost.features import FeatureVector
from repro.obs import NULL_OBS, Observability
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS
from repro.polybench.apps.base import BenchmarkApp
from repro.polybench.workload import WorkloadProfile


@dataclass(frozen=True)
class EngineCounters:
    """Snapshot of the engine's monotonic counters."""

    compile_hits: int
    compile_misses: int
    profile_hits: int
    profile_misses: int
    truth_hits: int
    truth_misses: int
    points_evaluated: int
    points_masked: int = 0


class EvaluationEngine:
    """Cached, batched, backend-pluggable kernel evaluation."""

    def __init__(
        self,
        compiler: Optional[Compiler] = None,
        executor: Optional[MachineExecutor] = None,
        omp: Optional[OpenMPRuntime] = None,
        machine: Union[str, Machine, None] = None,
        backend=None,
        obs: Optional[Observability] = None,
    ) -> None:
        if machine is None and executor is not None:
            machine = executor.machine
        machine = resolve_machine(machine)
        self._machine = machine
        self._compiler = compiler or Compiler()
        self._executor = executor or MachineExecutor(machine)
        self._omp = omp or OpenMPRuntime(machine)
        self._backend = backend or SerialBackend()
        self._obs = obs if obs is not None else NULL_OBS
        # instrument handles are resolved once; with the null registry
        # these are shared no-op sinks, so hot paths stay cheap
        metrics = self._obs.metrics
        self._metric_points = metrics.counter(
            "socrates_engine_points_evaluated_total",
            help="design points measured through evaluate()",
        )
        self._metric_truth_hits = metrics.counter(
            "socrates_engine_truth_cache_hits_total",
            help="truth-cache hits across evaluate() batches",
        )
        self._metric_truth_misses = metrics.counter(
            "socrates_engine_truth_cache_misses_total",
            help="truth-cache misses (model evaluations paid)",
        )
        self._metric_batch = metrics.histogram(
            "socrates_engine_batch_points",
            boundaries=DEFAULT_SIZE_BUCKETS,
            help="points per evaluate() batch",
        )
        self._metric_masked = metrics.counter(
            "socrates_engine_points_masked_total",
            help="design points skipped by a static prune mask",
        )
        self._compile_cache = CompileCache(self._compiler)
        self._profile_cache = ProfileCache()
        # model truths are pure functions of (kernel, placement): cache
        # them so repeated visits (leave-one-out corpus rebuilds, suite
        # sweeps) never re-run the machine model
        self._truth_cache: Dict[Tuple[CompileKey, int, str, Optional[str]], Truth] = {}
        self._truth_hits = 0
        self._truth_misses = 0
        self._points_evaluated = 0
        self._points_masked = 0

    # -- shared components ---------------------------------------------------

    @property
    def machine(self) -> Machine:
        return self._machine

    @property
    def compiler(self) -> Compiler:
        return self._compiler

    @property
    def executor(self) -> MachineExecutor:
        return self._executor

    @property
    def omp(self) -> OpenMPRuntime:
        return self._omp

    @property
    def backend(self):
        return self._backend

    @property
    def obs(self) -> Observability:
        return self._obs

    @property
    def compile_cache(self) -> CompileCache:
        return self._compile_cache

    @property
    def profile_cache(self) -> ProfileCache:
        return self._profile_cache

    # -- cached characterization ---------------------------------------------

    def unit(self, app: BenchmarkApp):
        """The shared read-only AST of ``app`` (parsed once)."""
        return self._profile_cache.unit(app)

    def profile(
        self, app: BenchmarkApp, kernel: Optional[str] = None
    ) -> WorkloadProfile:
        """The cached workload profile of ``app``'s kernel."""
        return self._profile_cache.profile(app, kernel)

    def features(
        self, app: BenchmarkApp, kernel: Optional[str] = None
    ) -> FeatureVector:
        """The cached Milepost feature vector of ``app``'s kernel."""
        return self._profile_cache.features(app, kernel)

    # -- cached compilation ----------------------------------------------------

    def compile(
        self, profile: WorkloadProfile, config: FlagConfiguration
    ) -> CompiledKernel:
        """Compile through the counting cache (one compile per CF)."""
        return self._compile_cache.get(profile, config)

    # -- batched evaluation ----------------------------------------------------

    def evaluate(
        self,
        profile: WorkloadProfile,
        points: Sequence[DesignPoint],
        repetitions: int = 1,
        noisy: bool = True,
        mask: Optional[Sequence[bool]] = None,
    ) -> List[ProfiledSample]:
        """Measure ``points``, ``repetitions`` times each.

        Compiles each distinct configuration exactly once, draws the
        noise factors for every (point, repetition) in canonical order
        from the executor's seeded stream, then lets the backend
        compute the noise-free truths.  ``noisy=False`` skips the
        noise draws entirely (iterative-compilation mode) and leaves
        the executor's stream untouched.

        ``mask`` (aligned with ``points``; True = skip) implements
        static pruning: masked points still consume their noise draws
        — keeping every surviving sample bit-identical to an unmasked
        run — but pay no compilation, no model evaluation, and return
        no sample.  Only unmasked points count as evaluated.
        """
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        if mask is not None and len(mask) != len(points):
            raise ValueError(
                f"mask length {len(mask)} != points length {len(points)}"
            )
        with self._obs.tracer.span(
            "engine.evaluate",
            kernel=profile.kernel,
            points=len(points),
            repetitions=repetitions,
            noisy=noisy,
            backend=self._backend.name,
        ):
            return self._evaluate(profile, points, repetitions, noisy, mask)

    def _evaluate(
        self,
        profile: WorkloadProfile,
        points: Sequence[DesignPoint],
        repetitions: int,
        noisy: bool,
        mask: Optional[Sequence[bool]] = None,
    ) -> List[ProfiledSample]:
        if mask is None:
            mask = [False] * len(points)
        kernels: Dict[str, CompiledKernel] = {}
        for point, masked in zip(points, mask):
            if masked:
                continue
            label = point.compiler.label
            if label not in kernels:
                kernels[label] = self.compile(profile, point.compiler)
        # Noise is drawn before the truths are computed, in one call:
        # the draw order (point-major, repetition-minor, time then power)
        # matches the historical interleaved run() loop, keeping the
        # stream state bit-identical while paying only one model
        # evaluation per point.  Masked points draw too — the stream
        # position of every surviving point must not depend on what was
        # pruned.
        factors = (
            self._executor.noise_array(len(points) * repetitions).reshape(
                len(points), repetitions, 2
            )
            if noisy
            else None
        )
        point_keys = [
            (
                CompileCache.key(profile, point.compiler),
                point.threads,
                point.binding.value,
                point.cluster,
            )
            if not masked
            else None
            for point, masked in zip(points, mask)
        ]
        missing: Dict[Tuple[CompileKey, int, str, Optional[str]], WorkItem] = {}
        for point, key in zip(points, point_keys):
            if key is None:
                continue
            if key not in self._truth_cache and key not in missing:
                missing[key] = (
                    kernels[point.compiler.label],
                    point.threads,
                    point.binding.value,
                    point.cluster,
                )
        if missing:
            tracer = self._obs.tracer
            # the tracer kwarg is only passed when tracing, so backends
            # predating (or ignorant of) repro.obs keep working
            extra = {"tracer": tracer} if tracer.enabled else {}
            with tracer.span(
                "backend.run_truths", items=len(missing), backend=self._backend.name
            ):
                computed = self._backend.run_truths(
                    self._executor, self._omp, list(missing.values()), **extra
                )
            for key, truth in zip(missing, computed):
                self._truth_cache[key] = truth
        kept = [index for index, key in enumerate(point_keys) if key is not None]
        surviving = len(kept)
        masked_count = len(points) - surviving
        self._truth_misses += len(missing)
        self._truth_hits += surviving - len(missing)
        self._metric_truth_misses.inc(len(missing))
        self._metric_truth_hits.inc(surviving - len(missing))
        self._metric_batch.observe(len(points))
        truths = [self._truth_cache[point_keys[index]] for index in kept]
        if factors is not None:
            # truth * factor as columns: element-wise float64 products
            # have the bits of the scalar products
            truth_columns = np.array(truths, dtype=float).reshape(surviving, 2)
            kept_factors = factors[kept]
            time_rows = (truth_columns[:, 0:1] * kept_factors[:, :, 0]).tolist()
            power_rows = (truth_columns[:, 1:2] * kept_factors[:, :, 1]).tolist()
        else:
            time_rows = [[time_truth] * repetitions for time_truth, _ in truths]
            power_rows = [[power_truth] * repetitions for _, power_truth in truths]
        samples = [
            ProfiledSample(point=points[index], times=times, powers=powers)
            for index, times, powers in zip(kept, time_rows, power_rows)
        ]
        self._points_evaluated += surviving
        self._points_masked += masked_count
        self._metric_points.inc(surviving)
        if masked_count:
            self._metric_masked.inc(masked_count)
        return samples

    # -- accounting -------------------------------------------------------------

    @property
    def counters(self) -> EngineCounters:
        return EngineCounters(
            compile_hits=self._compile_cache.stats.hits,
            compile_misses=self._compile_cache.stats.misses,
            profile_hits=self._profile_cache.stats.hits,
            profile_misses=self._profile_cache.stats.misses,
            truth_hits=self._truth_hits,
            truth_misses=self._truth_misses,
            points_evaluated=self._points_evaluated,
            points_masked=self._points_masked,
        )

    def stats(self) -> Dict[str, object]:
        """JSON-able cache/evaluation statistics."""
        return {
            "backend": self._backend.name,
            "compile_cache": {
                **self._compile_cache.stats.as_dict(),
                "entries": len(self._compile_cache),
            },
            "profile_cache": self._profile_cache.stats.as_dict(),
            "truth_cache": {
                "hits": self._truth_hits,
                "misses": self._truth_misses,
                "entries": len(self._truth_cache),
            },
            "points_evaluated": self._points_evaluated,
            "points_masked": self._points_masked,
        }
