"""The adaptive application: the runtime half of SOCRATES.

This object plays the role of the weaved, compiled adaptive binary.
Each ``run_once`` performs exactly the sequence the Autotuner strategy
weaves around the kernel wrapper:

1. ``margot_update`` — the AS-RTM picks an operating point; its knob
   values set the version control variable and the thread count;
2. the wrapper dispatches to the matching compiled version;
3. the kernel "executes" on the simulated machine, advancing the
   virtual clock;
4. monitors observe (noisy) time/throughput/power, feeding the MAPE-K
   loop for the next invocation;
5. ``margot_log`` appends a trace record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.gcc.compiler import CompiledKernel
from repro.machine.executor import ExecutionResult, MachineExecutor
from repro.machine.openmp import BindingPolicy, OpenMPRuntime, ThreadPlacement
from repro.machine.power import RaplMeter, invocation_energy
from repro.margot.knowledge import KnowledgeBase, OperatingPoint
from repro.margot.manager import MargotManager
from repro.margot.state import OptimizationState
from repro.obs import NULL_OBS, Observability


@dataclass(frozen=True)
class KernelVersion:
    """One compiled clone of the kernel (a wrapper dispatch target).

    ``cluster`` is the cluster pin baked into the version's placement
    (``None`` = whole machine, the three-knob dispatch table).
    """

    index: int
    compiled: CompiledKernel
    binding: BindingPolicy
    cluster: Optional[str] = None

    @property
    def compiler_label(self) -> str:
        return self.compiled.config.label


def version_key(
    compiler: str, binding: str, cluster: Optional[str] = None
) -> Tuple[str, ...]:
    """Dispatch-table key of one version.

    Unpinned versions keep the historical ``(compiler, binding)`` pair;
    cluster-pinned versions append the cluster name.
    """
    if cluster is None:
        return (compiler, binding)
    return (compiler, binding, cluster)


def build_version_table(
    engine,
    profile,
    configs,
    bindings: Tuple[BindingPolicy, ...] = (BindingPolicy.CLOSE, BindingPolicy.SPREAD),
    clusters: Tuple[Optional[str], ...] = (None,),
) -> Dict[Tuple[str, ...], KernelVersion]:
    """The weaved wrapper's dispatch table, built through the engine.

    One :class:`KernelVersion` per (configuration, binding, cluster);
    compilation goes through the
    :class:`~repro.engine.EvaluationEngine`'s compile cache, so
    assembling after a DSE over the same configurations costs zero
    additional compilations.  The default ``clusters=(None,)`` keeps
    the historical (configuration, binding) table.
    """
    versions: Dict[Tuple[str, ...], KernelVersion] = {}
    index = 0
    for config in configs:
        for binding in bindings:
            for cluster in clusters:
                versions[version_key(config.label, binding.value, cluster)] = (
                    KernelVersion(
                        index=index,
                        compiled=engine.compile(profile, config),
                        binding=binding,
                        cluster=cluster,
                    )
                )
                index += 1
    return versions


@dataclass(frozen=True)
class InvocationRecord:
    """One row of the runtime trace (Figure 5's signals).

    ``cluster`` is empty when the invocation ran unpinned (the
    historical trace shape).
    """

    timestamp: float
    state: str
    compiler: str
    threads: int
    binding: str
    time_s: float
    power_w: float
    energy_j: float
    cluster: str = ""

    @property
    def throughput(self) -> float:
        return 1.0 / self.time_s

    def as_dict(self) -> Dict[str, object]:
        """The fields in order, flat: what ``dataclasses.asdict`` gives
        without its per-field deep copy."""
        return {
            "timestamp": self.timestamp,
            "state": self.state,
            "compiler": self.compiler,
            "threads": self.threads,
            "binding": self.binding,
            "time_s": self.time_s,
            "power_w": self.power_w,
            "energy_j": self.energy_j,
            "cluster": self.cluster,
        }


class AdaptiveApplication:
    """The simulated adaptive binary for one kernel."""

    def __init__(
        self,
        name: str,
        versions: Mapping[Tuple[str, str], KernelVersion],
        knowledge: KnowledgeBase,
        executor: MachineExecutor,
        omp: OpenMPRuntime,
        meter: Optional[RaplMeter] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        """``versions`` maps (compiler label, binding value) to the
        compiled clone, mirroring the weaved wrapper's dispatch table.

        ``obs`` (when enabled) traces each MAPE-K iteration as a span
        tree and feeds the adaptation audit log through the AS-RTM."""
        self.name = name
        self._versions = dict(versions)
        self._obs = obs if obs is not None else NULL_OBS
        self._manager = MargotManager(
            kernel_name=name, knowledge=knowledge, obs=self._obs
        )
        self._executor = executor
        self._omp = omp
        self._meter = meter
        self._now = 0.0
        self._trace: List[InvocationRecord] = []

    # -- mARGOt wiring ----------------------------------------------------------

    @property
    def obs(self) -> Observability:
        return self._obs

    @property
    def manager(self) -> MargotManager:
        return self._manager

    def add_state(self, state: OptimizationState, activate: bool = False) -> None:
        self._manager.asrtm.add_state(state, activate=activate)

    def switch_state(self, name: str) -> None:
        self._manager.asrtm.switch_state(name)

    @property
    def active_state_name(self) -> str:
        return self._manager.asrtm.active_state.name

    # -- execution -----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated wall-clock time (seconds)."""
        return self._now

    @property
    def trace(self) -> List[InvocationRecord]:
        return list(self._trace)

    def run_once(self) -> InvocationRecord:
        """One kernel invocation through the weaved adaptive path."""
        tracer = self._obs.tracer
        with tracer.span("mapek.iteration", app=self.name, t=self._now):
            with tracer.span("margot.update"):
                point = self._manager.update(now=self._now)
            version, threads = self._dispatch(point)
            placement = self._omp.place(
                threads, version.binding, cluster=version.cluster
            )

            self._manager.start_monitor(self._now)
            with tracer.span(
                "kernel.execute",
                compiler=version.compiler_label,
                threads=threads,
                binding=version.binding.value,
            ):
                result = self._executor.run(version.compiled, placement)
            self._now += result.time_s
            measured_power = (
                self._meter.measure(result.power_w) if self._meter else result.power_w
            )
            with tracer.span("monitor.observe"):
                self._manager.stop_monitor(self._now, power_w=measured_power)
                self._manager.log(self._now)

        # energy goes through the same helper as the executor's ground
        # truth: with no meter attached, measured_power IS the
        # executor's power and the record's energy equals
        # result.energy_j bit for bit
        record = InvocationRecord(
            timestamp=self._now,
            state=self.active_state_name,
            compiler=version.compiler_label,
            threads=threads,
            binding=version.binding.value,
            time_s=result.time_s,
            power_w=measured_power,
            energy_j=invocation_energy(result.time_s, measured_power),
            cluster=version.cluster or "",
        )
        self._trace.append(record)
        # Streaming alerting hook: one attribute lookup when disabled,
        # so seeded runs stay byte-identical with alerting on or off
        # (the engine never touches any random stream).
        alerts = self._obs.alerts
        if alerts is not None:
            alerts.observe_invocation(self.name, record, self)
        return record

    def run_for(self, duration_s: float, max_invocations: int = 1_000_000) -> List[InvocationRecord]:
        """Run invocations until ``duration_s`` of virtual time elapses."""
        deadline = self._now + duration_s
        records: List[InvocationRecord] = []
        while self._now < deadline and len(records) < max_invocations:
            records.append(self.run_once())
        return records

    # -- introspection (the energy observatory's view) -----------------------------

    @property
    def executor(self) -> MachineExecutor:
        return self._executor

    @property
    def versions(self) -> Dict[Tuple[str, ...], KernelVersion]:
        """The dispatch table, keyed by :func:`version_key`."""
        return dict(self._versions)

    def resolve(
        self, compiler: str, binding: str, threads: int, cluster: Optional[str] = None
    ) -> Tuple[KernelVersion, ThreadPlacement]:
        """The compiled version and thread placement an
        :class:`InvocationRecord`'s knobs dispatch to.

        Lets a post-hoc consumer (the energy observatory) re-derive the
        exact (kernel, placement) a trace row executed, without
        re-running anything or touching a random stream.
        """
        version = self._lookup(compiler, binding, cluster)
        return version, self._omp.place(
            threads, version.binding, cluster=version.cluster
        )

    # -- internals ----------------------------------------------------------------

    def _lookup(
        self, compiler: str, binding: str, cluster: Optional[str] = None
    ) -> KernelVersion:
        try:
            return self._versions[version_key(compiler, binding, cluster)]
        except KeyError:
            raise KeyError(
                f"no compiled version for ({compiler!r}, {binding!r}, "
                f"{cluster!r}); available: {sorted(self._versions)}"
            ) from None

    def _dispatch(self, point: OperatingPoint) -> Tuple[KernelVersion, int]:
        compiler_label = str(point.knob("compiler"))
        binding = str(point.knob("binding"))
        threads = int(point.knob("threads"))  # type: ignore[call-overload]
        cluster = point.knobs.get("cluster")
        pin = str(cluster) if cluster is not None else None
        return self._lookup(compiler_label, binding, pin), threads
