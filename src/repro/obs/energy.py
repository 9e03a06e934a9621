"""`repro.obs.energy` — the virtual-RAPL energy observatory.

SOCRATES is an *energy-aware* autotuner, but a runtime trace only
carries one scalar (``power_w`` / ``energy_j``) per invocation.  This
module reconstructs where the joules went:

* :func:`build_timeline` turns an adaptive application's
  :class:`~repro.core.adaptive.InvocationRecord` trace into a
  virtual-time ``power(t)`` step series per RAPL-style domain
  (package / core / uncore / DRAM), with idle floors filling any gaps
  between invocations.  The per-domain split comes from
  :meth:`~repro.machine.executor.MachineExecutor.breakdown` — the same
  model terms the invocation actually executed with — scaled so the
  package plane matches the *measured* (noisy) power exactly;
* :class:`EnergyTimeline` exports the series as Chrome ``counter``
  events (Perfetto renders power tracks alongside the span tree), as
  cumulative Prometheus ``socrates_energy_joules_total{domain=,kernel=}``
  counters, and as a CSV timeline;
* :class:`EnergyLedger` books the joules onto (kernel × compiler ×
  threads × binding) operating points, the idle floor, and (optionally)
  the toolflow's build stages, with a conservation invariant — every
  entry's component domains sum to its package energy, and entries sum
  to the totals — enforced by :meth:`EnergyLedger.verify` and by
  ``socrates obs validate``;
* :class:`EnergyBudget` / :func:`check_budgets` watch the Figure 4
  power/energy budgets over a timeline and emit violation alerts into
  the metrics registry and the adaptation audit log (as
  :class:`~repro.obs.audit.SloTrace` records); ``socrates energy slo``
  turns the verdicts into a ``bench gate``-style exit code (0 met,
  3 violated).

Everything here is post-hoc and deterministic: building a timeline or
ledger consumes no random stream, so a seeded run is byte-identical
with the energy observatory on or off.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.machine.power import COMPONENT_DOMAINS, DOMAINS, invocation_energy

PathLike = Union[str, Path]

#: Schema identifier of the exported ledger document.
LEDGER_SCHEMA = "socrates-energy/1"

#: Conservation tolerance (absolute joules / relative), mirroring the
#: acceptance bound: per-domain sums must match package totals to 1e-9.
CONSERVATION_TOL = 1e-9

#: Virtual-time gaps shorter than this are measurement jitter, not idle.
_GAP_EPS_S = 1e-12


def _domain_zeros() -> Dict[str, float]:
    return {domain: 0.0 for domain in DOMAINS}


def _add_domains(into: Dict[str, float], add: Mapping[str, float]) -> None:
    """Accumulate per-domain values, growing ``into`` as needed.

    Machine-wide domains are always present; per-cluster planes
    (``"P:package"``-style keys from heterogeneous machines) appear
    only when the source carries them.
    """
    for domain, value in add.items():
        into[domain] = into.get(domain, 0.0) + value


def _extra_domains(mappings: Sequence[Mapping[str, float]]) -> List[str]:
    """Ordered distinct keys beyond :data:`DOMAINS` (cluster planes)."""
    extras: List[str] = []
    for mapping in mappings:
        for domain in mapping:
            if domain not in DOMAINS and domain not in extras:
                extras.append(domain)
    return extras


@dataclass(frozen=True)
class EnergySample:
    """One piecewise-constant segment of the reconstructed power(t)."""

    start_s: float
    end_s: float
    kind: str  # "active" | "idle"
    kernel: str
    power_w: Mapping[str, float]  # per domain, package included
    compiler: str = ""
    threads: int = 0
    binding: str = ""
    cluster: str = ""

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def energy_j(self) -> Dict[str, float]:
        """Joules per domain over this segment."""
        return {
            domain: invocation_energy(self.duration_s, watts)
            for domain, watts in self.power_w.items()
        }


class EnergyTimeline:
    """The reconstructed per-domain power(t) series of one trace."""

    def __init__(self, kernel: str, samples: Sequence[EnergySample]) -> None:
        self.kernel = kernel
        self.samples: List[EnergySample] = sorted(
            samples, key=lambda s: (s.start_s, s.end_s)
        )

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def start_s(self) -> float:
        return self.samples[0].start_s if self.samples else 0.0

    @property
    def end_s(self) -> float:
        return self.samples[-1].end_s if self.samples else 0.0

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def domains(self) -> List[str]:
        """Every power plane of this timeline: the machine-wide RAPL
        domains plus, on heterogeneous machines, one plane per
        (cluster, domain) pair."""
        return list(DOMAINS) + _extra_domains(
            [sample.power_w for sample in self.samples]
        )

    def totals_j(self) -> Dict[str, float]:
        """Total joules per domain over the whole timeline."""
        totals = _domain_zeros()
        for sample in self.samples:
            _add_domains(totals, sample.energy_j())
        return totals

    def mean_power_w(self) -> Dict[str, float]:
        """Time-averaged watts per domain."""
        duration = self.duration_s
        if duration <= 0:
            return _domain_zeros()
        return {
            domain: joules / duration for domain, joules in self.totals_j().items()
        }

    def peak_power_w(self, domain: str = "package") -> float:
        """Highest instantaneous power of one domain."""
        return max(
            (sample.power_w.get(domain, 0.0) for sample in self.samples),
            default=0.0,
        )

    # -- exports ---------------------------------------------------------------

    def counter_events(self, pid: int = 1) -> List[Dict[str, object]]:
        """Chrome ``trace_event`` counter events (``"ph": "C"``).

        One ``power.<domain>`` counter track per domain; a value event
        at each segment start plus a closing zero at the end of the
        timeline, so Perfetto draws the step series exactly.
        Timestamps are the scenario's *virtual* microseconds.
        """
        events: List[Dict[str, object]] = []
        for domain in self.domains():
            name = f"power.{domain}"
            for sample in self.samples:
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": round(sample.start_s * 1e6, 3),
                        "pid": pid,
                        "args": {"W": round(sample.power_w.get(domain, 0.0), 6)},
                    }
                )
            if self.samples:
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": round(self.end_s * 1e6, 3),
                        "pid": pid,
                        "args": {"W": 0.0},
                    }
                )
        return events

    def to_csv(self, path: PathLike) -> int:
        """Write the timeline as CSV; returns the number of rows.

        Cluster-plane columns (and the ``cluster`` knob column) appear
        only on timelines that carry them, keeping homogeneous-machine
        files byte-identical.
        """
        domains = self.domains()
        clustered = len(domains) > len(DOMAINS)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            knob_columns = ["start_s", "end_s", "kind", "compiler", "threads", "binding"]
            if clustered:
                knob_columns.append("cluster")
            writer.writerow(knob_columns + [f"{domain}_w" for domain in domains])
            for sample in self.samples:
                row = [
                    repr(float(sample.start_s)),
                    repr(float(sample.end_s)),
                    sample.kind,
                    sample.compiler,
                    sample.threads,
                    sample.binding,
                ]
                if clustered:
                    row.append(sample.cluster)
                writer.writerow(
                    row
                    + [
                        repr(float(sample.power_w.get(domain, 0.0)))
                        for domain in domains
                    ]
                )
        return len(self.samples)

    def record_metrics(self, metrics) -> None:
        """Mirror the timeline into a metrics registry.

        Cumulative ``socrates_energy_joules_total{domain=,kernel=}``
        counters plus ``socrates_power_watts{domain=,kernel=}`` mean
        gauges — the series ``socrates obs top`` renders as the energy
        meter row.
        """
        totals = self.totals_j()
        means = self.mean_power_w()
        for domain in self.domains():
            labels = {"domain": domain, "kernel": self.kernel}
            metrics.counter(
                "socrates_energy_joules_total",
                help="energy attributed by the virtual-RAPL observatory",
                labels=labels,
            ).inc(totals[domain])
            metrics.gauge(
                "socrates_power_watts",
                help="time-averaged power over the reconstructed timeline",
                labels=labels,
            ).set(means[domain])


def attribute_record(app, record) -> Dict[str, float]:
    """Per-domain watts of one :class:`InvocationRecord`.

    Re-derives the (compiled kernel, placement) the record dispatched
    to, reads the noise-free domain breakdown, and scales the component
    planes so the package plane equals the record's *measured* power
    exactly (meter noise is multiplicative, so it scales all domains
    alike).
    """
    version, placement = app.resolve(
        record.compiler,
        record.binding,
        record.threads,
        getattr(record, "cluster", "") or None,
    )
    breakdown = app.executor.breakdown(version.compiled, placement)
    truth_package = breakdown.package_w
    scale = record.power_w / truth_package if truth_package > 0 else 0.0
    power = {"package": record.power_w}
    for domain in COMPONENT_DOMAINS:
        power[domain] = breakdown.domain(domain) * scale
    if len(breakdown.cluster_names()) >= 2:
        for plane, watts in breakdown.cluster_totals().items():
            power[plane] = watts * scale
    return power


def build_timeline(app, records, include_idle: bool = True) -> EnergyTimeline:
    """Reconstruct the per-domain power(t) series of a trace.

    ``records`` is the invocation trace of ``app`` (an
    :class:`~repro.core.adaptive.AdaptiveApplication`); each record's
    ``timestamp`` is its *end* time and ``time_s`` its duration, so the
    active segments tile virtual time.  With ``include_idle``, any gap
    between consecutive invocations is filled with the machine's idle
    floor (uncore + idle core leakage, zero DRAM).
    """
    idle_breakdown = app.executor.idle_breakdown()
    idle_power = idle_breakdown.totals()
    if len(idle_breakdown.cluster_names()) >= 2:
        idle_power.update(idle_breakdown.cluster_totals())
    samples: List[EnergySample] = []
    previous_end: Optional[float] = None
    for record in records:
        start = record.timestamp - record.time_s
        if (
            include_idle
            and previous_end is not None
            and start - previous_end > _GAP_EPS_S
        ):
            samples.append(
                EnergySample(
                    start_s=previous_end,
                    end_s=start,
                    kind="idle",
                    kernel=app.name,
                    power_w=dict(idle_power),
                )
            )
        samples.append(
            EnergySample(
                start_s=start,
                end_s=record.timestamp,
                kind="active",
                kernel=app.name,
                power_w=attribute_record(app, record),
                compiler=record.compiler,
                threads=record.threads,
                binding=record.binding,
                cluster=getattr(record, "cluster", ""),
            )
        )
        previous_end = record.timestamp
    return EnergyTimeline(kernel=app.name, samples=samples)


# -- the attribution ledger ---------------------------------------------------


@dataclass
class LedgerEntry:
    """Joules booked to one operating point (or the idle floor)."""

    kernel: str
    compiler: str
    threads: int
    binding: str
    kind: str = "active"  # "active" | "idle"
    cluster: str = ""
    invocations: int = 0
    time_s: float = 0.0
    energy_j: Dict[str, float] = field(default_factory=_domain_zeros)

    @property
    def key(self) -> Tuple[object, ...]:
        base = (self.kernel, self.compiler, self.threads, self.binding)
        return base + ((self.cluster,) if self.cluster else ())

    def as_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "kernel": self.kernel,
            "compiler": self.compiler,
            "threads": self.threads,
            "binding": self.binding,
            "kind": self.kind,
            "invocations": self.invocations,
            "time_s": self.time_s,
            "energy_j": dict(self.energy_j),
        }
        if self.cluster:
            document["cluster"] = self.cluster
        return document


@dataclass
class StageEnergy:
    """Host-side energy booked to one toolflow stage."""

    stage: str
    time_s: float
    energy_j: Dict[str, float] = field(default_factory=_domain_zeros)

    def as_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "time_s": self.time_s,
            "energy_j": dict(self.energy_j),
        }


class LedgerConservationError(ValueError):
    """The ledger's domain sums do not match its package totals."""


class EnergyLedger:
    """Books a timeline's joules onto operating points and stages.

    Two invariants, checked by :meth:`verify`:

    * **domain closure** — for every entry and for the totals,
      ``core + uncore + dram == package`` within ``1e-9`` (relative);
    * **additivity** — entries sum to :meth:`totals_j`, and the package
      total equals the trace's own ``sum(energy_j)``.
    """

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.duration_s = 0.0
        self._entries: Dict[Tuple[object, ...], LedgerEntry] = {}
        self._idle = LedgerEntry(
            kernel=kernel, compiler="", threads=0, binding="", kind="idle"
        )
        self._stages: List[StageEnergy] = []

    # -- building --------------------------------------------------------------

    @classmethod
    def from_timeline(
        cls,
        timeline: EnergyTimeline,
        stage_events=None,
        idle_power_w: Optional[Mapping[str, float]] = None,
    ) -> "EnergyLedger":
        """Aggregate a timeline; optionally book toolflow stages too.

        ``stage_events`` are the build's
        :class:`~repro.engine.telemetry.StageEvent` records;
        their (host-side) energy is modeled as the idle floor
        ``idle_power_w`` held for the stage's wall time — toolflow
        stages run on the host, not the simulated kernel, so the idle
        plane is the honest attribution.
        """
        ledger = cls(kernel=timeline.kernel)
        ledger.duration_s = timeline.duration_s
        for sample in timeline.samples:
            ledger.add_sample(sample)
        for event in stage_events or ():
            ledger.add_stage(
                event.stage, event.wall_time_s, idle_power_w or _domain_zeros()
            )
        return ledger

    def add_sample(self, sample: EnergySample) -> None:
        if sample.kind == "idle":
            entry = self._idle
        else:
            cluster = getattr(sample, "cluster", "")
            key = (
                sample.kernel,
                sample.compiler,
                sample.threads,
                sample.binding,
                cluster,
            )
            entry = self._entries.get(key)
            if entry is None:
                entry = LedgerEntry(
                    kernel=sample.kernel,
                    compiler=sample.compiler,
                    threads=sample.threads,
                    binding=sample.binding,
                    cluster=cluster,
                )
                self._entries[key] = entry
            entry.invocations += 1
        entry.time_s += sample.duration_s
        _add_domains(entry.energy_j, sample.energy_j())

    def add_stage(
        self, stage: str, wall_time_s: float, power_w: Mapping[str, float]
    ) -> None:
        self._stages.append(
            StageEnergy(
                stage=stage,
                time_s=wall_time_s,
                energy_j={
                    domain: invocation_energy(wall_time_s, power_w.get(domain, 0.0))
                    for domain in DOMAINS
                },
            )
        )

    # -- reading ---------------------------------------------------------------

    @property
    def entries(self) -> List[LedgerEntry]:
        """Operating-point entries, most joules first."""
        return sorted(
            self._entries.values(), key=lambda e: -e.energy_j["package"]
        )

    @property
    def idle(self) -> LedgerEntry:
        return self._idle

    @property
    def stages(self) -> List[StageEnergy]:
        return list(self._stages)

    def totals_j(self) -> Dict[str, float]:
        """Runtime joules per domain (operating points + idle floor)."""
        totals = _domain_zeros()
        for entry in self._entries.values():
            _add_domains(totals, entry.energy_j)
        _add_domains(totals, self._idle.energy_j)
        return totals

    def stage_totals_j(self) -> Dict[str, float]:
        """Host-side joules per domain across the toolflow stages."""
        totals = _domain_zeros()
        for stage in self._stages:
            _add_domains(totals, stage.energy_j)
        return totals

    # -- invariants ------------------------------------------------------------

    def verify(self, records=None, tolerance: float = CONSERVATION_TOL) -> None:
        """Raise :class:`LedgerConservationError` on any broken invariant.

        With ``records`` (the source trace), additionally checks that
        the booked package joules equal the trace's own energy — and
        that every record's ``energy_j`` is consistent with
        ``invocation_energy(time_s, power_w)``.
        """
        for entry in list(self._entries.values()) + [self._idle]:
            _check_domain_closure(entry.energy_j, f"entry {entry.key}", tolerance)
        for stage in self._stages:
            _check_domain_closure(
                stage.energy_j, f"stage {stage.stage!r}", tolerance
            )
        totals = self.totals_j()
        _check_domain_closure(totals, "totals", tolerance)
        _check_domain_closure(self.stage_totals_j(), "stage totals", tolerance)
        if records is not None:
            trace_j = 0.0
            for index, record in enumerate(records):
                expected = invocation_energy(record.time_s, record.power_w)
                if abs(record.energy_j - expected) > tolerance * max(
                    1.0, abs(expected)
                ):
                    raise LedgerConservationError(
                        f"trace record {index}: energy_j={record.energy_j!r} "
                        f"inconsistent with time_s*power_w={expected!r}"
                    )
                trace_j += record.energy_j
            active_j = sum(
                entry.energy_j["package"] for entry in self._entries.values()
            )
            if abs(active_j - trace_j) > tolerance * max(1.0, abs(trace_j)):
                raise LedgerConservationError(
                    f"ledger books {active_j!r} J onto operating points but the "
                    f"trace measured {trace_j!r} J"
                )

    # -- export ----------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": LEDGER_SCHEMA,
            "kernel": self.kernel,
            "duration_s": self.duration_s,
            "totals_j": self.totals_j(),
            "operating_points": [entry.as_dict() for entry in self.entries],
            "idle": self._idle.as_dict(),
            "stages": [stage.as_dict() for stage in self._stages],
            "stage_totals_j": self.stage_totals_j(),
        }

    def as_text(self) -> str:
        """The ledger document as the JSON file ``obs validate`` reads."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path: PathLike) -> Path:
        """Write :meth:`as_text` to ``path``."""
        target = Path(path)
        with open(target, "w") as handle:
            handle.write(self.as_text())
        return target


def _check_domain_closure(
    energy: Mapping[str, float], label: str, tolerance: float
) -> None:
    package = energy.get("package", 0.0)
    components = sum(energy.get(domain, 0.0) for domain in COMPONENT_DOMAINS)
    if abs(components - package) > tolerance * max(1.0, abs(package)):
        raise LedgerConservationError(
            f"{label}: domain sum {components!r} J != package {package!r} J "
            f"(tolerance {tolerance:g})"
        )
    # the same invariant holds within every cluster plane ("P:core" +
    # "P:uncore" + "P:dram" == "P:package"), and the cluster packages
    # must themselves tile the machine-wide package
    clusters = []
    for key in energy:
        if ":" in key:
            prefix = key.split(":", 1)[0]
            if prefix not in clusters:
                clusters.append(prefix)
    if not clusters:
        return
    cluster_package_sum = 0.0
    for prefix in clusters:
        cluster_package = energy.get(f"{prefix}:package", 0.0)
        cluster_components = sum(
            energy.get(f"{prefix}:{domain}", 0.0) for domain in COMPONENT_DOMAINS
        )
        if abs(cluster_components - cluster_package) > tolerance * max(
            1.0, abs(cluster_package)
        ):
            raise LedgerConservationError(
                f"{label}: cluster {prefix!r} domain sum {cluster_components!r} J "
                f"!= cluster package {cluster_package!r} J (tolerance {tolerance:g})"
            )
        cluster_package_sum += cluster_package
    if abs(cluster_package_sum - package) > tolerance * max(1.0, abs(package)):
        raise LedgerConservationError(
            f"{label}: cluster packages sum to {cluster_package_sum!r} J "
            f"!= machine package {package!r} J (tolerance {tolerance:g})"
        )


# -- budget SLOs --------------------------------------------------------------


@dataclass(frozen=True)
class EnergyBudget:
    """A declared power/energy budget (the Figure 4 sweep values).

    Any subset of the three limits may be set: ``power_w`` caps the
    time-averaged power, ``peak_power_w`` the instantaneous power of
    any segment, ``energy_j`` the total joules.  ``domain`` selects the
    power plane the limits apply to — ``"package"`` (default) for the
    machine-wide budget, a RAPL component, or a per-cluster plane such
    as ``"P:package"`` on heterogeneous machines.
    """

    name: str
    power_w: Optional[float] = None
    peak_power_w: Optional[float] = None
    energy_j: Optional[float] = None
    domain: str = "package"

    def __post_init__(self) -> None:
        if self.power_w is None and self.peak_power_w is None and self.energy_j is None:
            raise ValueError(f"budget {self.name!r} declares no limit")


@dataclass(frozen=True)
class BudgetVerdict:
    """One budget checked against one timeline."""

    budget: EnergyBudget
    mean_power_w: float
    peak_power_w: float
    total_energy_j: float
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def message(self) -> str:
        if self.ok:
            return (
                f"budget {self.budget.name!r}: met "
                f"(mean {self.mean_power_w:.1f} W, peak {self.peak_power_w:.1f} W, "
                f"{self.total_energy_j:.1f} J)"
            )
        return f"budget {self.budget.name!r}: VIOLATED ({'; '.join(self.violations)})"

    def as_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "budget": self.budget.name,
            "power_w": self.budget.power_w,
            "peak_power_w": self.budget.peak_power_w,
            "energy_j": self.budget.energy_j,
            "mean_power_w": self.mean_power_w,
            "observed_peak_power_w": self.peak_power_w,
            "total_energy_j": self.total_energy_j,
            "ok": self.ok,
            "violations": list(self.violations),
        }
        if self.budget.domain != "package":
            document["domain"] = self.budget.domain
        return document


def check_budgets(
    timeline: EnergyTimeline,
    budgets: Sequence[EnergyBudget],
    metrics=None,
    audit=None,
) -> List[BudgetVerdict]:
    """Evaluate budgets over a timeline; emit alerts on violation.

    Violations increment
    ``socrates_energy_budget_violations_total{budget=,kernel=}`` in
    ``metrics`` and append an :class:`~repro.obs.audit.SloTrace` to
    ``audit`` — the same audit log that explains the adaptation
    decisions the violation may have been caused by.
    """
    all_means = timeline.mean_power_w()
    all_totals = timeline.totals_j()
    verdicts: List[BudgetVerdict] = []
    for budget in budgets:
        domain = budget.domain
        mean = all_means.get(domain, 0.0)
        peak = timeline.peak_power_w(domain)
        total = all_totals.get(domain, 0.0)
        plane = "" if domain == "package" else f"{domain} "
        violations: List[str] = []
        if budget.power_w is not None and mean > budget.power_w:
            violations.append(
                f"mean {plane}power {mean:.2f} W exceeds budget {budget.power_w:.2f} W"
            )
        if budget.peak_power_w is not None and peak > budget.peak_power_w:
            violations.append(
                f"peak {plane}power {peak:.2f} W exceeds budget "
                f"{budget.peak_power_w:.2f} W"
            )
        if budget.energy_j is not None and total > budget.energy_j:
            violations.append(
                f"{plane}energy {total:.2f} J exceeds budget {budget.energy_j:.2f} J"
            )
        verdict = BudgetVerdict(
            budget=budget,
            mean_power_w=mean,
            peak_power_w=peak,
            total_energy_j=total,
            violations=tuple(violations),
        )
        verdicts.append(verdict)
        if verdict.violations:
            if metrics is not None:
                metrics.counter(
                    "socrates_energy_budget_violations_total",
                    help="declared power/energy budgets violated by a timeline",
                    labels={"budget": budget.name, "kernel": timeline.kernel},
                ).inc(len(verdict.violations))
            if audit is not None:
                from repro.obs.audit import SloTrace

                audit.record_slo(
                    SloTrace(
                        budget=budget.name,
                        kernel=timeline.kernel,
                        mean_power_w=mean,
                        peak_power_w=peak,
                        total_energy_j=total,
                        violations=tuple(verdict.violations),
                    )
                )
    return verdicts
