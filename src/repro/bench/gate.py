"""The regression gate: fresh run vs. committed baseline.

``socrates bench gate`` re-runs a scenario and compares it against the
committed ``BENCH_<scenario>.json``:

* **wall time** and **every span name's total** are compared median
  against median by :func:`judge`, the one regression rule shared with
  ``obs trend``: a value regresses when it exceeds
  ``base.median + max(threshold * base.median, mad_k * base.mad,
  min_delta_s)`` — the relative threshold absorbs machine-to-machine
  speed differences, the MAD term absorbs the scenario's own measured
  jitter, and the absolute floor keeps microsecond-level span names
  from tripping on scheduling noise;
* the **workload fingerprint** (deterministic counters: points
  evaluated, cache misses, knowledge sizes) must match exactly — a
  mismatch means the PR changed how much work the pipeline does, which
  no timing threshold should absorb silently;
* the wall-time delta is **attributed** via the span-name diff (the
  profiling observatory's :func:`~repro.obs.profile.diff_flame` over
  per-name median totals): the verdict names the offending span, and
  the report embeds the full per-span-name diff sorted by |delta|;
* when the baseline committed per-stack medians (the profiling
  observatory's collapse, see :mod:`repro.obs.profile`), the verdict
  also names the offending *stack* — the folded path whose self time
  grew the most under the regressed span name — so a regression
  points at a call path, not just a name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.baseline import BenchBaseline
from repro.bench.scenarios import ScenarioResult
from repro.bench.stats import RobustStats, median
from repro.obs.profile import (
    FlameProfile,
    StackDelta,
    StackDiff,
    StackStat,
    diff_flame,
    format_name_diff,
)

#: Default relative regression threshold (fraction of the baseline median).
DEFAULT_THRESHOLD = 0.5
#: Default MAD multiplier.
DEFAULT_MAD_K = 6.0
#: Default absolute floor in seconds: deltas below this never regress.
DEFAULT_MIN_DELTA_S = 0.05
#: Default relative tolerance for energy columns.  Energy is seeded
#: and deterministic on one platform, but last-bit floating point may
#: drift across numpy builds — a tolerance comparison (unlike the
#: exact-match fingerprint) absorbs that while still catching a
#: configuration pick that burns measurably more joules.
DEFAULT_ENERGY_TOLERANCE = 0.05


@dataclass(frozen=True)
class StageVerdict:
    """One compared quantity (wall time or one span name)."""

    name: str
    baseline_s: float
    fresh_s: float
    limit_s: float
    regressed: bool
    status: str = "changed"  # "changed" | "added" | "removed"

    @property
    def delta_s(self) -> float:
        return self.fresh_s - self.baseline_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "status": self.status,
            "baseline_s": self.baseline_s,
            "fresh_s": self.fresh_s,
            "limit_s": self.limit_s,
            "delta_s": self.delta_s,
            "regressed": self.regressed,
        }


@dataclass(frozen=True)
class EnergyVerdict:
    """One energy domain compared against its committed joules."""

    domain: str
    baseline_j: float
    fresh_j: float
    limit_j: float
    regressed: bool

    @property
    def delta_j(self) -> float:
        return self.fresh_j - self.baseline_j

    def as_dict(self) -> Dict[str, object]:
        return {
            "domain": self.domain,
            "baseline_j": self.baseline_j,
            "fresh_j": self.fresh_j,
            "limit_j": self.limit_j,
            "delta_j": self.delta_j,
            "regressed": self.regressed,
        }


@dataclass(frozen=True)
class RatioVerdict:
    """One named dimensionless ratio against its hand-committed cap.

    Unlike timings, ratio caps are absolute (no MAD scaling): a ratio
    such as the alerting/plain overhead is already self-normalized
    against the machine's speed, so the committed limit applies
    directly.  A fresh run that stopped publishing a gated ratio
    regresses too — silently dropping the measurement must not pass.
    """

    name: str
    baseline_ratio: float
    fresh: float
    limit: float
    regressed: bool

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "baseline_ratio": self.baseline_ratio,
            "fresh": self.fresh,
            "limit": self.limit,
            "regressed": self.regressed,
        }


@dataclass
class GateReport:
    """The full verdict of one scenario comparison."""

    scenario: str
    wall: StageVerdict
    stages: List[StageVerdict]
    fingerprint_ok: bool
    fingerprint_diffs: Dict[str, object] = field(default_factory=dict)
    #: span-name diff (baseline medians vs. fresh medians)
    diff: Optional[StackDiff] = None
    energy: List[EnergyVerdict] = field(default_factory=list)
    ratios: List[RatioVerdict] = field(default_factory=list)
    #: per-stack differential profile (baseline medians vs. fresh
    #: medians); present only when the baseline committed stacks
    stack_diff: Optional[StackDiff] = None

    @property
    def offenders(self) -> List[StageVerdict]:
        """Regressed stages, largest delta first."""
        return sorted(
            [verdict for verdict in self.stages if verdict.regressed],
            key=lambda verdict: -verdict.delta_s,
        )

    @property
    def energy_offenders(self) -> List[EnergyVerdict]:
        """Regressed energy domains, largest delta first."""
        return sorted(
            [verdict for verdict in self.energy if verdict.regressed],
            key=lambda verdict: -verdict.delta_j,
        )

    def grown_stacks(self, name: Optional[str] = None) -> List[StackDelta]:
        """:meth:`~repro.obs.profile.StackDiff.grown` of the stack diff;
        empty when the baseline committed no stacks."""
        return self.stack_diff.grown(name) if self.stack_diff is not None else []

    def offending_stack(self, name: Optional[str] = None) -> Optional[StackDelta]:
        """The grown stack with the largest Δself, optionally among
        stacks containing span ``name`` as a frame."""
        return next(iter(self.grown_stacks(name)), None)

    @property
    def ok(self) -> bool:
        return (
            self.fingerprint_ok
            and not self.wall.regressed
            and not any(verdict.regressed for verdict in self.stages)
            and not any(verdict.regressed for verdict in self.energy)
            and not any(verdict.regressed for verdict in self.ratios)
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "wall": self.wall.as_dict(),
            "stages": [verdict.as_dict() for verdict in self.stages],
            "fingerprint_ok": self.fingerprint_ok,
            "fingerprint_diffs": dict(self.fingerprint_diffs),
            "offenders": [verdict.name for verdict in self.offenders],
            "energy": [verdict.as_dict() for verdict in self.energy],
            "energy_offenders": [
                verdict.domain for verdict in self.energy_offenders
            ],
            "ratios": [verdict.as_dict() for verdict in self.ratios],
            "ratio_offenders": [
                verdict.name for verdict in self.ratios if verdict.regressed
            ],
            "stack_offenders": [delta.as_dict() for delta in self.grown_stacks()[:5]],
        }

    def format(self, diff_limit: int = 15) -> str:
        lines = [f"bench gate: scenario '{self.scenario}'"]

        def stack_line(prefix: str, name: Optional[str] = None) -> None:
            stack = (name and self.offending_stack(name)) or self.offending_stack()
            if stack is not None:
                lines.append(f"{prefix} {stack.stack} (+{stack.delta_s:.4f}s self)")

        wall = self.wall
        lines.append(
            f"  wall {wall.baseline_s:.4f}s -> {wall.fresh_s:.4f}s "
            f"(limit {wall.limit_s:.4f}s) "
            f"{'REGRESSED' if wall.regressed else 'ok'}"
        )
        if not self.fingerprint_ok:
            lines.append("  workload fingerprint DRIFTED:")
            for key, pair in sorted(self.fingerprint_diffs.items()):
                lines.append(f"    {key}: {pair[0]!r} -> {pair[1]!r}")  # type: ignore[index]
        offenders = self.offenders
        if offenders:
            worst = offenders[0]
            lines.append(
                f"  REGRESSION attributed to span '{worst.name}' "
                f"({worst.baseline_s:.4f}s -> {worst.fresh_s:.4f}s, "
                f"+{worst.delta_s:.4f}s over limit {worst.limit_s:.4f}s)"
            )
            stack_line("    offending stack:", worst.name)
            for verdict in offenders[1:]:
                lines.append(
                    f"    also regressed: '{verdict.name}' "
                    f"(+{verdict.delta_s:.4f}s)"
                )
        elif wall.regressed:
            stack_line("  wall regression's worst-grown stack:")
        elif self.fingerprint_ok:
            lines.append("  all spans within thresholds")
        if self.energy:
            energy_offenders = self.energy_offenders
            if energy_offenders:
                for verdict in energy_offenders:
                    lines.append(
                        f"  ENERGY REGRESSED in domain '{verdict.domain}': "
                        f"{verdict.baseline_j:.2f}J -> {verdict.fresh_j:.2f}J "
                        f"(limit {verdict.limit_j:.2f}J)"
                    )
            else:
                package = next(
                    (v for v in self.energy if v.domain == "package"), None
                )
                detail = (
                    f" (package {package.baseline_j:.2f}J -> "
                    f"{package.fresh_j:.2f}J)"
                    if package is not None
                    else ""
                )
                lines.append(f"  energy within tolerance{detail}")
        for verdict in self.ratios:
            if verdict.regressed:
                fresh = (
                    "missing"
                    if verdict.fresh != verdict.fresh  # NaN = not published
                    else f"{verdict.fresh:.4f}"
                )
                lines.append(
                    f"  RATIO '{verdict.name}' REGRESSED: {fresh} "
                    f"over cap {verdict.limit:.4f} "
                    f"(baseline {verdict.baseline_ratio:.4f})"
                )
                stack_line("    worst-grown stack:")
            else:
                lines.append(
                    f"  ratio '{verdict.name}' {verdict.fresh:.4f} "
                    f"within cap {verdict.limit:.4f}"
                )
        if self.diff is not None:
            lines.append("  trace diff (baseline -> fresh, |delta| desc):")
            lines.extend(
                "    " + line
                for line in format_name_diff(
                    self.diff, limit=diff_limit, hide_unchanged=True
                ).splitlines()
            )
        return "\n".join(lines)


def judge(
    name: str,
    envelope: RobustStats,
    fresh: float,
    threshold: float,
    mad_k: float,
    floor: float = 0.0,
    status: str = "changed",
) -> StageVerdict:
    """The one regression rule of the bench gate and ``obs trend``:
    ``fresh`` regresses when it exceeds ``envelope.limit(threshold,
    mad_k, floor)``, unless the quantity was removed.  A non-finite
    value raises ValueError, since ``NaN`` can never exceed a limit."""
    values = [fresh, envelope.median, envelope.mad, *envelope.samples]
    if not all(map(math.isfinite, values)):
        raise ValueError(
            f"{name}: cannot judge a non-finite value (fresh {fresh!r}, "
            f"envelope {envelope.samples!r})"
        )
    limit = envelope.limit(threshold, mad_k, floor)
    return StageVerdict(
        name=name,
        baseline_s=envelope.median,
        fresh_s=fresh,
        limit_s=limit,
        regressed=status != "removed" and fresh > limit,
        status=status,
    )


#: The envelope of a quantity the baseline lacks: with no spread to
#: scale by, only the absolute floor applies.
_ABSENT = RobustStats.from_samples([0.0])


def median_profile(
    samples: Dict[str, List[float]], counts: Dict[str, int]
) -> FlameProfile:
    """Per-key median over repeats, as a profile (see
    :func:`~repro.bench.scenarios.per_repeat_columns`)."""
    return FlameProfile(
        {
            key: StackStat(self_s=median(values), count=counts.get(key, 0))
            for key, values in samples.items()
        }
    )


def compare_result(
    baseline: BenchBaseline,
    result: ScenarioResult,
    threshold: float = DEFAULT_THRESHOLD,
    mad_k: float = DEFAULT_MAD_K,
    min_delta_s: float = DEFAULT_MIN_DELTA_S,
    energy_tolerance: float = DEFAULT_ENERGY_TOLERANCE,
) -> GateReport:
    """Compare a fresh :class:`ScenarioResult` against its baseline."""
    if baseline.scenario != result.scenario:
        raise ValueError(
            f"baseline is for scenario {baseline.scenario!r}, "
            f"fresh run is {result.scenario!r}"
        )
    wall = judge(
        "wall",
        baseline.wall_s,
        median(result.wall_s),
        threshold,
        mad_k,
        min_delta_s,
    )

    # the root bench span IS the wall time; a stage verdict for it
    # would only duplicate the wall verdict and steal the attribution
    root = f"bench:{baseline.scenario}"
    fresh = {
        name: median(values)
        for name, values in result.span_totals.items()
        if name != root
    }
    envelopes = baseline.span_envelopes()
    envelopes.pop(root, None)
    stages = [
        judge(
            name,
            envelope,
            fresh.get(name, 0.0),
            threshold,
            mad_k,
            min_delta_s,
            status="changed" if name in fresh else "removed",
        )
        for name, envelope in sorted(envelopes.items())
    ] + [
        judge(name, _ABSENT, fresh[name], threshold, mad_k, min_delta_s, "added")
        for name in sorted(set(fresh) - set(envelopes))
    ]

    fingerprint_diffs = {
        key: (baseline.fingerprint.get(key), result.fingerprint.get(key))
        for key in set(baseline.fingerprint) | set(result.fingerprint)
        if baseline.fingerprint.get(key) != result.fingerprint.get(key)
    }

    # energy columns: compared per domain with a relative tolerance —
    # only for domains the baseline committed (older baselines carry
    # none, so the gate stays backward compatible)
    energy: List[EnergyVerdict] = []
    for domain in sorted(baseline.energy_j):
        baseline_j = baseline.energy_j[domain]
        fresh_j = result.energy_j.get(domain, 0.0)
        limit_j = baseline_j * (1.0 + energy_tolerance)
        energy.append(
            EnergyVerdict(
                domain=domain,
                baseline_j=baseline_j,
                fresh_j=fresh_j,
                limit_j=limit_j,
                regressed=fresh_j > limit_j,
            )
        )

    # gated ratios: only names with a hand-committed cap in the
    # baseline participate; a cap without a fresh measurement regresses
    ratio_verdicts: List[RatioVerdict] = []
    for name in sorted(baseline.ratio_limits):
        limit = baseline.ratio_limits[name]
        samples = result.ratios.get(name, [])
        if samples:
            fresh_ratio = median(samples)
            regressed = fresh_ratio > limit
        else:
            fresh_ratio = float("nan")
            regressed = True
        ratio_verdicts.append(
            RatioVerdict(
                name=name,
                baseline_ratio=baseline.ratios.get(name, 0.0),
                fresh=fresh_ratio,
                limit=limit,
                regressed=regressed,
            )
        )

    name_diff = diff_flame(
        baseline.name_profile(),
        median_profile(result.span_totals, result.span_counts),
        label_a="base",
        label_b="new",
    )
    # per-stack attribution: median-vs-median flame diff, only when
    # the baseline committed stacks (older baselines stay comparable)
    stack_diff = None
    base_stacks = baseline.stack_profile()
    if base_stacks.stacks and result.stack_totals:
        stack_diff = diff_flame(
            base_stacks,
            median_profile(result.stack_totals, result.stack_counts),
            label_a=base_stacks.label,
            label_b="fresh",
        )
    return GateReport(
        scenario=result.scenario,
        wall=wall,
        stages=stages,
        fingerprint_ok=not fingerprint_diffs,
        fingerprint_diffs=fingerprint_diffs,
        diff=name_diff,
        energy=energy,
        ratios=ratio_verdicts,
        stack_diff=stack_diff,
    )
