"""History-aware drift detection over telemetry-warehouse runs.

The committed-baseline bench gate compares one fresh run against one
blessed snapshot.  ``socrates obs trend`` upgrades that to a sliding
window: the latest recorded run is judged against the robust
median+MAD envelope of the N runs before it by the bench gate's own
judge (:func:`repro.bench.gate.judge`, no floor) —

    limit = median + max(threshold * median, mad_k * MAD)

so a genuine regression trips the gate (exit 3) while run-to-run
noise inside the historical envelope does not.  When the runs carry
folded stack profiles, the drift verdict names the stacks that grew
(:meth:`repro.obs.profile.StackDiff.grown`) in the latest profile
against the per-stack historical median.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.bench.gate import judge, median_profile
from repro.bench.scenarios import per_repeat_columns
from repro.bench.stats import RobustStats
from repro.obs.profile import FlameProfile, StackDelta, diff_flame
from repro.obs.store import TelemetryStore, run_metric

#: Sliding-window defaults, mirroring the bench gate's spirit.
DEFAULT_WINDOW = 5
DEFAULT_THRESHOLD = 0.10
DEFAULT_MAD_K = 6.0

#: Minimum history runs needed for a meaningful envelope.
MIN_HISTORY = 2


class InsufficientHistory(ValueError):
    """Fewer than :data:`MIN_HISTORY` earlier runs carry the metric."""


@dataclass
class TrendVerdict:
    """The outcome of one sliding-window drift check."""

    target: str
    metric: str
    history: int
    window: int
    median: float
    mad: float
    limit: float
    latest: float
    latest_run: str
    drift: bool
    #: the stacks that grew, ``self_a`` the history median
    offenders: List[StackDelta] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.drift

    def as_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "metric": self.metric,
            "history": self.history,
            "window": self.window,
            "median": self.median,
            "mad": self.mad,
            "limit": self.limit,
            "latest": self.latest,
            "latest_run": self.latest_run,
            "ok": self.ok,
            "drift": self.drift,
            "offenders": [
                {
                    "stack": off.stack,
                    "history_s": off.self_a,
                    "latest_s": off.self_b,
                    "delta_s": off.delta_s,
                }
                for off in self.offenders
            ],
        }

    def format(self) -> str:
        verdict = "DRIFT" if self.drift else "ok"
        lines = [
            f"trend {self.target} [{self.metric}]: {verdict}",
            f"  history n={self.history} (window {self.window}) "
            f"median={self.median:.6f} mad={self.mad:.6f}",
            f"  limit={self.limit:.6f} latest={self.latest:.6f} "
            f"(run {self.latest_run})",
        ]
        for off in self.offenders:
            lines.append(
                f"  offending stack: {off.stack} "
                f"({off.self_a:.6f}s -> {off.self_b:.6f}s, "
                f"+{off.delta_s:.6f}s)"
            )
        return "\n".join(lines)


def _load_profile(
    store: TelemetryStore, record: Mapping[str, object], label: str
) -> Optional[FlameProfile]:
    for entry in record.get("artifacts", ()):  # type: ignore[union-attr]
        if str(entry.get("name")) == "profile.folded":  # type: ignore[union-attr]
            blob = store.find_blob(str(entry["sha256"]), str(entry.get("suffix", "")))  # type: ignore[index]
            if blob is None:
                return None
            return FlameProfile.from_folded(blob.read_text(), label=label)
    return None


def _grown_stacks(
    store: TelemetryStore,
    history: Sequence[Mapping[str, object]],
    latest: Mapping[str, object],
) -> List[StackDelta]:
    """The stacks that grew in the latest run vs the history median."""
    profiles = [
        _load_profile(store, record, str(record.get("run_id", "")))
        for record in history
    ]
    base_profiles = [profile for profile in profiles if profile is not None]
    latest_profile = _load_profile(store, latest, label="latest")
    if not base_profiles or latest_profile is None:
        return []
    # the per-stack history median, built like a bench run's repeats:
    # a stack absent from a run counts as zero time there, so a stack
    # present in only one historical run does not set the bar
    base = median_profile(*per_repeat_columns(base_profiles))
    return diff_flame(base, latest_profile).grown()


def trend_over_runs(
    store: TelemetryStore,
    records: Sequence[Mapping[str, object]],
    target: str,
    metric: str = "wall_s",
    window: int = DEFAULT_WINDOW,
    threshold: float = DEFAULT_THRESHOLD,
    mad_k: float = DEFAULT_MAD_K,
) -> TrendVerdict:
    """Judge the newest of ``records`` carrying ``metric`` against the
    window before it.

    ``records`` must be in record (journal) order.  Raises
    :class:`InsufficientHistory` when fewer than :data:`MIN_HISTORY`
    historical runs carry the metric, and ValueError on a malformed or
    non-finite value; ``obs trend`` maps both to exit code 2.
    """
    if window < MIN_HISTORY:
        raise ValueError(f"--window must be >= {MIN_HISTORY}, got {window}")
    values = [(record, run_metric(record, metric)) for record in records]
    carrying = [(record, value) for record, value in values if value is not None]
    if len(carrying) < MIN_HISTORY + 1:
        raise InsufficientHistory(
            f"trend {target!r} needs at least {MIN_HISTORY + 1} recorded runs "
            f"carrying metric {metric!r}, found {len(carrying)}"
        )
    latest, latest_value = carrying[-1]
    history = carrying[:-1][-window:]
    envelope = RobustStats.from_samples([value for _, value in history])
    verdict = judge(
        f"trend {target!r} [{metric}]", envelope, latest_value, threshold, mad_k
    )
    offenders: List[StackDelta] = []
    if verdict.regressed:
        offenders = _grown_stacks(store, [r for r, _ in history], latest)[:5]
    return TrendVerdict(
        target=target,
        metric=metric,
        history=len(history),
        window=window,
        median=envelope.median,
        mad=envelope.mad,
        limit=verdict.limit_s,
        latest=latest_value,
        latest_run=str(latest.get("run_id", "")),
        drift=verdict.regressed,
        offenders=offenders,
    )
