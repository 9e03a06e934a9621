"""History-aware drift detection over telemetry-warehouse runs.

The committed-baseline bench gate compares one fresh run against one
blessed snapshot.  ``socrates obs trend`` upgrades that to a sliding
window: the latest recorded run is judged against the robust
median+MAD envelope of the N runs before it, using the bench gate's
limit rule (:meth:`repro.bench.stats.RobustStats.limit`, no floor) —

    limit = median + max(threshold * median, mad_k * MAD)

so a genuine regression trips the gate (exit 3) while run-to-run
noise inside the historical envelope does not.  When the runs carry
folded stack profiles, the drift verdict names the offending stacks
by diffing the latest profile against the per-stack historical
median (reusing :func:`repro.obs.profile.diff_flame`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.bench.gate import median_profile
from repro.bench.scenarios import per_repeat_columns
from repro.bench.stats import RobustStats
from repro.obs.profile import FlameProfile, diff_flame
from repro.obs.store import TelemetryStore

#: Sliding-window defaults, mirroring the bench gate's spirit.
DEFAULT_WINDOW = 5
DEFAULT_THRESHOLD = 0.10
DEFAULT_MAD_K = 6.0

#: Minimum history runs needed for a meaningful envelope.
MIN_HISTORY = 2


@dataclass(frozen=True)
class StackAttribution:
    stack: str
    history_s: float
    latest_s: float

    @property
    def delta_s(self) -> float:
        return self.latest_s - self.history_s


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
    offenders: List[StackAttribution] = field(default_factory=list)

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
                    "history_s": off.history_s,
                    "latest_s": off.latest_s,
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
                f"({off.history_s:.6f}s -> {off.latest_s:.6f}s, "
                f"+{off.delta_s:.6f}s)"
            )
        return "\n".join(lines)


def _metric_value(record: Mapping[str, object], metric: str) -> Optional[float]:
    metrics = record.get("metrics")
    if isinstance(metrics, dict) and metric in metrics:
        try:
            return float(metrics[metric])  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return None
    return None


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


def attribute_stacks(
    store: TelemetryStore,
    history: Sequence[Mapping[str, object]],
    latest: Mapping[str, object],
    limit: int = 5,
) -> List[StackAttribution]:
    """Name the stacks that grew in the latest run vs the history median."""
    base_profiles = []
    for record in history:
        profile = _load_profile(store, record, label=str(record.get("run_id", "")))
        if profile is not None:
            base_profiles.append(profile)
    latest_profile = _load_profile(store, latest, label="latest")
    if not base_profiles or latest_profile is None:
        return []
    # the per-stack history median, built like a bench run's repeats:
    # a stack absent from a run counts as zero time there, so a stack
    # present in only one historical run does not set the bar
    base = median_profile(*per_repeat_columns(base_profiles))
    diff = diff_flame(base, latest_profile, label_a="history", label_b="latest")
    offenders = [
        StackAttribution(
            stack=delta.stack, history_s=delta.self_a, latest_s=delta.self_b
        )
        for delta in diff.deltas
        # strictly positive growth, ignoring float residue from the
        # virtual clock's accumulated ticks
        if delta.delta_s > 1e-9
    ]
    return offenders[:limit]


def trend_over_runs(
    store: TelemetryStore,
    records: Sequence[Mapping[str, object]],
    target: str,
    metric: str = "wall_s",
    window: int = DEFAULT_WINDOW,
    threshold: float = DEFAULT_THRESHOLD,
    mad_k: float = DEFAULT_MAD_K,
) -> TrendVerdict:
    """Judge the newest of ``records`` against the window before it.

    ``records`` must be in record (journal) order and all carry the
    metric.  Raises ValueError when fewer than :data:`MIN_HISTORY`
    historical runs carry it — callers map that to exit code 2.
    """
    if window < MIN_HISTORY:
        raise ValueError(f"--window must be >= {MIN_HISTORY}, got {window}")
    carrying = [
        record for record in records if _metric_value(record, metric) is not None
    ]
    if len(carrying) < MIN_HISTORY + 1:
        raise ValueError(
            f"trend {target!r} needs at least {MIN_HISTORY + 1} recorded runs "
            f"carrying metric {metric!r}, found {len(carrying)}"
        )
    latest = carrying[-1]
    history = carrying[:-1][-window:]
    samples = [_metric_value(record, metric) for record in history]
    envelope = RobustStats.from_samples(
        [value for value in samples if value is not None]
    )
    limit = envelope.limit(threshold, mad_k)
    latest_value = _metric_value(latest, metric)
    assert latest_value is not None
    drift = latest_value > limit
    offenders: List[StackAttribution] = []
    if drift:
        offenders = attribute_stacks(store, history, latest)
    return TrendVerdict(
        target=target,
        metric=metric,
        history=len(history),
        window=window,
        median=envelope.median,
        mad=envelope.mad,
        limit=limit,
        latest=latest_value,
        latest_run=str(latest.get("run_id", "")),
        drift=drift,
        offenders=offenders,
    )
