"""Online SLO alerting over the virtual-time telemetry stream.

Three detector families watch the stream the moment telemetry is
produced, instead of a human reading ``obs diff`` after the fact:

* :class:`EwmaDetector` — exponentially weighted mean/variance with a
  z-score trigger, for the engine cache-hit rates (slow drifts and
  spikes against a self-learned baseline);
* :class:`CusumDetector` — two-sided CUSUM change-point detection for
  the ``build_timeline()``-equivalent power(t) series (persistent
  level shifts a z-score would dismiss sample by sample);
* :class:`BurnRateDetector` — multi-window (short + long) burn-rate
  alerting over an :class:`~repro.obs.energy.EnergyBudget`, the
  SRE-style construction: the long window proves the budget really is
  burning, the short window proves it is *still* burning, and an
  armed/disarmed latch provides hysteresis so one alert fires per
  excursion instead of one per sample.

The :class:`AlertEngine` owns the stream's virtual clock, feeds the
detectors and rings every event into the
:class:`~repro.obs.flight.FlightRecorder`; every fired alert snapshots
the flight rings into a deterministic incident bundle and cross-links
itself into the adaptation audit log.  Span closures are only ringed:
their durations are wall-clock, so no detector consumes them.  All
detector state advances on *virtual* time only, so seeded runs produce
identical verdicts on any engine backend.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.obs.audit import AdaptationAuditLog, IncidentTrace
from repro.obs.energy import EnergyBudget
from repro.obs.flight import (
    ALERT,
    AUDIT,
    CLOCK_TOL,
    METRIC,
    FlightRecorder,
    IncidentBundle,
    StreamEvent,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry

__all__ = [
    "Alert",
    "AlertEngine",
    "AlertPolicy",
    "BurnRateDetector",
    "CusumDetector",
    "EwmaDetector",
]

_EPS = 1e-12


# -- detectors ----------------------------------------------------------------


class EwmaDetector:
    """EWMA mean/variance with a z-score breach trigger.

    The RiskMetrics recursion: ``m ← (1-α)m + αx`` and
    ``v ← (1-α)(v + α(x-m)²)``, evaluated against the *pre-update*
    statistics so a spike is judged by the baseline it deviates from,
    not by a baseline it already contaminated.  No verdict is issued
    until ``min_samples`` observations have primed the state.
    """

    def __init__(
        self, alpha: float = 0.2, z_threshold: float = 4.0, min_samples: int = 16
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"EWMA alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.z_threshold = z_threshold
        self.min_samples = min_samples
        self.mean = 0.0
        self.variance = 0.0
        self.count = 0

    def update(self, value: float) -> Optional[float]:
        """Feed one sample; return the breaching z-score, else None."""
        verdict: Optional[float] = None
        if self.count == 0:
            self.mean = value
        else:
            diff = value - self.mean
            std = math.sqrt(self.variance)
            if self.count >= self.min_samples and std > _EPS:
                z = diff / std
                if abs(z) > self.z_threshold:
                    verdict = z
            alpha = self.alpha
            incr = alpha * diff
            self.mean += incr
            self.variance = (1.0 - alpha) * (self.variance + diff * incr)
        self.count += 1
        return verdict


class CusumDetector:
    """Two-sided CUSUM change-point detector, self-scaled.

    The first ``min_samples`` observations are a warm-up that
    estimates the reference mean and spread; afterwards the classic
    recursions ``s⁺ ← max(0, s⁺ + z - k)`` / ``s⁻ ← max(0, s⁻ - z - k)``
    accumulate standardized drift (``z = (x - μ₀)/σ₀``).  Crossing
    ``h`` declares a change point, returns the signed statistic, and
    re-enters warm-up so the *new* level becomes the next reference —
    CUSUM segments the series instead of alarming forever after one
    shift.  :meth:`reset` re-warms explicitly: the MAPE-K loop calls
    it on a deliberate operating-point switch so an *intended* power
    change is not reported as an anomaly.
    """

    def __init__(self, k: float = 0.5, h: float = 8.0, min_samples: int = 24) -> None:
        if min_samples < 2:
            raise ValueError(f"CUSUM needs >= 2 warm-up samples, got {min_samples}")
        self.k = k
        self.h = h
        self.min_samples = min_samples
        self.reset()

    def reset(self) -> None:
        self._warmup: List[float] = []
        self.reference_mean = 0.0
        self.reference_std = 0.0
        self.s_pos = 0.0
        self.s_neg = 0.0
        self.changepoints = 0

    def update(self, value: float) -> Optional[float]:
        """Feed one sample; return the signed CUSUM statistic on a
        change point (positive = level shifted up), else None."""
        if len(self._warmup) < self.min_samples:
            self._warmup.append(value)
            if len(self._warmup) == self.min_samples:
                mean = sum(self._warmup) / len(self._warmup)
                var = sum((x - mean) ** 2 for x in self._warmup) / len(self._warmup)
                self.reference_mean = mean
                self.reference_std = math.sqrt(var)
            return None
        std = self.reference_std
        if std <= _EPS:
            # A perfectly flat warm-up: any deviation beyond fp noise
            # is a shift; scale by the mean instead.
            std = max(abs(self.reference_mean) * 1e-6, _EPS)
        z = (value - self.reference_mean) / std
        self.s_pos = max(0.0, self.s_pos + z - self.k)
        self.s_neg = max(0.0, self.s_neg - z - self.k)
        if self.s_pos > self.h or self.s_neg > self.h:
            statistic = self.s_pos if self.s_pos > self.s_neg else -self.s_neg
            self.changepoints += 1
            self.reset()
            return statistic
        return None


class BurnRateDetector:
    """Multi-window burn-rate alerting over one energy budget.

    Consumes the power(t) step function as ``(start, end, watts)``
    segments (exactly the active segments ``build_timeline()`` would
    reconstruct).  The burn rate of a window is its time-averaged
    power divided by the budget: > ``factor`` means the budget is
    burning faster than allowed.  An alert needs **both** windows
    burning — the long one filters single-segment spikes, the short
    one guarantees the condition is current — and the armed/disarmed
    latch rearms only after the short window drops back under the
    factor.  Windows are segment-quantized (a segment is in the window
    while its end lies within it), keeping updates O(1) amortized and
    fully deterministic.
    """

    def __init__(
        self,
        budget: EnergyBudget,
        short_s: float = 0.25,
        long_s: float = 1.0,
        factor: float = 1.0,
    ) -> None:
        if short_s <= 0 or long_s <= short_s:
            raise ValueError(
                f"burn-rate windows need 0 < short ({short_s}) < long ({long_s})"
            )
        self.budget = budget
        self.short_s = short_s
        self.long_s = long_s
        self.factor = factor
        self.armed = True
        self.fired = 0
        self.total_energy_j = 0.0
        self.energy_alerted = False
        self._short: Deque[Tuple[float, float, float]] = deque()  # (end, dt, joules)
        self._long: Deque[Tuple[float, float, float]] = deque()
        # running [seconds, joules] per window, kept as scalars — the
        # per-segment update is pure float arithmetic plus two deque ops
        self._short_dt = 0.0
        self._short_j = 0.0
        self._long_dt = 0.0
        self._long_j = 0.0
        self._first_end: Optional[float] = None

    def burn_rates(self) -> Tuple[float, float]:
        """Current (short, long) burn rates; 0 while a window is empty."""
        limit = self.budget.power_w
        if not limit:
            return (0.0, 0.0)
        short = (
            self._short_j / self._short_dt / limit
            if self._short_dt > _EPS
            else 0.0
        )
        long_ = (
            self._long_j / self._long_dt / limit if self._long_dt > _EPS else 0.0
        )
        return (short, long_)

    def update(
        self, start: float, end: float, watts: float
    ) -> Optional[Dict[str, float]]:
        """Feed one power segment; return breach details on firing."""
        dt = end - start
        if dt < 0.0:
            dt = 0.0
        joules = watts * dt
        self.total_energy_j += joules
        limit = self.budget.power_w
        if limit is None:
            return None
        item = (end, dt, joules)
        ring = self._short
        ring.append(item)
        self._short_dt += dt
        self._short_j += joules
        cutoff = end - self.short_s
        while ring[0][0] <= cutoff:
            _, old_dt, old_joules = ring.popleft()
            self._short_dt -= old_dt
            self._short_j -= old_joules
        ring = self._long
        ring.append(item)
        self._long_dt += dt
        self._long_j += joules
        cutoff = end - self.long_s
        while ring[0][0] <= cutoff:
            _, old_dt, old_joules = ring.popleft()
            self._long_dt -= old_dt
            self._long_j -= old_joules
        if self._first_end is None:
            self._first_end = end
        # Both windows must have real coverage before a verdict: an
        # alert off a half-filled long window would be a spike alert.
        if end - self._first_end < self.long_s:
            return None
        short, long_ = self.burn_rates()
        if self.armed:
            if short > self.factor and long_ > self.factor:
                self.armed = False
                self.fired += 1
                return {
                    "short_burn": short,
                    "long_burn": long_,
                    "watts": watts,
                    "t": end,
                }
        elif short <= self.factor:
            self.armed = True
        return None


# -- policy -------------------------------------------------------------------


@dataclass
class AlertPolicy:
    """Configuration of the alerting layer (all knobs virtual-time).

    The detectors' own constants (CUSUM ``k``/``h`` on the package
    plane, the burn factor, the EWMA ``alpha``/``z``/warm-up) are their
    constructor defaults.
    """

    budgets: Tuple[EnergyBudget, ...] = ()
    burn_short_s: float = 0.25
    burn_long_s: float = 1.0
    cusum_min_samples: int = 24
    flight_capacity: int = 256
    cooldown_s: float = 0.25


# -- alerts -------------------------------------------------------------------


@dataclass(frozen=True)
class Alert:
    """One fired alert (immutable, fully serializable)."""

    name: str
    detector: str  # "ewma" | "cusum" | "burn_rate" | "peak_power" | "energy_total"
    severity: str  # "warn" | "page"
    t: float
    value: float
    threshold: float
    message: str
    context: Mapping[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "name": self.name,
            "detector": self.detector,
            "severity": self.severity,
            "t": self.t,
            "value": self.value,
            "threshold": self.threshold,
            "message": self.message,
        }
        if self.context:
            document["context"] = {
                key: self.context[key] for key in sorted(self.context)
            }
        return document


# -- the engine ---------------------------------------------------------------


class AlertEngine:
    """Streaming detectors + flight recorder + incident pipeline.

    The engine is the tracer's span sink and the adaptive loop's
    invocation hook.  It owns :attr:`now`, the virtual clock: the
    high-water mark of every stamped event, at which span closures and
    engine counter updates (which only know "this happened during the
    current step") are stamped.  Every event it consumes is (a) ringed
    into the flight recorder and (b) fed to the relevant detectors,
    except span closures, which are only ringed; a firing detector
    appends an :class:`Alert`, snapshots the rings into an
    :class:`~repro.obs.flight.IncidentBundle`, bumps the
    ``socrates_alerts_total`` / ``socrates_incidents_total`` counters
    and cross-links an :class:`~repro.obs.audit.IncidentTrace` into
    the adaptation audit log.
    """

    def __init__(
        self,
        policy: Optional[AlertPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        audit: Optional[AdaptationAuditLog] = None,
        kernel: str = "",
    ) -> None:
        self.policy = policy or AlertPolicy()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.audit = audit
        self.kernel = kernel
        self.now = 0.0
        self.flight = FlightRecorder(capacity=self.policy.flight_capacity)
        self.alerts: List[Alert] = []
        self.incidents: List[IncidentBundle] = []
        self.suppressed = 0
        self.baseline = None  # optional BenchBaseline for attribution diffs
        self._last_fired: Dict[str, float] = {}
        self._cusum = CusumDetector(min_samples=self.policy.cusum_min_samples)
        self._burn = [
            BurnRateDetector(
                budget,
                short_s=self.policy.burn_short_s,
                long_s=self.policy.burn_long_s,
            )
            for budget in self.policy.budgets
        ]
        # Any budget on a component/cluster plane needs the per-domain
        # breakdown of each record; the package plane comes for free.
        self._needs_domains = any(
            budget.domain != "package" for budget in self.policy.budgets
        )
        self._metric_ewma: Dict[str, EwmaDetector] = {}

    # -- helpers ---------------------------------------------------------------

    def publish(self, event: StreamEvent) -> None:
        """Advance the clock to ``event.t`` and ring the event.

        Raises ``ValueError`` if ``event.t`` regresses behind the
        clock: virtual time is the determinism backbone and an
        out-of-order event means a producer mis-stamped it.
        """
        if event.t < self.now - CLOCK_TOL:
            raise ValueError(
                f"stream event {event.name!r} at t={event.t:.9f}s regresses "
                f"behind the bus clock (now={self.now:.9f}s): virtual time "
                "must be non-decreasing"
            )
        if event.t > self.now:
            self.now = event.t
        self.flight.record(event)

    def _fire(self, alert: Alert) -> None:
        last = self._last_fired.get(alert.name)
        if last is not None and alert.t - last < self.policy.cooldown_s:
            self.suppressed += 1
            self.metrics.counter(
                "socrates_alerts_suppressed_total",
                help="alerts swallowed by the per-alert cooldown",
            ).inc()
            return
        self._last_fired[alert.name] = alert.t
        self.alerts.append(alert)
        self.metrics.counter(
            "socrates_alerts_total",
            help="fired alerts by name and severity",
            labels={"alert": alert.name, "severity": alert.severity},
        ).inc()
        # The alert itself becomes a stream event *before* the
        # snapshot, so the bundle's alert ring ends with this alert.
        self.publish(
            StreamEvent(
                ALERT,
                alert.t,
                alert.name,
                alert.value,
                attributes={
                    "severity": alert.severity,
                    "detector": alert.detector,
                    "threshold": alert.threshold,
                    "message": alert.message,
                },
            )
        )
        bundle = IncidentBundle.build(
            kernel=self.kernel,
            alert=alert.as_dict(),
            flight=self.flight,
            baseline=self.baseline,
        )
        self.incidents.append(bundle)
        self.metrics.counter(
            "socrates_incidents_total", help="incident bundles opened"
        ).inc()
        if self.audit is not None:
            self.audit.record_incident(
                IncidentTrace(
                    incident_id=bundle.incident_id,
                    alert=alert.name,
                    detector=alert.detector,
                    severity=alert.severity,
                    t=alert.t,
                    kernel=self.kernel,
                    message=alert.message,
                    adaptation_sequence=self.audit.next_sequence(),
                )
            )

    # -- producers -------------------------------------------------------------

    def on_span(self, span) -> None:
        """Tracer sink: ring one span closure at the current virtual time."""
        self.flight.record_span(self.now, span)

    def observe_invocation(self, kernel: str, record, app=None) -> None:
        """Adaptive-loop hook: one finished invocation's energy sample."""
        if not self.kernel:
            self.kernel = kernel
        end = record.timestamp
        start = end - record.time_s
        powers: Optional[Mapping[str, float]] = None
        if self._needs_domains and app is not None:
            from repro.obs.energy import attribute_record

            powers = attribute_record(app, record)
        # High-rate path: the sample is ringed as a raw ``(t, record)``
        # pair (no event allocation per invocation); the energy ring's
        # order check rejects a regressing timestamp before the clock
        # or any detector moves.
        self.flight.record_energy(end, record)
        if end > self.now:
            self.now = end
        self._ingest_power(start, end, powers, record.power_w)

    def _ingest_power(
        self,
        start: float,
        end: float,
        powers: Optional[Mapping[str, float]] = None,
        package_w: float = 0.0,
    ) -> None:
        """Feed one power segment to CUSUM and the budget detectors.

        ``powers`` carries the per-domain breakdown; the package-only
        hot path passes ``powers=None`` plus ``package_w`` so the
        common case (every budget and the CUSUM on the package plane)
        costs no dict at all.
        """
        watched = powers.get("package", 0.0) if powers is not None else package_w
        statistic = self._cusum.update(watched)
        if statistic is not None:
            self._fire(
                Alert(
                    name="power_changepoint:package",
                    detector="cusum",
                    severity="warn",
                    t=end,
                    value=watched,
                    threshold=self._cusum.h,
                    message=(
                        f"CUSUM change point on the package power plane: "
                        f"level shifted {'up' if statistic > 0 else 'down'} "
                        f"from {self._cusum.reference_mean:.2f} W "
                        f"(now {watched:.2f} W, statistic {statistic:+.1f})"
                    ),
                    context={"domain": "package", "statistic": statistic},
                )
            )
        for detector in self._burn:
            budget = detector.budget
            if powers is not None:
                watts = powers.get(budget.domain)
                if watts is None:
                    continue
            elif budget.domain == "package":
                watts = package_w
            else:
                continue
            breach = detector.update(start, end, watts)
            if breach is not None:
                self._fire(
                    Alert(
                        name=f"budget_burn:{budget.name}",
                        detector="burn_rate",
                        severity="page",
                        t=end,
                        value=breach["short_burn"],
                        threshold=detector.factor,
                        message=(
                            f"budget {budget.name!r} burning on the "
                            f"{budget.domain} plane: "
                            f"{breach['short_burn']:.2f}x over "
                            f"{detector.short_s:g}s and "
                            f"{breach['long_burn']:.2f}x over "
                            f"{detector.long_s:g}s of the "
                            f"{budget.power_w:g} W limit"
                        ),
                        context={
                            "domain": budget.domain,
                            "budget": budget.name,
                            "limit_w": budget.power_w,
                            "short_burn": breach["short_burn"],
                            "long_burn": breach["long_burn"],
                        },
                    )
                )
            if (
                budget.peak_power_w is not None
                and watts > budget.peak_power_w
                and detector.armed
            ):
                detector.armed = False
                self._fire(
                    Alert(
                        name=f"budget_peak:{budget.name}",
                        detector="peak_power",
                        severity="page",
                        t=end,
                        value=watts,
                        threshold=budget.peak_power_w,
                        message=(
                            f"budget {budget.name!r}: instantaneous "
                            f"{watts:.2f} W exceeds the "
                            f"{budget.peak_power_w:g} W peak limit on the "
                            f"{budget.domain} plane"
                        ),
                        context={"domain": budget.domain, "budget": budget.name},
                    )
                )
            if (
                budget.energy_j is not None
                and not detector.energy_alerted
                and detector.total_energy_j > budget.energy_j
            ):
                detector.energy_alerted = True
                self._fire(
                    Alert(
                        name=f"budget_energy:{budget.name}",
                        detector="energy_total",
                        severity="page",
                        t=end,
                        value=detector.total_energy_j,
                        threshold=budget.energy_j,
                        message=(
                            f"budget {budget.name!r}: cumulative "
                            f"{detector.total_energy_j:.2f} J exceeds the "
                            f"{budget.energy_j:g} J allowance on the "
                            f"{budget.domain} plane"
                        ),
                        context={"domain": budget.domain, "budget": budget.name},
                    )
                )

    def observe_engine(self, counters) -> None:
        """Metric-update hook: EWMA over the engine cache-hit rates."""
        t = self.now
        for kind, hits, misses in (
            ("compile", counters.compile_hits, counters.compile_misses),
            ("profile", counters.profile_hits, counters.profile_misses),
            ("truth", counters.truth_hits, counters.truth_misses),
        ):
            total = hits + misses
            if total == 0:
                continue
            rate = hits / total
            name = f"cache_hit_rate:{kind}"
            self.publish(
                StreamEvent(
                    METRIC,
                    t,
                    name,
                    rate,
                    attributes={"hits": hits, "misses": misses},
                )
            )
            detector = self._metric_ewma.get(name)
            if detector is None:
                detector = self._metric_ewma[name] = EwmaDetector()
            z = detector.update(rate)
            if z is not None:
                self._fire(
                    Alert(
                        name=name,
                        detector="ewma",
                        severity="warn",
                        t=t,
                        value=rate,
                        threshold=detector.z_threshold,
                        message=(
                            f"{kind} cache hit rate {rate:.1%} deviates "
                            f"z={z:+.1f} from its EWMA baseline "
                            f"({detector.mean:.1%})"
                        ),
                        context={"z": z, "mean": detector.mean},
                    )
                )

    def observe_adaptation(self, now: float, state: str, winner, entry=None) -> None:
        """MAPE-K hook: a deliberate operating-point switch happened.

        Publishes the switch onto the stream (so incident windows show
        the surrounding adaptations) and re-warms the CUSUM reference:
        an *intended* power-level change is not a change-point anomaly.
        """
        attributes: Dict[str, object] = {"state": state}
        if winner:
            attributes["winner"] = dict(winner)
        sequence = -1
        if entry is not None:
            sequence = entry.sequence
            attributes["sequence"] = entry.sequence
            attributes["reason"] = entry.reason
        self.publish(
            StreamEvent(
                AUDIT,
                max(self.now, now),
                "adaptation.switch",
                float(sequence),
                attributes=attributes,
            )
        )
        self._cusum.reset()
