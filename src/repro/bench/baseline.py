"""Schema-versioned benchmark baselines: ``BENCH_<scenario>.json``.

A baseline is the committed performance record of one scenario —
robust statistics (median + MAD) of the wall time and of every span
name's per-repeat total, plus the deterministic workload fingerprint.
Every future PR answers to it: ``socrates bench gate`` re-runs the
scenario and fails when a stage regresses beyond a MAD-scaled
threshold.

The file format is versioned (``"schema": "socrates-bench/1"``) and
:func:`load_baseline` rejects anything it does not understand with a
precise error, so a schema bump can never be silently misread.  This
module is the only reader of the ``stages`` and ``stacks`` columns:
consumers take them as profiles (:meth:`BenchBaseline.name_profile`,
:meth:`BenchBaseline.stack_profile`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.bench.scenarios import ScenarioResult
from repro.bench.stats import RobustStats, median
from repro.obs.profile import FlameProfile, StackStat

PathLike = Union[str, Path]

#: Current baseline schema identifier.
SCHEMA = "socrates-bench/1"


class BaselineError(ValueError):
    """Base class for baseline-loading failures.

    Still a ``ValueError`` so every existing ``except ValueError``
    call site (and the CLI's exit-2 mapping) keeps working; the named
    subclasses let consumers distinguish a missing file from a
    foreign schema without parsing message text.
    """


class BaselineNotFoundError(BaselineError):
    """The baseline file does not exist or cannot be read."""


class BaselineSchemaError(BaselineError):
    """The file parses but declares a schema this code does not speak."""


class BaselineFormatError(BaselineError):
    """The file is not valid JSON or lacks required baseline fields."""


def baseline_filename(scenario: str) -> str:
    return f"BENCH_{scenario}.json"


@dataclass(frozen=True)
class StageBaseline:
    """One span name's committed cost."""

    count: int
    total_s: RobustStats

    @property
    def mean_s(self) -> float:
        """Mean span duration: the median total over the span count."""
        return self.total_s.median / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {"count": self.count, "total_s": self.total_s.as_dict()}


@dataclass(frozen=True)
class StackBaseline:
    """One folded stack's committed self time.

    Committed by the profiling observatory's collapse of the trace so
    the gate can attribute a regression to a stack, not just a span
    name.  Optional in the file format — baselines predating the
    observatory simply carry none — so no schema bump is needed.
    """

    count: int
    self_s: RobustStats

    def as_dict(self) -> Dict[str, object]:
        return {"count": self.count, "self_s": self.self_s.as_dict()}


@dataclass(frozen=True)
class BenchBaseline:
    """The committed performance record of one scenario."""

    scenario: str
    repeats: int
    wall_s: RobustStats
    stages: Dict[str, StageBaseline]
    fingerprint: Dict[str, object]
    peak_rss_kb: int
    #: per-domain joules from the energy observatory; optional (older
    #: baselines and energy-free scenarios omit it) and compared with a
    #: relative tolerance by the gate, so no schema bump is needed
    energy_j: Dict[str, float] = field(default_factory=dict)
    #: median of each named ``socrates_bench_ratio`` gauge the scenario
    #: published (e.g. alerting/plain wall-clock); context only unless
    #: a matching ``ratio_limits`` entry gates it
    ratios: Dict[str, float] = field(default_factory=dict)
    #: hand-committed absolute caps: the gate fails when a fresh run's
    #: median ratio exceeds the cap (or the ratio went missing).  Never
    #: auto-generated by ``from_result`` — a cap is a policy decision,
    #: written into the baseline file by a human
    ratio_limits: Dict[str, float] = field(default_factory=dict)
    #: per folded stack: the committed self-time statistics from the
    #: profiling observatory; optional (older baselines omit it) and
    #: used by the gate for stack-level attribution, never as an
    #: independent pass/fail check
    stacks: Dict[str, StackBaseline] = field(default_factory=dict)

    @classmethod
    def from_result(
        cls,
        result: ScenarioResult,
        ratio_limits: Optional[Dict[str, float]] = None,
    ) -> "BenchBaseline":
        """Fold a fresh run into a baseline.

        ``ratio_limits`` are never derived from the run — pass the
        previous baseline's limits through when regenerating a
        candidate baseline so the hand-committed caps survive
        promotion.
        """
        stages = {
            name: StageBaseline(
                count=result.span_counts.get(name, 0),
                total_s=RobustStats.from_samples(samples),
            )
            for name, samples in result.span_totals.items()
        }
        stacks = {
            stack: StackBaseline(
                count=result.stack_counts.get(stack, 0),
                self_s=RobustStats.from_samples(samples),
            )
            for stack, samples in result.stack_totals.items()
        }
        return cls(
            scenario=result.scenario,
            repeats=result.repeats,
            wall_s=RobustStats.from_samples(result.wall_s),
            stages=stages,
            fingerprint=dict(result.fingerprint),
            peak_rss_kb=result.peak_rss_kb,
            energy_j=dict(result.energy_j),
            ratios={
                name: median(values)
                for name, values in result.ratios.items()
                if values
            },
            ratio_limits=dict(ratio_limits) if ratio_limits else {},
            stacks=stacks,
        )

    def span_envelopes(self) -> Dict[str, RobustStats]:
        """Per span name: the statistics of its per-repeat total."""
        return {name: stage.total_s for name, stage in self.stages.items()}

    def name_profile(self) -> FlameProfile:
        """Per span name: the median total and the span count, as a flat
        profile (the baseline side of the span-name diff)."""
        return FlameProfile(
            {
                name: StackStat(self_s=stage.total_s.median, count=stage.count)
                for name, stage in self.stages.items()
            }
        )

    def stack_profile(self) -> FlameProfile:
        """Per folded stack: the median self time and the count, labelled
        ``BENCH_<scenario>``; empty when the baseline predates the
        profiling observatory and committed no stacks."""
        return FlameProfile(
            {
                stack: StackStat(self_s=record.self_s.median, count=record.count)
                for stack, record in self.stacks.items()
            },
            label=f"BENCH_{self.scenario}",
        )

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "schema": SCHEMA,
            "scenario": self.scenario,
            "repeats": self.repeats,
            "wall_s": self.wall_s.as_dict(),
            "stages": {name: stage.as_dict() for name, stage in self.stages.items()},
            "fingerprint": dict(self.fingerprint),
            "peak_rss_kb": self.peak_rss_kb,
        }
        # the optional columns appear only when the run produced them
        # (save_baseline sorts every key)
        for column in ("energy_j", "ratios", "ratio_limits"):
            if getattr(self, column):
                record[column] = dict(getattr(self, column))
        if self.stacks:
            record["stacks"] = {
                stack: entry.as_dict() for stack, entry in self.stacks.items()
            }
        return record


def baseline_text(baseline: BenchBaseline) -> str:
    """The baseline as stable, human-diffable JSON."""
    return json.dumps(baseline.as_dict(), indent=2, sort_keys=True) + "\n"


def save_baseline(baseline: BenchBaseline, path: PathLike) -> Path:
    """Write :func:`baseline_text` to ``path``."""
    target = Path(path)
    with open(target, "w") as handle:
        handle.write(baseline_text(baseline))
    return target


def load_baseline(path: PathLike) -> BenchBaseline:
    """Read and validate a baseline file.

    This is the one loader behind every consumer (bench gate,
    ``obs flame --against-baseline``, incident attribution in
    ``obs incidents record --baseline``); failures raise the named
    :class:`BaselineError` subclasses, all of which are
    ``ValueError``\\ s.
    """
    try:
        document = json.loads(Path(path).read_text())
    except OSError as error:
        raise BaselineNotFoundError(
            f"{path}: cannot read baseline ({error})"
        ) from None
    except json.JSONDecodeError as error:
        raise BaselineFormatError(f"{path}: not valid JSON ({error})") from None
    if not isinstance(document, dict):
        raise BaselineFormatError(f"{path}: baseline is not a JSON object")
    schema = document.get("schema")
    if schema != SCHEMA:
        raise BaselineSchemaError(
            f"{path}: unsupported baseline schema {schema!r} (expected {SCHEMA!r})"
        )
    for required in ("scenario", "repeats", "wall_s", "stages", "fingerprint"):
        if required not in document:
            raise BaselineFormatError(
                f"{path}: baseline lacks required field {required!r}"
            )
    stages_raw = document["stages"]
    if not isinstance(stages_raw, dict):
        raise BaselineFormatError(f"{path}: 'stages' is not an object")
    stacks_raw = document.get("stacks", {})
    if not isinstance(stacks_raw, dict):
        raise BaselineFormatError(f"{path}: 'stacks' is not an object")

    def stats(record: object, where: str) -> RobustStats:
        try:
            return RobustStats.from_dict(record)  # type: ignore[arg-type]
        except (TypeError, ValueError) as error:
            raise BaselineFormatError(f"{path}: {where}: {error}") from None

    def finite(column: str) -> Dict[str, float]:
        values = {
            str(name): float(value)
            for name, value in dict(document.get(column, {})).items()
        }
        for name, value in values.items():
            if not math.isfinite(value):
                raise BaselineFormatError(
                    f"{path}: {column}[{name!r}]: non-finite value {value!r}"
                )
        return values

    try:
        return BenchBaseline(
            scenario=str(document["scenario"]),
            repeats=int(document["repeats"]),
            wall_s=stats(document["wall_s"], "wall_s"),
            stages={
                name: StageBaseline(
                    count=int(record["count"]),
                    total_s=stats(record["total_s"], f"stages[{name!r}]"),
                )
                for name, record in stages_raw.items()
            },
            fingerprint=dict(document["fingerprint"]),
            peak_rss_kb=int(document.get("peak_rss_kb", 0)),
            energy_j=finite("energy_j"),
            ratios=finite("ratios"),
            ratio_limits=finite("ratio_limits"),
            stacks={
                stack: StackBaseline(
                    count=int(record["count"]),
                    self_s=stats(record["self_s"], f"stacks[{stack!r}]"),
                )
                for stack, record in stacks_raw.items()
            },
        )
    except BaselineError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise BaselineFormatError(f"{path}: malformed baseline ({error})") from None
