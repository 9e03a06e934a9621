"""Robust statistics for benchmark baselines: median + MAD.

Wall-time samples on shared machines are contaminated by one-sided
noise (page cache misses, CPU migrations, a noisy neighbour): the mean
and standard deviation chase every outlier, while the median and the
median absolute deviation (MAD) ignore up to half the samples being
wild.  Baselines therefore store ``median ± MAD`` and the regression
gate scales its thresholds in MAD units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence


def median(samples: Sequence[float]) -> float:
    """The sample median (mean of the middle pair for even sizes)."""
    if not samples:
        raise ValueError("median of an empty sample set")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(samples: Sequence[float], center: float = None) -> float:  # type: ignore[assignment]
    """Median absolute deviation around ``center`` (default: median).

    Reported raw (no 1.4826 normal-consistency factor): the gate wants
    a robust spread in the data's own units, not a sigma estimate.
    """
    if not samples:
        raise ValueError("MAD of an empty sample set")
    if center is None:
        center = median(samples)
    return median([abs(sample - center) for sample in samples])


@dataclass(frozen=True)
class RobustStats:
    """Summary of one measured quantity across benchmark repeats."""

    n: int
    median: float
    mad: float
    min: float
    max: float
    samples: List[float]

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "RobustStats":
        if not samples:
            raise ValueError("cannot summarize an empty sample set")
        values = [float(sample) for sample in samples]
        return cls(
            n=len(values),
            median=median(values),
            mad=mad(values),
            min=min(values),
            max=max(values),
            samples=values,
        )

    def limit(self, threshold: float, mad_k: float, floor: float = 0.0) -> float:
        """The regression envelope ``median + max(threshold * median,
        mad_k * MAD, floor)`` (for ``mad_k >= 0`` the default floor adds
        nothing); :func:`repro.bench.gate.judge` is its one caller."""
        return self.median + max(
            threshold * self.median, mad_k * self.mad, floor
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "median": self.median,
            "mad": self.mad,
            "min": self.min,
            "max": self.max,
            "samples": list(self.samples),
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "RobustStats":
        """Read :meth:`as_dict` back; a non-finite value is malformed,
        because a ``NaN`` median or MAD makes every limit ``NaN`` and
        the quantity could then never regress."""
        try:
            stats = cls(
                n=int(record["n"]),  # type: ignore[arg-type]
                median=float(record["median"]),  # type: ignore[arg-type]
                mad=float(record["mad"]),  # type: ignore[arg-type]
                min=float(record["min"]),  # type: ignore[arg-type]
                max=float(record["max"]),  # type: ignore[arg-type]
                samples=[float(s) for s in record["samples"]],  # type: ignore[union-attr]
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"malformed robust-stats record: {error}") from None
        for key in ("median", "mad", "min", "max", "samples"):
            values = stats.samples if key == "samples" else [getattr(stats, key)]
            if not all(map(math.isfinite, values)):
                raise ValueError(f"non-finite {key!r} in robust-stats record")
        return stats
