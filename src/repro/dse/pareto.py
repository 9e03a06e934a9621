"""Pareto-dominance utilities over operating points.

Figure 3 of the paper reports metric distributions *over the
Pareto-optimal configurations* of each benchmark; these helpers
compute that front from a knowledge base.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, List, Sequence, Tuple

from repro.margot.knowledge import KnowledgeBase, OperatingPoint

#: An objective: (metric name, True if higher is better).
Objective = Tuple[str, bool]


def _objective_vector(
    point: OperatingPoint, objectives: Sequence[Objective]
) -> Tuple[float, ...]:
    """Metric means oriented so that larger is always better."""
    values = []
    for metric, maximize in objectives:
        mean = point.metric(metric).mean
        values.append(mean if maximize else -mean)
    return tuple(values)


def _dominates(lhs: Tuple[float, ...], rhs: Tuple[float, ...]) -> bool:
    """lhs dominates rhs: >= everywhere and > somewhere.  Given >=
    everywhere, > somewhere is the same as the vectors differing; NaN
    compares false both ways, so it fails the first test."""
    return lhs != rhs and all(map(operator.ge, lhs, rhs))


def pareto_filter(
    points: Iterable[OperatingPoint], objectives: Sequence[Objective]
) -> List[OperatingPoint]:
    """The non-dominated subset of ``points`` under ``objectives``, in
    input order.

    Sort-filter-skyline: in descending lexicographic order a dominator
    comes before every point it dominates, and dominance is transitive,
    so a point is dominated iff a front member found before it
    dominates it.  A vector with NaN neither dominates nor is dominated,
    and would break the sort, so it is kept without being sorted.
    """
    candidates = list(points)
    vectors = [_objective_vector(point, objectives) for point in candidates]
    keep = [False] * len(candidates)
    order = []
    for index, vector in enumerate(vectors):
        if any(map(math.isnan, vector)):
            keep[index] = True
        else:
            order.append(index)
    order.sort(key=vectors.__getitem__, reverse=True)
    front: List[Tuple[float, ...]] = []
    for index in order:
        vector = vectors[index]
        if not any(_dominates(member, vector) for member in front):
            front.append(vector)
            keep[index] = True
    return [point for point, kept in zip(candidates, keep) if kept]


def pareto_front(
    knowledge: KnowledgeBase, objectives: Sequence[Objective]
) -> KnowledgeBase:
    """Pareto-filter a knowledge base into a new (smaller) one."""
    return KnowledgeBase(pareto_filter(knowledge, objectives))


def canonical_front(front: Iterable[OperatingPoint]) -> List[dict]:
    """Canonical (knobs, metrics) form of a Pareto front for equality
    checks — bit-exact means/stds, stable ordering."""
    return [
        {
            "knobs": dict(op.knobs),
            "metrics": {
                name: [stats.mean, stats.std]
                for name, stats in sorted(op.metrics.items())
            },
        }
        for op in front
    ]
