"""Pareto-dominance utilities over operating points.

Figure 3 of the paper reports metric distributions *over the
Pareto-optimal configurations* of each benchmark; these helpers
compute that front from a knowledge base.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Mapping, Sequence, Tuple

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
    """lhs dominates rhs: >= everywhere and > somewhere."""
    at_least_as_good = all(l >= r for l, r in zip(lhs, rhs))
    strictly_better = any(l > r for l, r in zip(lhs, rhs))
    return at_least_as_good and strictly_better


def pareto_filter(
    points: Iterable[OperatingPoint], objectives: Sequence[Objective]
) -> List[OperatingPoint]:
    """The non-dominated subset of ``points`` under ``objectives``."""
    candidates = list(points)
    vectors = [_objective_vector(point, objectives) for point in candidates]
    front: List[OperatingPoint] = []
    for index, vector in enumerate(vectors):
        dominated = any(
            _dominates(other, vector)
            for other_index, other in enumerate(vectors)
            if other_index != index
        )
        if not dominated:
            front.append(candidates[index])
    return front


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
