"""A discrete Bayesian network with CPT estimation, BIC structure
learning and exact inference.

COBAYN's networks have ~15 nodes with 2-4 states each, so exact
methods are fast and simple:

* **structure**: greedy hill-climbing under BIC.  BIC decomposes per
  family (a node and its parents), so the search encodes the rows once
  as integer columns, counts each family with ``np.bincount``, caches
  its term, and rescores only the child a move touches;
* **parameters**: Laplace-smoothed CPTs counted from complete rows;
* **inference**: enumeration over the joint of the variables that are
  neither queried nor observed; :meth:`DiscreteBayesianNetwork.posteriors`
  enumerates the evidence marginal once for a batch of queries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

Assignment = Mapping[str, int]


@dataclass
class NodeSpec:
    """One variable: its name and the number of discrete states."""

    name: str
    cardinality: int

    def __post_init__(self) -> None:
        if self.cardinality < 2:
            raise ValueError(f"node {self.name!r} needs >= 2 states")


class BayesError(ValueError):
    """Raised on structural misuse (cycles, unknown nodes, ...)."""


class DiscreteBayesianNetwork:
    """Directed graphical model over discrete variables.

    Build with node specs and edges, then :meth:`fit` CPTs from data
    (rows are ``{node: state_index}`` mappings).  Laplace smoothing
    keeps every conditional strictly positive so unseen flag
    combinations keep a nonzero posterior.
    """

    def __init__(self, nodes: Iterable[NodeSpec]) -> None:
        self._nodes: Dict[str, NodeSpec] = {}
        for spec in nodes:
            if spec.name in self._nodes:
                raise BayesError(f"duplicate node {spec.name!r}")
            self._nodes[spec.name] = spec
        self._parents: Dict[str, List[str]] = {name: [] for name in self._nodes}
        # CPTs: node -> array of shape (prod(parent cards), cardinality)
        self._cpts: Dict[str, np.ndarray] = {}

    # -- structure ------------------------------------------------------------

    @property
    def node_names(self) -> List[str]:
        return list(self._nodes)

    def cardinality(self, node: str) -> int:
        return self._nodes[node].cardinality

    def parents(self, node: str) -> List[str]:
        return list(self._parents[node])

    def edges(self) -> List[Tuple[str, str]]:
        return [
            (parent, child)
            for child, parents in self._parents.items()
            for parent in parents
        ]

    def add_edge(self, parent: str, child: str) -> None:
        if parent not in self._nodes or child not in self._nodes:
            raise BayesError(f"unknown node in edge {parent!r} -> {child!r}")
        if parent == child:
            raise BayesError("self loops are not allowed")
        if parent in self._parents[child]:
            return
        self._parents[child].append(parent)
        if self._has_cycle():
            self._parents[child].remove(parent)
            raise BayesError(f"edge {parent!r} -> {child!r} creates a cycle")
        self._cpts.clear()  # structure changed: parameters invalid

    def remove_edge(self, parent: str, child: str) -> None:
        if parent in self._parents.get(child, []):
            self._parents[child].remove(parent)
            self._cpts.clear()

    def _has_cycle(self) -> bool:
        visited: Dict[str, int] = {}  # 0=unseen 1=in-stack 2=done

        def visit(node: str) -> bool:
            state = visited.get(node, 0)
            if state == 1:
                return True
            if state == 2:
                return False
            visited[node] = 1
            for parent in self._parents[node]:
                if visit(parent):
                    return True
            visited[node] = 2
            return False

        return any(visit(node) for node in self._nodes)

    def topological_order(self) -> List[str]:
        order: List[str] = []
        seen: Set[str] = set()

        def visit(node: str) -> None:
            if node in seen:
                return
            seen.add(node)
            for parent in self._parents[node]:
                visit(parent)
            order.append(node)

        for node in self._nodes:
            visit(node)
        return order

    # -- parameters -------------------------------------------------------------

    def fit(self, rows: Sequence[Assignment], alpha: float = 1.0) -> None:
        """Estimate every CPT from complete data with Laplace ``alpha``."""
        for node in self._nodes:
            self._cpts[node] = self._fit_node(node, rows, alpha)

    def _fit_node(
        self, node: str, rows: Sequence[Assignment], alpha: float
    ) -> np.ndarray:
        parents = self._parents[node]
        parent_cards = [self._nodes[p].cardinality for p in parents]
        rows_count = int(np.prod(parent_cards)) if parents else 1
        card = self._nodes[node].cardinality
        counts = np.full((rows_count, card), alpha, dtype=float)
        for row in rows:
            index = self._parent_index(parents, parent_cards, row)
            counts[index, row[node]] += 1.0
        return counts / counts.sum(axis=1, keepdims=True)

    @staticmethod
    def _parent_index(
        parents: List[str], parent_cards: List[int], row: Assignment
    ) -> int:
        index = 0
        for parent, card in zip(parents, parent_cards):
            index = index * card + row[parent]
        return index

    def cpt(self, node: str) -> np.ndarray:
        if node not in self._cpts:
            raise BayesError(f"network not fitted (missing CPT for {node!r})")
        return self._cpts[node]

    # -- inference --------------------------------------------------------------

    def log_probability(self, row: Assignment) -> float:
        """Joint log-probability of one complete assignment."""
        total = 0.0
        for node, parents in self._parents.items():
            index = 0
            for parent in parents:
                index = index * self._nodes[parent].cardinality + row[parent]
            total += math.log(self.cpt(node)[index, row[node]])
        return total

    def probability(self, row: Assignment) -> float:
        return math.exp(self.log_probability(row))

    def posterior(
        self, query: Mapping[str, int], evidence: Optional[Assignment] = None
    ) -> float:
        """P(query | evidence) by enumeration over hidden variables."""
        return self.posteriors([query], evidence)[0]

    def posteriors(
        self,
        queries: Sequence[Mapping[str, int]],
        evidence: Optional[Assignment] = None,
    ) -> List[float]:
        """P(query | evidence) for every query, in order.

        The denominator, the evidence marginal, is the same for every
        query and is enumerated once; each numerator is its own
        marginal, so every value is the division :meth:`posterior`
        would make for that query alone.
        """
        evidence = dict(evidence or {})
        denominator = self._marginal(evidence)
        results: List[float] = []
        for query in queries:
            conflict = any(
                query[node] != evidence[node] for node in set(query) & set(evidence)
            )
            if conflict or denominator == 0.0:
                results.append(0.0)
            else:
                results.append(
                    self._marginal({**evidence, **query}) / denominator
                )
        return results

    def _marginal(self, partial: Assignment) -> float:
        hidden = [name for name in self._nodes if name not in partial]
        cards = [self._nodes[name].cardinality for name in hidden]
        total = 0.0
        for states in itertools.product(*(range(card) for card in cards)):
            row = dict(partial)
            row.update(zip(hidden, states))
            total += self.probability(row)
        return total

    def sample(self, rng: np.random.Generator, count: int = 1) -> List[Dict[str, int]]:
        """Ancestral sampling of complete assignments."""
        order = self.topological_order()
        samples: List[Dict[str, int]] = []
        for _ in range(count):
            row: Dict[str, int] = {}
            for node in order:
                parents = self._parents[node]
                parent_cards = [self._nodes[p].cardinality for p in parents]
                index = self._parent_index(parents, parent_cards, row)
                probs = self.cpt(node)[index]
                row[node] = int(rng.choice(len(probs), p=probs))
            samples.append(row)
        return samples

    # -- scoring -----------------------------------------------------------------

    def bic_score(self, rows: Sequence[Assignment], alpha: float = 1.0) -> float:
        """Bayesian Information Criterion of this structure on ``rows``."""
        return self._bic(_FamilyScores(self._nodes.values(), rows, alpha))

    def _bic(self, scores: "_FamilyScores") -> float:
        return sum(
            scores.term(node, tuple(parents)) for node, parents in self._parents.items()
        )


class _FamilyScores:
    """BIC terms of families ``(child, parents)`` over one set of rows.

    A family's term is its count-weighted log-likelihood under the
    Laplace-smoothed CPT :meth:`DiscreteBayesianNetwork.fit` would
    estimate, minus half its free parameters times log N.  A network's
    BIC is the sum of its families' terms.  The rows are encoded once
    as integer columns, a family is counted with one ``np.bincount``,
    and each term is computed at most once.
    """

    def __init__(
        self, nodes: Iterable[NodeSpec], rows: Sequence[Assignment], alpha: float
    ) -> None:
        nodes = list(nodes)
        self._cards = {spec.name: spec.cardinality for spec in nodes}
        self._columns = {
            spec.name: np.fromiter(
                (row[spec.name] for row in rows), dtype=np.intp, count=len(rows)
            )
            for spec in nodes
        }
        self._alpha = alpha
        self._log_n = math.log(max(2, len(rows)))
        self._terms: Dict[Tuple[str, Tuple[str, ...]], float] = {}

    def term(self, child: str, parents: Tuple[str, ...]) -> float:
        key = (child, parents)
        if key not in self._terms:
            self._terms[key] = self._score(child, parents)
        return self._terms[key]

    def _score(self, child: str, parents: Tuple[str, ...]) -> float:
        card = self._cards[child]
        combos = 1
        index = np.zeros_like(self._columns[child])
        for parent in parents:
            index = index * self._cards[parent] + self._columns[parent]
            combos *= self._cards[parent]
        counts = np.bincount(
            index * card + self._columns[child], minlength=combos * card
        ).reshape(combos, card)
        smoothed = counts + self._alpha
        cpt = smoothed / smoothed.sum(axis=1, keepdims=True)
        seen = counts > 0
        log_likelihood = float(np.sum(counts[seen] * np.log(cpt[seen])))
        return log_likelihood - 0.5 * combos * (card - 1) * self._log_n


def learn_structure(
    nodes: Sequence[NodeSpec],
    rows: Sequence[Assignment],
    max_parents: int = 2,
    max_iterations: int = 25,
    forbidden_children: Optional[Set[str]] = None,
    seed: int = 7,
) -> DiscreteBayesianNetwork:
    """Greedy hill-climbing structure search under the BIC score.

    Each iteration shuffles every candidate edge (``seed``) and takes
    each move that raises the score by more than 1e-9 as soon as it is
    scored: an existing edge is tried for removal, a missing one for
    addition if the child has fewer than ``max_parents`` parents and no
    cycle forms.  A move rescores only its child's family.  The search
    stops after an iteration without a move, or ``max_iterations``.

    ``forbidden_children`` lists nodes that may not *receive* edges —
    COBAYN's feature nodes are observed evidence, so arcs only point
    from features to flags (and among flags).
    """
    forbidden_children = forbidden_children or set()
    network = DiscreteBayesianNetwork(nodes)
    scores = _FamilyScores(nodes, rows, alpha=1.0)
    best_score = network._bic(scores)
    names = [spec.name for spec in nodes]
    rng = np.random.default_rng(seed)

    for _ in range(max_iterations):
        improved = False
        candidates = [
            (parent, child)
            for parent in names
            for child in names
            if parent != child and child not in forbidden_children
        ]
        rng.shuffle(candidates)
        for parent, child in candidates:
            if parent in network.parents(child):
                network.remove_edge(parent, child)
                undo = network.add_edge
            else:
                if len(network.parents(child)) >= max_parents:
                    continue
                try:
                    network.add_edge(parent, child)
                except BayesError:
                    continue
                undo = network.remove_edge
            score = network._bic(scores)
            if score > best_score + 1e-9:
                best_score = score
                improved = True
            else:
                undo(parent, child)
        if not improved:
            break
    network.fit(rows)
    return network
