"""The COBAYN autotuner: train on a corpus, predict flag combinations.

Training learns a discrete Bayesian network over the discretized
Milepost features (evidence nodes) and the flag variables, from the
positive examples of the iterative-compilation corpus.  Prediction
conditions the network on a new kernel's feature bins and ranks every
one of the 128 combinations by posterior probability; the top ``k``
(4 in the paper) become the CF1..CF4 custom configurations of the
SOCRATES autotuning space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cobayn.bn import DiscreteBayesianNetwork, NodeSpec, learn_structure
from repro.cobayn.corpus import TrainingCorpus, assignment_to_config, flag_assignment
from repro.cobayn.discretize import Discretizer
from repro.gcc.flags import ALL_FLAGS, FlagConfiguration, cobayn_space
from repro.milepost.features import FeatureVector


@dataclass
class CobaynPrediction:
    """Ranked flag configurations for one kernel."""

    kernel: str
    ranked: List[Tuple[FlagConfiguration, float]]  # (config, posterior)

    def top(self, k: int = 4) -> List[FlagConfiguration]:
        return [config for config, _ in self.ranked[:k]]


class CobaynAutotuner:
    """Bayesian-network compiler autotuner."""

    def __init__(self, bins: int = 3, top_features: int = 6, max_parents: int = 1) -> None:
        """``max_parents=1`` keeps every CPT conditioned on a single
        variable: with only eleven training kernels, multi-parent rows
        are frequently unseen at prediction time and collapse to the
        Laplace uniform, hurting generalization (leave-one-out rank of
        the predicted combos degrades ~5x with two parents)."""
        self._bins = bins
        self._top_features = top_features
        self._max_parents = max_parents
        self._discretizer: Optional[Discretizer] = None
        self._network: Optional[DiscreteBayesianNetwork] = None

    @property
    def network(self) -> DiscreteBayesianNetwork:
        if self._network is None:
            raise RuntimeError("autotuner is not trained")
        return self._network

    @property
    def discretizer(self) -> Discretizer:
        if self._discretizer is None:
            raise RuntimeError("autotuner is not trained")
        return self._discretizer

    def train(self, corpus: TrainingCorpus) -> None:
        """Fit discretizer + network structure + parameters on ``corpus``."""
        if not corpus.examples:
            raise ValueError("empty training corpus")
        discretizer = Discretizer.fit(
            corpus.feature_vectors(), bins=self._bins, top_k=self._top_features
        )
        rows = corpus.rows(discretizer)
        nodes = [
            NodeSpec(name=name, cardinality=discretizer.cardinality(name))
            for name in discretizer.feature_names
        ]
        nodes.append(NodeSpec(name="level", cardinality=2))
        nodes.extend(NodeSpec(name=flag.value, cardinality=2) for flag in ALL_FLAGS)
        # feature nodes are pure evidence: they never receive arcs
        network = learn_structure(
            nodes,
            rows,
            max_parents=self._max_parents,
            forbidden_children=set(discretizer.feature_names),
        )
        self._discretizer = discretizer
        self._network = network

    def predict(self, features: FeatureVector, k: int = 4) -> CobaynPrediction:
        """Rank the 128 combinations by posterior given ``features``."""
        network = self.network
        evidence = self.discretizer.transform(features)
        scored: List[Tuple[FlagConfiguration, float]] = []
        for config in cobayn_space():
            query = flag_assignment(config)
            posterior = network.posterior(query, evidence)
            scored.append((config, posterior))
        scored.sort(key=lambda item: (-item[1], item[0].label))
        return CobaynPrediction(kernel=features.kernel, ranked=scored[: max(k, len(scored))])

    def predict_top(self, features: FeatureVector, k: int = 4) -> List[FlagConfiguration]:
        """Convenience: just the top-``k`` configurations."""
        return self.predict(features, k).top(k)
