"""Tests for the COBAYN compiler autotuner and its Bayesian network."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cobayn.autotuner import CobaynAutotuner
from repro.cobayn.bn import (
    BayesError,
    DiscreteBayesianNetwork,
    NodeSpec,
    learn_structure,
)
from repro.cobayn.corpus import (
    TrainingCorpus,
    assignment_to_config,
    build_corpus,
    flag_assignment,
)
from repro.cobayn.discretize import Discretizer
from repro.gcc.flags import ALL_FLAGS, FlagConfiguration, OptLevel, cobayn_space
from repro.machine.executor import MachineExecutor
from repro.milepost.features import extract_features
from repro.polybench.suite import load


def rain_network():
    """The classic sprinkler network for inference sanity checks."""
    network = DiscreteBayesianNetwork(
        [NodeSpec("rain", 2), NodeSpec("sprinkler", 2), NodeSpec("wet", 2)]
    )
    network.add_edge("rain", "sprinkler")
    network.add_edge("rain", "wet")
    network.add_edge("sprinkler", "wet")
    return network


def rain_data(rng, count=4000):
    rows = []
    for _ in range(count):
        rain = rng.random() < 0.2
        sprinkler = rng.random() < (0.01 if rain else 0.4)
        p_wet = 0.99 if (rain and sprinkler) else 0.9 if rain else 0.85 if sprinkler else 0.02
        wet = rng.random() < p_wet
        rows.append({"rain": int(rain), "sprinkler": int(sprinkler), "wet": int(wet)})
    return rows


class TestBayesianNetwork:
    def test_node_cardinality_validation(self):
        with pytest.raises(ValueError):
            NodeSpec("x", 1)

    def test_duplicate_node_rejected(self):
        with pytest.raises(BayesError):
            DiscreteBayesianNetwork([NodeSpec("a", 2), NodeSpec("a", 2)])

    def test_cycle_rejected(self):
        network = DiscreteBayesianNetwork([NodeSpec("a", 2), NodeSpec("b", 2)])
        network.add_edge("a", "b")
        with pytest.raises(BayesError):
            network.add_edge("b", "a")

    def test_self_loop_rejected(self):
        network = DiscreteBayesianNetwork([NodeSpec("a", 2)])
        with pytest.raises(BayesError):
            network.add_edge("a", "a")

    def test_topological_order(self):
        network = rain_network()
        order = network.topological_order()
        assert order.index("rain") < order.index("sprinkler") < order.index("wet")

    def test_cpt_rows_sum_to_one(self):
        network = rain_network()
        network.fit(rain_data(np.random.default_rng(0)))
        for node in network.node_names:
            np.testing.assert_allclose(network.cpt(node).sum(axis=1), 1.0)

    def test_joint_probabilities_sum_to_one(self):
        network = rain_network()
        network.fit(rain_data(np.random.default_rng(0)))
        total = sum(
            network.probability({"rain": r, "sprinkler": s, "wet": w})
            for r in (0, 1)
            for s in (0, 1)
            for w in (0, 1)
        )
        assert total == pytest.approx(1.0)

    def test_posterior_matches_generator(self):
        network = rain_network()
        network.fit(rain_data(np.random.default_rng(1), count=8000))
        # P(rain | wet) should be much higher than P(rain)
        prior = network.posterior({"rain": 1})
        posterior = network.posterior({"rain": 1}, {"wet": 1})
        assert prior == pytest.approx(0.2, abs=0.05)
        assert posterior > prior + 0.1

    def test_posterior_conflicting_evidence_zero(self):
        network = rain_network()
        network.fit(rain_data(np.random.default_rng(0)))
        assert network.posterior({"rain": 1}, {"rain": 0}) == 0.0

    def test_unfitted_network_raises(self):
        network = rain_network()
        with pytest.raises(BayesError):
            network.probability({"rain": 0, "sprinkler": 0, "wet": 0})

    def test_sampling_respects_distribution(self):
        network = rain_network()
        network.fit(rain_data(np.random.default_rng(2), count=8000))
        samples = network.sample(np.random.default_rng(3), count=4000)
        rain_rate = sum(s["rain"] for s in samples) / len(samples)
        assert rain_rate == pytest.approx(0.2, abs=0.04)

    def test_laplace_smoothing_keeps_positive(self):
        network = DiscreteBayesianNetwork([NodeSpec("a", 2)])
        network.fit([{"a": 0}] * 10)  # never saw a=1
        assert network.probability({"a": 1}) > 0.0

    def test_structure_learning_recovers_dependency(self):
        rng = np.random.default_rng(4)
        rows = rain_data(rng, count=3000)
        nodes = [NodeSpec("rain", 2), NodeSpec("sprinkler", 2), NodeSpec("wet", 2)]
        network = learn_structure(nodes, rows, max_parents=2)
        # wet depends strongly on rain: some edge must touch wet
        assert any("wet" in edge for edge in network.edges())

    def test_bic_penalizes_spurious_edges(self):
        rng = np.random.default_rng(5)
        rows = [
            {"a": int(rng.random() < 0.5), "b": int(rng.random() < 0.5)}
            for _ in range(2000)
        ]
        nodes = [NodeSpec("a", 2), NodeSpec("b", 2)]
        network = learn_structure(nodes, rows)
        assert network.edges() == []  # independent variables stay unlinked

    def test_remove_edge(self):
        network = rain_network()
        network.remove_edge("rain", "wet")
        assert ("rain", "wet") not in network.edges()


class TestFlagEncoding:
    def test_round_trip_all_combinations(self):
        for config in cobayn_space():
            assert assignment_to_config(flag_assignment(config)) == config

    def test_level_encoding(self):
        o2 = FlagConfiguration(OptLevel.O2)
        o3 = FlagConfiguration(OptLevel.O3)
        assert flag_assignment(o2)["level"] == 0
        assert flag_assignment(o3)["level"] == 1

    def test_flag_variables_binary(self):
        row = flag_assignment(cobayn_space()[77])
        assert set(row.values()) <= {0, 1}
        assert len(row) == 1 + len(ALL_FLAGS)


class TestDiscretizer:
    def test_selects_informative_features(self, corpus):
        discretizer = Discretizer.fit(corpus.feature_vectors(), bins=3, top_k=6)
        assert len(discretizer.feature_names) == 6
        # the selected features must actually separate the kernels
        binned = [
            tuple(discretizer.transform(vector).values())
            for vector in corpus.feature_vectors()
        ]
        assert len(set(binned)) >= 6

    def test_transform_levels_in_range(self, corpus):
        discretizer = Discretizer.fit(corpus.feature_vectors(), bins=3, top_k=8)
        for vector in corpus.feature_vectors():
            for name, level in discretizer.transform(vector).items():
                assert 0 <= level < discretizer.cardinality(name)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Discretizer.fit([])

    def test_rejects_single_bin(self, corpus):
        with pytest.raises(ValueError):
            Discretizer.fit(corpus.feature_vectors(), bins=1)


class TestCorpus:
    def test_corpus_covers_all_apps(self, corpus):
        assert len(corpus.examples) == 12

    def test_good_configs_are_actually_good(self, corpus):
        for example in corpus.examples:
            times = dict(
                (config, time) for config, time in example.timings
            )
            best_time = min(times.values())
            for config in example.good_configs:
                assert times[config] <= best_time * 1.35

    def test_timings_complete(self, corpus):
        for example in corpus.examples:
            assert len(example.timings) == 128

    def test_rows_contain_features_and_flags(self, corpus):
        discretizer = Discretizer.fit(corpus.feature_vectors(), bins=3, top_k=4)
        rows = corpus.rows(discretizer)
        assert rows
        sample = rows[0]
        assert "level" in sample
        assert any(name.startswith("ft") for name in sample)

    def test_good_fraction_validation(self, apps, compiler, executor, omp):
        with pytest.raises(ValueError):
            build_corpus(apps[:1], compiler, executor, omp, good_fraction=0.0)

    def test_prune_plans_exclude_unsafe_configs(self, compiler, executor, omp):
        """Opt-in flag-safety pruning: with a plan whose verdict marks
        fast-math unsafe, the corpus skips those 64 configurations."""
        from repro.analysis.cost import build_prune_plan
        from repro.engine.model import DesignSpace
        from repro.gcc.flags import Flag, standard_levels

        app = load("mvt")  # dot-product reductions: FPS201 fires
        space = DesignSpace(
            compiler_configs=standard_levels(), thread_counts=[1]
        )
        plan = build_prune_plan(app, space, machine=executor.machine)
        assert "UNSAFE_MATH" in plan.flag_safety.unsafe_flags
        corpus = build_corpus(
            [app], compiler, executor, omp, plans={app.name: plan}
        )
        (example,) = corpus.examples
        assert len(example.timings) == 64
        assert all(
            not config.has(Flag.UNSAFE_MATH) for config, _ in example.timings
        )
        assert example.good_configs

    def test_without_plans_the_space_is_untouched(
        self, compiler, executor, omp
    ):
        app = load("mvt")
        corpus = build_corpus([app], compiler, executor, omp, plans=None)
        (example,) = corpus.examples
        assert len(example.timings) == 128


class TestAutotuner:
    @pytest.fixture(scope="class")
    def trained(self, corpus):
        tuner = CobaynAutotuner()
        tuner.train(corpus)
        return tuner

    def test_untrained_raises(self):
        tuner = CobaynAutotuner()
        with pytest.raises(RuntimeError):
            tuner.network

    def test_train_on_empty_corpus_raises(self):
        from repro.cobayn.corpus import TrainingCorpus

        tuner = CobaynAutotuner()
        with pytest.raises(ValueError):
            tuner.train(TrainingCorpus())

    def test_prediction_returns_k_unique_configs(self, trained, two_mm):
        features = extract_features(two_mm.parse(), "kernel_2mm")
        top = trained.predict_top(features, 4)
        assert len(top) == 4
        assert len(set(top)) == 4

    def test_prediction_probabilities_descend(self, trained, two_mm):
        features = extract_features(two_mm.parse(), "kernel_2mm")
        prediction = trained.predict(features)
        probabilities = [p for _, p in prediction.ranked]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_posteriors_normalize_over_space(self, trained, two_mm):
        features = extract_features(two_mm.parse(), "kernel_2mm")
        prediction = trained.predict(features)
        assert sum(p for _, p in prediction.ranked) == pytest.approx(1.0, abs=1e-6)

    def test_leave_one_out_prunes_well(self, apps, compiler, executor, omp):
        """Core COBAYN claim: predicted configs sit near the true top."""
        from repro.machine.openmp import BindingPolicy
        from repro.polybench.workload import profile_kernel

        target = load("3mm")
        train = [app for app in apps if app.name != "3mm"]
        corpus = build_corpus(train, compiler, executor, omp)
        tuner = CobaynAutotuner()
        tuner.train(corpus)
        features = extract_features(target.parse(), target.kernels[0])
        predicted = tuner.predict_top(features, 4)

        placement = omp.place(16, BindingPolicy.CLOSE)
        profile = profile_kernel(target)
        truth = sorted(
            cobayn_space(),
            key=lambda config: executor.evaluate(
                compiler.compile(profile, config), placement
            ).time_s,
        )
        ranks = [truth.index(config) for config in predicted]
        assert min(ranks) < 16  # at least one prediction in the true top-12%
        assert sum(ranks) / len(ranks) < 48  # and the set beats random (mean 64)


class TestLoocvEvaluation:
    def test_report_over_three_apps(self, compiler, executor, omp):
        from repro.cobayn.evaluation import loocv_report
        from repro.polybench.suite import load

        apps = [load("mvt"), load("atax"), load("gemver")]
        report = loocv_report(apps, compiler, executor, omp, k=3)
        assert len(report.entries) == 3
        assert report.k == 3 and report.space_size == 128
        for entry in report.entries:
            assert len(entry.predicted_ranks) == 3
            assert all(0 <= rank < 128 for rank in entry.predicted_ranks)
            assert entry.speedup_vs_o3 > 0
        table = report.to_table()
        assert "mvt" in table and "random k-subset" in table
        assert report.mean_rank < report.random_baseline_mean_rank()

    def test_needs_three_apps(self, compiler, executor, omp):
        from repro.cobayn.evaluation import loocv_report
        from repro.polybench.suite import load

        with pytest.raises(ValueError):
            loocv_report([load("mvt")], compiler, executor, omp)


# -- reference: the structure search and the ranking as first written ------
#
# The per-row BIC search and the per-config posterior enumeration, kept
# here through the public network API, so the learned structure, the
# CPTs and every posterior of the production code can be compared bit
# for bit against them.  Two things are left out because nothing reads
# what they produce: the refit after each rejected candidate (the next
# score refits first, and the search ends with a fit), and repeated
# evaluation of the same complete assignment (``probability`` is a pure
# function of the row, so the enumeration memoises it; every marginal
# still sums the same terms in the same order).


def _reference_bic(network, rows, alpha=1.0):
    network.fit(rows, alpha=alpha)
    log_likelihood = sum(network.log_probability(row) for row in rows)
    parameters = 0
    for node in network.node_names:
        parents = network.parents(node)
        combos = int(
            np.prod([network.cardinality(p) for p in parents])
        ) if parents else 1
        parameters += combos * (network.cardinality(node) - 1)
    penalty = 0.5 * parameters * math.log(max(2, len(rows)))
    return log_likelihood - penalty


def _reference_learn(nodes, rows, max_parents=2, max_iterations=25,
                     forbidden_children=None, seed=7):
    forbidden_children = forbidden_children or set()
    network = DiscreteBayesianNetwork(nodes)
    best_score = _reference_bic(network, rows)
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
                score = _reference_bic(network, rows)
                if score > best_score + 1e-9:
                    best_score = score
                    improved = True
                else:
                    network.add_edge(parent, child)
                continue
            if len(network.parents(child)) >= max_parents:
                continue
            try:
                network.add_edge(parent, child)
            except BayesError:
                continue
            score = _reference_bic(network, rows)
            if score > best_score + 1e-9:
                best_score = score
                improved = True
            else:
                network.remove_edge(parent, child)
        if not improved:
            break
    network.fit(rows)
    return network


def _reference_marginal(network, partial, probabilities):
    hidden = [name for name in network.node_names if name not in partial]
    cards = [network.cardinality(name) for name in hidden]
    total = 0.0
    for states in itertools.product(*(range(card) for card in cards)):
        row = dict(partial)
        row.update(zip(hidden, states))
        key = tuple(row[name] for name in network.node_names)
        if key not in probabilities:
            probabilities[key] = network.probability(row)
        total += probabilities[key]
    return total


def _reference_posterior(network, query, evidence, probabilities):
    for node in set(query) & set(evidence):
        if query[node] != evidence[node]:
            return 0.0
    numerator = _reference_marginal(network, {**evidence, **query}, probabilities)
    denominator = _reference_marginal(network, evidence, probabilities)
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


def _reference_ranked(network, evidence):
    probabilities = {}
    scored = [
        (
            config.label,
            _reference_posterior(
                network, flag_assignment(config), evidence, probabilities
            ),
        )
        for config in cobayn_space()
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [(label, posterior.hex()) for label, posterior in scored]


def _network_pin(network):
    return (
        network.edges(),
        [(node, network.cpt(node).tobytes()) for node in network.node_names],
    )


def _reference_fold(cache, tuner, fold, max_parents, evidence):
    network = tuner.network
    rows = fold.rows(tuner.discretizer)
    key = (
        tuple(tuple(sorted(row.items())) for row in rows),
        max_parents,
        tuple(sorted(evidence.items())),
    )
    if key not in cache:
        nodes = [
            NodeSpec(name, network.cardinality(name)) for name in network.node_names
        ]
        reference = _reference_learn(
            nodes,
            rows,
            max_parents=max_parents,
            forbidden_children=set(tuner.discretizer.feature_names),
        )
        cache[key] = (
            _network_pin(reference),
            _reference_ranked(reference, evidence),
        )
    return cache[key]


@pytest.fixture(scope="module")
def seeded_corpora(apps, compiler, machine, omp):
    """The full-suite corpus per executor seed; a fold drops one app."""
    return {
        seed: build_corpus(apps, compiler, MachineExecutor(machine, seed=seed), omp)
        for seed in (20682, 1)
    }


@pytest.fixture(scope="module")
def reference_cache():
    """Reference results by input.  The reference is a pure function of
    the training rows, ``max_parents`` and the evidence, so a fold whose
    rows repeat (the corpus is measured noise-free, so both seeds give
    the same rows) is computed once."""
    return {}


class TestReferenceEquivalence:
    @pytest.mark.parametrize("max_parents", [1, 2])
    @pytest.mark.parametrize("seed", [20682, 1])
    def test_leave_one_out_folds_match_reference(
        self, seeded_corpora, reference_cache, seed, max_parents
    ):
        corpus = seeded_corpora[seed]
        for held_out in corpus.examples:
            fold = TrainingCorpus(
                [example for example in corpus.examples if example is not held_out]
            )
            tuner = CobaynAutotuner(max_parents=max_parents)
            tuner.train(fold)
            evidence = tuner.discretizer.transform(held_out.features)
            network_pin, ranked = _reference_fold(
                reference_cache, tuner, fold, max_parents, evidence
            )
            assert _network_pin(tuner.network) == network_pin, held_out.kernel
            prediction = tuner.predict(held_out.features)
            assert all(0.0 <= posterior <= 1.0 for _, posterior in prediction.ranked)
            assert [
                (config.label, posterior.hex()) for config, posterior in prediction.ranked
            ] == ranked, held_out.kernel

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_small_networks_match_reference(self, data):
        count = data.draw(st.integers(min_value=2, max_value=5), label="nodes")
        nodes = [
            NodeSpec(f"n{index}", data.draw(st.integers(2, 3), label=f"card{index}"))
            for index in range(count)
        ]
        rows = data.draw(
            st.lists(
                st.tuples(*(st.integers(0, spec.cardinality - 1) for spec in nodes)),
                min_size=1,
                max_size=40,
            ),
            label="rows",
        )
        rows = [
            {spec.name: state for spec, state in zip(nodes, row)} for row in rows
        ]
        forbidden = set(
            data.draw(st.lists(st.sampled_from([spec.name for spec in nodes])), label="forbidden")
        )
        max_parents = data.draw(st.integers(1, 2), label="max_parents")
        reference = _reference_learn(
            nodes, rows, max_parents=max_parents, forbidden_children=forbidden
        )
        learned = learn_structure(
            nodes, rows, max_parents=max_parents, forbidden_children=forbidden
        )
        assert learned.edges() == reference.edges()
        assert _network_pin(learned) == _network_pin(reference)
        expected = _reference_bic(reference, rows)
        assert learned.bic_score(rows) == pytest.approx(expected, rel=0, abs=1e-9)
