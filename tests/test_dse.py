"""Tests for design-space exploration and Pareto filtering."""

import functools
import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.explorer import (
    KNOB_COMPILER,
    KNOB_THREADS,
    DesignPoint,
    DesignSpace,
    DesignSpaceExplorer,
    ProfiledSample,
)
from repro.dse.pareto import (
    _objective_vector,
    canonical_front,
    pareto_filter,
    pareto_front,
)
from repro.dse.strategies import (
    FullFactorialStrategy,
    LatinHypercubeStrategy,
    RandomStrategy,
)
from repro.engine.core import EvaluationEngine
from repro.gcc.flags import FlagConfiguration, OptLevel, standard_levels
from repro.machine.executor import MachineExecutor
from repro.machine.openmp import BindingPolicy
from repro.machine.registry import resolve_machine
from repro.margot.knowledge import KnowledgeBase, MetricStats, OperatingPoint
from repro.obs import NULL_OBS
from repro.polybench.suite import BENCHMARK_NAMES, load
from repro.polybench.workload import profile_kernel


@pytest.fixture(scope="module")
def small_space():
    return DesignSpace(
        compiler_configs=standard_levels(),
        thread_counts=[1, 4, 16],
    )


@pytest.fixture(scope="module")
def exploration(small_space, compiler, executor, omp):
    explorer = DesignSpaceExplorer(compiler, executor, omp, repetitions=4)
    return explorer.explore(profile_kernel(load("2mm")), small_space)


def simple_op(threads, time, power):
    return OperatingPoint(
        knobs={"threads": threads},
        metrics={
            "time": MetricStats(time),
            "power": MetricStats(power),
            "throughput": MetricStats(1.0 / time),
        },
    )


class TestDesignSpace:
    def test_size(self, small_space):
        assert small_space.size == 4 * 3 * 2

    def test_points_enumerated(self, small_space):
        points = small_space.points()
        assert len(points) == small_space.size
        assert len(set(points)) == small_space.size

    def test_point_fields(self, small_space):
        point = small_space.points()[0]
        assert isinstance(point, DesignPoint)
        assert point.binding in BindingPolicy


class TestStrategies:
    def test_full_factorial_selects_all(self, small_space):
        rng = np.random.default_rng(0)
        selected = FullFactorialStrategy().select(small_space.points(), rng)
        assert len(selected) == small_space.size

    def test_random_fraction(self, small_space):
        rng = np.random.default_rng(0)
        selected = RandomStrategy(fraction=0.5, minimum=1).select(
            small_space.points(), rng
        )
        assert len(selected) == small_space.size // 2
        assert len(set(selected)) == len(selected)

    def test_random_minimum_enforced(self, small_space):
        rng = np.random.default_rng(0)
        selected = RandomStrategy(fraction=0.01, minimum=5).select(
            small_space.points(), rng
        )
        assert len(selected) == 5

    def test_random_invalid_fraction(self):
        with pytest.raises(ValueError):
            RandomStrategy(fraction=0.0)

    def test_lhs_covers_strata(self, small_space):
        rng = np.random.default_rng(0)
        points = small_space.points()
        selected = LatinHypercubeStrategy(samples=6).select(points, rng)
        assert len(selected) == 6
        # one point per sixth of the (ordered) space
        indices = sorted(points.index(point) for point in selected)
        for stratum, index in enumerate(indices):
            assert stratum * 4 <= index < (stratum + 1) * 4

    def test_lhs_more_samples_than_points(self, small_space):
        rng = np.random.default_rng(0)
        selected = LatinHypercubeStrategy(samples=999).select(
            small_space.points(), rng
        )
        assert len(selected) == small_space.size


class TestExplorer:
    def test_knowledge_has_all_points(self, exploration, small_space):
        assert len(exploration.knowledge) == small_space.size
        assert exploration.coverage == 1.0

    def test_operating_point_schema(self, exploration):
        assert set(exploration.knowledge.knob_names) == {
            "compiler",
            "threads",
            "binding",
        }
        assert set(exploration.knowledge.metric_names) == {
            "time",
            "throughput",
            "power",
            "energy",
        }

    def test_repetitions_produce_std(self, exploration):
        stds = [point.metric("time").std for point in exploration.knowledge]
        assert any(std > 0 for std in stds)

    def test_samples_recorded(self, exploration, small_space):
        assert len(exploration.samples) == small_space.size
        assert all(len(sample.times) == 4 for sample in exploration.samples)

    def test_throughput_consistent_with_time(self, exploration):
        for point in exploration.knowledge:
            time = point.metric("time").mean
            throughput = point.metric("throughput").mean
            assert throughput == pytest.approx(1.0 / time, rel=0.05)

    def test_more_threads_more_power(self, exploration):
        one = exploration.knowledge.find(compiler="-O2", threads=1, binding="close")
        sixteen = exploration.knowledge.find(
            compiler="-O2", threads=16, binding="close"
        )
        assert sixteen.metric("power").mean > one.metric("power").mean

    def test_invalid_repetitions(self, compiler, executor, omp):
        with pytest.raises(ValueError):
            DesignSpaceExplorer(compiler, executor, omp, repetitions=0)

    def test_seeded_exploration_reproducible(
        self, small_space, compiler, omp, machine
    ):
        from repro.machine.executor import MachineExecutor

        profile = profile_kernel(load("2mm"))
        results = []
        for _ in range(2):
            executor = MachineExecutor(machine, seed=77)
            explorer = DesignSpaceExplorer(compiler, executor, omp, repetitions=2)
            outcome = explorer.explore(profile, small_space, seed=5)
            results.append(
                [point.metric("time").mean for point in outcome.knowledge]
            )
        assert results[0] == results[1]


class TestPareto:
    def test_dominated_point_removed(self):
        points = [
            simple_op(1, time=1.0, power=50.0),
            simple_op(2, time=0.9, power=45.0),  # dominates the first
        ]
        front = pareto_filter(points, [("time", False), ("power", False)])
        assert len(front) == 1
        assert front[0].knob("threads") == 2

    def test_incomparable_points_kept(self):
        points = [
            simple_op(1, time=1.0, power=40.0),
            simple_op(2, time=0.5, power=90.0),
        ]
        front = pareto_filter(points, [("time", False), ("power", False)])
        assert len(front) == 2

    def test_duplicate_points_both_kept(self):
        points = [
            simple_op(1, time=1.0, power=50.0),
            simple_op(2, time=1.0, power=50.0),
        ]
        front = pareto_filter(points, [("time", False), ("power", False)])
        assert len(front) == 2  # neither strictly dominates

    def test_maximize_orientation(self):
        points = [
            simple_op(1, time=1.0, power=50.0),  # throughput 1.0
            simple_op(2, time=2.0, power=50.0),  # throughput 0.5, same power
        ]
        front = pareto_filter(points, [("throughput", True), ("power", False)])
        assert [p.knob("threads") for p in front] == [1]

    def test_pareto_front_builds_knowledge_base(self, exploration):
        front = pareto_front(
            exploration.knowledge, [("throughput", True), ("power", False)]
        )
        assert isinstance(front, KnowledgeBase)
        assert 0 < len(front) <= len(exploration.knowledge)

    def test_front_members_not_dominated(self, exploration):
        objectives = [("throughput", True), ("power", False)]
        front = pareto_front(exploration.knowledge, objectives)
        all_points = exploration.knowledge.points()
        for member in front:
            for other in all_points:
                better_thr = other.metric("throughput").mean > member.metric(
                    "throughput"
                ).mean
                better_pow = other.metric("power").mean < member.metric("power").mean
                not_worse_thr = other.metric("throughput").mean >= member.metric(
                    "throughput"
                ).mean
                not_worse_pow = other.metric("power").mean <= member.metric("power").mean
                assert not (
                    not_worse_thr and not_worse_pow and (better_thr or better_pow)
                )


def _reference_dominates(lhs, rhs):
    """The original dominance test: >= everywhere and > somewhere."""
    at_least_as_good = all(l >= r for l, r in zip(lhs, rhs))
    strictly_better = any(l > r for l, r in zip(lhs, rhs))
    return at_least_as_good and strictly_better


def reference_pareto_filter(points, objectives):
    """The original all-pairs filter: a point is kept unless some other
    point dominates it; kept points stay in input order."""
    candidates = list(points)
    vectors = [_objective_vector(point, objectives) for point in candidates]
    return [
        candidates[index]
        for index, vector in enumerate(vectors)
        if not any(
            _reference_dominates(other, vector)
            for other_index, other in enumerate(vectors)
            if other_index != index
        )
    ]


#: A small value grid, so that draws tie, repeat whole vectors, mix the
#: two zeros and carry NaN.
_GRID = st.sampled_from([-1.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, math.nan])

_METRICS = ("a", "b", "c")


@st.composite
def _front_cases(draw):
    width = draw(st.integers(min_value=1, max_value=3))
    objectives = [
        (metric, draw(st.booleans())) for metric in _METRICS[:width]
    ]
    rows = draw(
        st.lists(st.tuples(*[_GRID] * width), min_size=0, max_size=40)
    )
    points = [
        OperatingPoint(
            knobs={"id": index},
            metrics={metric: MetricStats(value) for metric, value in zip(_METRICS, row)},
        )
        for index, row in enumerate(rows)
    ]
    return points, objectives


class TestParetoMatchesReference:
    """The front is the all-pairs filter's front: the same points, in
    the same (input) order."""

    @given(_front_cases())
    @settings(max_examples=300, deadline=None)
    def test_same_points_in_the_same_order(self, case):
        points, objectives = case
        expected = [p.knobs["id"] for p in reference_pareto_filter(points, objectives)]
        assert [p.knobs["id"] for p in pareto_filter(points, objectives)] == expected


#: Digest of each app's unpruned front on the paper-size lattice (all
#: standard levels x threads 1..32 x both bindings, 5 repetitions, seed
#: 20682) under (throughput max, power min): (front size, sha256 of its
#: canonical JSON, first 16 hex digits).
PAPER_FRONTS = {
    "2mm": (78, "9faae1a1e89c47cd"),
    "3mm": (42, "306959fcff36b60a"),
    "atax": (75, "6929462cf9510856"),
    "correlation": (79, "f291da5e9e5ef4b8"),
    "doitgen": (61, "cef2c1e80025a3f5"),
    "gemver": (56, "602a103aff5d18c9"),
    "jacobi-2d": (37, "86fdd6e4dbf7bec6"),
    "mvt": (70, "bbeb4135b147dbda"),
    "nussinov": (62, "3cc96247eb748edb"),
    "seidel-2d": (53, "8e8ba2c742c8e542"),
    "syr2k": (36, "dfc2df262631c4c4"),
    "syrk": (37, "f5d22286fe737c5d"),
}


@functools.lru_cache(maxsize=None)
def _paper_size_exploration(app_name):
    """The unpruned 256-point exploration of one app, from a fresh
    seeded engine (the noise stream is positional)."""
    engine = EvaluationEngine(
        executor=MachineExecutor(resolve_machine(None), seed=20682)
    )
    space = DesignSpace(
        compiler_configs=standard_levels(), thread_counts=list(range(1, 33))
    )
    explorer = DesignSpaceExplorer(
        engine.compiler, engine.executor, engine.omp, repetitions=5, engine=engine
    )
    app = load(app_name)
    return explorer.explore(engine.profile(app), space)


def _paper_size_knowledge(app_name):
    return _paper_size_exploration(app_name).knowledge


@pytest.mark.parametrize("app_name", BENCHMARK_NAMES)
def test_paper_size_front_matches_reference_and_pin(app_name):
    objectives = [("throughput", True), ("power", False)]
    knowledge = _paper_size_knowledge(app_name)
    assert len(knowledge) == 256
    front = pareto_front(knowledge, objectives).points()
    assert front == reference_pareto_filter(knowledge, objectives)
    document = json.dumps(canonical_front(front), sort_keys=True).encode()
    digest = hashlib.sha256(document).hexdigest()[:16]
    assert (len(front), digest) == PAPER_FRONTS[app_name]


def _reference_metric_bits(sample):
    """Per-sample knowledge-base statistics as the explorer first
    computed them, one sample at a time: ``(mean.hex(), std.hex())``
    per metric."""
    times = np.asarray(sample.times)
    powers = np.asarray(sample.powers)

    def stats(values):
        std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        return float(values.mean()).hex(), std.hex()

    return {
        "time": stats(times),
        "throughput": stats(1.0 / times),
        "power": stats(powers),
        "energy": stats(times * powers),
    }


def _assert_knowledge_matches_samples(result):
    points = result.knowledge.points()
    assert len(points) == len(result.samples)
    for point, sample in zip(points, result.samples):
        assert point.knobs[KNOB_COMPILER] == sample.point.compiler.label
        assert point.knobs[KNOB_THREADS] == sample.point.threads
        bits = {
            name: (stats.mean.hex(), stats.std.hex())
            for name, stats in point.metrics.items()
        }
        assert bits == _reference_metric_bits(sample)


@pytest.mark.parametrize("app_name", BENCHMARK_NAMES)
def test_paper_size_stats_match_per_sample_reference(app_name):
    _assert_knowledge_matches_samples(_paper_size_exploration(app_name))


class _CannedEngine:
    """An engine stand-in that returns fixed measurements, so the
    explorer's statistics can be checked on arbitrary values."""

    compiler = executor = omp = None
    obs = NULL_OBS

    def __init__(self, rows):
        self._rows = rows

    def evaluate(self, profile, points, repetitions=1, mask=None):
        assert len(points) == len(self._rows)
        return [
            ProfiledSample(point=point, times=list(times), powers=list(powers))
            for point, (times, powers) in zip(points, self._rows)
        ]


#: Positive values with exact ties and neighbouring doubles.
_MEASURE = st.one_of(
    st.sampled_from([1e-9, 0.25, 1.0, 1.0000000000000002, 3.7, 3.7, 512.0]),
    st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
)


@st.composite
def _sample_rows(draw):
    repetitions = draw(st.integers(min_value=1, max_value=9))
    row = st.tuples(
        st.lists(_MEASURE, min_size=repetitions, max_size=repetitions),
        st.lists(_MEASURE, min_size=repetitions, max_size=repetitions),
    )
    rows = draw(st.lists(row, min_size=1, max_size=8))
    if draw(st.booleans()):
        rows.append(rows[0])  # an equal row
    if draw(st.booleans()):
        rows.append(([rows[0][0][0]] * repetitions, [rows[0][1][0]] * repetitions))
    return repetitions, rows


class TestColumnStatsMatchReference:
    @given(_sample_rows())
    @settings(max_examples=150, deadline=None)
    def test_knowledge_stats_equal_per_sample_stats(self, case):
        repetitions, rows = case
        explorer = DesignSpaceExplorer(
            None, None, None, repetitions=repetitions, engine=_CannedEngine(rows)
        )
        space = DesignSpace(
            compiler_configs=standard_levels()[:1],
            thread_counts=list(range(1, len(rows) + 1)),
            bindings=(BindingPolicy.CLOSE,),
        )
        result = explorer.explore(SimpleNamespace(kernel="canned"), space)
        _assert_knowledge_matches_samples(result)
