"""Tests for the mARGOt runtime autotuner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.margot.asrtm import ApplicationRuntimeManager, AsrtmError
from repro.margot.goal import ComparisonFunction, Goal
from repro.margot.knowledge import (
    KnowledgeBase,
    MetricStats,
    OperatingPoint,
    make_operating_point,
)
from repro.margot.manager import MargotManager
from repro.margot.monitor import (
    EnergyMonitor,
    Monitor,
    MonitorError,
    PowerMonitor,
    ThroughputMonitor,
    TimeMonitor,
)
from repro.margot.state import (
    Constraint,
    OptimizationState,
    Rank,
    RankComposition,
    RankDirection,
    RankField,
    maximize_throughput,
    maximize_throughput_per_watt_squared,
    minimize_time,
)
from repro.obs.audit import (
    AdaptationAuditLog,
    AdaptationEntry,
    CandidateTrace,
    ConstraintTrace,
    compose_reason,
    describe_rank,
)


def op(threads, time, power, time_std=0.0, power_std=0.0):
    """Tiny operating-point factory over a single 'threads' knob."""
    return OperatingPoint(
        knobs={"threads": threads},
        metrics={
            "time": MetricStats(time, time_std),
            "power": MetricStats(power, power_std),
            "throughput": MetricStats(1.0 / time, 0.0),
        },
    )


@pytest.fixture
def kb():
    """Four OPs trading time against power."""
    return KnowledgeBase(
        [
            op(1, time=8.0, power=45.0),
            op(4, time=2.5, power=70.0),
            op(8, time=1.4, power=95.0),
            op(16, time=0.9, power=130.0),
        ]
    )


class TestMonitors:
    def test_circular_buffer_evicts(self):
        monitor = Monitor("m", window_size=3)
        for value in (1.0, 2.0, 3.0, 4.0):
            monitor.push(value)
        assert len(monitor) == 3
        assert monitor.min() == 2.0

    def test_statistics(self):
        monitor = Monitor("m", window_size=10)
        for value in (2.0, 4.0, 6.0):
            monitor.push(value)
        assert monitor.average() == 4.0
        assert monitor.last() == 6.0
        assert monitor.max() == 6.0
        assert monitor.stddev() == pytest.approx(2.0)

    def test_empty_statistics_raise(self):
        monitor = Monitor("m")
        with pytest.raises(MonitorError):
            monitor.average()

    def test_single_observation_stddev_zero(self):
        monitor = Monitor("m")
        monitor.push(5.0)
        assert monitor.stddev() == 0.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            Monitor("m", window_size=0)

    def test_clear(self):
        monitor = Monitor("m")
        monitor.push(1.0)
        monitor.clear()
        assert monitor.empty

    def test_time_monitor_start_stop(self):
        monitor = TimeMonitor()
        monitor.start(now=10.0)
        elapsed = monitor.stop(now=10.5)
        assert elapsed == pytest.approx(0.5)
        assert monitor.last() == pytest.approx(0.5)

    def test_time_monitor_double_start_raises(self):
        monitor = TimeMonitor()
        monitor.start(0.0)
        with pytest.raises(MonitorError):
            monitor.start(1.0)

    def test_time_monitor_stop_without_start_raises(self):
        with pytest.raises(MonitorError):
            TimeMonitor().stop(1.0)

    def test_throughput_monitor(self):
        monitor = ThroughputMonitor(items_per_region=10.0)
        monitor.start(0.0)
        value = monitor.stop(2.0)
        assert value == pytest.approx(5.0)

    def test_power_energy_monitors_push(self):
        power = PowerMonitor()
        energy = EnergyMonitor()
        power.push(92.0)
        energy.push(12.5)
        assert power.last() == 92.0
        assert energy.last() == 12.5


class TestMonitorEdgeCases:
    def test_window_size_one_stddev_zero(self):
        monitor = Monitor("m", window_size=1)
        monitor.push(3.0)
        monitor.push(7.0)  # evicts 3.0; a single sample has no spread
        assert len(monitor) == 1
        assert monitor.stddev() == 0.0
        assert monitor.average() == 7.0
        assert monitor.min() == monitor.max() == 7.0

    def test_eviction_statistics_follow_window(self):
        monitor = Monitor("m", window_size=2)
        for value in (100.0, 1.0, 2.0, 3.0):
            monitor.push(value)
        # only (2.0, 3.0) remain: the 100.0 outlier left the window
        assert monitor.average() == pytest.approx(2.5)
        assert monitor.stddev() == pytest.approx(0.5 ** 0.5)
        assert monitor.min() == 2.0 and monitor.max() == 3.0

    def test_summary_empty(self):
        assert Monitor("m").summary() == {"count": 0.0}

    def test_summary_full(self):
        monitor = Monitor("m", window_size=4)
        for value in (2.0, 4.0, 6.0):
            monitor.push(value)
        summary = monitor.summary()
        assert summary["count"] == 3.0
        assert summary["last"] == 6.0
        assert summary["average"] == 4.0
        assert summary["stddev"] == pytest.approx(2.0)
        assert summary["min"] == 2.0
        assert summary["max"] == 6.0

    def test_stop_twice_raises(self):
        monitor = TimeMonitor()
        monitor.start(0.0)
        monitor.stop(1.0)
        with pytest.raises(MonitorError):
            monitor.stop(2.0)

    def test_time_backwards_raises_and_resets(self):
        monitor = TimeMonitor()
        monitor.start(5.0)
        with pytest.raises(MonitorError):
            monitor.stop(4.0)
        # the failed region must not leave the monitor 'started'
        monitor.start(6.0)
        assert monitor.stop(7.0) == pytest.approx(1.0)

    def test_throughput_zero_length_region_raises(self):
        monitor = ThroughputMonitor()
        monitor.start(1.0)
        with pytest.raises(MonitorError):
            monitor.stop(1.0)

    def test_throughput_double_start_raises(self):
        monitor = ThroughputMonitor()
        monitor.start(0.0)
        with pytest.raises(MonitorError):
            monitor.start(0.5)


class TestGoals:
    @pytest.mark.parametrize(
        "comparison,value,observed,expected",
        [
            (ComparisonFunction.LESS, 10.0, 9.0, True),
            (ComparisonFunction.LESS, 10.0, 10.0, False),
            (ComparisonFunction.LESS_OR_EQUAL, 10.0, 10.0, True),
            (ComparisonFunction.GREATER, 5.0, 6.0, True),
            (ComparisonFunction.GREATER_OR_EQUAL, 5.0, 5.0, True),
            (ComparisonFunction.GREATER_OR_EQUAL, 5.0, 4.0, False),
        ],
    )
    def test_check(self, comparison, value, observed, expected):
        assert Goal("m", comparison, value).check(observed) is expected

    def test_violation_zero_when_met(self):
        goal = Goal("power", ComparisonFunction.LESS_OR_EQUAL, 100.0)
        assert goal.violation(90.0) == 0.0

    def test_violation_normalized(self):
        goal = Goal("power", ComparisonFunction.LESS_OR_EQUAL, 100.0)
        assert goal.violation(150.0) == pytest.approx(0.5)

    def test_mutable_target(self):
        goal = Goal("power", ComparisonFunction.LESS_OR_EQUAL, 100.0)
        goal.value = 80.0
        assert not goal.check(90.0)

    def test_str(self):
        text = str(Goal("power", ComparisonFunction.LESS_OR_EQUAL, 102.0))
        assert "power" in text and "<=" in text


class TestKnowledgeBase:
    def test_add_and_iterate(self, kb):
        assert len(kb) == 4
        assert {point.knob("threads") for point in kb} == {1, 4, 8, 16}

    def test_schema_enforced_knobs(self, kb):
        with pytest.raises(ValueError):
            kb.add(
                OperatingPoint(
                    knobs={"other": 1},
                    metrics={
                        "time": MetricStats(1),
                        "power": MetricStats(1),
                        "throughput": MetricStats(1),
                    },
                )
            )

    def test_schema_enforced_metrics(self, kb):
        with pytest.raises(ValueError):
            kb.add(OperatingPoint(knobs={"threads": 2}, metrics={"time": MetricStats(1)}))

    def test_duplicate_rejected(self, kb):
        with pytest.raises(ValueError):
            kb.add(op(1, time=9.9, power=50.0))

    def test_find(self, kb):
        found = kb.find(threads=8)
        assert found.metric("time").mean == 1.4

    def test_find_missing_raises(self, kb):
        with pytest.raises(KeyError):
            kb.find(threads=3)

    def test_metric_bounds(self, kb):
        low, high = kb.metric_bounds("power")
        assert (low, high) == (45.0, 130.0)

    def test_make_operating_point_helper(self):
        point = make_operating_point({"threads": 2}, {"time": (1.0, 0.1)})
        assert point.metric("time").std == 0.1

    def test_metric_stats_confidence_bounds(self):
        stats = MetricStats(mean=10.0, std=2.0)
        assert stats.upper(2.0) == 14.0
        assert stats.lower(1.0) == 8.0

    def test_empty_kb_is_falsy(self):
        assert not KnowledgeBase()


class TestRank:
    def test_linear_rank(self):
        rank = Rank(
            RankDirection.MINIMIZE,
            RankComposition.LINEAR,
            (RankField("time", 1.0), RankField("power", 0.01)),
        )
        assert rank.evaluate({"time": 2.0, "power": 100.0}) == pytest.approx(3.0)

    def test_geometric_rank_thr_per_watt_squared(self):
        rank = maximize_throughput_per_watt_squared()
        value = rank.evaluate({"throughput": 8.0, "power": 2.0})
        assert value == pytest.approx(2.0)

    def test_geometric_rank_clamps_nonpositive(self):
        rank = maximize_throughput_per_watt_squared()
        assert rank.evaluate({"throughput": 0.0, "power": 10.0}) >= 0.0

    def test_better_direction(self):
        assert maximize_throughput().better(2.0, 1.0)
        assert minimize_time().better(1.0, 2.0)


class TestConstraint:
    def test_confidence_makes_le_pessimistic(self):
        point = op(4, time=2.0, power=100.0, power_std=5.0)
        constraint = Constraint(
            Goal("power", ComparisonFunction.LESS_OR_EQUAL, 105.0), confidence=2.0
        )
        # expected value is mean + 2 sigma = 110 > 105
        assert not constraint.satisfied_by(point)

    def test_confidence_makes_ge_pessimistic(self):
        point = op(4, time=2.0, power=100.0)
        constraint = Constraint(
            Goal("throughput", ComparisonFunction.GREATER_OR_EQUAL, 0.5),
            confidence=1.0,
        )
        assert constraint.satisfied_by(point)

    def test_constraint_on_knob(self):
        point = op(4, time=2.0, power=100.0)
        constraint = Constraint(Goal("threads", ComparisonFunction.LESS_OR_EQUAL, 8))
        assert constraint.satisfied_by(point)

    def test_state_sorts_constraints_by_priority(self):
        state = OptimizationState("s", rank=minimize_time())
        state.add_constraint(Constraint(Goal("power", ComparisonFunction.LESS, 1), priority=20))
        state.add_constraint(Constraint(Goal("time", ComparisonFunction.LESS, 1), priority=5))
        assert state.constraints[0].goal.field == "time"

    def test_remove_constraint(self):
        state = OptimizationState("s", rank=minimize_time())
        state.add_constraint(Constraint(Goal("power", ComparisonFunction.LESS, 1)))
        state.remove_constraint("power")
        assert state.constraint_on("power") is None


class TestAsrtm:
    def test_empty_knowledge_rejected(self):
        with pytest.raises(AsrtmError):
            ApplicationRuntimeManager(KnowledgeBase())

    def test_unconstrained_performance_picks_fastest(self, kb):
        asrtm = ApplicationRuntimeManager(kb)
        asrtm.add_state(OptimizationState("perf", rank=minimize_time()))
        best = asrtm.update()
        assert best.knob("threads") == 16

    def test_power_budget_respected(self, kb):
        asrtm = ApplicationRuntimeManager(kb)
        state = OptimizationState("capped", rank=minimize_time())
        state.add_constraint(
            Constraint(Goal("power", ComparisonFunction.LESS_OR_EQUAL, 100.0))
        )
        asrtm.add_state(state)
        best = asrtm.update()
        assert best.knob("threads") == 8  # fastest under 100 W

    def test_budget_sweep_monotone(self, kb):
        asrtm = ApplicationRuntimeManager(kb)
        state = OptimizationState("capped", rank=minimize_time())
        goal = Goal("power", ComparisonFunction.LESS_OR_EQUAL, 50.0)
        state.add_constraint(Constraint(goal))
        asrtm.add_state(state)
        times = []
        for budget in (50.0, 75.0, 100.0, 140.0):
            goal.value = budget
            times.append(asrtm.update().metric("time").mean)
        assert times == sorted(times, reverse=True)

    def test_infeasible_constraint_relaxes_to_nearest(self, kb):
        asrtm = ApplicationRuntimeManager(kb)
        state = OptimizationState("impossible", rank=minimize_time())
        state.add_constraint(
            Constraint(Goal("power", ComparisonFunction.LESS_OR_EQUAL, 10.0))
        )
        asrtm.add_state(state)
        best = asrtm.update()  # nothing satisfies 10 W: closest is 45 W
        assert best.knob("threads") == 1

    def test_priority_ordering_on_relaxation(self, kb):
        asrtm = ApplicationRuntimeManager(kb)
        state = OptimizationState("mixed", rank=minimize_time())
        # high-priority throughput >= 0.5 (only 8 and 16 qualify),
        # low-priority power <= 40 (nobody qualifies) must not undo it
        state.add_constraint(
            Constraint(
                Goal("throughput", ComparisonFunction.GREATER_OR_EQUAL, 0.5),
                priority=1,
            )
        )
        state.add_constraint(
            Constraint(Goal("power", ComparisonFunction.LESS_OR_EQUAL, 40.0), priority=9)
        )
        asrtm.add_state(state)
        best = asrtm.update()
        assert best.knob("threads") == 8  # least power violation among qualifiers

    def test_relaxation_keeps_values_within_rounding(self):
        # both OPs miss 0.2 W; 0.1 + 1 * 0.2 rounds to 0.30000000000000004,
        # so their violations differ by one ulp and both stay candidates
        precise = OperatingPoint(
            knobs={"threads": 1},
            metrics={"time": MetricStats(2.0), "power": MetricStats(0.3)},
        )
        rounded = OperatingPoint(
            knobs={"threads": 2},
            metrics={"time": MetricStats(1.0), "power": MetricStats(0.1, 0.2)},
        )
        asrtm = ApplicationRuntimeManager(KnowledgeBase([precise, rounded]))
        state = OptimizationState("tiny", rank=minimize_time())
        state.add_constraint(
            Constraint(
                Goal("power", ComparisonFunction.LESS_OR_EQUAL, 0.2), confidence=1.0
            )
        )
        asrtm.add_state(state)
        assert asrtm.update().knob("threads") == 2

    def test_switch_state(self, kb):
        asrtm = ApplicationRuntimeManager(kb)
        asrtm.add_state(OptimizationState("perf", rank=minimize_time()))
        efficiency = OptimizationState(
            "eff", rank=maximize_throughput_per_watt_squared()
        )
        asrtm.add_state(efficiency)
        perf_choice = asrtm.update().knob("threads")
        asrtm.switch_state("eff")
        eff_choice = asrtm.update().knob("threads")
        assert perf_choice == 16
        assert eff_choice < 16

    def test_switch_unknown_state_raises(self, kb):
        asrtm = ApplicationRuntimeManager(kb)
        asrtm.add_state(OptimizationState("perf", rank=minimize_time()))
        with pytest.raises(AsrtmError):
            asrtm.switch_state("nope")

    def test_duplicate_state_rejected(self, kb):
        asrtm = ApplicationRuntimeManager(kb)
        asrtm.add_state(OptimizationState("perf", rank=minimize_time()))
        with pytest.raises(AsrtmError):
            asrtm.add_state(OptimizationState("perf", rank=minimize_time()))

    def test_feedback_scales_expectations(self, kb):
        asrtm = ApplicationRuntimeManager(kb)
        state = OptimizationState("capped", rank=minimize_time())
        state.add_constraint(
            Constraint(Goal("power", ComparisonFunction.LESS_OR_EQUAL, 100.0))
        )
        asrtm.add_state(state)
        first = asrtm.update()
        assert first.knob("threads") == 8
        # the machine draws 20% more power than profiled: after feedback
        # the 95 W point is really ~114 W and must be dropped
        monitor = PowerMonitor()
        asrtm.attach_monitor("power", monitor)
        for _ in range(5):
            monitor.push(first.metric("power").mean * 1.2)
            asrtm.ingest_feedback()
        assert asrtm.adjustment("power") > 1.15
        best = asrtm.update()
        assert best.knob("threads") == 4

    def test_reset_feedback(self, kb):
        asrtm = ApplicationRuntimeManager(kb)
        asrtm.add_state(OptimizationState("perf", rank=minimize_time()))
        asrtm.update()
        monitor = PowerMonitor()
        asrtm.attach_monitor("power", monitor)
        monitor.push(999.0)
        asrtm.ingest_feedback()
        asrtm.reset_feedback()
        assert asrtm.adjustment("power") == 1.0


class TestManager:
    def test_weaved_call_sequence(self, kb):
        manager = MargotManager("2mm", kb)
        manager.asrtm.add_state(OptimizationState("perf", rank=minimize_time()))
        point = manager.update()
        manager.start_monitor(now=0.0)
        manager.stop_monitor(now=point.metric("time").mean, power_w=100.0)
        record = manager.log(now=point.metric("time").mean)
        assert record.knobs["threads"] == 16
        assert record.observations["power"] == 100.0
        assert record.state == "perf"

    def test_double_start_raises(self, kb):
        manager = MargotManager("k", kb)
        manager.asrtm.add_state(OptimizationState("perf", rank=minimize_time()))
        manager.start_monitor(0.0)
        with pytest.raises(RuntimeError):
            manager.start_monitor(0.1)

    def test_stop_before_start_raises(self, kb):
        manager = MargotManager("k", kb)
        with pytest.raises(RuntimeError):
            manager.stop_monitor(1.0)

    def test_records_accumulate(self, kb):
        manager = MargotManager("k", kb)
        manager.asrtm.add_state(OptimizationState("perf", rank=minimize_time()))
        for step in range(3):
            manager.update()
            manager.start_monitor(float(step))
            manager.stop_monitor(float(step) + 0.5, power_w=90.0)
            manager.log(float(step) + 0.5)
        assert len(manager.records) == 3

    def test_monitors_exposed(self, kb):
        manager = MargotManager("k", kb)
        assert set(manager.monitors) == {"time", "throughput", "power"}


# ---------------------------------------------------------------------------
# update() against the two-path decision it replaced
# ---------------------------------------------------------------------------
#
# The reference below is the selection as it stood before ``update()``
# became a single pass: a filter with optional trace plumbing, a plain
# first-best scan, and an auditing variant that ranks every survivor
# best-first.  The property asserts that the manager picks the same
# winner, reports the same constraint traces and writes the same audit
# entry, bit for bit.

_METRICS = ("time", "power", "throughput")
# 0.1 + 0.2 != 0.3: near-equal values that only the relaxation
# tolerance keeps together
_GRID = (-1.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 4.0, 8.0)


def _ref_adjusted_metrics(point, feedback):
    values = {}
    for name, stats in point.metrics.items():
        values[name] = stats.mean * feedback.get(name, 1.0)
    for name, value in point.knobs.items():
        if isinstance(value, (int, float)) and name not in values:
            values[name] = float(value)
    return values


def _ref_filter(knowledge, feedback, knob_filters, state, trace=None):
    survivors = knowledge.points()
    if knob_filters:
        survivors = [
            point
            for point in survivors
            if all(point.knobs.get(name) == value for name, value in knob_filters.items())
        ]
        if not survivors:
            raise AsrtmError("knob filters match no operating point")
    for constraint in state.constraints:
        adjust = feedback.get(constraint.goal.field, 1.0)
        before = len(survivors)
        satisfying = [
            point for point in survivors if constraint.satisfied_by(point, adjust)
        ]
        if satisfying:
            survivors = satisfying
            relaxed = False
        else:
            best_violation = min(
                constraint.violation(point, adjust) for point in survivors
            )
            survivors = [
                point
                for point in survivors
                if constraint.violation(point, adjust) <= best_violation + 1e-12
            ]
            relaxed = True
        if trace is not None:
            trace.append(
                ConstraintTrace(
                    goal=str(constraint.goal),
                    adjustment=adjust,
                    survivors_before=before,
                    survivors_after=len(survivors),
                    relaxed=relaxed,
                )
            )
    return survivors


def _ref_rank(state, candidates, feedback):
    best_point = candidates[0]
    best_value = state.rank.evaluate(_ref_adjusted_metrics(best_point, feedback))
    for point in candidates[1:]:
        value = state.rank.evaluate(_ref_adjusted_metrics(point, feedback))
        if state.rank.better(value, best_value):
            best_value = value
            best_point = point
    return best_point


def _ref_rank_all(state, candidates, feedback):
    valued = [
        (point, state.rank.evaluate(_ref_adjusted_metrics(point, feedback)))
        for point in candidates
    ]
    best_point, best_value = valued[0]
    for point, value in valued[1:]:
        if state.rank.better(value, best_value):
            best_value = value
            best_point = point
    reverse = state.rank.better(1.0, 0.0)
    ranked = sorted(
        enumerate(valued),
        key=lambda item: (-item[1][1] if reverse else item[1][1], item[0]),
    )
    return best_point, [pair for _, pair in ranked]


def _ref_entry(knowledge, state, best, ranked, traces, previous, limit, sequence, now):
    entry = AdaptationEntry(
        sequence=sequence,
        timestamp=now,
        state=state.name,
        rank=describe_rank(state.rank),
        considered=len(knowledge),
        survivors=len(ranked),
        constraints=traces,
        candidates=[
            CandidateTrace(knobs=point.key, rank_value=value)
            for point, value in ranked[:limit]
        ],
        winner=dict(best.knobs),
        winner_rank=next(value for point, value in ranked if point.key == best.key),
        switched_from=dict(previous.knobs) if previous is not None else None,
        reason="",
    )
    entry.reason = compose_reason(entry)
    return entry


_grid = st.sampled_from(_GRID)
_stats = st.builds(MetricStats, _grid, st.sampled_from((0.0, 0.1, 0.2, 0.5, 1.0)))


@st.composite
def _knowledge_bases(draw):
    keys = draw(
        st.lists(
            st.tuples(st.integers(1, 32), st.sampled_from(("P", "E"))),
            min_size=1,
            max_size=64,
            unique=True,
        )
    )
    return KnowledgeBase(
        OperatingPoint(
            knobs={"threads": threads, "cluster": cluster},
            metrics={name: draw(_stats) for name in _METRICS},
        )
        for threads, cluster in keys
    )


_constraints = st.builds(
    lambda field, comparison, value, confidence, priority: Constraint(
        Goal(field, comparison, value), priority=priority, confidence=confidence
    ),
    st.sampled_from(_METRICS + ("threads",)),
    st.sampled_from(list(ComparisonFunction)),
    st.sampled_from(_GRID + (16.0,)),
    st.sampled_from((0.0, 1.0, 2.0)),
    st.integers(0, 3),
)

_ranks = st.builds(
    Rank,
    st.sampled_from(list(RankDirection)),
    st.sampled_from(list(RankComposition)),
    st.lists(
        st.builds(
            RankField,
            st.sampled_from(_METRICS + ("threads",)),
            st.sampled_from((-2.0, -1.0, 0.5, 1.0, 2.0)),
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
)

_feedback = st.dictionaries(
    st.sampled_from(_METRICS), st.sampled_from((0.5, 0.8, 1.0, 1.25, 2.0))
)


class TestUpdateMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        knowledge=_knowledge_bases(),
        rank=_ranks,
        constraints=st.lists(_constraints, max_size=3),
        impossible=st.booleans(),
        first_feedback=_feedback,
        second_feedback=_feedback,
        cluster=st.sampled_from((None, "P", "E")),
        limit=st.integers(1, 6),
    )
    def test_same_winner_traces_and_entry(
        self,
        knowledge,
        rank,
        constraints,
        impossible,
        first_feedback,
        second_feedback,
        cluster,
        limit,
    ):
        state = OptimizationState("s", rank=rank)
        for constraint in constraints[: 2 if impossible else 3]:
            state.add_constraint(constraint)
        if impossible:
            # nothing reaches 1e9: this constraint is always relaxed
            state.add_constraint(
                Constraint(
                    Goal("power", ComparisonFunction.GREATER_OR_EQUAL, 1e9),
                    priority=2,
                )
            )
        audit = AdaptationAuditLog(max_candidates=limit)
        audited = ApplicationRuntimeManager(knowledge, audit=audit)
        plain = ApplicationRuntimeManager(knowledge)
        knob_filters = {} if cluster is None else {"cluster": cluster}
        for asrtm in (audited, plain):
            asrtm.add_state(state)
            for name, value in knob_filters.items():
                asrtm.set_knob_filter(name, value)

        previous = None
        expected_entries = []
        for now, feedback in ((1.0, first_feedback), (2.0, second_feedback)):
            for asrtm in (audited, plain):
                asrtm._feedback = dict(feedback)
            traces = []
            try:
                survivors = _ref_filter(
                    knowledge, feedback, knob_filters, state, trace=traces
                )
            except AsrtmError:
                for asrtm in (audited, plain):
                    with pytest.raises(AsrtmError):
                        asrtm.update(now=now)
                return
            expected = _ref_rank(state, survivors, feedback)
            best, ranked = _ref_rank_all(state, survivors, feedback)
            assert best.key == expected.key
            assert audited.update(now=now).key == expected.key
            assert plain.update(now=now).key == expected.key
            if previous is None or previous.key != expected.key:
                expected_entries.append(
                    _ref_entry(
                        knowledge,
                        state,
                        expected,
                        ranked,
                        traces,
                        previous,
                        limit,
                        len(expected_entries),
                        now,
                    )
                )
            previous = expected

        assert [entry.constraints for entry in audit.entries] == [
            entry.constraints for entry in expected_entries
        ]
        assert audit.as_dicts() == [entry.as_dict() for entry in expected_entries]
