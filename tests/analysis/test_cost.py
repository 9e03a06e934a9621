"""Tests for the static cost oracle: kernel cost reports, the
cross-validation trust gate, roofline prediction, margin dominance,
and the PrunePlan artifact (including its JSON round trip, checked
property-based)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cost import (
    DEFAULT_PRUNE_MARGIN,
    ORACLE_TOLERANCE,
    PrunePlan,
    PrunedPoint,
    RooflinePredictor,
    _margin_dominated,
    build_prune_plan,
    cross_validate,
    kernel_cost_report,
    point_key,
)
from repro.analysis.flagsafety import FlagSafetyVerdict
from repro.engine.model import DesignPoint, DesignSpace
from repro.gcc.flags import standard_levels
from repro.machine.openmp import BindingPolicy
from repro.machine.registry import resolve_machine
from repro.polybench.suite import load
from repro.polybench.workload import bound_environment, profile_kernel


def _standard_space(machine):
    return DesignSpace(
        compiler_configs=standard_levels(),
        thread_counts=list(range(1, machine.logical_cpus + 1)),
    )


class TestKernelCostReport:
    @pytest.mark.parametrize("name", ["mvt", "2mm", "jacobi-2d"])
    def test_oracle_matches_the_profiler_exactly(self, name):
        """The static census reproduces the workload profiler's counts
        — the property the trust gate relies on."""
        app = load(name)
        unit = app.parse()
        kernel = app.kernels[0]
        report = kernel_cost_report(unit, kernel)
        assert report.resolved
        profile = profile_kernel(app, kernel, unit=unit)
        errors = cross_validate(report, profile)
        assert errors["flops"] == 0.0
        assert errors["memory_ops"] == 0.0
        assert errors["working_set"] == 0.0
        assert errors["intensity"] == 0.0

    def test_data_dependent_kernel_is_unresolved(self):
        app = load("nussinov")
        report = kernel_cost_report(app.parse(), app.kernels[0])
        assert not report.resolved

    def test_nests_carry_depth_and_iterations(self):
        app = load("2mm")
        report = kernel_cost_report(app.parse(), app.kernels[0])
        assert report.nests
        assert all(nest.depth >= 1 for nest in report.nests)
        assert all(nest.iterations > 0 for nest in report.nests)
        assert report.max_depth == max(nest.depth for nest in report.nests)

    def test_unknown_kernel_raises(self):
        app = load("mvt")
        with pytest.raises(ValueError):
            kernel_cost_report(app.parse(), "not_a_kernel")

    def test_as_dict_is_json_serializable(self):
        app = load("mvt")
        report = kernel_cost_report(app.parse(), app.kernels[0])
        assert json.loads(json.dumps(report.as_dict()))["kernel"] == app.kernels[0]


class TestRoofline:
    def test_predictor_is_deterministic_and_cached(self):
        from repro.machine.executor import MachineExecutor
        from repro.machine.openmp import OpenMPRuntime

        machine = resolve_machine(None)
        executor = MachineExecutor(machine)
        omp = OpenMPRuntime(machine)
        app = load("mvt")
        profile = profile_kernel(app, app.kernels[0])
        predictor = RooflinePredictor(executor, omp)
        point = DesignPoint(
            compiler=standard_levels()[0], threads=4, binding=BindingPolicy.CLOSE
        )
        first = predictor.predict(profile, point)
        second = predictor.predict(profile, point)
        assert first == second
        assert first[0] > 0 and first[1] > 0


class TestPointKey:
    def test_key_is_unique_over_the_standard_space(self):
        machine = resolve_machine(None)
        points = list(_standard_space(machine).points())
        keys = [point_key(p) for p in points]
        assert len(set(keys)) == len(keys)

    def test_key_shape(self):
        point = DesignPoint(
            compiler=standard_levels()[2], threads=8, binding=BindingPolicy.SPREAD
        )
        assert point_key(point) == "-O2|t8|spread|-"


class TestMarginDominance:
    def test_dominator_must_win_on_both_axes(self):
        predictions = [
            ("good", 1.0, 10.0),        # fast AND cool
            ("fast_hot", 1.0, 100.0),   # fast but hot: no single point
            ("slow_cool", 10.0, 9.0),   # cool but slow: beats it on both
            ("bad", 10.0, 100.0),       # beaten on both by 'good'
        ]
        dominated = _margin_dominated(predictions, 0.12)
        assert [entry[0] for entry in dominated] == ["bad"]
        (entry,) = dominated
        assert entry[1] == "good"

    def test_margin_is_respected(self):
        # B is 10% worse on both axes: dominated at 5% margin, not 12%
        predictions = [("a", 1.0, 1.0), ("b", 1.1, 1.1)]
        assert _margin_dominated(predictions, 0.05)
        assert not _margin_dominated(predictions, 0.12)

    def test_equal_points_do_not_dominate_each_other(self):
        predictions = [("a", 1.0, 1.0), ("b", 1.0, 1.0)]
        assert _margin_dominated(predictions, 0.12) == []


class TestBuildPrunePlan:
    def test_trusted_app_yields_a_nonempty_sound_plan(self):
        machine = resolve_machine(None)
        app = load("syr2k")
        plan = build_prune_plan(app, _standard_space(machine), machine=machine)
        assert plan.trusted
        assert plan.space_size == 256
        assert plan.masked_count > 0
        assert 0.0 < plan.masked_fraction() < 1.0
        assert all(
            value <= ORACLE_TOLERANCE for value in plan.validation.values()
        )
        for pruned in plan.masked.values():
            assert pruned.dominated_by in (
                point_key(p) for p in _standard_space(machine).points()
            )
            assert "margin-dominated" in pruned.reason

    def test_untrusted_oracle_yields_an_empty_plan(self):
        machine = resolve_machine(None)
        app = load("nussinov")  # data-dependent loops: resolved=False
        plan = build_prune_plan(app, _standard_space(machine), machine=machine)
        assert not plan.trusted
        assert plan.masked_count == 0

    def test_invalid_margin_is_rejected(self):
        machine = resolve_machine(None)
        app = load("mvt")
        for margin in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                build_prune_plan(
                    app, _standard_space(machine), machine=machine, margin=margin
                )

    def test_is_masked_matches_recorded_keys(self):
        machine = resolve_machine(None)
        app = load("syr2k")
        space = _standard_space(machine)
        plan = build_prune_plan(app, space, machine=machine)
        masked = [p for p in space.points() if plan.is_masked(p)]
        assert len(masked) == plan.masked_count
        assert all(point_key(p) in plan.masked for p in masked)

    def test_interval_analysis_runs_once_per_defined_function(self, monkeypatch):
        """A plan analyzes each function once: the cost oracle takes the
        kernel's interval facts from its summary pass."""
        import sys

        from repro.analysis import intervals
        from repro.polybench.suite import all_apps

        original = intervals.analyze_function
        analyzed = []

        def counting(func, env=None):
            analyzed.append(func.name)
            return original(func, env)

        # rebind every module-level copy, whichever module imported it
        for module in list(sys.modules.values()):
            if getattr(module, "analyze_function", None) is original:
                monkeypatch.setattr(module, "analyze_function", counting)
        machine = resolve_machine(None)
        space = _standard_space(machine)
        defined_total = 0
        for app in all_apps():
            unit = app.parse()
            defined = sorted(func.name for func in unit.functions())
            defined_total += len(defined)
            analyzed.clear()
            build_prune_plan(app, space, unit=unit, machine=machine)
            assert sorted(analyzed) == defined, app.name
        assert defined_total == 50


_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-|.", min_size=1, max_size=20
)
_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=0.0, max_value=1e6
)
_pruned_points = st.builds(
    PrunedPoint,
    key=_names,
    reason=_names,
    dominated_by=_names,
    predicted_time_s=_floats,
    predicted_power_w=_floats,
)
_verdicts = st.builds(
    FlagSafetyVerdict,
    unsafe_flags=st.tuples(st.sampled_from(["UNSAFE_MATH"])) | st.just(()),
    pointless_flags=st.tuples(st.sampled_from(["NO_INLINE_FUNCTIONS"])) | st.just(()),
    rules=st.lists(
        st.sampled_from(["FPS201", "FPS202", "FPS203", "FPS204"]),
        unique=True,
        max_size=4,
    ).map(tuple),
)


class TestPrunePlanRoundTrip:
    @given(
        app=_names,
        kernel=_names,
        margin=st.floats(min_value=0.01, max_value=0.99),
        trusted=st.booleans(),
        space_size=st.integers(min_value=0, max_value=4096),
        points=st.lists(_pruned_points, max_size=8),
        validation=st.dictionaries(
            st.sampled_from(["flops", "memory_ops", "working_set", "intensity"]),
            _floats,
            max_size=4,
        ),
        verdict=_verdicts,
    )
    @settings(max_examples=80, deadline=None)
    def test_json_round_trip_is_identity(
        self, app, kernel, margin, trusted, space_size, points, validation, verdict
    ):
        plan = PrunePlan(
            app=app,
            kernel=kernel,
            margin=margin,
            trusted=trusted,
            space_size=space_size,
            validation=validation,
            flag_safety=verdict,
        )
        for pruned in points:
            plan.record(pruned)
        encoded = json.dumps(plan.as_dict(), sort_keys=True)
        restored = PrunePlan.from_dict(json.loads(encoded))
        assert restored.as_dict() == plan.as_dict()
        assert restored.masked == plan.masked
        assert restored.flag_safety == plan.flag_safety

    def test_unknown_format_is_rejected(self):
        with pytest.raises(ValueError):
            PrunePlan.from_dict({"format": 2})

    def test_real_plan_round_trips(self):
        machine = resolve_machine(None)
        app = load("syr2k")
        plan = build_prune_plan(app, _standard_space(machine), machine=machine)
        restored = PrunePlan.from_dict(json.loads(json.dumps(plan.as_dict())))
        assert restored.as_dict() == plan.as_dict()
        assert restored.masked_count == plan.masked_count


class TestDefaultMarginIsNoiseSafe:
    def test_margin_is_many_sigma(self):
        """The lognormal noise sigmas (2% time, 1.2% power) make a 12%
        mutual margin >5 sigma on each axis — the soundness argument
        for bit-identical fronts."""
        assert DEFAULT_PRUNE_MARGIN >= 5 * 0.02
