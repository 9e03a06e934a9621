"""Tests for :mod:`repro.obs.profile` — the causal profiling
observatory: virtual-time flame graphs, differential profiles, and
what-if speedup attribution, plus their CLI (`socrates obs flame` /
`socrates obs whatif`) and bench-gate integration."""

import json
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs.profile import (
    CONSERVATION_TOL,
    PROFILE_SCHEMA,
    FlameProfile,
    build_tree,
    attribute_energy,
    default_targets,
    diff_flame,
    load_chrome_trace,
    render_svg,
    rescale_tree,
    scaled_end_to_end_s,
    total_virtual_s,
    whatif,
    _walk,
)
from repro.obs.tracing import Span


def _span(name, sid, parent, start, end, track="main", attrs=None, ok=True):
    return Span(
        name=name,
        span_id=sid,
        parent_id=parent,
        start_s=start,
        end_s=end,
        ok=ok,
        track=track,
        attributes=attrs or {},
    )


def _sample_spans():
    """A bench root, two stages, and a two-member worker lane."""
    return [
        _span("bench:x", 1, None, 0.0, 4.7),
        _span("stage:a", 2, 1, 0.1, 2.0),
        _span(
            "truth:k@1t/compact", 3, 2, 0.2, 1.0,
            track="pool-0", attrs={"threads": 1},
        ),
        _span(
            "truth:k@2t/compact", 4, 2, 1.1, 1.9,
            track="pool-0", attrs={"threads": 2},
        ),
        _span("stage:b", 5, 1, 2.0, 4.5),
    ]


def _end_to_end(roots):
    return sum(root.duration_s for root in roots)


class TestBuildTree:
    def test_parentage_and_order(self):
        roots = build_tree(_sample_spans())
        assert [root.name for root in roots] == ["bench:x"]
        (bench,) = roots
        assert [child.name for child in bench.children] == [
            "stage:a",
            "stage:b",
        ]
        stage_a = bench.children[0]
        assert [child.name for child in stage_a.children] == [
            "truth:k@1t/compact",
            "truth:k@2t/compact",
        ]

    def test_self_time_subtracts_same_track_children_only(self):
        roots = build_tree(_sample_spans())
        (bench,) = roots
        stage_a = bench.children[0]
        # worker-lane children run concurrently: they do not reduce
        # the parent's own (serial) self time
        assert stage_a.self_s == pytest.approx(1.9)
        # same-track children do
        assert bench.self_s == pytest.approx(4.7 - 1.9 - 2.5)

    def test_conservation_total_equals_sum_of_self(self):
        roots = build_tree(_sample_spans())
        total = total_virtual_s(roots)
        assert sum(node.self_s for node in _walk(roots)) == pytest.approx(
            total, abs=CONSERVATION_TOL
        )


class TestFlameProfile:
    def test_collapse_stacks(self):
        profile = FlameProfile.from_spans(_sample_spans())
        assert "bench:x" in profile.stacks
        assert "bench:x;stage:a;truth:k@1t/compact" in profile.stacks
        assert profile.total_self_s == pytest.approx(
            total_virtual_s(build_tree(_sample_spans())), abs=CONSERVATION_TOL
        )

    def test_folded_round_trip_is_lossless(self):
        profile = FlameProfile.from_spans(_sample_spans())
        clone = FlameProfile.from_folded(profile.as_folded())
        assert clone.self_by_stack() == profile.self_by_stack()
        assert clone.as_folded() == profile.as_folded()

    def test_json_round_trip(self):
        profile = FlameProfile.from_spans(_sample_spans(), label="sample")
        document = json.loads(json.dumps(profile.as_dict()))
        assert document["schema"] == PROFILE_SCHEMA
        clone = FlameProfile.from_dict(document)
        assert clone.label == "sample"
        assert clone.self_by_stack() == profile.self_by_stack()

    def test_format_table_names_and_totals(self):
        profile = FlameProfile.from_spans(_sample_spans())
        table = profile.format_table()
        assert "span name" in table and "bench:x" in table
        names = profile.names()
        # inclusive total of the root is the whole virtual time
        assert names["bench:x"].total_s == pytest.approx(
            profile.total_self_s, abs=CONSERVATION_TOL
        )

    def test_render_svg_is_self_contained(self):
        profile = FlameProfile.from_spans(_sample_spans())
        svg = render_svg(profile, title="t")
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert "bench:x" in svg

    def test_chrome_trace_round_trip(self, tmp_path):
        from repro.obs.export import write_chrome_trace

        path = tmp_path / "trace.json"
        write_chrome_trace(_sample_spans(), path)
        roots = load_chrome_trace(path)
        live = FlameProfile.from_spans(_sample_spans())
        loaded = FlameProfile.from_tree(roots)
        assert set(loaded.stacks) == set(live.stacks)
        for stack, stat in live.stacks.items():
            # Chrome export rounds to microseconds
            assert loaded.stacks[stack].self_s == pytest.approx(
                stat.self_s, abs=1e-5
            )


class TestEnergyJoin:
    def _ledger(self):
        stage = types.SimpleNamespace(stage="a", energy_j={"package": 10.0})
        entry = types.SimpleNamespace(
            compiler="-O2",
            threads=1,
            binding="compact",
            energy_j={"package": 4.0},
        )
        return types.SimpleNamespace(stages=[stage], entries=[entry])

    def test_stage_and_operating_point_attribution(self):
        spans = _sample_spans() + [
            _span(
                "kernel.execute", 6, 5, 2.1, 2.3,
                attrs={"compiler": "-O2", "threads": 1, "binding": "compact"},
            ),
            _span(
                "kernel.execute", 7, 5, 2.4, 3.0,
                attrs={"compiler": "-O2", "threads": 1, "binding": "compact"},
            ),
        ]
        roots = build_tree(spans)
        energy = attribute_energy(roots, self._ledger())
        # the stage entry lands on stage:a, whole
        assert energy[2] == pytest.approx(10.0)
        # the operating point splits across both kernel.execute spans,
        # proportionally to duration (0.2s and 0.6s), conserving joules
        assert energy[6] + energy[7] == pytest.approx(4.0)
        assert energy[7] == pytest.approx(3.0)
        # idle stays unattributed: total attributed == total booked
        assert sum(energy.values()) == pytest.approx(14.0)

    def test_energy_flows_into_profile_and_whatif(self):
        roots = build_tree(_sample_spans())
        energy = attribute_energy(roots, self._ledger())
        profile = FlameProfile.from_tree(roots, energy=energy)
        assert profile.has_energy
        assert profile.total_energy_j == pytest.approx(10.0)
        report = whatif(
            roots, speedups=(0.5,), energy=energy, total_energy_j=20.0
        )
        row = next(row for row in report.rows if row.target == "stage:*")
        outcome = row.outcome_at(0.5)
        # conserving: new total = booked total - matched/2
        assert outcome.energy_j == pytest.approx(20.0 - 5.0)
        assert outcome.energy_improvement == pytest.approx(0.25)


class TestStackDiff:
    def test_statuses_and_ordering(self):
        a = FlameProfile.from_folded("x;y 1.0\nx;z 2.0\ngone 0.5\n")
        b = FlameProfile.from_folded("x;y 3.0\nx;z 1.5\nnew 0.25\n")
        diff = diff_flame(a, b)
        by_stack = {delta.stack: delta for delta in diff.deltas}
        assert by_stack["x;y"].status == "grown"
        assert by_stack["x;z"].status == "shrunk"
        assert by_stack["gone"].status == "gone"
        assert by_stack["new"].status == "new"
        # sorted by |delta| descending
        magnitudes = [abs(delta.delta_s) for delta in diff.changed]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_identical_profiles_have_no_changes(self):
        profile = FlameProfile.from_spans(_sample_spans())
        diff = diff_flame(profile, profile)
        assert diff.changed == []


class TestWhatIf:
    def test_zero_speedup_is_exact(self):
        roots = build_tree(_sample_spans())
        baseline = _end_to_end(roots)
        report = whatif(roots, speedups=(0.0,))
        assert report.baseline_end_to_end_s == baseline
        for row in report.rows:
            assert row.outcomes[0].end_to_end_s == baseline
            assert row.outcomes[0].improvement == 0.0

    def test_prediction_matches_physical_replay(self):
        roots = build_tree(_sample_spans())
        for target in default_targets(roots):
            matched = [node for node in _walk(roots) if target.matcher(node)]
            if not matched:
                continue
            factors = {node.span_id: 0.5 for node in matched}
            predicted = scaled_end_to_end_s(roots, factors)
            actual = _end_to_end(rescale_tree(roots, factors))
            assert predicted == pytest.approx(actual, abs=1e-12), target.label

    def test_worker_lane_is_not_on_critical_path(self):
        # the pool lane (1.6s busy inside a 1.9s stage) never dominates
        # the serial chain, so speeding the truths up buys nothing
        roots = build_tree(_sample_spans())
        report = whatif(roots, speedups=(0.75,))
        row = next(row for row in report.rows if row.target == "truth:*")
        assert row.outcomes[0].improvement == pytest.approx(0.0)

    def test_hinted_targets_agree_with_matcher_scan(self):
        roots = build_tree(_sample_spans())
        for target in default_targets(roots):
            scan = [node for node in _walk(roots) if target.matcher(node)]
            report = whatif(roots, speedups=(0.5,), targets=[target])
            if not scan:
                assert report.rows == []
                continue
            assert report.rows[0].matched_spans == len(scan)
            assert report.rows[0].matched_self_s == pytest.approx(
                sum(node.self_s for node in scan)
            )

    def test_knob_targets_require_two_values(self):
        targets = default_targets(build_tree(_sample_spans()))
        labels = {target.label for target in targets}
        assert "knob:threads=1" in labels and "knob:threads=2" in labels
        # `ok` etc. are not knobs; single-valued keys never appear
        assert not any(label.startswith("knob:compiler") for label in labels)

    def test_report_format_and_dict(self):
        roots = build_tree(_sample_spans())
        report = whatif(roots)
        text = report.format()
        assert "what-if" in text and "stage:*" in text
        document = report.as_dict()
        assert document["baseline_end_to_end_s"] == _end_to_end(roots)
        assert document["rows"]

    def test_rejects_bad_speedups(self):
        roots = build_tree(_sample_spans())
        with pytest.raises(ValueError):
            whatif(roots, speedups=(1.0,))
        with pytest.raises(ValueError):
            whatif(roots, speedups=(-0.1,))


# ---------------------------------------------------------------------------
# property tests (satellite): random trees, conservation + 0% identity
# ---------------------------------------------------------------------------

_names = st.sampled_from(
    ["a", "b", "stage:x", "stage:y", "truth:k", "kernel.execute"]
)
_pads = st.floats(
    min_value=1e-6, max_value=10.0, allow_nan=False, allow_infinity=False
)


def _tree_specs():
    leaf = st.tuples(_names, _pads, st.just([]))
    return st.recursive(
        leaf,
        lambda child: st.tuples(_names, _pads, st.lists(child, max_size=3)),
        max_leaves=12,
    )


def _lay_out(spec, start, counter, spans, parent=None):
    """Realize a (name, pad, children) spec as sequential nested spans."""
    name, pad, children = spec
    sid = counter[0]
    counter[0] += 1
    cursor = start + pad / 2
    for child in children:
        cursor = _lay_out(child, cursor, counter, spans, parent=sid)
    end = cursor + pad / 2
    spans.append(_span(name, sid, parent, start, end))
    return end


def _random_roots(specs):
    spans = []
    counter = [1]
    cursor = 0.0
    for spec in specs:
        cursor = _lay_out(spec, cursor, counter, spans)
    return build_tree(spans)


class TestProfileProperties:
    @given(st.lists(_tree_specs(), min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_folded_round_trip_conserves_total_virtual_time(self, specs):
        """Collapse -> folded text -> expand preserves the total
        virtual time to better than 1e-9."""
        roots = _random_roots(specs)
        total = total_virtual_s(roots)
        profile = FlameProfile.from_tree(roots)
        clone = FlameProfile.from_folded(profile.as_folded())
        tolerance = max(CONSERVATION_TOL, CONSERVATION_TOL * total)
        assert abs(profile.total_self_s - total) < tolerance
        assert abs(clone.total_self_s - total) < tolerance
        # the text form itself is lossless, not merely close
        assert clone.self_by_stack() == profile.self_by_stack()

    @given(
        st.lists(_tree_specs(), min_size=1, max_size=3),
        st.sets(_names, min_size=1, max_size=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_zero_speedup_reproduces_original_timings_exactly(
        self, specs, names
    ):
        """A 0% what-if is the identity — bit-exact, no float drift."""
        roots = _random_roots(specs)
        matched = [node for node in _walk(roots) if node.name in names]
        factors = {node.span_id: 1.0 for node in matched}
        assert scaled_end_to_end_s(roots, factors) == _end_to_end(roots)
        report = whatif(roots, speedups=(0.0,))
        for row in report.rows:
            assert row.outcomes[0].end_to_end_s == _end_to_end(roots)


# ---------------------------------------------------------------------------
# bench-gate integration: committed stacks attribute regressions
# ---------------------------------------------------------------------------


class TestGateStackAttribution:
    def _baseline(self):
        from repro.bench import BenchBaseline, run_scenario

        result = run_scenario("single_build", repeats=2)
        return BenchBaseline.from_result(result), result

    def test_baseline_carries_stacks_and_round_trips(self, tmp_path):
        from repro.bench import load_baseline, save_baseline

        baseline, result = self._baseline()
        assert baseline.stacks
        path = save_baseline(baseline, tmp_path / "BENCH_single_build.json")
        clone = load_baseline(path)
        assert set(clone.stacks) == set(baseline.stacks)
        sample = next(iter(baseline.stacks))
        assert clone.stacks[sample].self_s.median == pytest.approx(
            baseline.stacks[sample].self_s.median
        )

    def test_gate_report_names_offending_stack(self):
        from repro.bench import BenchBaseline, compare_result, run_scenario

        baseline, result = self._baseline()
        report = compare_result(baseline, result)
        assert report.stack_diff is not None
        # inflate one stack's baseline so the fresh run "grows" it
        grown_stack = max(
            result.stack_totals, key=lambda s: result.stack_counts.get(s, 0)
        )
        shrunk = {
            stack: (
                [v / 3 for v in values] if stack == grown_stack else values
            )
            for stack, values in result.stack_totals.items()
        }
        lowered = BenchBaseline.from_result(
            type(result)(
                scenario=result.scenario,
                repeats=result.repeats,
                wall_s=result.wall_s,
                span_totals=result.span_totals,
                span_counts=result.span_counts,
                fingerprint=result.fingerprint,
                peak_rss_kb=result.peak_rss_kb,
                energy_j=result.energy_j,
                ratios=result.ratios,
                spans=result.spans,
                stack_totals=shrunk,
                stack_counts=result.stack_counts,
            )
        )
        report = compare_result(lowered, result)
        offender = report.offending_stack()
        assert offender is not None
        assert offender.stack == grown_stack
        assert any(
            entry["stack"] == grown_stack
            for entry in report.as_dict()["stack_offenders"]
        )

    def test_profile_vs_baseline_diff(self, tmp_path):
        baseline, result = self._baseline()
        profile = FlameProfile.from_spans(result.spans, label="fresh")
        base = baseline.stack_profile()
        diff = diff_flame(base, profile, label_a=base.label)
        assert diff.label_a == "BENCH_single_build"
        # medians of a 2-repeat run of a deterministic workload are the
        # observed values themselves: nothing should be new or gone
        statuses = {delta.status for delta in diff.deltas}
        assert "new" not in statuses and "gone" not in statuses


class TestProfilingOverheadScenario:
    def test_scenario_fingerprint_and_ratio(self):
        from repro.bench import run_scenario

        result = run_scenario("profiling_overhead", repeats=1)
        fingerprint = result.fingerprint
        assert fingerprint["records_identical"] is True
        assert fingerprint["folded_round_trip_conserves"] is True
        assert fingerprint["stacks"] > 0 and fingerprint["targets"] > 0
        (ratio,) = result.ratios["profiling_overhead"]
        assert 0.0 < ratio < 0.35  # the committed cap


# ---------------------------------------------------------------------------
# CLI: socrates obs flame / whatif / validate
# ---------------------------------------------------------------------------


class TestProfileCli:
    def _write_trace(self, tmp_path, name="trace.json"):
        from repro.obs.export import write_chrome_trace

        path = tmp_path / name
        write_chrome_trace(_sample_spans(), path)
        return path

    def test_flame_table_from_trace(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        assert main(["obs", "flame", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "span name" in out and "bench:x" in out

    def test_flame_folded_and_validate(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        out_file = tmp_path / "profile.folded"
        assert (
            main(
                [
                    "obs", "flame", "--trace", str(trace),
                    "--folded", "--out", str(out_file),
                ]
            )
            == 0
        )
        assert main(["obs", "validate", str(out_file)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_flame_out_dir_writes_all_three(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        out_dir = tmp_path / "artifacts"
        assert (
            main(
                [
                    "obs", "flame", "--trace", str(trace),
                    "--out-dir", str(out_dir),
                ]
            )
            == 0
        )
        for name in ("profile.folded", "profile.json", "flame.svg"):
            assert (out_dir / name).exists(), name
        assert (
            main(
                [
                    "obs", "validate",
                    str(out_dir / "profile.folded"),
                    str(out_dir / "profile.json"),
                ]
            )
            == 0
        )
        document = json.loads((out_dir / "profile.json").read_text())
        assert document["schema"] == PROFILE_SCHEMA

    def test_flame_json_mode(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        assert main(["obs", "flame", "--trace", str(trace), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == PROFILE_SCHEMA

    def test_flame_diff_mixed_formats(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        folded = tmp_path / "a.folded"
        profile = FlameProfile.from_spans(_sample_spans())
        folded.write_text(profile.as_folded())
        assert (
            main(["obs", "flame", "--diff", str(folded), str(trace)]) == 0
        )
        out = capsys.readouterr().out
        assert "stack diff:" in out

    def test_flame_diff_json(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        assert (
            main(
                ["obs", "flame", "--diff", str(trace), str(trace), "--json"]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["delta_total_s"] == 0.0
        assert all(
            delta["status"] == "unchanged" for delta in document["stacks"]
        )

    def test_whatif_from_trace(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        assert main(["obs", "whatif", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "what-if" in out and "stage:*" in out

    def test_whatif_json_and_speedups(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        assert (
            main(
                [
                    "obs", "whatif", "--trace", str(trace),
                    "--speedups", "50", "--json",
                ]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["speedups"] == [0.5]
        assert document["rank_speedup"] == 0.5

    def test_whatif_bad_speedups_exit_2(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        assert (
            main(
                [
                    "obs", "whatif", "--trace", str(trace),
                    "--speedups", "fast",
                ]
            )
            == 2
        )
        assert "speedups" in capsys.readouterr().err

    def test_source_required_exit_2(self, capsys):
        assert main(["obs", "whatif"]) == 2
        assert "APP" in capsys.readouterr().err

    def test_against_baseline(self, tmp_path, capsys):
        from repro.bench import BenchBaseline, run_scenario, save_baseline

        result = run_scenario("single_build", repeats=1)
        baseline = BenchBaseline.from_result(result)
        path = save_baseline(baseline, tmp_path / "BENCH_single_build.json")
        assert (
            main(
                [
                    "obs", "whatif", "--scenario", "single_build",
                    "--limit", "3",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "obs", "flame", "--scenario", "single_build",
                    "--against-baseline", str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stack diff:" in out and "BENCH_single_build" in out

    def test_against_baseline_without_stacks_exit_2(self, tmp_path, capsys):
        from repro.bench import BenchBaseline, run_scenario, save_baseline

        result = run_scenario("single_build", repeats=1)
        baseline = BenchBaseline.from_result(result)
        stripped = BenchBaseline(
            scenario=baseline.scenario,
            repeats=baseline.repeats,
            wall_s=baseline.wall_s,
            stages=baseline.stages,
            fingerprint=baseline.fingerprint,
            peak_rss_kb=baseline.peak_rss_kb,
        )
        path = save_baseline(stripped, tmp_path / "BENCH_single_build.json")
        assert (
            main(
                [
                    "obs", "flame", "--scenario", "single_build",
                    "--against-baseline", str(path),
                ]
            )
            == 2
        )
        assert "stacks" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# acceptance: whatif on the seeded suite_sweep trace
# ---------------------------------------------------------------------------


class TestAcceptance:
    def test_suite_sweep_whatif_ranks_truth_evaluation(self):
        """The seeded suite_sweep what-if must rank a machine-model truth
        evaluation target, and the 50% prediction must match a physical
        replay with those durations actually halved to within 5%, for
        each of the top-3 targets and for the best-ranked truth target.
        Where truth evaluation ranks is a claim about the cost profile,
        so only its presence is asserted."""
        from repro.bench import run_scenario

        result = run_scenario("suite_sweep", repeats=1)
        roots = build_tree(result.spans)
        report = whatif(roots)
        truth_evaluation = {"engine.evaluate", "backend.run_truths", "truth:*"}
        truth_rows = [row for row in report.rows if row.target in truth_evaluation]
        assert truth_rows, "no truth-evaluation target ranked"

        checked = list(report.rows[:3])
        if truth_rows[0] not in checked:
            checked.append(truth_rows[0])
        for row in checked:
            target_label = row.target
            predicted = row.outcome_at(0.50).end_to_end_s
            if target_label.endswith(":*"):
                prefix = target_label[:-1]
                matched = [
                    node
                    for node in _walk(roots)
                    if node.name.startswith(prefix)
                ]
            else:
                matched = [
                    node for node in _walk(roots) if node.name == target_label
                ]
            factors = {node.span_id: 0.5 for node in matched}
            actual = _end_to_end(rescale_tree(roots, factors))
            assert abs(predicted - actual) / actual < 0.05, target_label
