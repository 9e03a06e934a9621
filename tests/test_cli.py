"""Tests for the `socrates` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

FAST = ["--threads", "1,4,16", "--repetitions", "2"]


def _golden(name, folder="readers"):
    """Expected stdout pinned under ``tests/golden/<folder>/``."""
    return (Path(__file__).parent / "golden" / folder / name).read_text()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["list"],
            ["features", "2mm"],
            ["weave", "2mm", "--source"],
            ["build", "2mm", "--oplist", "x.json"],
            ["fig4", "--app", "mvt", "--steps", "5"],
            ["fig5", "--duration", "30"],
            ["table1"],
            ["build", "2mm", "--stage-report", "--workers", "2"],
            ["stats", "2mm", "--threads", "1,4", "--repetitions", "1"],
            ["stats", "2mm", "--json"],
            ["build", "2mm", "--stage-report", "--json"],
            ["bench", "list"],
            ["bench", "run", "--scenario", "single_build", "--repeats", "2"],
            ["bench", "gate", "--all", "--threshold", "1.5", "--out-dir", "x"],
            ["bench", "compare", "--baseline-dir", "b", "--json"],
            ["obs", "diff", "a.json", "b.json", "--limit", "5"],
            ["obs", "diff", "a.json", "b.json", "--json"],
            ["obs", "top", "--from", "m.prom", "--once"],
            ["obs", "top", "--once", "--alerts"],
            ["obs", "incidents", "record", "--duration", "2.0"],
            ["obs", "incidents", "record", "mvt", "--machine", "xeon_2s"],
            ["obs", "incidents", "list", "--dir", "x"],
            ["obs", "incidents", "show", "inc-abc", "--dir", "x"],
            ["obs", "incidents", "report", "--latest"],
            ["obs", "incidents", "report", "inc-abc"],
            ["obs", "runs", "record", "build", "2mm", "--store", "wh"],
            ["obs", "runs", "record", "bench", "single_build", "--store", "wh",
             "--label", "r1", "--inject-slowdown", "engine.evaluate:2.0"],
            ["obs", "runs", "record", "trace", "mvt", "--store", "wh",
             "--duration", "3", "--json"],
            ["obs", "runs", "record", "dse", "mvt", "--store", "wh",
             "--seed", "0xBEEF", "--machine", "biglittle_8p8e"],
            ["obs", "runs", "list", "--store", "wh", "--json"],
            ["obs", "runs", "show", "abc123", "--store", "wh"],
            ["obs", "runs", "pin", "abc123", "--store", "wh"],
            ["obs", "runs", "unpin", "abc123", "--store", "wh"],
            ["obs", "runs", "gc", "--store", "wh", "--keep", "3", "--dry-run"],
            ["obs", "lineage", "run:abc123", "--store", "wh", "--json"],
            ["obs", "query", "kind=bench and seed=0", "--store", "wh",
             "--agg", "median:wall_s"],
            ["obs", "trend", "single_build", "--store", "wh", "--window", "5",
             "--threshold", "0.2", "--json"],
            ["build", "2mm", "--store", "wh", "--store-label", "x"],
            ["dse", "mvt", "--store", "wh"],
            ["bench", "run", "--scenario", "single_build", "--store", "wh"],
            ["bench", "gate", "--history-store", "wh", "--history-window", "4"],
            ["check", "2mm"],
            ["check", "--all", "--json", "--out", "check.json"],
            ["check", "--all", "--sarif"],
            ["check", "--source", "file.c"],
            ["check", "mvt", "--pristine-only"],
        ],
    )
    def test_valid_invocations_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)

    def test_check_json_and_sarif_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "--all", "--json", "--sarif"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "2mm" in out and "seidel-2d" in out

    def test_features(self, capsys):
        assert main(["features", "mvt"]) == 0
        out = capsys.readouterr().out
        assert "ft16_loops" in out

    def test_features_unknown_app_fails(self, capsys):
        assert main(["features", "nope"]) == 2

    def test_weave_metrics_only(self, capsys):
        assert main(["weave", "mvt"]) == 0
        out = capsys.readouterr().out
        assert "Att=" in out and "Bloat=" in out
        assert "#pragma GCC optimize" not in out

    def test_weave_with_source(self, capsys):
        assert main(["weave", "mvt", "--source"]) == 0
        out = capsys.readouterr().out
        assert "#pragma GCC optimize" in out
        assert "kernel_mvt__wrapper" in out

    def test_build_writes_artifacts(self, tmp_path, capsys):
        oplist = tmp_path / "kb.json"
        source = tmp_path / "adaptive.c"
        code = main(
            ["build", "mvt", "--oplist", str(oplist), "--source-out", str(source)]
            + FAST
        )
        assert code == 0
        assert oplist.exists() and source.exists()
        document = json.loads(oplist.read_text())
        assert document["format"] == 1
        assert len(document["points"]) == 8 * 3 * 2
        assert "margot_init();" in source.read_text()

    def test_build_stage_report(self, capsys):
        assert main(["build", "mvt", "--stage-report"] + FAST) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{") :])
        stages = [entry["stage"] for entry in report["stages"]]
        assert stages == ["characterize", "prune", "weave", "profile", "assemble"]
        assert report["totals"]["points_evaluated"] > 0

    def test_invalid_repetitions_reported_cleanly(self, capsys):
        assert main(["build", "2mm", "--threads", "1", "--repetitions", "0"]) == 2
        err = capsys.readouterr().err
        assert "dse_repetitions must be >= 1" in err

    def test_invalid_workers_reported_cleanly(self, capsys):
        assert main(["build", "2mm", "--workers", "-1"] + FAST) == 2
        err = capsys.readouterr().err
        assert "max_workers" in err

    def test_stats(self, capsys):
        assert main(["stats", "mvt"] + FAST) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["app"] == "mvt"
        assert payload["backend"] == "serial"
        assert payload["engine"]["compile_cache"]["misses"] > 0
        assert len(payload["stages"]) == 5

    def test_stats_json_single_line(self, capsys):
        assert main(["stats", "mvt", "--json"] + FAST) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1  # exactly one machine-readable line
        payload = json.loads(out)
        assert payload["app"] == "mvt"
        assert len(payload["stages"]) == 5

    def test_build_json_stage_report(self, capsys):
        assert main(["build", "mvt", "--stage-report", "--json"] + FAST) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # the whole stdout is one JSON document
        assert payload["app"] == "mvt"
        assert payload["knowledge_points"] > 0
        assert len(payload["custom_flags"]) == 4
        stages = [entry["stage"] for entry in payload["stage_report"]["stages"]]
        assert stages == ["characterize", "prune", "weave", "profile", "assemble"]

    def test_build_json_without_stage_report(self, capsys):
        assert main(["build", "mvt", "--json"] + FAST) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "stage_report" not in payload
        assert payload["coverage"] == 1.0

    def test_fig4(self, capsys):
        assert main(["fig4", "--app", "mvt", "--steps", "4"] + FAST) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert out.count("\n") >= 5
        assert out == _golden("fig4_mvt.txt", "figures")

    def test_table1_row_count(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        # header + 12 benchmarks
        assert sum(1 for line in out.splitlines() if line.strip()) >= 13
        assert out == _golden("table1.txt", "figures")

    def test_fig3_subset(self, capsys):
        assert main(["fig3", "--apps", "mvt"] + FAST) == 0
        out = capsys.readouterr().out
        assert "POWER" in out and "THROUGHPUT" in out
        assert "#" in out  # boxplot medians rendered
        assert out == _golden("fig3_mvt.txt", "figures")

    def test_fig5_short(self, capsys):
        assert main(["fig5", "--app", "mvt", "--duration", "3"] + FAST) == 0
        out = capsys.readouterr().out
        assert "Power [W]" in out and "OMP threads" in out
        assert out == _golden("fig5_mvt.txt", "figures")

    def test_trace_from_config(self, tmp_path, capsys):
        config = {
            "kernel": "mvt",
            "states": [
                {
                    "name": "eff",
                    "rank": {
                        "direction": "maximize",
                        "composition": "geometric",
                        "fields": [
                            {"metric": "throughput", "coefficient": 1.0},
                            {"metric": "power", "coefficient": -2.0},
                        ],
                    },
                },
                {
                    "name": "perf",
                    "rank": {
                        "direction": "maximize",
                        "fields": [{"metric": "throughput"}],
                    },
                },
            ],
            "active_state": "eff",
        }
        config_path = tmp_path / "margot.json"
        config_path.write_text(json.dumps(config))
        csv_path = tmp_path / "trace.csv"
        code = main(
            ["trace", str(config_path), "--duration", "2", "--csv", str(csv_path)]
            + FAST
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "eff" in out and "perf" in out
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("timestamp,state,compiler")


    def test_trace_names_a_missing_config(self, tmp_path, capsys):
        missing = tmp_path / "nonexist.json"
        assert main(["trace", str(missing)] + FAST) == 2
        captured = capsys.readouterr()
        assert f"error: {missing}: cannot read configuration" in captured.err
        assert "invalid JSON" not in captured.err


class TestMargotHeaderCommand:
    def test_margot_header_to_file(self, tmp_path, capsys):
        config = {
            "kernel": "mvt",
            "states": [
                {
                    "name": "perf",
                    "rank": {
                        "direction": "maximize",
                        "fields": [{"metric": "throughput"}],
                    },
                }
            ],
        }
        config_path = tmp_path / "margot.json"
        config_path.write_text(json.dumps(config))
        out_path = tmp_path / "margot.h"
        code = main(["margot-header", str(config_path), "--out", str(out_path)] + FAST)
        assert code == 0
        header = out_path.read_text()
        assert "void margot_update(int *version, int *threads)" in header
        # the generated header is parseable by the CIR frontend
        from repro.cir import parse

        assert parse(header).has_function("margot_update")


class TestRunCommand:
    def test_run_original(self, capsys):
        assert main(["run", "2mm", "--size", "6"]) == 0
        out = capsys.readouterr().out
        assert "main() returned 0" in out
        assert "D: shape=(6, 6)" in out

    def test_run_weaved_any_version_same_checksum(self, capsys):
        checksums = []
        for version in ("0", "9"):
            assert main(["run", "mvt", "--weaved", "--version", version, "--size", "6"]) == 0
            out = capsys.readouterr().out
            line = next(l for l in out.splitlines() if l.strip().startswith("x1:"))
            checksums.append(line.split("checksum=")[1])
        assert checksums[0] == checksums[1]

    @pytest.mark.parametrize("version", ["16", "99", "-1"])
    def test_weaved_version_outside_the_arms_exits_2(self, capsys, version):
        assert main(["run", "mvt", "--weaved", "--version", version]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --version {version}: the woven mvt has versions 0..15\n"
        )
        assert captured.out == ""

    def test_smallest_size_runs(self, capsys):
        assert main(["run", "2mm", "--size", "4"]) == 0
        assert "D: shape=(4, 4)" in capsys.readouterr().out


CLEAN_C = "int main() {\n  return 0;\n}\n"

WARN_C = """\
double A[10][10];
void k(int n) {
  int i;
  int j;
  #pragma omp parallel for private(j)
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++)
      A[0][j] = A[0][j] + 1.0;
}
"""

ERR_C = """\
void k(int n) {
  int i;
  double s = 0.0;
  #pragma omp parallel for
  for (i = 0; i < n; i++)
    s = s + 1.0;
}
"""


class TestCheckCommand:
    """The exit-code contract: 0 clean / 2 warnings-only / 3 errors."""

    def _lint(self, tmp_path, name, text, extra=()):
        path = tmp_path / name
        path.write_text(text)
        return main(["check", "--source", str(path), *extra])

    def test_clean_source_exits_0(self, tmp_path, capsys):
        assert self._lint(tmp_path, "clean.c", CLEAN_C) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_warning_source_exits_2(self, tmp_path, capsys):
        assert self._lint(tmp_path, "warn.c", WARN_C) == 2
        out = capsys.readouterr().out
        assert "[OMP002]" in out and "warning" in out

    def test_error_source_exits_3(self, tmp_path, capsys):
        assert self._lint(tmp_path, "err.c", ERR_C) == 3
        out = capsys.readouterr().out
        assert "[OMP001]" in out and "error" in out
        assert "hint:" in out

    def test_json_document(self, tmp_path, capsys):
        assert self._lint(tmp_path, "err.c", ERR_C, ["--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == 1
        assert payload["exit_code"] == 3
        assert payload["diagnostics"][0]["rule"] == "OMP001"

    def test_sarif_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "check.sarif"
        code = self._lint(
            tmp_path, "warn.c", WARN_C, ["--sarif", "--out", str(out_path)]
        )
        assert code == 2
        document = json.loads(out_path.read_text())
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"][0]["ruleId"] == "OMP002"

    def test_single_app_has_no_errors(self, capsys):
        # mvt's dot-product loops are flagged FPS201 (warnings), so the
        # exit code is 2; what matters is the absence of errors
        assert main(["check", "mvt"]) == 2
        out = capsys.readouterr().out
        assert "2 unit(s), 0 error(s), 2 warning(s)" in out
        assert "FPS201" in out

    def test_stencil_app_is_clean(self, capsys):
        # jacobi-2d has no reductions, no dependences on the parallel
        # axis, and no calls: every rule family stays quiet
        assert main(["check", "jacobi-2d"]) == 0
        out = capsys.readouterr().out
        assert "2 unit(s), 0 error(s), 0 warning(s)" in out

    def test_app_pristine_only(self, capsys):
        assert main(["check", "mvt", "--pristine-only"]) == 2
        assert "1 unit(s)" in capsys.readouterr().out

    def test_missing_source_is_a_named_error(self, tmp_path, capsys):
        path = tmp_path / "nonexist.c"
        assert main(["check", "--source", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: cannot read source (")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_non_utf8_source_is_a_named_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.c"
        path.write_bytes(b"int main() { return 0; }\n/* \xff */\n")
        assert main(["check", "--source", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: cannot read source (")
        assert "codec can't decode" in captured.err
        assert captured.out == ""

    @staticmethod
    def _chain(terms):
        """Legal C whose return expression is an ``a+a+...+a`` chain."""
        return "int f(int a) {\n  return " + "+".join(["a"] * terms) + ";\n}\n"

    def test_long_expression_chain_is_checked(self, tmp_path, capsys):
        # a clean unit is never printed, so the printer's recursion
        # over a 600-term chain is never reached
        assert self._lint(tmp_path, "chain600.c", self._chain(600)) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_too_deep_nesting_is_a_named_error(self, tmp_path, capsys):
        path = tmp_path / "chain1500.c"
        path.write_text(self._chain(1500))
        assert main(["check", "--source", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: expressions or statements nest")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_no_selection_is_an_error(self, capsys):
        assert main(["check"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_unknown_app_fails(self, capsys):
        assert main(["check", "nope"]) == 2

    def test_prune_plan_artifact(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main(["check", "syr2k", "--prune-plan", str(plan_path)])
        out = capsys.readouterr().out
        assert "Wrote prune plan" in out
        document = json.loads(plan_path.read_text())
        assert document["format"] == 1
        assert document["app"] == "syr2k"
        assert document["trusted"] is True
        assert document["masked"]

    def test_prune_plan_rejects_all(self, tmp_path, capsys):
        code = main(
            ["check", "--all", "--prune-plan", str(tmp_path / "plan.json")]
        )
        assert code == 2
        assert "prune-plan" in capsys.readouterr().err

    def test_metrics_out_counts_diagnostics(self, tmp_path, capsys):
        metrics_path = tmp_path / "check.prom"
        assert main(["check", "mvt", "--metrics-out", str(metrics_path)]) == 2
        text = metrics_path.read_text()
        assert 'socrates_check_diagnostics_total{rule="FPS201"} 2' in text

    def test_audit_out_writes_check_records(self, tmp_path, capsys):
        audit_path = tmp_path / "audit.jsonl"
        assert main(["check", "mvt", "--audit-out", str(audit_path)]) == 2
        records = [
            json.loads(line) for line in audit_path.read_text().splitlines()
        ]
        assert len(records) == 2
        assert all(r["type"] == "check" and r["rule"] == "FPS201" for r in records)


class TestDseCommand:
    def test_pruned_run_verifies_front(self, capsys):
        code = main(["dse", "syr2k", "--prune", "--verify-front", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["fronts_identical"] is True
        assert document["points_masked"] > 0
        assert (
            document["points_evaluated"] + document["points_masked"]
            == document["space_size"]
        )
        assert document["prune_audit_records"] == document["points_masked"]

    def test_unpruned_run(self, capsys):
        assert main(["dse", "mvt"]) == 0
        out = capsys.readouterr().out
        assert "0 masked" in out

    def test_plan_file_round_trip(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main(["check", "syr2k", "--prune-plan", str(plan_path)])
        capsys.readouterr()
        code = main(
            ["dse", "syr2k", "--prune-plan", str(plan_path), "--verify-front"]
        )
        assert code == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_plan_for_wrong_app_is_rejected(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main(["check", "syr2k", "--prune-plan", str(plan_path)])
        capsys.readouterr()
        assert main(["dse", "mvt", "--prune-plan", str(plan_path)]) == 2
        assert "prune plan is for" in capsys.readouterr().err

    def test_audit_out_writes_prune_records(self, tmp_path, capsys):
        audit_path = tmp_path / "audit.jsonl"
        assert main(
            ["dse", "syr2k", "--prune", "--audit-out", str(audit_path)]
        ) == 0
        records = [
            json.loads(line) for line in audit_path.read_text().splitlines()
        ]
        assert records
        assert all(r["type"] == "prune" and r["rule"] == "COST001" for r in records)


class TestProfilesAndLoocv:
    def test_profiles_table(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "benchmark" in out
        assert sum(1 for line in out.splitlines() if line.strip()) == 13

    def test_loocv_subset(self, capsys):
        assert main(["loocv", "--apps", "mvt,atax,gemver", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "leave-one-out" in out
        assert "mvt" in out and "random k-subset" in out


class TestObsDiffJson:
    """Satellite: `socrates obs diff --json` emits the machine-readable
    document instead of the table."""

    def write_trace(self, tmp_path, name, pad=0):
        from repro.obs import Observability
        from repro.obs.export import write_chrome_trace

        obs = Observability()
        with obs.tracer.span("build"):
            with obs.tracer.span("stage:weave"):
                pass
            for _ in range(pad):
                with obs.tracer.span("stage:profile"):
                    pass
        path = tmp_path / name
        write_chrome_trace(obs.tracer.spans, path)
        return path

    def test_json_document_round_trips(self, tmp_path, capsys):
        a = self.write_trace(tmp_path, "a.json")
        b = self.write_trace(tmp_path, "b.json", pad=2)
        assert main(["obs", "diff", str(a), str(b), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in document["deltas"]}
        assert by_name["stage:profile"]["count_b"] == 2
        assert by_name["stage:profile"]["count_a"] == 0
        assert by_name["stage:weave"]["count_a"] == 1
        assert document["total_delta_s"] == pytest.approx(
            document["total_b_s"] - document["total_a_s"]
        )

    def test_table_mode_unchanged(self, tmp_path, capsys):
        a = self.write_trace(tmp_path, "a.json")
        assert main(["obs", "diff", str(a), str(a)]) == 0
        out = capsys.readouterr().out
        assert "trace diff:" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_missing_trace_is_exit_2(self, tmp_path, capsys):
        a = self.write_trace(tmp_path, "a.json")
        assert main(["obs", "diff", str(a), str(tmp_path / "gone.json")]) == 2
        assert "gone.json" in capsys.readouterr().err


class TestObsTopHardening:
    """Satellite: `obs top --from` fails with a named ValueError (exit
    2), never a traceback, on missing/truncated/malformed files."""

    def test_missing_file(self, tmp_path, capsys):
        assert main(["obs", "top", "--from", str(tmp_path / "no.prom"), "--once"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no.prom" in err

    def test_directory_instead_of_file(self, tmp_path, capsys):
        assert main(["obs", "top", "--from", str(tmp_path), "--once"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_truncated_prometheus_text(self, tmp_path, capsys):
        path = tmp_path / "m.prom"
        path.write_text("# TYPE socrates_builds_total counter\nsocrates_builds_tot")
        assert main(["obs", "top", "--from", str(path), "--once"]) == 2
        err = capsys.readouterr().err
        assert "m.prom" in err

    def test_malformed_sample_line(self, tmp_path, capsys):
        path = tmp_path / "m.prom"
        path.write_text("socrates_builds_total not-a-number\n")
        assert main(["obs", "top", "--from", str(path), "--once"]) == 2
        assert "m.prom" in capsys.readouterr().err

    def test_valid_file_renders(self, tmp_path, capsys):
        path = tmp_path / "m.prom"
        path.write_text(
            "# TYPE socrates_builds_total counter\nsocrates_builds_total 3\n"
        )
        assert main(["obs", "top", "--from", str(path), "--once"]) == 0
        assert "socrates" in capsys.readouterr().out


class TestIncidentPipeline:
    """`obs incidents record | list | show | report` end to end."""

    @pytest.fixture(scope="class")
    def incident_dir(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("incidents")
        code = main(
            [
                "obs",
                "incidents",
                "record",
                "--duration",
                "2.0",
                "--repetitions",
                "1",
                "--threads",
                "1,2",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        return out_dir

    def test_record_writes_deterministic_bundles(self, incident_dir, capsys):
        names = sorted(path.name for path in incident_dir.iterdir())
        assert names == [
            "INC_inc-5d97b2c83b17.json",
            "INC_inc-9e329dda0eaa.json",
        ]

    def test_bundles_validate(self, incident_dir, capsys):
        paths = sorted(str(path) for path in incident_dir.iterdir())
        assert main(["obs", "validate", *paths]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 2
        assert "incident_id=inc-5d97b2c83b17" in out
        assert "kernel=mvt" in out

    def test_list(self, incident_dir, capsys):
        assert main(["obs", "incidents", "list", "--dir", str(incident_dir)]) == 0
        out = capsys.readouterr().out
        assert "inc-5d97b2c83b17" in out and "inc-9e329dda0eaa" in out
        assert "budget_burn:package_cap" in out

    def test_list_golden(self, incident_dir, capsys):
        assert main(["obs", "incidents", "list", "--dir", str(incident_dir)]) == 0
        assert capsys.readouterr().out == _golden("incidents_list.txt")

    def test_report_latest_golden(self, incident_dir, capsys):
        code = main(
            ["obs", "incidents", "report", "--latest", "--dir", str(incident_dir)]
        )
        assert code == 0
        assert capsys.readouterr().out == _golden("incidents_report_latest.txt")

    def test_show_by_prefix(self, incident_dir, capsys):
        code = main(
            ["obs", "incidents", "show", "inc-5d97", "--dir", str(incident_dir)]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["incident_id"] == "inc-5d97b2c83b17"
        assert document["kernel"] == "mvt"

    def test_ambiguous_prefix_is_exit_2(self, incident_dir, capsys):
        code = main(["obs", "incidents", "show", "inc-", "--dir", str(incident_dir)])
        assert code == 2
        assert "ambiguous" in capsys.readouterr().err

    def test_unknown_prefix_is_exit_2(self, incident_dir, capsys):
        code = main(
            ["obs", "incidents", "show", "inc-zzzz", "--dir", str(incident_dir)]
        )
        assert code == 2
        assert "no incident id starts with" in capsys.readouterr().err

    def test_report_latest_names_offender(self, incident_dir, capsys):
        code = main(
            ["obs", "incidents", "report", "--latest", "--dir", str(incident_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "inc-9e329dda0eaa" in out  # highest t wins
        assert "budget_burn:package_cap" in out
        assert "kernel.execute" in out
        assert "domain" in out and "package" in out

    def test_empty_dir_list_is_friendly(self, tmp_path, capsys):
        # list prints a notice; show/report raise the named error
        assert main(["obs", "incidents", "list", "--dir", str(tmp_path)]) == 0
        assert "no incident bundles" in capsys.readouterr().out
        assert main(["obs", "incidents", "report", "--latest", "--dir", str(tmp_path)]) == 2
        assert "no INC_*.json incident bundles found" in capsys.readouterr().err


class TestSharedOptionTypes:
    """--threads, --duration, --workers, --steps, -k and --size are validated at
    parse time: a bad value exits 2 naming the flag, before anything is
    built."""

    @pytest.fixture(autouse=True)
    def no_builds(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a build ran before the flag was rejected")

        monkeypatch.setattr("repro.core.toolflow.SocratesToolflow.build", refuse)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["stats", "2mm", "--threads", "1,,4"], "--threads"),
            (["build", "2mm", "--threads", "0,4"], "--threads"),
            (["fig3", "--threads", "two"], "--threads"),
            (["energy", "report", "mvt", "--duration", "-1"] + FAST, "--duration"),
            (["fig5", "--duration", "0"], "--duration"),
            (["obs", "whatif", "mvt", "--duration", "nan"], "--duration"),
            (["build", "2mm", "--workers", "0"] + FAST, "--workers"),
            (["obs", "export", "mvt", "--workers", "x"], "--workers"),
            (["fig4", "--steps", "-1"] + FAST, "--steps"),
            (["fig4", "--steps", "0"] + FAST, "--steps"),
            (["predict", "2mm", "-k", "-3"], "-k"),
            (["loocv", "-k", "0"], "-k"),
            (["run", "2mm", "--size", "3"], "--size"),
            (["run", "2mm", "--size", "0"], "--size"),
            (["run", "2mm", "--size", "-2"], "--size"),
            (["run", "2mm", "--size", "big"], "--size"),
        ],
    )
    def test_bad_value_exits_2_naming_the_flag(self, capsys, argv, flag):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"argument {flag}:" in captured.err
        assert captured.out == ""

    def test_thread_counts_sorted_and_deduplicated(self):
        args = build_parser().parse_args(["stats", "2mm", "--threads", "16, 1,4,1"])
        assert args.threads == [1, 4, 16]
        assert build_parser().parse_args(["stats", "2mm"]).threads is None


class TestJsonStdout:
    """Under --json the fig5-style commands print exactly one JSON
    document on stdout; progress notices go to stderr."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["energy", "report", "mvt", "--json"],
            ["obs", "flame", "mvt", "--json"],
            ["obs", "whatif", "mvt", "--json"],
            ["obs", "runs", "record", "trace", "mvt", "--json", "--store", "wh"],
        ],
        ids=["energy-report", "obs-flame", "obs-whatif", "obs-runs-record"],
    )
    def test_stdout_parses_as_one_document(self, tmp_path, capsys, argv):
        argv = [str(tmp_path / arg) if arg == "wh" else arg for arg in argv]
        assert main(argv + ["--duration", "2", "--threads", "1,2",
                            "--repetitions", "1"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert "Running fig5-style scenario" in captured.err
