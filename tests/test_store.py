"""Tests for the telemetry warehouse: store, provenance, trend, CLI."""

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import BenchBaseline, save_baseline
from repro.cli import main
from repro.obs.provenance import ProvenanceGraph
from repro.obs.store import (
    ArtifactBlob,
    SlowdownTracer,
    TelemetryStore,
    VirtualClock,
    canonical_json,
    filter_runs,
    parse_query,
    parse_slowdowns,
    recording_observability,
    run_id_for,
    validate_run_record,
)

from tests.test_bench import _golden_fresh

FAST = ["--threads", "1,4,16", "--repetitions", "2"]
GOLDEN_TREND = Path(__file__).parent / "golden" / "trend"


def tree_digest(root: Path) -> str:
    """One hash over every file path + content under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class TestVirtualClock:
    def test_returns_then_advances(self):
        clock = VirtualClock(tick_s=0.5)
        assert clock() == 0.0
        assert clock() == 0.5
        clock.advance(2.0)
        assert clock() == 3.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            VirtualClock(tick_s=0.0)
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)


class TestSlowdownTracer:
    def test_stretches_named_span_by_factor(self):
        clock = VirtualClock(tick_s=1e-6)
        tracer = SlowdownTracer(clock, {"slow": 3.0})
        with tracer.span("slow"):
            clock.advance(1.0)
        with tracer.span("fast"):
            clock.advance(1.0)
        spans = {span.name: span for span in tracer.spans}
        assert spans["slow"].duration_s == pytest.approx(3.0, rel=1e-4)
        assert spans["fast"].duration_s == pytest.approx(1.0, rel=1e-4)

    def test_parse_slowdowns(self):
        assert parse_slowdowns(None) == {}
        assert parse_slowdowns(["stage:profile:1.5"]) == {"stage:profile": 1.5}
        with pytest.raises(ValueError):
            parse_slowdowns(["nocolon"])
        with pytest.raises(ValueError):
            parse_slowdowns(["span:0.5"])  # factor < 1 would rewrite history

    def test_recording_observability_is_deterministic(self):
        def spans_of():
            obs = recording_observability()
            with obs.tracer.span("a"):
                with obs.tracer.span("b"):
                    pass
            return [(s.name, s.start_s, s.duration_s) for s in obs.tracer.spans]

        assert spans_of() == spans_of()


class TestRunIdentity:
    def test_run_id_is_stable_and_order_independent(self):
        a = {"kind": "build", "app": "2mm", "seed": 7}
        b = {"seed": 7, "app": "2mm", "kind": "build"}
        assert run_id_for(a) == run_id_for(b)
        assert len(run_id_for(a)) == 16

    def test_run_id_changes_with_any_field(self):
        base = {"kind": "build", "app": "2mm", "seed": 7}
        assert run_id_for(base) != run_id_for({**base, "seed": 8})
        assert run_id_for(base) != run_id_for({**base, "app": "mvt"})

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


class TestTelemetryStore:
    def test_put_blob_dedups_by_content(self, tmp_path):
        store = TelemetryStore(tmp_path / "wh")
        sha1, created1 = store.put_blob(b"payload", ".json")
        sha2, created2 = store.put_blob(b"payload", ".json")
        assert sha1 == sha2 and created1 and not created2
        assert len(store.blobs()) == 1
        assert store.find_blob(sha1, ".json").read_bytes() == b"payload"
        assert store.find_blob(sha1).name.endswith(".json")

    def test_record_is_idempotent(self, tmp_path):
        store = TelemetryStore(tmp_path / "wh")
        blob = ArtifactBlob("bench.json", b'{"x": 1}')
        run_id, created = store.record("bench", scenario="s", artifacts=[blob])
        before = tree_digest(store.root)
        run_id2, created2 = store.record("bench", scenario="s", artifacts=[blob])
        assert run_id == run_id2 and created and not created2
        assert tree_digest(store.root) == before

    def test_record_and_load_round_trip(self, tmp_path):
        store = TelemetryStore(tmp_path / "wh")
        run_id, _ = store.record(
            "build",
            app="2mm",
            machine="xeon_2s",
            seed=5,
            source="ab" * 32,
            metrics={"wall_s": 1.5},
            artifacts=[ArtifactBlob("trace.json", b"{}")],
        )
        record = store.load_run(run_id)
        assert record["app"] == "2mm"
        assert record["metrics"]["wall_s"] == 1.5
        summary = validate_run_record(record)
        assert summary["run_id"] == run_id
        assert store.resolve_run(run_id[:6]) == run_id

    def test_resolve_run_rejects_ambiguity_and_misses(self, tmp_path):
        store = TelemetryStore(tmp_path / "wh")
        store.record("build", app="a")
        with pytest.raises(ValueError):
            store.resolve_run("zzzz")

    def test_corrupted_record_fails_validation(self, tmp_path):
        store = TelemetryStore(tmp_path / "wh")
        run_id, _ = store.record("build", app="2mm")
        path = store.runs_dir / f"{run_id}.json"
        record = json.loads(path.read_text())
        record["seed"] = 999  # identity no longer hashes to run_id
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="does not match the recomputed"):
            store.load_run(run_id)

    def test_verify_detects_missing_blob(self, tmp_path):
        store = TelemetryStore(tmp_path / "wh")
        store.record("bench", scenario="s", artifacts=[ArtifactBlob("a.json", b"{}")])
        for blob in store.blobs():
            blob.unlink()
        with pytest.raises(ValueError, match="missing"):
            store.verify()

    def test_truncated_blob_is_rewritten_not_reused(self, tmp_path):
        # what a crash mid-write leaves at a blob's final path: a
        # later record producing that blob must not take it for a hit
        store = TelemetryStore(tmp_path / "wh")
        blob = ArtifactBlob("trace.json", b'{"traceEvents": []}\n')
        target = store.blob_path(hashlib.sha256(blob.data).hexdigest(), ".json")
        target.parent.mkdir(parents=True)
        target.write_bytes(blob.data[:7])
        store.record("bench", scenario="s", artifacts=[blob])
        assert store.verify()["artifacts"] == 1
        assert store.blobs() == [target]  # no temp file beside it

    def test_truncated_record_is_rewritten_and_journalled(self, tmp_path):
        # what a crash mid-write leaves at a record's path: the journal
        # line comes after the record, so it is missing too
        store = TelemetryStore(tmp_path / "wh")
        blob = ArtifactBlob("bench.json", b'{"x": 1}')
        run_id, _ = store.record("bench", scenario="s", artifacts=[blob])
        path = store.runs_dir / f"{run_id}.json"
        intact = path.read_bytes()
        path.write_bytes(intact[:40])
        store.journal_path.write_text("")
        assert store.run_ids() == []
        assert store.record("bench", scenario="s", artifacts=[blob]) == (run_id, True)
        assert path.read_bytes() == intact
        assert validate_run_record(store.load_run(run_id))["run_id"] == run_id
        assert store.run_ids() == [run_id]
        assert sorted(p.name for p in store.runs_dir.iterdir()) == [path.name]

    def test_failed_record_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def crash(src, dst):
            raise OSError("rename failed")

        store = TelemetryStore(tmp_path / "wh")
        monkeypatch.setattr("repro.obs.store.os.replace", crash)
        with pytest.raises(OSError, match="rename failed"):
            store.record("build", app="a")
        assert list(store.runs_dir.iterdir()) == []
        assert store.run_ids() == []

    def test_failed_blob_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def crash(src, dst):
            raise OSError("rename failed")

        store = TelemetryStore(tmp_path / "wh")
        monkeypatch.setattr("repro.obs.store.os.replace", crash)
        with pytest.raises(OSError, match="rename failed"):
            store.put_blob(b"payload", ".json")
        assert store.blobs() == []

    def test_gc_never_deletes_pinned_reachable(self, tmp_path):
        store = TelemetryStore(tmp_path / "wh")
        keep_blob = ArtifactBlob("keep.json", b'{"keep": 1}')
        drop_blob = ArtifactBlob("drop.json", b'{"drop": 1}')
        pinned_id, _ = store.record("bench", scenario="s", label="old", artifacts=[keep_blob])
        store.record("bench", scenario="s", label="mid", artifacts=[drop_blob])
        store.record("bench", scenario="s", label="new", artifacts=[keep_blob])
        store.pin(pinned_id)
        summary = store.gc(keep=1)
        assert summary["verified"] is True
        assert pinned_id not in summary["removed_runs"]
        assert store.find_blob(
            hashlib.sha256(keep_blob.data).hexdigest(), ".json"
        ) is not None
        # the mid run was unpinned and beyond keep=1, its blob orphaned
        assert store.find_blob(
            hashlib.sha256(drop_blob.data).hexdigest(), ".json"
        ) is None


class TestGcProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(
                st.sampled_from(["alpha", "beta", "gamma", "delta"]),  # payload
                st.booleans(),  # pinned?
            ),
            min_size=1,
            max_size=8,
        ),
        keep=st.integers(min_value=0, max_value=8),
    )
    def test_gc_idempotent_and_preserves_pinned(self, tmp_path_factory, runs, keep):
        store = TelemetryStore(tmp_path_factory.mktemp("wh") / "store")
        pinned_ids = []
        for index, (payload, pin) in enumerate(runs):
            blob = ArtifactBlob("data.json", json.dumps({"p": payload}).encode())
            run_id, _ = store.record(
                "bench", scenario="s", label=f"r{index}", artifacts=[blob]
            )
            if pin:
                store.pin(run_id)
                pinned_ids.append(run_id)
        summary = store.gc(keep=keep)
        assert summary["verified"] is True
        survivors = set(store.run_ids())
        # hard invariant: pinned runs and everything they reach survive
        for run_id in pinned_ids:
            assert run_id in survivors
            record = store.load_run(run_id)
            for entry in record["artifacts"]:
                assert store.find_blob(entry["sha256"], entry["suffix"]) is not None
        # idempotence: a second sweep with the same policy is a no-op
        before = tree_digest(store.root)
        second = store.gc(keep=keep)
        assert tree_digest(store.root) == before
        assert second["removed_runs"] == [] and second["removed_blobs"] == 0

    @settings(max_examples=25, deadline=None)
    @given(payloads=st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=6))
    def test_double_record_is_byte_identical(self, tmp_path_factory, payloads):
        root = tmp_path_factory.mktemp("wh") / "store"
        store = TelemetryStore(root)
        blobs = [
            ArtifactBlob(f"a{index}.txt", data)
            for index, data in enumerate(payloads)
        ]
        first = store.record("bench", scenario="s", artifacts=blobs)
        digest = tree_digest(root)
        second = store.record("bench", scenario="s", artifacts=blobs)
        assert first[0] == second[0] and not second[1]
        assert tree_digest(root) == digest


class TestQueryGrammar:
    RECORDS = [
        {"kind": "bench", "scenario": "s", "seed": 0, "label": "a",
         "run_id": "x1", "metrics": {"wall_s": 1.0}},
        {"kind": "bench", "scenario": "s", "seed": 0, "label": "b",
         "run_id": "x2", "metrics": {"wall_s": 3.0}},
        {"kind": "build", "app": "2mm", "seed": 7, "label": "",
         "run_id": "y1", "metrics": {"wall_s": 2.0}},
    ]

    def test_filter_by_field_and_metric(self):
        clauses = parse_query("kind=bench and wall_s<2.5")
        assert [r["run_id"] for r in filter_runs(self.RECORDS, clauses)] == ["x1"]

    def test_numeric_and_inequality_operators(self):
        assert len(filter_runs(self.RECORDS, parse_query("seed!=0"))) == 1
        assert len(filter_runs(self.RECORDS, parse_query("wall_s>=2.0"))) == 2

    def test_bad_clause_raises(self):
        with pytest.raises(ValueError):
            parse_query("kind~bench")


class TestProvenanceGraph:
    def make_store(self, tmp_path):
        store = TelemetryStore(tmp_path / "wh")
        trace = ArtifactBlob("trace.json", b'{"traceEvents": []}')
        folded = ArtifactBlob("profile.folded", b"a;b 1.0\n")
        run_id, _ = store.record(
            "build",
            app="2mm",
            source="cd" * 32,
            artifacts=[trace, folded],
            derivations=[("trace.json", "profile.folded", "collapsed")],
        )
        return store, run_id, trace

    def test_lineage_both_directions(self, tmp_path):
        store, run_id, trace = self.make_store(tmp_path)
        graph = ProvenanceGraph.from_runs(store.runs())
        node = graph.resolve(f"run:{run_id}")
        lineage = graph.lineage_dict(node)
        assert any(e["relation"] == "input" for e in lineage["ancestors"])
        relations = {e["relation"] for e in lineage["descendants"]}
        assert relations == {"produced", "collapsed"}
        # artifact ancestry walks back through the run to the source
        sha = hashlib.sha256(trace.data).hexdigest()
        up = graph.lineage_dict(graph.resolve(sha[:12]))["ancestors"]
        assert any(e["src"].startswith("source:") for e in up)

    def test_resolve_rejects_ambiguous_and_unknown(self, tmp_path):
        store, run_id, _ = self.make_store(tmp_path)
        graph = ProvenanceGraph.from_runs(store.runs())
        with pytest.raises(ValueError, match="no provenance node"):
            graph.resolve("zz" * 40)

    def test_ascii_tree_renders_run(self, tmp_path):
        store, run_id, _ = self.make_store(tmp_path)
        graph = ProvenanceGraph.from_runs(store.runs())
        tree = graph.ascii_tree(f"run:{run_id}")
        assert "[produced]" in tree and "[collapsed]" in tree
        assert "profile.folded" in tree


class TestWarehouseCli:
    def record_bench(self, store, label, extra=()):
        argv = [
            "obs", "runs", "record", "bench", "single_build",
            "--store", str(store), "--repeats", "1", "--label", label, "--json",
        ] + list(extra)
        assert main(argv) == 0

    def test_bench_kind_rejects_machine_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        # a bench scenario runs on its own fixed machine, so --machine
        # would only relabel identical runs under a second run id
        def must_not_run(*args, **kwargs):
            raise AssertionError("scenario ran")

        monkeypatch.setattr("repro.bench.run_scenario", must_not_run)
        store = tmp_path / "wh"
        argv = [
            "obs", "runs", "record", "bench", "single_build",
            "--store", str(store), "--machine", "biglittle_4p4e",
        ]
        assert main(argv) == 2
        assert "--machine does not apply to the bench kind" in capsys.readouterr().err
        assert TelemetryStore(store).run_ids() == []

    def test_cli_double_record_byte_identical(self, tmp_path, capsys):
        store = tmp_path / "wh"
        self.record_bench(store, "r1")
        first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        digest = tree_digest(store)
        self.record_bench(store, "r1")
        second = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert first["run_id"] == second["run_id"]
        assert first["created"] and not second["created"]
        assert tree_digest(store) == digest

    def test_trend_clean_history_then_injected_drift(self, tmp_path, capsys):
        store = tmp_path / "wh"
        for label in ("r1", "r2", "r3", "r4", "r5"):
            self.record_bench(store, label)
        capsys.readouterr()
        # five identical seeded runs: nothing flagged
        assert main(["obs", "trend", "single_build", "--store", str(store)]) == 0
        assert "ok" in capsys.readouterr().out
        # inject a >=20% slowdown into the sixth run: drift, exit 3,
        # with the stretched stack named in the attribution
        self.record_bench(store, "r6", ["--inject-slowdown", "engine.evaluate:2.0"])
        capsys.readouterr()
        code = main(
            ["obs", "trend", "single_build", "--store", str(store), "--json"]
        )
        assert code == 3
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["drift"] is True
        assert verdict["latest"] > 1.2 * verdict["median"]
        assert any(
            "engine.evaluate" in offender["stack"]
            for offender in verdict["offenders"]
        )

    def test_trend_needs_history(self, tmp_path, capsys):
        store = tmp_path / "wh"
        self.record_bench(store, "only")
        assert main(["obs", "trend", "single_build", "--store", str(store)]) == 2
        assert "needs at least" in capsys.readouterr().err

    def test_runs_list_query_lineage_round_trip(self, tmp_path, capsys):
        store = tmp_path / "wh"
        self.record_bench(store, "r1")
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert main(["obs", "runs", "list", "--store", str(store), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["run_id"] for row in rows] == [record["run_id"]]
        assert main([
            "obs", "query", "kind=bench and scenario=single_build",
            "--store", str(store), "--agg", "count", "--json",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1
        assert main([
            "obs", "lineage", f"run:{record['run_id']}",
            "--store", str(store), "--json",
        ]) == 0
        lineage = json.loads(capsys.readouterr().out)
        produced = [
            edge for edge in lineage["descendants"] if edge["relation"] == "produced"
        ]
        assert len(produced) == 3  # bench.json, trace.json, profile.folded

    def test_gc_pin_and_validate_store(self, tmp_path, capsys):
        store = tmp_path / "wh"
        for label in ("r1", "r2", "r3"):
            self.record_bench(store, label)
        outputs = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        pinned = outputs[0]["run_id"]
        assert main(["obs", "runs", "pin", pinned, "--store", str(store)]) == 0
        capsys.readouterr()
        assert main([
            "obs", "runs", "gc", "--store", str(store), "--keep", "1", "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verified"] is True
        assert pinned not in summary["removed_runs"]
        # the whole store still validates as a directory tree
        assert main(["obs", "validate", str(store)]) == 0
        out = capsys.readouterr().out
        assert "validated" in out and "FAIL" not in out

    def test_show_and_unpin(self, tmp_path, capsys):
        store = tmp_path / "wh"
        self.record_bench(store, "r1")
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        prefix = record["run_id"][:8]
        assert main(["obs", "runs", "show", prefix, "--store", str(store)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["run_id"] == record["run_id"]
        assert shown["schema"] == "socrates-run/1"
        assert main(["obs", "runs", "unpin", prefix, "--store", str(store)]) == 0


class TestStoreThreading:
    def test_build_store_flag_records_run(self, tmp_path, capsys):
        store = tmp_path / "wh"
        code = main(
            ["build", "mvt", "--store", str(store), "--store-label", "x"] + FAST
        )
        assert code == 0
        telemetry = TelemetryStore(store)
        ids = telemetry.run_ids()
        assert len(ids) == 1
        record = telemetry.load_run(ids[0])
        assert record["kind"] == "build" and record["app"] == "mvt"
        assert record["label"] == "x"
        assert record["metrics"]["knowledge_points"] > 0
        names = {entry["name"] for entry in record["artifacts"]}
        assert {"trace.json", "metrics.prom", "profile.folded"} <= names
        assert telemetry.verify()["runs"] == 1


class TestValidateDirectory:
    def test_directory_with_bad_artifact_exits_2(self, tmp_path, capsys):
        good = tmp_path / "good.prom"
        good.write_text("# TYPE x counter\nx 1.0\n")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        skipped = tmp_path / "notes.md"
        skipped.write_text("not an artifact")
        assert main(["obs", "validate", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert f"{bad}: FAIL" in out

    def test_directory_all_good_summarizes(self, tmp_path, capsys):
        (tmp_path / "m.prom").write_text("# TYPE x counter\nx 1.0\n")
        (tmp_path / "p.folded").write_text("a;b 1.0\n")
        (tmp_path / "notes.md").write_text("skip me")
        assert main(["obs", "validate", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "validated 2 file(s), skipped 1" in out

    def test_empty_directory_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["obs", "validate", str(empty)]) == 2


# -- byte-exact pins of the trend verdicts ---------------------------------------


def _record_bench(store, label, extra=()):
    argv = [
        "obs", "runs", "record", "bench", "single_build",
        "--store", str(store), "--repeats", "1", "--label", label, "--json",
    ] + list(extra)
    assert main(argv) == 0


@pytest.fixture(scope="module")
def trend_stores(tmp_path_factory):
    """``{"clean": store, "drift": store}`` of virtual-clock runs.

    The clean store holds four identical seeded ``single_build`` runs;
    the drift store is a copy plus a fifth run whose
    ``engine.evaluate`` spans are stretched twofold.
    """
    root = tmp_path_factory.mktemp("trend")
    clean = root / "clean"
    for label in ("r1", "r2", "r3", "r4"):
        _record_bench(clean, label)
    drift = root / "drift"
    shutil.copytree(clean, drift)
    _record_bench(drift, "r5", ["--inject-slowdown", "engine.evaluate:2.0"])
    return {"clean": clean, "drift": drift}


class TestTrendPins:
    """The stdout of ``obs trend`` and of ``bench gate --history-store``,
    byte for byte; the goldens live under ``tests/golden/trend/``."""

    @pytest.mark.parametrize("case, code", [("clean", 0), ("drift", 3)])
    @pytest.mark.parametrize("flags, suffix", [([], "txt"), (["--json"], "json")])
    def test_obs_trend(self, trend_stores, capsys, case, code, flags, suffix):
        argv = ["obs", "trend", "single_build", "--store", str(trend_stores[case])]
        assert main(argv + flags) == code
        expected = (GOLDEN_TREND / f"trend_{case}.{suffix}").read_text()
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("case, code", [("clean", 0), ("drift", 3)])
    def test_bench_gate_history(
        self, trend_stores, monkeypatch, tmp_path, capsys, case, code
    ):
        # the fresh run is a fixed result equal to its own baseline, so
        # only the warehouse history decides the exit code
        import repro.bench

        fresh = dataclasses.replace(_golden_fresh(), scenario="single_build")
        monkeypatch.setattr(repro.bench, "run_scenario", lambda name, repeats=3: fresh)
        save_baseline(BenchBaseline.from_result(fresh), tmp_path / "BENCH_single_build.json")
        argv = [
            "bench", "gate", "--scenario", "single_build",
            "--baseline-dir", str(tmp_path), "--history-store", str(trend_stores[case]),
        ]
        assert main(argv) == code
        expected = (GOLDEN_TREND / f"gate_history_{case}.txt").read_text()
        assert capsys.readouterr().out == expected


class TestTrendRejectsMalformedMetrics:
    """A run whose metric is non-finite or not a number must stop the
    trend with exit 2, never pass or be skipped as if it lacked the
    metric."""

    def store_with(self, tmp_path, values):
        store = TelemetryStore(tmp_path / "wh")
        for index, value in enumerate(values):
            store.record("bench", scenario="s", label=f"r{index}", metrics={"wall_s": value})
        return store

    @pytest.mark.parametrize(
        "values, reason",
        [
            ([1.0, 1.0, 1.0, float("nan")], "non-finite"),
            ([1.0, float("nan"), 1.0, 1.0, 50.0], "non-finite"),
            ([1.0, 1.0, 1.0, "fast"], "'wall_s' is not a number ('fast')"),
        ],
        ids=["nan-latest", "nan-in-history", "string-latest"],
    )
    def test_obs_trend_exits_2(self, tmp_path, capsys, values, reason):
        store = self.store_with(tmp_path, values)
        assert main(["obs", "trend", "s", "--store", str(store.root)]) == 2
        assert reason in capsys.readouterr().err

    def test_obs_query_aggregate_exits_2(self, tmp_path, capsys):
        store = self.store_with(tmp_path, [1.0, "fast"])
        argv = ["obs", "query", "kind=bench", "--store", str(store.root), "--agg", "median:wall_s"]
        assert main(argv) == 2
        assert "'wall_s' is not a number ('fast')" in capsys.readouterr().err

    def test_history_gate_does_not_skip_a_nan(self, tmp_path, capsys, monkeypatch):
        import repro.bench

        fresh = dataclasses.replace(_golden_fresh(), scenario="single_build")
        monkeypatch.setattr(repro.bench, "run_scenario", lambda name, repeats=3: fresh)
        save_baseline(BenchBaseline.from_result(fresh), tmp_path / "BENCH_single_build.json")
        store = TelemetryStore(tmp_path / "wh")
        for index, value in enumerate([1.0, 1.0, float("nan")]):
            store.record(
                "bench", scenario="single_build", label=f"r{index}",
                metrics={"wall_s": value},
            )
        argv = [
            "bench", "gate", "--scenario", "single_build",
            "--baseline-dir", str(tmp_path), "--history-store", str(store.root),
        ]
        assert main(argv) == 2
        assert "non-finite" in capsys.readouterr().err
