"""Tests for the mARGOt extensions: configuration documents, oplist
serialization, and margot.h code generation."""

import json

import pytest

from repro.cir import parse, to_source
from repro.margot.asrtm import ApplicationRuntimeManager
from repro.margot.codegen import generate_margot_header
from repro.margot.config import (
    ConfigError,
    MargotConfiguration,
    apply_configuration,
    load_config,
)
from repro.margot.knowledge import KnowledgeBase, MetricStats, OperatingPoint
from repro.margot.oplist import (
    OplistError,
    knowledge_from_dict,
    knowledge_to_dict,
    load_knowledge,
    save_knowledge,
)
from repro.margot.state import RankComposition, RankDirection


def sample_kb():
    points = []
    for threads, time, power in ((1, 4.0, 45.0), (8, 0.8, 90.0), (16, 0.5, 120.0)):
        points.append(
            OperatingPoint(
                knobs={"compiler": "-O2", "threads": threads, "binding": "close"},
                metrics={
                    "time": MetricStats(time, 0.01),
                    "power": MetricStats(power, 1.0),
                    "throughput": MetricStats(1.0 / time, 0.0),
                },
            )
        )
    return KnowledgeBase(points)


BASIC_CONFIG = {
    "kernel": "2mm",
    "states": [
        {
            "name": "efficiency",
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
            "name": "budget",
            "rank": {
                "direction": "minimize",
                "fields": [{"metric": "time"}],
            },
            "constraints": [
                {
                    "metric": "power",
                    "comparison": "le",
                    "value": 100.0,
                    "confidence": 1.0,
                    "priority": 5,
                }
            ],
        },
    ],
    "active_state": "efficiency",
}


class TestConfig:
    def test_load_from_mapping(self):
        config = load_config(BASIC_CONFIG)
        assert config.kernel == "2mm"
        assert config.state_names() == ["efficiency", "budget"]
        assert config.active_state == "efficiency"

    def test_load_from_json_string(self):
        for prefix in ("", "\n  "):
            config = load_config(prefix + json.dumps(BASIC_CONFIG))
            assert config.kernel == "2mm"

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "margot.json"
        path.write_text(json.dumps(BASIC_CONFIG))
        config = load_config(path)
        assert config.state_names() == ["efficiency", "budget"]

    @pytest.mark.parametrize("as_path", [True, False])
    def test_missing_file_is_named(self, tmp_path, as_path):
        path = tmp_path / "nonexist.json"
        with pytest.raises(ConfigError, match="nonexist.json: cannot read configuration"):
            load_config(path if as_path else str(path))

    def test_rank_parsed(self):
        config = load_config(BASIC_CONFIG)
        rank = config.states[0].rank
        assert rank.direction is RankDirection.MAXIMIZE
        assert rank.composition is RankComposition.GEOMETRIC
        assert [f.coefficient for f in rank.fields] == [1.0, -2.0]

    def test_constraint_parsed(self):
        config = load_config(BASIC_CONFIG)
        constraint = config.states[1].constraints[0]
        assert constraint.goal.field == "power"
        assert constraint.goal.value == 100.0
        assert constraint.priority == 5
        assert constraint.confidence == 1.0

    def test_symbolic_comparisons_accepted(self):
        doc = json.loads(json.dumps(BASIC_CONFIG))
        doc["states"][1]["constraints"][0]["comparison"] = "<="
        config = load_config(doc)
        assert config.states[1].constraints[0].goal.check(99.0)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("kernel"),
            lambda d: d.pop("states"),
            lambda d: d.update(states=[]),
            lambda d: d["states"][0].pop("name"),
            lambda d: d["states"][0]["rank"].pop("fields"),
            lambda d: d["states"][0]["rank"].update(direction="sideways"),
            lambda d: d.update(active_state="nope"),
            lambda d: d["states"][1]["constraints"][0].update(comparison="~~"),
        ],
    )
    def test_malformed_documents_rejected(self, mutate):
        document = json.loads(json.dumps(BASIC_CONFIG))
        mutate(document)
        with pytest.raises(ConfigError):
            load_config(document)

    def test_duplicate_state_names_rejected(self):
        document = json.loads(json.dumps(BASIC_CONFIG))
        document["states"][1]["name"] = "efficiency"
        with pytest.raises(ConfigError):
            load_config(document)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
            load_config("{not json")

    def test_apply_to_asrtm(self):
        config = load_config(BASIC_CONFIG)
        asrtm = ApplicationRuntimeManager(sample_kb())
        apply_configuration(config, asrtm)
        assert asrtm.active_state.name == "efficiency"
        asrtm.switch_state("budget")
        best = asrtm.update()
        assert best.metric("power").mean <= 100.0


class TestOplist:
    def test_round_trip_dict(self):
        kb = sample_kb()
        rebuilt = knowledge_from_dict(knowledge_to_dict(kb))
        assert len(rebuilt) == len(kb)
        original = kb.find(compiler="-O2", threads=8, binding="close")
        loaded = rebuilt.find(compiler="-O2", threads=8, binding="close")
        assert loaded.metric("time").mean == original.metric("time").mean
        assert loaded.metric("power").std == original.metric("power").std

    def test_knob_types_preserved(self):
        rebuilt = knowledge_from_dict(knowledge_to_dict(sample_kb()))
        point = rebuilt.points()[0]
        assert isinstance(point.knob("threads"), int)
        assert isinstance(point.knob("compiler"), str)

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "kb.oplist.json"
        save_knowledge(sample_kb(), path)
        rebuilt = load_knowledge(path)
        assert len(rebuilt) == 3

    def test_bad_format_version(self):
        with pytest.raises(OplistError):
            knowledge_from_dict({"format": 999, "points": []})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        with pytest.raises(OplistError):
            load_knowledge(path)

    def test_unknown_knob_type(self):
        document = {
            "format": 1,
            "points": [
                {
                    "knobs": {"x": {"type": "blob", "value": 1}},
                    "metrics": {"time": {"mean": 1.0, "std": 0.0}},
                }
            ],
        }
        with pytest.raises(OplistError):
            knowledge_from_dict(document)


class TestCodegen:
    def _states(self):
        config = load_config(BASIC_CONFIG)
        return config.states

    def test_header_contains_tables_and_api(self):
        header = generate_margot_header(
            "kernel_2mm",
            sample_kb(),
            self._states(),
            version_index={"-O2|close": 3},
        )
        assert "margot_op_version" in header
        assert "margot_op_time_mean" in header
        assert "void margot_init(void)" in header
        assert "void margot_update(int *version, int *threads)" in header
        assert "MARGOT_OP_COUNT 3" in header

    def test_version_index_used(self):
        header = generate_margot_header(
            "kernel_2mm", sample_kb(), self._states(), {"-O2|close": 7}
        )
        assert "static int margot_op_version[] = {7, 7, 7};" in header

    def test_header_parses_with_cir(self):
        header = generate_margot_header(
            "kernel_2mm", sample_kb(), self._states(), {"-O2|close": 0}
        )
        unit = parse(header, name="margot.h")
        assert unit.has_function("margot_init")
        assert unit.has_function("margot_update")
        assert unit.has_function("margot_start_monitor")
        assert unit.has_function("margot_stop_monitor")
        assert unit.has_function("margot_log")

    def test_header_round_trips(self):
        header = generate_margot_header(
            "kernel_2mm", sample_kb(), self._states(), {"-O2|close": 0}
        )
        printed = to_source(parse(header))
        assert to_source(parse(printed)) == printed

    def test_constraints_emitted(self):
        header = generate_margot_header(
            "kernel_2mm", sample_kb(), self._states(), {"-O2|close": 0}
        )
        assert "margot_op_power_mean[op]" in header
        assert "<= 100" in header

    def test_geometric_rank_uses_log(self):
        header = generate_margot_header(
            "kernel_2mm", sample_kb(), self._states(), {"-O2|close": 0}
        )
        assert "log(margot_op_throughput_mean[op])" in header
        assert "-2 * log(margot_op_power_mean[op])" in header

    def test_requires_states(self):
        with pytest.raises(ValueError):
            generate_margot_header("k", sample_kb(), [], {})
