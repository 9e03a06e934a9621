"""Structural pins of the `socrates` CLI.

Two contracts every refactor of ``repro.cli`` must keep:

* the ordered argparse action table of every parser reachable from
  :func:`build_parser` (option strings, dest, default, nargs, const,
  choices, required, help, metavar) — this fixes ``--help`` on every
  supported Python version without pinning rendered text, whose
  headings differ between versions;
* the warehouse run ids of ``obs runs record`` and of the ``--store``
  flags, each at a small fixed configuration.  A run id hashes only the
  run's identity, so it does not depend on the platform.  Each record's
  artifact list, in order, as (name, sha256, bytes), and its metrics
  are pinned too (``tests/golden/run_records.json``): those are seeded
  virtual-clock content, so they change only when a recorded byte does.

Regenerate the action table after an intended CLI change with::

    PYTHONPATH=src python -c "import json, tests.test_cli_pins as t; \\
        print(json.dumps(t.parser_table(), indent=1, sort_keys=True))" \\
        > tests/golden/cli_parsers.json
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs.store import TelemetryStore

GOLDEN = Path(__file__).parent / "golden" / "cli_parsers.json"
RECORDS = Path(__file__).parent / "golden" / "run_records.json"
FAST = ["--threads", "1,4", "--repetitions", "1"]


def _action_row(action: argparse.Action) -> dict:
    row = {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "nargs": action.nargs,
        "const": action.const,
        "choices": None if action.choices is None else list(action.choices),
        "required": action.required,
        "help": action.help,
        "metavar": action.metavar,
    }
    if isinstance(action, argparse._SubParsersAction):
        row["subcommands"] = [
            [choice.dest, choice.help] for choice in action._choices_actions
        ]
    return row


def _walk(parser: argparse.ArgumentParser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _walk(sub)


def parser_table() -> list:
    """One entry per parser, in traversal order, JSON-normalised."""
    table = []
    for parser in _walk(build_parser()):
        table.append(
            {
                "prog": parser.prog,
                "description": parser.description,
                "actions": [_action_row(action) for action in parser._actions],
                "exclusive": [
                    [action.dest for action in group._group_actions]
                    for group in parser._mutually_exclusive_groups
                ],
            }
        )
    return json.loads(json.dumps(table))


class TestParserTable:
    def test_fifty_parsers(self):
        assert len(parser_table()) == 50

    def test_matches_golden(self):
        golden = json.loads(GOLDEN.read_text())
        table = parser_table()
        assert [entry["prog"] for entry in table] == [
            entry["prog"] for entry in golden
        ]
        for entry, expected in zip(table, golden):
            assert entry == expected, entry["prog"]


TRACE_CONFIG = {
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
            "rank": {"direction": "maximize", "fields": [{"metric": "throughput"}]},
        },
    ],
    "active_state": "eff",
}


def _only_run_id(store: Path) -> str:
    ids = TelemetryStore(store).run_ids()
    assert len(ids) == 1, ids
    return ids[0]


def _assert_record_pinned(store: Path, run_id: str, case: str) -> None:
    """The stored artifacts, in order, and the metrics match the golden."""
    record = TelemetryStore(store).load_run(run_id)
    expected = json.loads(RECORDS.read_text())[case]
    artifacts = [
        [entry["name"], entry["sha256"], entry["bytes"]]
        for entry in record["artifacts"]
    ]
    assert artifacts == expected["artifacts"]
    assert record["metrics"] == expected["metrics"]


class TestRunIds:
    @pytest.mark.parametrize(
        "argv, run_id",
        [
            (["build", "mvt"] + FAST, "15951fdcde4362b0"),
            (["dse", "mvt", "--repetitions", "1"], "5539d8fbb813e67a"),
            (["trace", "mvt", "--duration", "1"] + FAST, "ff4ac412a7303bf9"),
            (["bench", "single_build", "--repeats", "1"], "16a37d533ec720e2"),
        ],
        ids=["build", "dse", "trace", "bench"],
    )
    def test_obs_runs_record(self, tmp_path, capsys, argv, run_id):
        store = tmp_path / "wh"
        kind = argv[0]
        argv = ["obs", "runs", "record", *argv, "--store", str(store), "--json"]
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["run_id"] == run_id
        assert _only_run_id(store) == run_id
        _assert_record_pinned(store, run_id, f"obs_runs_record/{kind}")

    @pytest.mark.parametrize(
        "argv, run_id",
        [
            (["build", "mvt"] + FAST, "15951fdcde4362b0"),
            (["dse", "mvt", "--repetitions", "1"], "4657bb966d9dfd9a"),
            (["trace", "CONFIG", "--duration", "1"] + FAST, "f79d708354864346"),
        ],
        ids=["build", "dse", "trace"],
    )
    def test_store_flag(self, tmp_path, capsys, argv, run_id):
        config = tmp_path / "margot.json"
        config.write_text(json.dumps(TRACE_CONFIG))
        store = tmp_path / "wh"
        argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
        assert main(argv + ["--store", str(store)]) == 0
        assert _only_run_id(store) == run_id
        assert f"recorded {argv[0]} run {run_id} in {store}" in capsys.readouterr().err
        _assert_record_pinned(store, run_id, f"store_flag/{argv[0]}")

    @pytest.mark.parametrize(
        "argv, outs",
        [
            (["build", "mvt"] + FAST, {"trace.json": "--trace-out"}),
            (
                ["dse", "mvt", "--repetitions", "1"],
                {"trace.json": "--trace-out", "metrics.prom": "--metrics-out"},
            ),
        ],
        ids=["build", "dse"],
    )
    def test_stored_blobs_are_the_out_files(self, tmp_path, argv, outs):
        """A ``--store`` blob is byte for byte what the matching
        ``--*-out`` flag writes for the same run (``build`` has no
        ``--metrics-out``, so ``dse`` covers the Prometheus dump)."""
        store = tmp_path / "wh"
        argv = [*argv, "--store", str(store)]
        for name, flag in outs.items():
            argv += [flag, str(tmp_path / name)]
        assert main(argv) == 0
        warehouse = TelemetryStore(store)
        record = warehouse.load_run(_only_run_id(store))
        blobs = {
            entry["name"]: warehouse.find_blob(entry["sha256"], entry["suffix"])
            for entry in record["artifacts"]
        }
        for name in outs:
            assert blobs[name].read_bytes() == (tmp_path / name).read_bytes(), name
