"""Byte-exact pins of what the artifact readers print on valid input.

Every fixture is built from fixed-clock spans and binary-fraction
values, so the numbers are exact on any platform.  The expected stdout
lives under ``tests/golden/readers/``; each artifact is written into
the test's working directory so the printed paths are relative.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.energy import LEDGER_SCHEMA
from repro.obs.export import chrome_trace, write_chrome_trace, write_jsonl, write_prometheus
from repro.obs.flight import IncidentBundle
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import FlameProfile
from repro.obs.tracing import Span

from tests.test_bench import _GOLDEN_FOREIGN

GOLDEN = Path(__file__).parent / "golden" / "readers"


def _golden(name):
    return (GOLDEN / name).read_text()


def _run(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


# -- fixtures ------------------------------------------------------------------


def native_spans():
    """A root, two stages and a two-member worker lane."""
    return [
        Span("bench:pin", 1, None, 0.0, 4.0),
        Span("stage:compile", 2, 1, 0.25, 1.75),
        Span("truth:k@1t", 3, 2, 0.5, 1.0, track="pool-0", attributes={"threads": 1}),
        Span("truth:k@2t", 4, 2, 1.0, 1.5, track="pool-0", attributes={"threads": 2}),
        Span("stage:run", 5, 1, 2.0, 3.5),
        Span(
            "kernel.execute", 6, 5, 2.5, 3.0,
            attributes={"compiler": "-O2", "threads": 4, "binding": "compact"},
        ),
        Span("kernel.execute", 7, 5, 3.0, 3.25, ok=False),
    ]


COUNTERS = [
    {"name": "power.package", "ph": "C", "ts": 0, "pid": 1, "args": {"package": 40.5}},
    {"name": "power.package", "ph": "C", "ts": 2000000, "pid": 1, "args": {"package": 60.25}},
]


def pin_registry():
    """Counters, gauges and a two-series histogram carrying exemplars."""
    registry = MetricsRegistry()
    registry.counter("socrates_builds_total", help="builds run").inc(3)
    registry.gauge("socrates_engine_truth_hits").set(6)
    registry.gauge("socrates_engine_truth_misses").set(2)
    for stage, values in (("weave", (0.25, 0.5, 4.0)), ("dse", (0.125, 2.0))):
        histogram = registry.histogram(
            "socrates_stage_duration_seconds",
            boundaries=[0.25, 1.0, 2.0],
            help="stage wall time",
            labels={"stage": stage},
        )
        for index, value in enumerate(values):
            histogram.observe(value, exemplar={"span_id": str(10 + index)})
    return registry


def _energy(core, uncore, dram, planes):
    energy = {"package": core + uncore + dram, "core": core, "uncore": uncore, "dram": dram}
    if planes:
        # two cluster planes, each half of every domain
        for prefix in ("P", "E"):
            for domain in ("package", "core", "uncore", "dram"):
                energy[f"{prefix}:{domain}"] = energy[domain] / 2
    return energy


def ledger_document(planes=False):
    points = [_energy(8.0, 2.0, 1.0, planes), _energy(4.0, 1.0, 0.5, planes)]
    idle = _energy(1.0, 0.5, 0.25, planes)
    totals = {
        domain: sum(entry[domain] for entry in points) + idle[domain]
        for domain in idle
    }
    return {
        "schema": LEDGER_SCHEMA,
        "kernel": "mvt",
        "duration_s": 2.0,
        "totals_j": totals,
        "operating_points": [
            {
                "kernel": "mvt", "compiler": "-O2", "threads": threads,
                "binding": "compact", "kind": "kernel", "invocations": 4,
                "time_s": 0.5, "energy_j": energy,
            }
            for threads, energy in zip((2, 4), points)
        ],
        "idle": {"energy_j": idle},
        "stages": [{"stage": "weave", "time_s": 0.25, "energy_j": _energy(0.5, 0.25, 0.25, planes)}],
        "stage_totals_j": _energy(0.5, 0.25, 0.25, planes),
    }


def incident_bundle():
    alert = {
        "name": "budget_burn:package_cap", "detector": "burn_rate",
        "severity": "page", "t": 1.5, "message": "package burns 2x budget",
    }
    window = {
        "spans": [
            {"t": 0.5, "name": "kernel.execute", "value": 0.25},
            {"t": 1.0, "name": "kernel.execute", "value": 0.5},
        ],
        "metrics": [{"t": 0.75, "name": "socrates_power_watts", "value": 60.25}],
        "energy": [{"t": 1.0, "domain": "package", "value": 12.5}],
        "audit": [],
        "alerts": [{"t": 1.5, "name": "budget_burn:package_cap", "value": 2.0}],
    }
    return IncidentBundle(
        kernel="mvt", t=1.5, alert=alert, window=window,
        attribution={"span": "kernel.execute", "domain": "package"},
    )


def write_pin_artifacts(directory):
    """Every pinned artifact kind under ``directory``; name -> path."""
    directory = Path(directory)
    paths = {
        "trace": directory / "trace.json",
        "counters": directory / "counters.json",
        "foreign": directory / "foreign.json",
        "prom": directory / "metrics.prom",
        "jsonl": directory / "events.jsonl",
        "ledger": directory / "ledger.json",
        "ledger_planes": directory / "ledger_planes.json",
        "folded": directory / "profile.folded",
        "profile": directory / "profile.json",
    }
    write_chrome_trace(native_spans(), paths["trace"], counters=COUNTERS)
    paths["counters"].write_text(json.dumps(chrome_trace([], counters=COUNTERS)))
    paths["foreign"].write_text(json.dumps(_GOLDEN_FOREIGN))
    write_prometheus(pin_registry(), paths["prom"])
    write_jsonl(paths["jsonl"], spans=native_spans(), metrics=pin_registry())
    paths["ledger"].write_text(json.dumps(ledger_document(), indent=2, sort_keys=True))
    paths["ledger_planes"].write_text(
        json.dumps(ledger_document(planes=True), indent=2, sort_keys=True)
    )
    profile = FlameProfile.from_spans(native_spans(), label="pin")
    paths["folded"].write_text(profile.as_folded())
    paths["profile"].write_text(json.dumps(profile.as_dict(), indent=2, sort_keys=True))
    paths["incident"] = incident_bundle().write(directory)
    return paths


@pytest.fixture
def artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return {
        kind: path.relative_to(tmp_path)
        for kind, path in write_pin_artifacts(tmp_path).items()
    }


# -- pins ----------------------------------------------------------------------


class TestReaderPins:
    @pytest.mark.parametrize("kind", ["trace", "foreign"])
    @pytest.mark.parametrize("form", ["table", "folded"])
    def test_flame_trace(self, artifacts, capsys, kind, form):
        argv = ["obs", "flame", "--trace", str(artifacts[kind])]
        if form == "folded":
            argv.append("--folded")
        assert _run(capsys, argv) == _golden(f"flame_{kind}_{form}.txt")

    def test_top_from_prom(self, artifacts, capsys):
        out = _run(capsys, ["obs", "top", "--from", str(artifacts["prom"]), "--once"])
        assert out == _golden("top_prom.txt")

    def test_validate_summaries(self, artifacts, capsys):
        kinds = [
            "trace", "counters", "prom", "jsonl", "ledger", "ledger_planes",
            "incident", "folded", "profile",
        ]
        out = _run(capsys, ["obs", "validate", *(str(artifacts[k]) for k in kinds)])
        assert out == _golden("validate.txt")


# -- agreement: obs validate and the consuming command read alike ---------------


def _consumer(kind, path):
    """argv of the command that consumes an artifact kind, or None."""
    if kind == "trace":
        return ["obs", "flame", "--trace", str(path)]
    if kind == "prom":
        return ["obs", "top", "--from", str(path), "--once"]
    if kind == "profile":
        return ["obs", "flame", "--diff", str(path), str(path)]
    if kind == "incident":
        return ["obs", "incidents", "list", "--dir", str(path.parent)]
    return None  # the ledger, the events stream: obs validate only


def _prom_with_buckets(first, second):
    return (
        "# TYPE h histogram\n"
        f'h_bucket{{le="1"}} {first}\n'
        f'h_bucket{{le="+Inf"}} {second}\n'
        "h_sum 4\n"
        f"h_count {second}\n"
    )


def _trace(*spans):
    return json.dumps(
        {
            "traceEvents": [
                {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 1, "tid": 0}
                for name, ts, dur in spans
            ]
        }
    )


def _bad_ledger():
    document = ledger_document(planes=True)
    document["operating_points"][0]["energy_j"]["P:core"] += 1.0
    return json.dumps(document)


#: (case id, artifact kind, file name, file text, expected error fragment)
MALFORMED = [
    # the consumers accepted these at the parent commit
    ("prom-not-cumulative", "prom", "m.prom", _prom_with_buckets(5, 3), "not cumulative"),
    ("trace-negative-dur", "trace", "t.json", _trace(("a", 0, -5)), "non-negative"),
    (
        "trace-partial-overlap", "trace", "t.json",
        _trace(("a", 0, 100), ("b", 50, 100)), "must nest",
    ),
    ("folded-negative", "profile", "p.folded", "a;b -1.0\n", "negative self time"),
    ("folded-nan", "profile", "p.folded", "a;;c nan\n", "empty frame"),
    ("folded-nan-self", "profile", "p.folded", "a;c nan\n", "not finite"),
    (
        "profile-json-malformed", "profile", "p.json",
        json.dumps({"schema": "socrates-profile/1", "stacks": {"a": {"count": 1}}}),
        "malformed profile",
    ),
    (
        "incident-bare", "incident", "INC_inc-0.json",
        json.dumps({"schema": "socrates-incident/1", "incident_id": "inc-0"}),
        "lacks required key",
    ),
    (
        "incident-t-not-a-number", "incident", "INC_inc-1.json",
        json.dumps(dict(incident_bundle().as_dict(), t="soon")), "'t' is not a number",
    ),
    # obs validate accepted this one
    ("ledger-cluster-plane", "ledger", "l.json", _bad_ledger(), "cluster 'P'"),
    # ...and these, which the consumer could not read
    ("prom-untyped", "prom", "m.prom", "m 1\n", "TYPE"),
    ("prom-timestamp", "prom", "m.prom", "# TYPE m gauge\nm 1 1700000000\n", "malformed sample"),
    (
        "prom-summary", "prom", "m.prom",
        '# TYPE s summary\ns{quantile="0.5"} 1\n', "unsupported metric type",
    ),
    (
        "prom-exemplar-on-sum", "prom", "m.prom",
        _prom_with_buckets(1, 1).replace("h_sum 4", 'h_sum 4 # {span_id="1"} 4'),
        "exemplar",
    ),
    (
        "prom-no-finite-bucket", "prom", "m.prom",
        '# TYPE h histogram\nh_bucket{le="+Inf"} 1\nh_sum 1\nh_count 1\n',
        "no finite buckets",
    ),
    ("prom-bad-number", "prom", "m.prom", "# TYPE m gauge\nm 1x\n", "line 2: "),
    (
        "trace-list-tid", "trace", "t.json",
        json.dumps({"traceEvents": [{"name": "a", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": [0]}]}),
        "'tid' is not a number or string",
    ),
    (
        "trace-unknown-phase", "trace", "t.json",
        json.dumps({"traceEvents": [{"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 0}]}),
        "unsupported phase",
    ),
]


class TestReaderAgreement:
    @pytest.mark.parametrize(
        "kind, name, text, reason",
        [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    def test_malformed_rejected_by_both(self, tmp_path, capsys, kind, name, text, reason):
        directory = tmp_path / "artifacts"
        directory.mkdir()
        path = directory / name
        path.write_text(text)
        commands = [["obs", "validate", str(path)], _consumer(kind, path)]
        for argv in filter(None, commands):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: "), (argv, err)
            assert reason in err, (argv, err)

    @pytest.mark.parametrize(
        "kind, consumer",
        [
            ("trace", "trace"), ("foreign", "trace"), ("counters", None),
            ("prom", "prom"), ("jsonl", None), ("ledger", None),
            ("ledger_planes", None), ("incident", "incident"),
            ("folded", "profile"), ("profile", "profile"),
        ],
    )
    def test_pin_fixtures_accepted_by_both(self, artifacts, capsys, kind, consumer):
        path = artifacts[kind]
        assert main(["obs", "validate", str(path)]) == 0
        if consumer is not None:
            assert main(_consumer(consumer, path)) == 0
