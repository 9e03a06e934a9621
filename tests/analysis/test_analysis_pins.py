"""Byte pins of everything the static analysis derives for the suite.

A refactor of :mod:`repro.analysis` must keep every fact it reports:

* the plan JSON ``socrates check APP --prune-plan FILE`` writes, for
  every benchmark on ``xeon_2s`` and on ``biglittle_8p8e`` (sha256 of
  the file bytes);
* the kernel-level :class:`~repro.analysis.cost.KernelCostReport`
  fields, plus each nest's ``depth``, ``iterations`` and
  ``footprint_bytes``;
* ``summarize_unit(...)[f].as_dict()`` for every defined function;
* the :func:`~repro.analysis.flagsafety.flag_safety_verdict` of every
  benchmark's kernel;
* the stdout bytes of ``socrates check --all --json`` and ``--sarif``
  (sha256).

Floats are pinned as ``float.hex`` so a change in the last bit shows.
Regenerate after an intended change with::

    PYTHONPATH=src python -c "import json, tests.analysis.test_analysis_pins as t; \\
        print(json.dumps(t.snapshot(), indent=1, sort_keys=True))" \\
        > tests/golden/analysis_pins.json
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.analysis.cost import kernel_cost_report
from repro.analysis.flagsafety import flag_safety_verdict
from repro.analysis.interproc import summarize_unit
from repro.cli import main
from repro.polybench.suite import all_apps
from repro.polybench.workload import bound_environment

GOLDEN = Path(__file__).parent.parent / "golden" / "analysis_pins.json"
MACHINES = ("xeon_2s", "biglittle_8p8e")


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(item) for item in value]
    return value


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_pin(report) -> dict:
    return _hexed(
        {
            "kernel": report.kernel,
            "flops": report.flops,
            "int_ops": report.int_ops,
            "loads": report.loads,
            "stores": report.stores,
            "footprint_bytes": report.footprint_bytes,
            "naive_bytes": report.naive_bytes,
            "operational_intensity": report.operational_intensity,
            "max_depth": report.max_depth,
            "resolved": report.resolved,
            "nests": [
                {
                    "depth": nest.depth,
                    "iterations": nest.iterations,
                    "footprint_bytes": nest.footprint_bytes,
                }
                for nest in report.nests
            ],
        }
    )


def analysis_pins() -> dict:
    """Per-app cost report, function summaries and flag verdict."""
    pins = {}
    for app in all_apps():
        unit = app.parse()
        kernel = app.kernels[0]
        env = bound_environment(unit)
        pins[app.name] = {
            "cost": _report_pin(kernel_cost_report(unit, kernel, env)),
            "summaries": {
                name: _hexed(summary.as_dict())
                for name, summary in summarize_unit(unit, env).items()
            },
            "verdict": flag_safety_verdict(unit, kernel).as_dict(),
        }
    return pins


def plan_pins() -> dict:
    """sha256 of ``check APP --prune-plan FILE`` per machine and app."""
    pins = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plan.json"
        for machine in MACHINES:
            for app in all_apps():
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(
                        [
                            "check",
                            app.name,
                            "--pristine-only",
                            "--machine",
                            machine,
                            "--prune-plan",
                            str(path),
                        ]
                    )
                # the exit code is the check report's: 0 clean, 2 warnings
                assert code in (0, 2), (machine, app.name, code)
                pins[f"{machine}/{app.name}"] = _sha256(path.read_bytes())
                path.unlink()
    return pins


def check_pins() -> dict:
    """sha256 and exit code of ``check --all --json`` / ``--sarif``."""
    pins = {}
    for flag in ("--json", "--sarif"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", "--all", flag])
        pins[flag] = {"exit": code, "sha256": _sha256(out.getvalue().encode())}
    return pins


def snapshot() -> dict:
    return {
        "analysis": analysis_pins(),
        "plans": plan_pins(),
        "check": check_pins(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_cost_summaries_and_verdicts_are_pinned(golden):
    assert analysis_pins() == golden["analysis"]


def test_prune_plans_are_pinned(golden):
    assert plan_pins() == golden["plans"]


def test_check_documents_are_pinned(golden):
    assert check_pins() == golden["check"]
