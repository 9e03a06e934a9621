"""Bit-exact pins of the machine model's ground truth.

Three kernels (compute-bound syrk, memory-bound mvt, dependence-limited
seidel-2d) under two flag configurations are evaluated on every
registry machine at every team size with both bindings, and on the
big.LITTLE parts also pinned to each cluster.  A cell's record is the
``float.hex`` of ``evaluate()`` time/power/energy and of every number
in ``breakdown().as_dict()``, one line per team size; the test compares
the SHA-256 of each cell's record with ``tests/golden/machine_pins.json``,
so a refactor of the executor or power model that moves a single bit
names the cell it moved.

Regenerate (only for an intended model change) with::

    PYTHONPATH=src python tests/test_machine_pins.py > tests/golden/machine_pins.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import pytest

from repro.gcc.compiler import Compiler
from repro.gcc.flags import FlagConfiguration, OptLevel
from repro.machine.executor import MachineExecutor
from repro.machine.openmp import BindingPolicy, OpenMPRuntime
from repro.machine.registry import get_machine, machine_names
from repro.polybench.suite import load
from repro.polybench.workload import profile_kernel

GOLDEN = Path(__file__).parent / "golden" / "machine_pins.json"

APPS = ("syrk", "mvt", "seidel-2d")
CONFIGS = (FlagConfiguration(OptLevel.O2), FlagConfiguration(OptLevel.O3))


def _hexify(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexify(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_hexify(item) for item in value]
    return value


def _cells() -> Iterator[Tuple[str, str, Optional[str]]]:
    """(machine, binding, cluster pin) for every pinned team family."""
    for name in machine_names():
        machine = get_machine(name)
        pins = (None,) if machine.is_homogeneous else (None,) + machine.cluster_names()
        for cluster in pins:
            for policy in BindingPolicy:
                yield name, policy.value, cluster


def cell_records() -> Dict[str, str]:
    """Cell key -> SHA-256 of its float.hex record lines."""
    compiler = Compiler()
    kernels = {
        (app, config.label): compiler.compile(profile_kernel(load(app)), config)
        for app in APPS
        for config in CONFIGS
    }
    digests: Dict[str, str] = {}
    for name, binding, cluster in _cells():
        machine = get_machine(name)
        executor = MachineExecutor(machine)
        omp = OpenMPRuntime(machine)
        policy = BindingPolicy(binding)
        for (app, label), kernel in kernels.items():
            lines = []
            for threads in range(1, omp.max_threads(cluster) + 1):
                placement = omp.place(threads, policy, cluster=cluster)
                result = executor.evaluate(kernel, placement)
                breakdown = executor.breakdown(kernel, placement).as_dict()
                lines.append(
                    " ".join(
                        (
                            str(threads),
                            result.time_s.hex(),
                            result.power_w.hex(),
                            result.energy_j.hex(),
                            json.dumps(_hexify(breakdown), sort_keys=True),
                        )
                    )
                )
            key = f"{name}|{app}|{label}|{binding}|{cluster or '-'}"
            digests[key] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def records() -> Dict[str, str]:
    return cell_records()


def test_every_registry_machine_is_pinned(records):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(records)
    assert {key.split("|")[0] for key in golden} == set(machine_names())


def test_model_output_matches_golden_bits(records):
    golden = json.loads(GOLDEN.read_text())
    moved = sorted(key for key in golden if records.get(key) != golden[key])
    assert not moved, f"{len(moved)} cells moved, first: {moved[:5]}"


if __name__ == "__main__":
    print(json.dumps(cell_records(), indent=1, sort_keys=True))
