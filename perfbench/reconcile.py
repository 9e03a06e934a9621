"""Put a traced run's layer shares next to a committed baseline's.

The baselines under ``benchmarks/baselines`` store in-program span
stacks (``repro.obs`` switched on); the benchmark's traced run wraps
functions from outside with ``repro.obs`` off.  Both are folded into
the same layer groups and printed as a Markdown table of shares of the
wall time.  Run from the repository root::

    python3 perfbench/run.py --workload suite_build --trace 1 | tail -n 1 > traced.json
    python3 perfbench/reconcile.py suite_build traced.json

``suite_build`` is compared with ``BENCH_suite_sweep.json`` over the
whole wall time; ``adapt_loop`` with ``BENCH_adaptation_loop.json``
over its ``scenario.run`` subtree only, because the baseline's wall
time also holds the build that adapt_loop does in set-up.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Tuple

BASELINES = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"

#: workload -> (baseline file, root span of the compared subtree or None,
#: {group: (baseline leaf spans, traced layer functions)})
GROUPS: Dict[str, Tuple[str, object, Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]]]] = {
    "suite_build": (
        "BENCH_suite_sweep.json",
        None,
        {
            "cobayn (train, predict, corpus)": (
                ("cobayn.train", "cobayn.iterative", "cobayn.corpus", "stage:prune"),
                ("cobayn.build_corpus", "cobayn.train", "cobayn.predict",
                 "cobayn.bic_score", "cobayn.posterior"),
            ),
            "lara weave + analysis gate": (
                ("stage:weave",),
                ("lara.weave_benchmark", "analysis.check_unit"),
            ),
            "engine / gcc / machine / dse": (
                ("engine.evaluate", "truth:", "dse.explore", "backend.run_truths", "stage:profile"),
                ("engine.evaluate", "gcc.compile", "machine.evaluate", "machine.place", "dse.explore"),
            ),
            "characterize (cir, milepost, polybench)": (
                ("stage:characterize",),
                ("cir.parse", "milepost.extract_features", "polybench.profile_kernel",
                 "polybench.bound_environment"),
            ),
            "assemble (core)": (("stage:assemble",), ("core.build_version_table",)),
        },
    ),
    "adapt_loop": (
        "BENCH_adaptation_loop.json",
        "scenario.run",
        {
            "margot (update, monitors, log)": (
                ("margot.update", "monitor.observe"),
                ("margot.update", "margot.stop_monitor", "margot.log"),
            ),
            "machine runtime (run)": (("kernel.execute",), ("machine.run", "machine.evaluate")),
            "core loop (run_once, place, switching)": (
                ("mapek.iteration", "scenario.run"),
                ("core.run_once", "machine.place"),
            ),
        },
    ),
}


def baseline_shares(workload: str) -> Dict[str, float]:
    name, root, groups = GROUPS[workload]
    document = json.loads((BASELINES / name).read_text())
    selfs: Dict[str, float] = {}
    for stack, record in document["stacks"].items():
        frames = stack.split(";")
        if root is not None and root not in frames:
            continue
        selfs[frames[-1]] = selfs.get(frames[-1], 0.0) + record["self_s"]["median"]
    total = sum(selfs.values()) if root is not None else document["wall_s"]["median"]
    shares = {}
    for group, (leaves, _) in groups.items():
        shares[group] = sum(
            value for leaf, value in selfs.items() if any(leaf.startswith(p) for p in leaves)
        ) / total
    shares["untraced"] = 1.0 - sum(shares.values())
    return shares


def traced_shares(workload: str, result: Dict[str, object]) -> Dict[str, float]:
    _, _, groups = GROUPS[workload]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}  # type: ignore[union-attr]
    wall = metrics["traced_wall_s"]
    shares = {
        group: sum(metrics[f"{layer}.self_s"] for layer in layers) / wall
        for group, (_, layers) in groups.items()
    }
    shares["untraced"] = 1.0 - sum(shares.values())
    return shares


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in GROUPS:
        print(__doc__, file=sys.stderr)
        return 2
    workload, path = argv
    result = json.loads(Path(path).read_text().strip().splitlines()[-1])
    baseline = baseline_shares(workload)
    traced = traced_shares(workload, result)
    print(f"| layer group | {GROUPS[workload][0]} | {workload} traced | gap (points) |")
    print("|---|---|---|---|")
    for group in baseline:
        gap = 100 * (traced[group] - baseline[group])
        flag = " **>5**" if abs(gap) > 5 else ""
        print(f"| {group} | {100 * baseline[group]:.1f}% | {100 * traced[group]:.1f}% | {gap:+.1f}{flag} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
