"""SOCRATES benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite_build --seed 7 --seconds 40 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end
metrics.  ``--trace 1`` traces one set-up, then spends half the
remaining time on that untraced measurement and half with the public
functions of each ``repro`` layer wrapped from outside (see
``layers.py``), and prints the per-layer metrics.  ``repro.obs`` stays
the disabled null object throughout.

Timing.  The host this runs on changes speed by up to 2x, in phases of
seconds to minutes, and process CPU time slows with it.  So every op
(and every set-up) is timed together with a fixed reference
computation run right before and after it (``workloads.OpTimer``), and
its time is taken as a multiple of the reference's.  Per op, the
median multiple over the passes of a run is converted back to seconds
with the run's fast reference time (:data:`SCALE_QUANTILE`): the result
is the op's time at the host's full speed.  ``--seconds`` bounds the whole run:
set-ups and passes stop when the next pass would overrun it, after at
least :data:`MIN_PASSES` passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
and ``failed`` count output checks.  The exit code is 0 when the run
completed (even with failed checks) and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Passes per measurement at least, so every op has repeats to take
#: the median of even when the host is slow.
MIN_PASSES = 2

#: Quantile of a run's reference samples (one per op, set-ups included)
#: that converts reference multiples back to seconds.  Not the fastest
#: sample: in one process it can be a rare outlier, and scaling by it
#: spread dse_prune's ten-seed wall_s by 13%, against 5% with this.
SCALE_QUANTILE = 0.1

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``.
#: An *op* is one app build (suite_build), one MAPE-K invocation
#: (adapt_loop) or one app taken from source to its pruned Pareto
#: front (dse_prune); a *pass* is one repetition of the workload.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

#: Wrapped functions whose call count is reported (every wrapped
#: function's self time is).
_CALLS = ("cobayn.train", "cobayn.bic_score", "cobayn.posterior", "cir.parse",
          "engine.evaluate", "gcc.compile", "margot.update", "machine.run")


def per_layer_names() -> Tuple[Tuple[str, str], ...]:
    """(name, unit) of every per-layer metric, printed with ``--trace 1``.
    Counts and seconds are means per traced pass, except the ``setup.``
    metrics, which come from the one traced set-up."""
    from layers import TARGETS

    return (
        tuple((f"{name}.calls", "count") for name in _CALLS)
        + tuple((f"{name}.self_s", "s") for name, _, _ in TARGETS)
        + (
            ("margot.update.us_per_call", "us"),
            ("margot.switches", "count"),
            ("engine.compile_hit_ratio", "ratio"),
            ("engine.truth_hit_ratio", "ratio"),
            ("engine.points_evaluated", "count"),
            ("engine.points_masked", "count"),
            ("dse.masked_ratio", "ratio"),
            ("invoke_us_p99", "us"),
            ("energy_j", "J"),
            ("traced_wall_s", "s"),
            ("untraced_share", "ratio"),
            ("trace_overhead_ratio", "ratio"),
            ("setup.cobayn.self_s", "s"),
            ("setup.traced_s", "s"),
        )
    )


def _quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted sample."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Measurement:
    """The timed passes of one measurement (traced or not)."""

    def __init__(self) -> None:
        #: raw seconds of each pass, reference samples included
        self.walls: List[float] = []
        #: the workload's PassOutput of each pass, payload dropped
        self.outputs: list = []

    def op_multiples(self) -> List[float]:
        """Per op index, the median over passes of op time / reference time."""
        from repro.bench.stats import median

        per_pass = [
            [op / ref for op, ref in zip(output.op_s, output.ref_s)]
            for output in self.outputs
        ]
        if len({len(ops) for ops in per_pass}) != 1:
            raise ValueError("passes ran different numbers of ops")
        return [median(list(repeats)) for repeats in zip(*per_pass)]

    def references(self) -> List[float]:
        return [ref for output in self.outputs for ref in output.ref_s]

    def op_seconds(self) -> float:
        """Raw seconds spent in the passes outside reference samples."""
        return sum(wall - output.reference_s for wall, output in zip(self.walls, self.outputs))


def timed_phase(workload, deadline: float, checks, tracer=None) -> Measurement:
    """Repeat passes until the next one would end after ``deadline``
    (a ``time.perf_counter`` value), and at least :data:`MIN_PASSES`.

    Checks run between passes, outside the measured time and with the
    layer wrappers paused.
    """
    measurement = Measurement()
    clock = time.perf_counter
    while True:
        gc.collect()
        if tracer is not None:
            tracer.active = True
        started = clock()
        output = workload.run_pass()
        measurement.walls.append(clock() - started)
        if tracer is not None:
            tracer.active = False
        workload.check(output, checks)
        output.payload = None  # so memory does not grow with the pass count
        measurement.outputs.append(output)
        if len(measurement.walls) >= MIN_PASSES and clock() + measurement.walls[-1] > deadline:
            return measurement


def timed_setup(workload, checks, tracer=None) -> Tuple[float, float]:
    """(seconds, reference seconds around it) of one set-up."""
    from workloads import reference_sample

    gc.collect()
    before = reference_sample()
    if tracer is not None:
        tracer.active = True
    started = time.perf_counter()
    workload.setup(checks)
    elapsed = time.perf_counter() - started
    if tracer is not None:
        tracer.active = False
    return elapsed, (before + reference_sample()) / 2


def end_to_end_metrics(setups: List[Tuple[float, float]], measurement: Measurement) -> Dict[str, float]:
    from repro.bench.measure import peak_rss_kb
    from repro.bench.stats import median

    scale = _quantile(
        sorted(measurement.references() + [ref for _, ref in setups]), SCALE_QUANTILE
    )
    op_s = [multiple * scale for multiple in measurement.op_multiples()]
    wall_s = sum(op_s)
    return {
        "setup_s": median([elapsed / ref for elapsed, ref in setups]) * scale,
        "wall_s": wall_s,
        "op_ms_p50": median(op_s) * 1e3,
        "ops_per_s": len(op_s) / wall_s,
        "peak_rss_mb": peak_rss_kb() / 1024.0,
    }


def per_layer_metrics(workload, untraced: Measurement, traced: Measurement, tracer) -> Dict[str, float]:
    from repro.bench.stats import median

    passes = len(traced.walls)
    stats = tracer.stats
    values: Dict[str, float] = {}
    for name in _CALLS:
        values[f"{name}.calls"] = stats[name].calls / passes
    for name, stat in stats.items():
        values[f"{name}.self_s"] = stat.self_s / passes
    update = stats["margot.update"]
    values["margot.update.us_per_call"] = (
        update.self_s / update.calls * 1e6 if update.calls else 0.0
    )
    outputs = traced.outputs
    values["margot.switches"] = sum(o.switches for o in outputs) / passes
    counters = [c for o in outputs for c in o.engines]

    def ratio(numerator: int, denominator: int) -> float:
        return numerator / denominator if denominator else 0.0

    compile_hits = sum(c.compile_hits for c in counters)
    truth_hits = sum(c.truth_hits for c in counters)
    evaluated = sum(c.points_evaluated for c in counters)
    masked = sum(c.points_masked for c in counters)
    values["engine.compile_hit_ratio"] = ratio(
        compile_hits, compile_hits + sum(c.compile_misses for c in counters)
    )
    values["engine.truth_hit_ratio"] = ratio(
        truth_hits, truth_hits + sum(c.truth_misses for c in counters)
    )
    values["engine.points_evaluated"] = evaluated / passes
    values["engine.points_masked"] = masked / passes
    values["dse.masked_ratio"] = ratio(masked, evaluated + masked)
    # from the untraced passes, so the wrappers cannot move them; only
    # adapt_loop's ops are kernel invocations
    scale = _quantile(sorted(untraced.references()), SCALE_QUANTILE)
    values["invoke_us_p99"] = (
        _quantile(sorted(untraced.op_multiples()), 0.99) * scale * 1e6
        if workload.name == "adapt_loop"
        else 0.0
    )
    values["energy_j"] = median([o.energy_j for o in untraced.outputs])
    # self times of the wrapped calls plus the time in no wrapped call
    # make up the traced pass time by construction (one call stack)
    traced_s = traced.op_seconds()
    values["traced_wall_s"] = traced_s / passes
    values["untraced_share"] = 1.0 - tracer.top_level_s / traced_s
    values["trace_overhead_ratio"] = sum(traced.op_multiples()) / sum(untraced.op_multiples())
    return values


def run(workload_name: str, seed: int, seconds: float, trace: bool, size=None) -> Dict[str, object]:
    """Run one workload and return the result object (not yet printed)."""
    started = time.perf_counter()
    deadline = started + seconds
    import repro.obs
    import workloads
    from layers import LayerTracer

    size = size if size is not None else workloads.FULL
    pinned = None
    if seed == workloads.DEFAULT_SEED and size == workloads.FULL:
        pinned = json.loads((HERE / "pinned.json").read_text())[workload_name]
    workload = workloads.WORKLOADS[workload_name](seed, size, pinned)
    checks = workloads.Checks()

    if not trace:
        setups = [timed_setup(workload, checks) for _ in range(SETUP_REPEATS)]
        values = end_to_end_metrics(setups, timed_phase(workload, deadline, checks))
        units = dict(END_TO_END)
    else:
        with LayerTracer() as setup_tracer:
            setup_s, _ = timed_setup(workload, checks, setup_tracer)
        midpoint = time.perf_counter() + (deadline - time.perf_counter()) / 2
        # every traced pass must reproduce the first, untraced, pass: the
        # wrappers must not change what the program computes
        untraced = timed_phase(workload, midpoint, checks)
        with LayerTracer() as tracer:
            traced = timed_phase(workload, deadline, checks, tracer)
        values = per_layer_metrics(workload, untraced, traced, tracer)
        values["setup.cobayn.self_s"] = sum(
            stat.self_s for name, stat in setup_tracer.stats.items() if name.startswith("cobayn.")
        )
        values["setup.traced_s"] = setup_s
        units = dict(per_layer_names())
    # the benchmark must never measure the program's own tracing
    checks.expect(
        repro.obs.NULL_OBS.enabled is False and not repro.obs.NULL_OBS.tracer.enabled,
        "repro.obs.NULL_OBS is no longer the disabled null object",
    )
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite_build", "adapt_loop", "dse_prune"))
    parser.add_argument("--seed", type=int, default=0x50CA)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
