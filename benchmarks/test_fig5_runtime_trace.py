"""Figure 5: execution trace of 2mm under changing requirements.

The adaptive 2mm runs for 300 virtual seconds while the application
requirement switches between the energy-efficient policy (maximize
Thr/W^2, 0-100 s), the performance policy (maximize throughput,
100-200 s) and back (200-300 s) — exactly the schedule of the paper's
figure.  The harness prints a down-sampled trace of the five signals
the paper plots (power, exec time, binding, compiler flags, threads).

Claims reproduced:
* the knobs switch at the 100 s and 200 s boundaries;
* the performance phase draws visibly more power and runs faster;
* the two energy-efficient phases settle on the same configuration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveApplication
from repro.core.scenario import fig5_flip
from repro.machine.power import RaplMeter

DURATION_S = 300.0
SWITCH_1_S = 100.0
SWITCH_2_S = 200.0


def _fresh_app(built):
    base = built.adaptive
    return AdaptiveApplication(
        name="2mm",
        versions=base._versions,
        knowledge=built.exploration.knowledge,
        executor=base._executor,
        omp=base._omp,
        meter=RaplMeter(base._executor.power_model, seed=0xF15),
    )


def _run_trace(built):
    app = _fresh_app(built)
    return fig5_flip(app, DURATION_S).run(app)


def _phase(trace, lo, hi):
    return [record for record in trace if lo <= record.timestamp < hi]


def test_fig5_runtime_trace(results):
    built = results.build("2mm")
    trace = _run_trace(built)

    lines = [
        "",
        "Figure 5 -- 2mm execution trace with requirement switches at 100 s / 200 s",
        f"{'t[s]':>6s} {'state':>10s} {'P[W]':>7s} {'Exec[ms]':>9s} {'Thr':>4s} {'Bind':>6s}  Compiler",
    ]
    next_sample = 0.0
    for record in trace:
        if record.timestamp >= next_sample:
            lines.append(
                f"{record.timestamp:6.1f} {record.state:>10s} {record.power_w:7.1f} "
                f"{record.time_s * 1e3:9.1f} {record.threads:4d} {record.binding:>6s}  "
                f"{record.compiler}"
            )
            next_sample += 10.0
    print("\n".join(lines))

    from repro.viz.ascii import timeseries

    stamps = [record.timestamp for record in trace]
    print()
    print(timeseries(stamps, [r.power_w for r in trace], height=8, title="Power [W]"))
    print()
    print(
        timeseries(
            stamps, [r.time_s * 1e3 for r in trace], height=8, title="Exec time [ms]"
        )
    )

    efficiency_1 = _phase(trace, 20.0, SWITCH_1_S)
    performance = _phase(trace, SWITCH_1_S + 20.0, SWITCH_2_S)
    efficiency_2 = _phase(trace, SWITCH_2_S + 20.0, DURATION_S)
    assert efficiency_1 and performance and efficiency_2

    eff1_power = np.mean([r.power_w for r in efficiency_1])
    perf_power = np.mean([r.power_w for r in performance])
    eff2_power = np.mean([r.power_w for r in efficiency_2])
    eff1_time = np.mean([r.time_s for r in efficiency_1])
    perf_time = np.mean([r.time_s for r in performance])

    # performance phase: more power, less time (the paper's visual)
    assert perf_power > eff1_power + 20.0
    assert perf_time < eff1_time * 0.8
    # the two efficiency phases agree with each other
    assert abs(eff1_power - eff2_power) < 8.0
    # power stays within the paper's measured envelope (~80-145 W)
    powers = [record.power_w for record in trace]
    assert min(powers) > 55.0 and max(powers) < 160.0
    # the configuration visibly switches at both boundaries
    assert (efficiency_1[-1].compiler, efficiency_1[-1].threads) != (
        performance[-1].compiler,
        performance[-1].threads,
    )
    assert (performance[-1].threads != efficiency_2[-1].threads) or (
        performance[-1].compiler != efficiency_2[-1].compiler
    )


def test_fig5_adaptation_is_quick(results):
    """After a requirement switch the new configuration settles within
    a few invocations (mARGOt reacts at the next update call).

    Records are selected by their *state* label: the invocation that
    straddles the 100 s boundary started under the old policy and
    rightly carries its configuration.
    """
    built = results.build("2mm")
    trace = _run_trace(built)
    performance = [r for r in trace if r.state == "Throughput"]
    settled = performance[len(performance) // 2]
    assert performance[0].threads == settled.threads
    assert performance[0].compiler == settled.compiler


def test_fig5_efficiency_metric_actually_improves(results):
    """The efficiency phase wins on the metric it optimizes (Thr/W^2)
    and on power footprint.

    Note: it does NOT necessarily win on energy *per invocation* —
    race-to-idle means the full-machine configuration amortizes idle
    power over a much shorter run.  Thr/W^2 deliberately over-weights
    instantaneous power draw, which is why the paper uses it for
    power-constrained energy-aware execution.
    """
    built = results.build("2mm")
    trace = _run_trace(built)
    eff = [r for r in trace if r.state == "Thr/W^2" and 20.0 <= r.timestamp < SWITCH_1_S]
    perf = [r for r in trace if r.state == "Throughput"]
    eff_score = np.mean([(1.0 / r.time_s) / r.power_w**2 for r in eff])
    perf_score = np.mean([(1.0 / r.time_s) / r.power_w**2 for r in perf])
    assert eff_score > perf_score
    assert np.mean([r.power_w for r in eff]) < np.mean([r.power_w for r in perf]) - 30.0
