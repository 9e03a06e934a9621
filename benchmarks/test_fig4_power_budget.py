"""Figure 4: static analysis under a power budget (2mm).

mARGOt is asked to *minimize execution time subject to average power
<= budget* while the budget sweeps 45 W -> 140 W (the paper's x-axis).
For each budget the harness prints the achieved execution time and the
selected software knobs (compiler flags, OpenMP threads, binding),
mirroring the four stacked panels of the paper's figure.

Claims reproduced:
* execution time is monotonically non-increasing in the budget, with a
  large total swing (the paper spans 1095 ms -> 15275 ms);
* the selected knobs show *no clear trend*: compiler configuration,
  thread count and binding all change non-monotonically along the
  sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.paper import power_budget_sweep

BUDGETS_W = np.linspace(45.0, 140.0, 20)


def test_fig4_power_budget_sweep(results):
    built = results.build("2mm")
    rows = power_budget_sweep(built.exploration.knowledge, BUDGETS_W)

    lines = [
        "",
        "Figure 4 -- minimize exec time of 2mm under a power budget",
        f"{'Budget[W]':>9s} {'Exec[ms]':>9s} {'Power[W]':>9s} {'Thr':>4s} {'Bind':>6s}  Compiler flags",
    ]
    for row in rows:
        lines.append(
            f"{row['budget']:9.1f} {row['time_ms']:9.1f} {row['power']:9.1f} "
            f"{row['threads']:4d} {row['binding']:>6s}  {row['compiler']}"
        )
    print("\n".join(lines))

    times = [row["time_ms"] for row in rows]
    # execution time never worsens as the budget grows
    for earlier, later in zip(times, times[1:]):
        assert later <= earlier * 1.0001
    # the power-performance swing is large (paper: ~14x)
    assert times[0] / times[-1] > 4.0
    # budgets are respected by the predicted power
    for row in rows:
        assert row["power"] <= row["budget"] * 1.02 or row["budget"] <= 46.0
    # low budgets force few threads; high budgets use most of the machine
    assert rows[0]["threads"] <= 4
    assert rows[-1]["threads"] >= 16


def test_fig4_no_clear_knob_trend(results):
    """The knob trajectory is not monotone: compiler and binding flip."""
    built = results.build("2mm")
    rows = power_budget_sweep(built.exploration.knowledge, BUDGETS_W)
    compilers = [row["compiler"] for row in rows]
    threads = [row["threads"] for row in rows]
    # several distinct compiler configurations and thread counts appear
    assert len(set(compilers)) >= 2
    assert len(set(threads)) >= 6
    # threads not perfectly monotone (binding/compiler swaps interleave)
    strictly_monotone = all(a <= b for a, b in zip(threads, threads[1:]))
    compiler_changes = sum(1 for a, b in zip(compilers, compilers[1:]) if a != b)
    assert compiler_changes >= 1 or not strictly_monotone


def test_fig4_infeasible_budget_relaxes_gracefully(results):
    """Below the machine's floor the AS-RTM picks the closest point."""
    built = results.build("2mm")
    [row] = power_budget_sweep(built.exploration.knowledge, [10.0])
    low, _ = built.exploration.knowledge.metric_bounds("power")
    assert row["power"] <= low * 1.05
