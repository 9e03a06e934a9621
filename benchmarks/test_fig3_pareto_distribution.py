"""Figure 3: power/throughput distribution over the Pareto curve.

For every benchmark, a full-factorial DSE (8 compiler configurations x
32 thread counts x 2 bindings, 5 repetitions) builds the knowledge
base; the Pareto-optimal configurations under (maximize throughput,
minimize power) are kept, both metrics are normalized by their
per-application mean (as in the paper's plot), and the distribution
(min / Q1 / median / Q3 / max) is printed as the textual equivalent of
the paper's boxplots.

Claim reproduced: the normalized spread is wide for every application
(roughly 0.5x-2.5x in the paper), hence **no one-fits-all
configuration exists** and runtime selection is worth it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.paper import pareto_spread
from repro.dse.pareto import pareto_filter
from repro.polybench.suite import BENCHMARK_NAMES


def _quartiles(values):
    return (
        float(values.min()),
        float(np.percentile(values, 25)),
        float(np.median(values)),
        float(np.percentile(values, 75)),
        float(values.max()),
    )


def test_fig3_pareto_distribution(results):
    rows = {}
    for name in BENCHMARK_NAMES:
        power, throughput = pareto_spread(results.build(name).exploration.knowledge)
        rows[name] = {"points": len(power), "power": power, "throughput": throughput}

    lines = [
        "",
        "Figure 3 -- normalized power/throughput over the Pareto curve",
        f"{'Benchmark':12s} {'#OPs':>5s} | {'power: min/Q1/med/Q3/max':>34s} | "
        f"{'throughput: min/Q1/med/Q3/max':>34s}",
    ]
    for name in BENCHMARK_NAMES:
        row = rows[name]
        p = _quartiles(row["power"])
        t = _quartiles(row["throughput"])
        lines.append(
            f"{name:12s} {row['points']:5d} | "
            f"{p[0]:5.2f} {p[1]:5.2f} {p[2]:5.2f} {p[3]:5.2f} {p[4]:5.2f}      | "
            f"{t[0]:5.2f} {t[1]:5.2f} {t[2]:5.2f} {t[3]:5.2f} {t[4]:5.2f}"
        )
    print("\n".join(lines))

    from repro.viz.ascii import boxplot

    print("\nnormalized power (boxplot):")
    print(boxplot([(name, rows[name]["power"]) for name in BENCHMARK_NAMES], bounds=(0.0, 2.5)))
    print("\nnormalized throughput (boxplot):")
    print(
        boxplot(
            [(name, rows[name]["throughput"]) for name in BENCHMARK_NAMES],
            bounds=(0.0, 2.5),
        )
    )

    # -- the paper's claims ----------------------------------------------------
    wide_spread_apps = 0
    for name in BENCHMARK_NAMES:
        row = rows[name]
        # a real front: multiple Pareto-optimal configurations everywhere
        assert row["points"] >= 4, name
        # normalized metrics straddle 1.0 (the mean)
        assert row["power"].min() < 1.0 < row["power"].max(), name
        assert row["throughput"].min() < 1.0 < row["throughput"].max(), name
        if row["power"].max() / row["power"].min() > 1.6:
            wide_spread_apps += 1
    # "Given the large power/performance swing, there is no one-fits-all
    # configuration": the majority of applications show a wide swing
    assert wide_spread_apps >= 8


def test_fig3_fronts_use_distinct_configurations(results):
    """The Pareto fronts mix compiler flags, thread counts and bindings."""
    distinct_compilers = set()
    distinct_threads = set()
    for name in BENCHMARK_NAMES[:6]:
        built = results.build(name)
        front = pareto_filter(
            built.exploration.knowledge.points(),
            [("throughput", True), ("power", False)],
        )
        distinct_compilers |= {point.knob("compiler") for point in front}
        distinct_threads |= {point.knob("threads") for point in front}
    assert len(distinct_compilers) >= 3
    assert len(distinct_threads) >= 6
