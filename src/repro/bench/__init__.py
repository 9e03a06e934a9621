"""`repro.bench` — the performance observatory.

Layered on :mod:`repro.obs`, this package gives the repo a
longitudinal performance record of *itself*:

* :mod:`repro.bench.scenarios` — a registry of standardized workloads
  (single build, 12-app suite sweep, DSE exploration, COBAYN corpus,
  MAPE-K adaptation loop), each run under tracing with wall time,
  per-span totals, engine counters and peak RSS collected;
* :mod:`repro.bench.stats` — robust statistics (median + MAD, not
  mean/stdev) so shared-runner noise cannot poison a baseline;
* :mod:`repro.bench.baseline` — the schema-versioned
  ``BENCH_<scenario>.json`` committed next to the code;
* :mod:`repro.bench.gate` — the regression gate: MAD-scaled
  thresholds, exact fingerprint matching, and attribution of any
  wall-time delta through the span-name diff and the stack diff of
  :mod:`repro.obs.profile`;
* :mod:`repro.bench.measure` — peak RSS and the in-situ cost of the
  alert hooks, read by the scenario runs.

CLI: ``socrates bench list / run / compare / gate``.
"""

from repro.bench.baseline import (
    SCHEMA,
    BaselineError,
    BaselineFormatError,
    BaselineNotFoundError,
    BaselineSchemaError,
    BenchBaseline,
    StackBaseline,
    StageBaseline,
    baseline_filename,
    baseline_text,
    load_baseline,
    save_baseline,
)
from repro.bench.gate import (
    DEFAULT_ENERGY_TOLERANCE,
    DEFAULT_MAD_K,
    DEFAULT_MIN_DELTA_S,
    DEFAULT_THRESHOLD,
    EnergyVerdict,
    GateReport,
    RatioVerdict,
    StageVerdict,
    compare_result,
)
from repro.bench.measure import AlertOverheadProbe, peak_rss_kb
from repro.bench.scenarios import (
    BenchScenario,
    ScenarioResult,
    all_scenarios,
    get_scenario,
    quick_scenarios,
    run_scenario,
)
from repro.bench.stats import RobustStats, mad, median

__all__ = [
    "SCHEMA",
    "DEFAULT_ENERGY_TOLERANCE",
    "DEFAULT_MAD_K",
    "DEFAULT_MIN_DELTA_S",
    "DEFAULT_THRESHOLD",
    "AlertOverheadProbe",
    "BaselineError",
    "BaselineFormatError",
    "BaselineNotFoundError",
    "BaselineSchemaError",
    "BenchBaseline",
    "BenchScenario",
    "EnergyVerdict",
    "GateReport",
    "RatioVerdict",
    "RobustStats",
    "ScenarioResult",
    "StackBaseline",
    "StageBaseline",
    "StageVerdict",
    "all_scenarios",
    "baseline_filename",
    "baseline_text",
    "compare_result",
    "get_scenario",
    "load_baseline",
    "mad",
    "median",
    "peak_rss_kb",
    "quick_scenarios",
    "run_scenario",
    "save_baseline",
]
