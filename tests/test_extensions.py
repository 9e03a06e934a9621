"""Tests for the extension features: dataset presets, size-override
profiling, the DVFS/turbo model, and pragma parse-back."""

import pytest

from repro.gcc.flags import (
    Flag,
    FlagConfiguration,
    OptLevel,
    cobayn_space,
    parse_pragma,
)
from repro.machine.executor import MachineExecutor
from repro.machine.openmp import BindingPolicy, OpenMPRuntime
from repro.machine.topology import Cluster, Machine, default_machine
from repro.polybench.datasets import DATASETS, PRESETS, dataset_sizes, preset_names
from repro.polybench.suite import BENCHMARK_NAMES, load
from repro.polybench.workload import WorkloadAnalysisError, profile_kernel


class TestDatasets:
    def test_all_benchmarks_covered(self):
        assert set(DATASETS) == set(BENCHMARK_NAMES)

    def test_all_presets_defined(self):
        for name, presets in DATASETS.items():
            assert set(presets) == set(PRESETS), name

    def test_large_matches_source_macros(self):
        for name in BENCHMARK_NAMES:
            app = load(name)
            assert dataset_sizes(name, "LARGE") == dict(app.sizes), name

    def test_presets_strictly_increase(self):
        for name in BENCHMARK_NAMES:
            for dim in DATASETS[name]["MINI"]:
                values = [DATASETS[name][preset][dim] for preset in PRESETS]
                assert values == sorted(values), (name, dim)
                assert values[0] < values[-1], (name, dim)

    def test_unknown_app_and_preset(self):
        with pytest.raises(KeyError):
            dataset_sizes("gemm", "LARGE")
        with pytest.raises(KeyError):
            dataset_sizes("2mm", "GIGANTIC")

    def test_preset_case_insensitive(self):
        assert dataset_sizes("2mm", "medium") == dataset_sizes("2mm", "MEDIUM")

    def test_preset_names(self):
        assert preset_names() == list(PRESETS)


class TestSizeOverrides:
    def test_profile_scales_with_dataset(self):
        app = load("2mm")
        large = profile_kernel(app)
        medium = profile_kernel(app, size_overrides=dataset_sizes("2mm", "MEDIUM"))
        assert medium.flops < large.flops / 20
        assert medium.working_set_bytes < large.working_set_bytes

    def test_override_affects_trip_counts_only(self):
        app = load("2mm")
        medium = profile_kernel(app, size_overrides=dataset_sizes("2mm", "MEDIUM"))
        assert medium.max_depth == 3
        assert medium.parallel_regions == 2

    def test_unknown_macro_rejected(self):
        with pytest.raises(WorkloadAnalysisError):
            profile_kernel(load("2mm"), size_overrides={"BOGUS": 10})

    def test_mini_dataset_fits_cache(self):
        mini = profile_kernel(load("2mm"), size_overrides=dataset_sizes("2mm", "MINI"))
        assert mini.working_set_bytes < 1e5


#: a turbo-boosting E5-2630 v3: its turbo bins as a per-cluster DVFS table
_TURBO_XEON = Cluster(name="xeon", dvfs_states=(2.6e9, 2.8e9, 3.0e9, 3.2e9))


def _turbo_machine() -> Machine:
    return Machine((_TURBO_XEON, _TURBO_XEON), name="xeon_2s_turbo")


def _busiest_clock(machine: Machine, placement) -> float:
    """Clock of the socket running the most busy cores."""
    busy = {}
    for socket, _core in set(placement.assignments):
        busy[socket] = busy.get(socket, 0) + 1
    socket = max(busy, key=lambda s: busy[s])
    return machine.cluster(socket).effective_frequency(busy[socket])


class TestTurboModel:
    def test_single_core_fastest(self):
        machine = _turbo_machine()
        omp = OpenMPRuntime(machine)
        f1 = _busiest_clock(machine, omp.place(1, BindingPolicy.CLOSE))
        f8 = _busiest_clock(machine, omp.place(8, BindingPolicy.CLOSE))
        assert f1 == _TURBO_XEON.dvfs_states[-1] == 3.2e9
        assert f8 == _TURBO_XEON.dvfs_states[0] == 2.6e9
        assert f1 > f8 > _TURBO_XEON.frequency_hz

    def test_spread_keeps_higher_clocks(self):
        # 8 threads spread = 4 busy cores per socket -> higher turbo bin
        machine = _turbo_machine()
        omp = OpenMPRuntime(machine)
        close = _busiest_clock(machine, omp.place(8, BindingPolicy.CLOSE))
        spread = _busiest_clock(machine, omp.place(8, BindingPolicy.SPREAD))
        assert (spread, close) == (2.8e9, 2.6e9)

    def test_power_factor_grows_with_clock(self):
        assert (
            _TURBO_XEON.freq_power_factor(1)
            > _TURBO_XEON.freq_power_factor(8)
            > Cluster(name="xeon").freq_power_factor(1)
            == 1.0
        )

    def test_executor_with_turbo_speeds_up_small_teams(self):
        from repro.gcc.compiler import Compiler

        machine = default_machine()
        omp = OpenMPRuntime(machine)
        compiled = Compiler().compile(
            profile_kernel(load("3mm")), FlagConfiguration(OptLevel.O2)
        )
        base = MachineExecutor(machine)
        boosted = MachineExecutor(_turbo_machine())
        placement = omp.place(1, BindingPolicy.CLOSE)
        assert (
            boosted.evaluate(compiled, placement).time_s
            < base.evaluate(compiled, placement).time_s
        )

    def test_turbo_raises_power_at_full_load(self):
        from repro.gcc.compiler import Compiler

        machine = default_machine()
        omp = OpenMPRuntime(machine)
        compiled = Compiler().compile(
            profile_kernel(load("3mm")), FlagConfiguration(OptLevel.O2)
        )
        base = MachineExecutor(machine)
        boosted = MachineExecutor(_turbo_machine())
        placement = omp.place(16, BindingPolicy.CLOSE)
        assert (
            boosted.evaluate(compiled, placement).power_w
            > base.evaluate(compiled, placement).power_w
        )


class TestPragmaParseBack:
    def test_round_trip_whole_space(self):
        for config in cobayn_space():
            assert parse_pragma(config.pragma_text) == config

    def test_accepts_bare_body(self):
        assert parse_pragma('("O2,no-ivopts")') == FlagConfiguration(
            OptLevel.O2, frozenset({Flag.NO_IVOPTS})
        )

    def test_rejects_unknown_entry(self):
        with pytest.raises(ValueError):
            parse_pragma('GCC optimize ("O2,frobnicate")')

    def test_requires_level(self):
        with pytest.raises(ValueError):
            parse_pragma('GCC optimize ("no-ivopts")')

    def test_weaved_source_pragmas_map_to_configs(self):
        """Every GCC pragma in a weaved benchmark parses back to one of
        the configurations the Multiversioning strategy was given."""
        from repro.cir import walk
        from repro.gcc.flags import paper_custom_flags, standard_levels
        from repro.lara.metrics import weave_benchmark

        configs = standard_levels() + paper_custom_flags()
        _, weaver = weave_benchmark(load("mvt"), configs)
        seen = set()
        for func in weaver.unit.functions():
            for pragma in func.pragmas:
                if pragma.is_gcc_optimize:
                    seen.add(parse_pragma(pragma.text))
        assert seen == set(configs)
