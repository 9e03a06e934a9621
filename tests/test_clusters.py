"""Tests for the topology-generic machine model: the cluster registry,
per-cluster DVFS, cluster-aware placement, the heterogeneous executor
model, and the cluster knob threaded through the runtime layers."""

import pytest

from repro.gcc.flags import FlagConfiguration, OptLevel
from repro.machine.executor import MachineExecutor
from repro.machine.openmp import BindingPolicy, OpenMPRuntime
from repro.machine.power import cluster_domain
from repro.machine.registry import (
    DEFAULT_MACHINE,
    get_machine,
    machine_names,
    resolve_machine,
)
from repro.machine.topology import Cluster, ClusterPower, Machine, default_machine
from repro.polybench.suite import load
from repro.polybench.workload import profile_kernel


@pytest.fixture(scope="module")
def biglittle():
    return get_machine("biglittle_4p4e")


@pytest.fixture(scope="module")
def bl_omp(biglittle):
    return OpenMPRuntime(biglittle)


@pytest.fixture(scope="module")
def bl_executor(biglittle):
    return MachineExecutor(biglittle)


@pytest.fixture(scope="module")
def k2mm(compiler):
    return compiler.compile(profile_kernel(load("2mm")), FlagConfiguration(OptLevel.O3))


class TestRegistry:
    def test_default_machine_is_registered_xeon(self):
        assert DEFAULT_MACHINE in machine_names()
        assert default_machine() == get_machine(DEFAULT_MACHINE)

    def test_known_machines(self):
        for expected in ("xeon_2s", "xeon_1s", "biglittle_4p4e", "biglittle_8p8e"):
            assert expected in machine_names()

    def test_unknown_machine_names_the_candidates(self):
        with pytest.raises(ValueError, match="xeon_2s"):
            get_machine("cray_1")

    def test_resolve_machine(self, biglittle):
        assert resolve_machine(None) == default_machine()
        assert resolve_machine("biglittle_4p4e") == biglittle
        assert resolve_machine(biglittle) is biglittle

    def test_xeon_is_homogeneous_biglittle_is_not(self, biglittle):
        assert get_machine("xeon_2s").is_homogeneous
        assert not biglittle.is_homogeneous
        assert biglittle.cluster_names() == ("P", "E")


class TestPlaceEnumeration:
    """Place ids derive from the enumerated place list, never from the
    old ``socket * 10_000 + core`` arithmetic."""

    @pytest.mark.parametrize("name", sorted(machine_names()))
    def test_place_ids_collision_free(self, name):
        machine = get_machine(name)
        cpus = machine.cpus()
        place_ids = {(cpu.socket, cpu.core): cpu.place_id for cpu in cpus}
        assert len(set(place_ids.values())) == machine.physical_cores
        assert set(place_ids.values()) == set(range(machine.physical_cores))

    @pytest.mark.parametrize("name", sorted(machine_names()))
    def test_cpu_ordering_is_socket_major(self, name):
        machine = get_machine(name)
        cpus = machine.cpus()
        assert len(cpus) == machine.logical_cpus
        coords = [(cpu.socket, cpu.core, cpu.hw_thread) for cpu in cpus]
        assert coords == sorted(coords)
        # place ids follow the same enumeration order
        core_ids = [cpu.place_id for cpu in cpus if cpu.hw_thread == 0]
        assert core_ids == sorted(core_ids)

    def test_asymmetric_core_counts_stay_collision_free(self):
        lop = Cluster(name="big", cores=6, threads_per_core=1)
        lil = Cluster(name="little", cores=2, threads_per_core=1)
        machine = Machine((lop, lil, lil))
        places = machine.core_places()
        assert len(places) == 10
        ids = [machine.place_id(socket, core) for socket, core in places]
        assert ids == list(range(10))

    def test_place_id_matches_place_list(self, biglittle):
        for index, (socket, core) in enumerate(biglittle.core_places()):
            assert biglittle.place_id(socket, core) == index


class TestClusterDvfs:
    def test_single_core_gets_top_state(self, biglittle):
        p = biglittle.cluster(0)
        assert p.effective_frequency(1) == p.dvfs_states[-1]

    def test_full_cluster_gets_bottom_state(self, biglittle):
        p = biglittle.cluster(0)
        assert p.effective_frequency(p.cores) == p.dvfs_states[0]

    def test_frequency_monotone_nonincreasing(self, biglittle):
        for cluster in biglittle.clusters:
            freqs = [
                cluster.effective_frequency(n) for n in range(1, cluster.cores + 1)
            ]
            assert freqs == sorted(freqs, reverse=True)
            assert all(f in cluster.dvfs_states for f in freqs)

    def test_interpolation_snaps_down_to_available_state(self):
        cluster = Cluster(
            name="p",
            cores=4,
            threads_per_core=1,
            frequency_hz=3.0e9,
            dvfs_states=(1.0e9, 3.0e9),
        )
        # 2 busy cores target 3.0 - (1/3) * 2.0 GHz ~ 2.33 GHz, which is
        # not an available state: the governor snaps DOWN to 1.0 GHz
        assert cluster.effective_frequency(2) == 1.0e9

    def test_no_dvfs_table_means_fixed_nominal_clock(self):
        xeon = get_machine("xeon_2s").cluster(0)
        assert xeon.dvfs_states == ()
        for cores in (1, 4, 8):
            assert xeon.effective_frequency(cores) == xeon.frequency_hz
        assert xeon.freq_power_factor(8) == 1.0

    def test_power_factor_tracks_frequency(self, biglittle):
        p = biglittle.cluster(0)
        assert p.freq_power_factor(1) == pytest.approx(
            (p.dvfs_states[-1] / p.frequency_hz) ** p.power.power_exponent
        )
        assert p.freq_power_factor(p.cores) < p.freq_power_factor(1)

    def test_unsorted_dvfs_table_rejected(self):
        with pytest.raises(ValueError, match="sorted ascending"):
            Cluster(name="bad", dvfs_states=(2.0e9, 1.0e9))


class TestClusterPlacement:
    def test_max_threads_per_cluster(self, bl_omp):
        assert bl_omp.max_threads() == 8
        assert bl_omp.max_threads("P") == 4
        assert bl_omp.max_threads("E") == 4

    def test_pinned_team_stays_on_its_cluster(self, bl_omp, biglittle):
        for name in biglittle.cluster_names():
            sockets = set(biglittle.cluster_sockets(name))
            for policy in (BindingPolicy.CLOSE, BindingPolicy.SPREAD):
                placement = bl_omp.place(4, policy, cluster=name)
                assert set(placement.sockets_used) <= sockets
                assert placement.cluster == name

    def test_pinned_team_respects_cluster_capacity(self, bl_omp):
        with pytest.raises(ValueError, match="cluster 'P'"):
            bl_omp.place(5, BindingPolicy.CLOSE, cluster="P")

    def test_unpinned_team_straddles_the_cluster_boundary(self, bl_omp):
        placement = bl_omp.place(8, BindingPolicy.CLOSE)
        assert set(placement.sockets_used) == {0, 1}
        assert placement.threads_per_socket() == {0: 4, 1: 4}

    def test_close_fills_p_cluster_first(self, bl_omp):
        placement = bl_omp.place(4, BindingPolicy.CLOSE)
        assert placement.sockets_used == (0,)

    def test_unknown_cluster_raises(self, bl_omp):
        with pytest.raises(ValueError, match="no cluster named"):
            bl_omp.place(2, BindingPolicy.CLOSE, cluster="M")


class TestHeterogeneousExecutor:
    def _run(self, bl_executor, bl_omp, kernel, threads, cluster):
        placement = bl_omp.place(threads, BindingPolicy.CLOSE, cluster=cluster)
        return bl_executor.run(kernel, placement, noisy=False)

    def test_p_cluster_faster_and_hotter_than_e(
        self, bl_executor, bl_omp, k2mm
    ):
        on_p = self._run(bl_executor, bl_omp, k2mm, 4, "P")
        on_e = self._run(bl_executor, bl_omp, k2mm, 4, "E")
        assert on_p.time_s < on_e.time_s
        assert on_p.power_w > on_e.power_w

    def test_straddling_team_beats_either_cluster_alone(
        self, bl_executor, bl_omp, k2mm
    ):
        on_p = self._run(bl_executor, bl_omp, k2mm, 4, "P")
        both = self._run(bl_executor, bl_omp, k2mm, 8, None)
        assert both.time_s < on_p.time_s

    def test_breakdown_matches_scalar_power(self, bl_executor, bl_omp, k2mm):
        for threads, cluster in ((4, "P"), (4, "E"), (8, None)):
            placement = bl_omp.place(threads, BindingPolicy.CLOSE, cluster=cluster)
            result = bl_executor.run(k2mm, placement, noisy=False)
            breakdown = bl_executor.breakdown(k2mm, placement)
            assert breakdown.package_w == pytest.approx(result.power_w, abs=1e-9)

    def test_cluster_planes_conserve(self, bl_executor, bl_omp, k2mm):
        placement = bl_omp.place(8, BindingPolicy.CLOSE)
        breakdown = bl_executor.breakdown(k2mm, placement)
        planes = breakdown.cluster_totals()
        for name in breakdown.cluster_names():
            components = sum(
                planes[cluster_domain(name, domain)]
                for domain in ("core", "uncore", "dram")
            )
            assert components == pytest.approx(
                planes[cluster_domain(name, "package")], abs=1e-9
            )
        cluster_packages = sum(
            planes[cluster_domain(name, "package")]
            for name in breakdown.cluster_names()
        )
        assert cluster_packages == pytest.approx(breakdown.package_w, abs=1e-9)

    def test_idle_cluster_planes_conserve(self, bl_executor):
        breakdown = bl_executor.idle_breakdown()
        planes = breakdown.cluster_totals()
        totals = breakdown.totals()
        cluster_packages = sum(
            planes[cluster_domain(name, "package")]
            for name in breakdown.cluster_names()
        )
        assert cluster_packages == pytest.approx(totals["package"], abs=1e-9)


class TestClusterKnobRuntime:
    def test_version_key_shapes(self):
        from repro.core.adaptive import version_key

        assert version_key("-O3", "close") == ("-O3", "close")
        assert version_key("-O3", "close", "P") == ("-O3", "close", "P")

    def test_asrtm_knob_filter_selects_cluster(self):
        from repro.margot.asrtm import ApplicationRuntimeManager, AsrtmError
        from repro.margot.knowledge import KnowledgeBase, MetricStats, OperatingPoint
        from repro.margot.state import OptimizationState, maximize_throughput

        def op(cluster, threads, time, power):
            return OperatingPoint(
                knobs={"cluster": cluster, "threads": threads},
                metrics={
                    "time": MetricStats(time),
                    "power": MetricStats(power),
                    "throughput": MetricStats(1.0 / time),
                },
            )

        kb = KnowledgeBase(
            [op("P", 4, 1.0, 25.0), op("E", 4, 2.0, 18.0), op("P", 1, 3.0, 14.0)]
        )
        asrtm = ApplicationRuntimeManager(kb)
        asrtm.add_state(
            OptimizationState("perf", rank=maximize_throughput()), activate=True
        )
        assert asrtm.update().knob("cluster") == "P"
        asrtm.set_knob_filter("cluster", "E")
        assert asrtm.knob_filters() == {"cluster": "E"}
        assert asrtm.update().knob("cluster") == "E"
        asrtm.set_knob_filter("cluster", "M")
        with pytest.raises(AsrtmError, match="match no operating point"):
            asrtm.update()
        asrtm.clear_knob_filters()
        assert asrtm.update().knob("cluster") == "P"

    def test_trace_round_trips_cluster_column(self, tmp_path):
        from repro.core.adaptive import InvocationRecord
        from repro.core.trace import trace_from_csv, trace_to_csv

        records = [
            InvocationRecord(
                timestamp=0.1,
                state="perf",
                compiler="-O3",
                threads=4,
                binding="close",
                time_s=0.1,
                power_w=24.0,
                energy_j=2.4,
                cluster="P",
            )
        ]
        path = tmp_path / "trace.csv"
        trace_to_csv(records, path)
        header = path.read_text().splitlines()[0]
        assert header.endswith(",cluster")
        assert trace_from_csv(path) == records

    def test_homogeneous_trace_has_no_cluster_column(self, tmp_path):
        from repro.core.adaptive import InvocationRecord
        from repro.core.trace import trace_to_csv

        records = [
            InvocationRecord(
                timestamp=0.1,
                state="perf",
                compiler="-O3",
                threads=4,
                binding="close",
                time_s=0.1,
                power_w=24.0,
                energy_j=2.4,
            )
        ]
        path = tmp_path / "trace.csv"
        trace_to_csv(records, path)
        assert "cluster" not in path.read_text()

    def test_design_space_cluster_capacities(self):
        from repro.dse.explorer import DesignSpace
        from repro.gcc.flags import standard_levels

        space = DesignSpace(
            compiler_configs=standard_levels(),
            thread_counts=[1, 4, 8],
            clusters=("P", "E"),
            cluster_capacities={"P": 4, "E": 4},
        )
        points = space.points()
        assert len(points) == space.size
        assert all(point.cluster in ("P", "E") for point in points)
        # threads=8 exceeds both capacities and must be filtered out
        assert all(point.threads <= 4 for point in points)

    def test_budget_domain_defaults_to_package(self):
        from repro.obs.energy import EnergyBudget

        budget = EnergyBudget("cap", power_w=10.0)
        assert budget.domain == "package"
        pinned = EnergyBudget("p-cap", power_w=10.0, domain="P:package")
        assert pinned.domain == "P:package"

    def test_bench_scenario_registered(self):
        from repro.bench import get_scenario

        scenario = get_scenario("biglittle_power_cap")
        assert scenario.quick
