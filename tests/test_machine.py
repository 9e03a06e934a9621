"""Tests for the simulated machine: topology, OpenMP placement, power,
and the executor model's qualitative behaviour."""

import pytest

from repro.gcc.compiler import Compiler
from repro.gcc.flags import Flag, FlagConfiguration, OptLevel
from repro.machine.executor import ExecutionResult, MachineExecutor
from repro.machine.openmp import BindingPolicy, OpenMPRuntime
from repro.machine.power import PowerModel, RaplMeter
from repro.machine.registry import get_machine, machine_names
from repro.machine.topology import Machine, default_machine
from repro.polybench.suite import load
from repro.polybench.workload import profile_kernel


@pytest.fixture(scope="module")
def k2mm(compiler):
    return compiler.compile(profile_kernel(load("2mm")), FlagConfiguration(OptLevel.O2))


@pytest.fixture(scope="module")
def katax(compiler):
    return compiler.compile(profile_kernel(load("atax")), FlagConfiguration(OptLevel.O2))


@pytest.fixture(scope="module")
def kseidel(compiler):
    return compiler.compile(
        profile_kernel(load("seidel-2d")), FlagConfiguration(OptLevel.O2)
    )


class TestTopology:
    def test_paper_platform(self, machine):
        assert machine.sockets == 2
        assert machine.physical_cores == 16
        assert machine.logical_cpus == 32

    def test_cpu_enumeration(self, machine):
        cpus = machine.cpus()
        assert len(cpus) == 32
        assert cpus[0].socket == 0 and cpus[-1].socket == 1

    def test_core_places(self, machine):
        places = machine.core_places()
        assert len(places) == 16
        assert places[0] == (0, 0)
        assert places[8] == (1, 0)


class TestPlacement:
    def test_close_fills_one_socket_first(self, omp):
        placement = omp.place(8, BindingPolicy.CLOSE)
        assert placement.sockets_used == (0,)

    def test_close_overflows_to_second_socket(self, omp):
        placement = omp.place(9, BindingPolicy.CLOSE)
        assert placement.sockets_used == (0, 1)

    def test_spread_uses_both_sockets_immediately(self, omp):
        placement = omp.place(2, BindingPolicy.SPREAD)
        assert placement.sockets_used == (0, 1)

    def test_spread_balances_threads(self, omp):
        placement = omp.place(8, BindingPolicy.SPREAD)
        per_socket = placement.threads_per_socket()
        assert per_socket[0] == per_socket[1] == 4

    def test_no_smt_until_cores_exhausted(self, omp):
        for threads in (1, 8, 16):
            for policy in BindingPolicy:
                assert omp.place(threads, policy).smt_pairs == 0

    def test_smt_pairs_beyond_16(self, omp):
        placement = omp.place(20, BindingPolicy.CLOSE)
        assert placement.smt_pairs == 4
        assert placement.cores_used == 16

    def test_full_machine(self, omp):
        placement = omp.place(32, BindingPolicy.SPREAD)
        assert placement.cores_used == 16
        assert placement.smt_pairs == 16

    def test_single_thread(self, omp):
        placement = omp.place(1, BindingPolicy.CLOSE)
        assert placement.num_threads == 1
        assert placement.cores_used == 1

    def test_rejects_zero_threads(self, omp):
        with pytest.raises(ValueError):
            omp.place(0, BindingPolicy.CLOSE)

    def test_rejects_oversubscription(self, omp):
        with pytest.raises(ValueError):
            omp.place(33, BindingPolicy.CLOSE)

    def test_max_threads_matches_paper_knob(self, omp):
        # TN ranges "between 1 and the number of logical cores"
        assert omp.max_threads() == 32


def _reference_invariants(assignments):
    """(sockets_used, cores_used, smt_pairs, threads_per_socket) from
    the assignments, by the defining formulas."""
    per_socket = {}
    per_core = {}
    for place in assignments:
        per_socket[place[0]] = per_socket.get(place[0], 0) + 1
        per_core[place] = per_core.get(place, 0) + 1
    return (
        tuple(sorted({socket for socket, _ in assignments})),
        len(set(assignments)),
        sum(1 for count in per_core.values() if count > 1),
        per_socket,
    )


class TestPlacementInvariantPins:
    """Every registry machine and every (threads, binding, cluster)."""

    @pytest.mark.parametrize("machine_name", machine_names())
    def test_invariants_match_the_formulas(self, machine_name):
        machine = get_machine(machine_name)
        omp = OpenMPRuntime(machine)
        for cluster in (None,) + machine.cluster_names():
            for threads in range(1, omp.max_threads(cluster) + 1):
                for policy in BindingPolicy:
                    placement = omp.place(threads, policy, cluster=cluster)
                    sockets, cores, smt, per_socket = _reference_invariants(
                        placement.assignments
                    )
                    assert placement.sockets_used == sockets
                    assert placement.cores_used == cores
                    assert placement.smt_pairs == smt
                    assert placement.threads_per_socket() == per_socket
                    assert list(placement.threads_per_socket()) == list(per_socket)
                    again = omp.place(threads, policy, cluster=cluster)
                    assert again == placement
                    assert again.threads_per_socket() == per_socket

    def test_mutating_threads_per_socket_leaves_the_placement_alone(self, omp):
        placement = omp.place(20, BindingPolicy.SPREAD)
        counts = placement.threads_per_socket()
        counts[0] = 99
        counts[7] = 1
        assert placement.threads_per_socket() == {0: 10, 1: 10}
        assert omp.place(20, BindingPolicy.SPREAD).threads_per_socket() == {0: 10, 1: 10}


class TestPowerModel:
    def test_idle_below_45w_budget_floor(self, machine):
        # Figure 4 sweeps budgets from 45 W: a single-thread config
        # must be feasible there, so idle must sit below it
        model = PowerModel()
        assert model.idle_power(machine) < 45.0

    def test_active_power_grows_with_cores(self, machine, omp):
        model = PowerModel()
        small = model.active_power(
            machine, omp.place(2, BindingPolicy.CLOSE), 1.0, 1.0, 0.1
        )
        large = model.active_power(
            machine, omp.place(16, BindingPolicy.CLOSE), 1.0, 1.0, 0.1
        )
        assert large > small

    def test_full_load_within_paper_envelope(self, machine, omp):
        # Figure 5 tops out around 145 W: a full 32-thread team on a
        # hot vectorized kernel with moderate DRAM activity
        model = PowerModel()
        peak = model.active_power(
            machine, omp.place(32, BindingPolicy.SPREAD), 1.12, 1.0, 0.4
        )
        assert 125.0 <= peak <= 155.0

    def test_memory_stalls_reduce_power(self, machine, omp):
        model = PowerModel()
        placement = omp.place(16, BindingPolicy.CLOSE)
        busy = model.active_power(machine, placement, 1.0, 1.0, 0.2)
        stalled = model.active_power(machine, placement, 1.0, 0.5, 0.2)
        assert stalled < busy

    def test_rapl_meter_noise_is_small_and_seeded(self):
        meter_a = RaplMeter(PowerModel(), seed=1)
        meter_b = RaplMeter(PowerModel(), seed=1)
        values_a = [meter_a.measure(100.0) for _ in range(20)]
        values_b = [meter_b.measure(100.0) for _ in range(20)]
        assert values_a == values_b
        assert all(90.0 < value < 110.0 for value in values_a)


class TestExecutor:
    def test_noise_free_is_deterministic(self, executor, omp, k2mm):
        placement = omp.place(8, BindingPolicy.CLOSE)
        a = executor.evaluate(k2mm, placement)
        b = executor.evaluate(k2mm, placement)
        assert a.time_s == b.time_s and a.power_w == b.power_w

    def test_noisy_run_wobbles_around_truth(self, machine, omp, k2mm):
        executor = MachineExecutor(machine, seed=42)
        placement = omp.place(8, BindingPolicy.CLOSE)
        truth = executor.evaluate(k2mm, placement)
        samples = [executor.run(k2mm, placement) for _ in range(30)]
        mean_time = sum(s.time_s for s in samples) / len(samples)
        assert abs(mean_time - truth.time_s) / truth.time_s < 0.05

    def test_compute_bound_scales_with_threads(self, executor, omp, k2mm):
        t1 = executor.evaluate(k2mm, omp.place(1, BindingPolicy.CLOSE)).time_s
        t8 = executor.evaluate(k2mm, omp.place(8, BindingPolicy.CLOSE)).time_s
        t16 = executor.evaluate(k2mm, omp.place(16, BindingPolicy.CLOSE)).time_s
        # near-linear until the single-socket bandwidth starts to bind
        assert 4.0 < t1 / t8 <= 8.5
        assert 0 < t16 < t8

    def test_smt_gains_are_sublinear(self, executor, omp, k2mm):
        t16 = executor.evaluate(k2mm, omp.place(16, BindingPolicy.CLOSE)).time_s
        t32 = executor.evaluate(k2mm, omp.place(32, BindingPolicy.CLOSE)).time_s
        assert t32 < t16  # HT still helps...
        assert t32 > t16 / 2  # ...but far from 2x

    def test_memory_bound_kernel_prefers_spread(self, executor, omp, katax):
        # atax streams a 32 MB matrix: spread doubles bandwidth and LLC
        close = executor.evaluate(katax, omp.place(8, BindingPolicy.CLOSE)).time_s
        spread = executor.evaluate(katax, omp.place(8, BindingPolicy.SPREAD)).time_s
        assert spread < close

    def test_dependence_limited_kernel_scales_poorly(self, executor, omp, kseidel):
        t1 = executor.evaluate(kseidel, omp.place(1, BindingPolicy.CLOSE)).time_s
        t16 = executor.evaluate(kseidel, omp.place(16, BindingPolicy.CLOSE)).time_s
        speedup = t1 / t16
        assert speedup < 8.0  # nowhere near the 16x of 2mm

    def test_power_grows_with_threads(self, executor, omp, k2mm):
        p1 = executor.evaluate(k2mm, omp.place(1, BindingPolicy.CLOSE)).power_w
        p16 = executor.evaluate(k2mm, omp.place(16, BindingPolicy.CLOSE)).power_w
        assert p16 > p1 + 30.0

    def test_energy_is_time_times_power(self, executor, omp, k2mm):
        result = executor.evaluate(k2mm, omp.place(4, BindingPolicy.CLOSE))
        assert result.energy_j == pytest.approx(result.time_s * result.power_w)

    def test_throughput_metrics(self):
        result = ExecutionResult(time_s=0.5, power_w=100.0, energy_j=50.0)
        assert result.throughput == pytest.approx(2.0)
        assert result.throughput_per_watt_sq == pytest.approx(2.0 / 100.0**2)

    def test_fork_join_penalizes_many_regions(self, executor, omp, compiler):
        # jacobi-2d runs 1000 parallel regions per invocation: its
        # speedup at 32 threads must trail a 2-region kernel of similar
        # parallelism
        kj = compiler.compile(
            profile_kernel(load("jacobi-2d")), FlagConfiguration(OptLevel.O2)
        )
        t1 = executor.evaluate(kj, omp.place(1, BindingPolicy.CLOSE)).time_s
        t32 = executor.evaluate(kj, omp.place(32, BindingPolicy.SPREAD)).time_s
        fork_join_share = 1000 * 2e-5 / t32
        assert t1 / t32 < 25.0 or fork_join_share < 0.5

    def test_reseed_restarts_noise_stream(self, machine, omp, k2mm):
        executor = MachineExecutor(machine, seed=9)
        placement = omp.place(4, BindingPolicy.CLOSE)
        first = executor.run(k2mm, placement).time_s
        executor.reseed(9)
        again = executor.run(k2mm, placement).time_s
        assert first == again
