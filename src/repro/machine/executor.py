"""Execute compiled kernels on the simulated NUMA machine.

This is the substitute for running a real binary under RAPL: given a
:class:`~repro.gcc.compiler.CompiledKernel` and a
:class:`~repro.machine.openmp.ThreadPlacement`, it produces execution
time, average package power and energy, through a roofline-style model
with NUMA, SMT, fork/join and load-imbalance terms.

Model summary (one kernel invocation):

* serial share runs on one core: ``serial_cycles / f``;
* parallel share is divided by the team's *compute capacity* (one unit
  per core, +28% for a second SMT thread on the same core, each socket
  at its cluster's clock or DVFS state), degraded by static-scheduling
  imbalance and, for dependence-limited kernels (seidel-2d, nussinov),
  by a sublinear scaling exponent;
* DRAM time is ``traffic / effective bandwidth``; traffic follows a
  working-set vs. LLC capacity model (every socket the team touches
  adds its LLC slice and bandwidth, so spread binding doubles both on
  the Xeon, but remote-socket threads only see ``numa_remote_factor``
  of their bandwidth because first-touch places the data on socket 0);
* compute and memory overlap partially (out-of-order cores prefetch);
* every OpenMP parallel region pays a fork/join cost growing with team
  size, and doubled when the team spans sockets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gcc.compiler import CompiledKernel
from repro.machine.openmp import ThreadPlacement
from repro.machine.power import PowerBreakdown, PowerModel, invocation_energy
from repro.machine.topology import Machine

_FORK_JOIN_BASE_S = 6e-6
_FORK_JOIN_PER_THREAD_S = 4e-7
_CROSS_SOCKET_SYNC_FACTOR = 1.9
_OVERLAP = 0.30  # fraction of the shorter of compute/memory hidden
_DEPENDENCE_SCALING_EXPONENT = 0.62


@dataclass(frozen=True)
class ExecutionResult:
    """Ground-truth outcome of one simulated kernel invocation."""

    time_s: float
    power_w: float
    energy_j: float

    @property
    def throughput(self) -> float:
        """Kernel invocations per second."""
        return 1.0 / self.time_s

    @property
    def throughput_per_watt_sq(self) -> float:
        """The paper's energy-efficiency rank metric, Thr/W^2."""
        return self.throughput / (self.power_w**2)


class MachineExecutor:
    """Runs compiled kernels on a :class:`Machine` with optional noise."""

    def __init__(
        self,
        machine: Machine,
        power_model: Optional[PowerModel] = None,
        seed: int = 0x50C7,
        time_noise_sigma: float = 0.02,
        power_noise_sigma: float = 0.012,
    ) -> None:
        self._machine = machine
        self._power_model = power_model or PowerModel()
        self._rng = np.random.default_rng(seed)
        self._time_sigma = time_noise_sigma
        self._power_sigma = power_noise_sigma
        self._sigmas = np.array([time_noise_sigma, power_noise_sigma])
        # the one formula selection, see _compute_terms
        self._calibrated = machine.is_homogeneous and not machine.cluster(0).dvfs_states

    @property
    def machine(self) -> Machine:
        return self._machine

    @property
    def power_model(self) -> PowerModel:
        return self._power_model

    def reseed(self, seed: int) -> None:
        """Restart the measurement-noise stream."""
        self._rng = np.random.default_rng(seed)

    # -- public API ----------------------------------------------------------

    def run(
        self, kernel: CompiledKernel, placement: ThreadPlacement, noisy: bool = True
    ) -> ExecutionResult:
        """Simulate one invocation; ``noisy=False`` returns model truth."""
        truth = self.evaluate(kernel, placement)
        if not noisy:
            return truth
        # one pair of scalar draws: cheaper than noise_array(1)
        time_s = truth.time_s * float(self._rng.lognormal(0.0, self._time_sigma))
        power_w = truth.power_w * float(self._rng.lognormal(0.0, self._power_sigma))
        return ExecutionResult(
            time_s=time_s, power_w=power_w, energy_j=invocation_energy(time_s, power_w)
        )

    def noise_array(self, count: int) -> np.ndarray:
        """Draw ``count`` (time, power) measurement-noise factor pairs
        as a ``(count, 2)`` array, in one call on the seeded stream.

        The values and the stream state afterwards are those of
        ``count`` noisy :meth:`run` calls, so a caller (the evaluation
        engine) can separate noise generation from model evaluation
        without perturbing downstream draws.
        """
        draws = self._rng.lognormal(0.0, np.tile(self._sigmas, count))
        return draws.reshape(count, 2)

    def noise_factors(self, count: int) -> List[Tuple[float, float]]:
        """:meth:`noise_array` as a list of ``(time, power)`` tuples."""
        return [tuple(pair) for pair in self.noise_array(count).tolist()]

    def evaluate(
        self, kernel: CompiledKernel, placement: ThreadPlacement
    ) -> ExecutionResult:
        """Noise-free model evaluation of (kernel, placement)."""
        time_s, intensity, utilization, bandwidth_share, freq_power = (
            self._model_terms(kernel, placement)
        )
        power_w = self._power_model.active_power(
            self._machine,
            placement,
            intensity=intensity,
            utilization=utilization,
            bandwidth_share=bandwidth_share,
            freq_power=freq_power,
        )
        return ExecutionResult(
            time_s=time_s,
            power_w=power_w,
            energy_j=invocation_energy(time_s, power_w),
        )

    def breakdown(
        self, kernel: CompiledKernel, placement: ThreadPlacement
    ) -> PowerBreakdown:
        """Noise-free per-socket / per-domain power of one invocation.

        The virtual-RAPL domain meters: the same model terms as
        :meth:`evaluate`, attributed per socket and split into
        core / uncore / DRAM planes.  ``breakdown(...)`` sums back to
        ``evaluate(...).power_w`` to within 1e-9 and consumes no random
        stream, so reading the meters never perturbs a seeded run.
        """
        _, intensity, utilization, bandwidth_share, freq_power = self._model_terms(
            kernel, placement
        )
        return self._power_model.active_breakdown(
            self._machine,
            placement,
            intensity=intensity,
            utilization=utilization,
            bandwidth_share=bandwidth_share,
            freq_power=freq_power,
        )

    def idle_breakdown(self) -> PowerBreakdown:
        """Per-domain power of the idle machine (between invocations)."""
        return self._power_model.idle_breakdown(self._machine)

    # -- model terms -----------------------------------------------------------

    def _model_terms(
        self, kernel: CompiledKernel, placement: ThreadPlacement
    ) -> Tuple[float, float, float, float, Optional[Dict[int, float]]]:
        """(time_s, intensity, utilization, bandwidth share, freq power).

        Compute time comes from :meth:`_compute_terms`; the memory
        roofline, fork/join and power terms are one model for every
        topology.  Every socket the team touches contributes its
        cluster's LLC slice and DRAM bandwidth: first-touch puts the
        arrays on socket 0, so socket-0 threads stream locally while
        other sockets only see ``numa_remote_factor`` of their peak, and
        one thread cannot saturate a socket (``per_thread_bandwidth``).
        The working set is loaded at least once (cold misses); the part
        of it that exceeds the usable LLC is re-streamed on every pass.
        """
        machine = self._machine
        profile = kernel.profile
        serial_time, parallel_compute, freq_power = self._compute_terms(
            kernel, placement
        )

        sockets = placement.sockets_used
        llc = sum(machine.cluster(socket).llc_bytes for socket in sockets)
        working_set = max(profile.working_set_bytes, 1.0)
        naive = profile.naive_bytes
        spill_fraction = max(0.0, (working_set - llc) / working_set)
        traffic = working_set + max(0.0, naive - working_set) * spill_fraction

        per_socket = placement.threads_per_socket()
        bandwidth = 0.0
        for socket, threads in per_socket.items():
            cluster = machine.cluster(socket)
            socket_peak = cluster.bandwidth_bytes_s
            if socket != 0:
                socket_peak *= machine.numa_remote_factor
            bandwidth += min(socket_peak, threads * cluster.per_thread_bandwidth)
        floor = min(
            machine.cluster(socket).per_thread_bandwidth for socket in per_socket
        )
        bandwidth = max(bandwidth, floor * 0.5)
        memory_time = traffic / bandwidth

        body = max(parallel_compute, memory_time) + (1.0 - _OVERLAP) * min(
            parallel_compute, memory_time
        )
        fork_join = self._fork_join(profile.parallel_regions, placement)
        time_s = serial_time + body + fork_join

        utilization = self._utilization(parallel_compute, memory_time)
        peak = sum(machine.cluster(socket).bandwidth_bytes_s for socket in sockets)
        bandwidth_share = (
            min(1.0, traffic / time_s / peak) if time_s > 0 and peak > 0 else 0.0
        )
        intensity = kernel.power_intensity * self._vector_power(kernel)
        return time_s, intensity, utilization, bandwidth_share, freq_power

    def _compute_terms(
        self, kernel: CompiledKernel, placement: ThreadPlacement
    ) -> Tuple[float, float, Optional[Dict[int, float]]]:
        """(serial time, parallel compute time, per-socket DVFS power).

        The model's one fork.  A symmetric machine without a DVFS table
        (the paper's calibrated Xeon) divides cycles by one clock and by
        the team's core-equivalents, and returns no power factor, so its
        seeded artifacts keep their historical bits.  Every other
        machine runs each socket at its cluster's DVFS state for the
        socket's busy-core count: capacity is summed in Hz, the serial
        share runs on the fastest participating core, and a static team
        straddling clusters of different speed is paced by the slowest
        member (the chunks are equal, the cores are not).
        """
        machine = self._machine
        profile = kernel.profile
        imbalance = self._imbalance(profile, placement)
        if self._calibrated:
            cluster = machine.cluster(0)
            frequency = cluster.frequency_hz
            capacity = placement.cores_used + placement.smt_pairs * cluster.smt_speedup
            if profile.loop_carried_dependence:
                capacity = capacity**_DEPENDENCE_SCALING_EXPONENT
            parallel_compute = kernel.parallel_cycles / frequency / capacity * imbalance
            return kernel.serial_cycles / frequency, parallel_compute, None

        busy_cores: Dict[int, set] = {}
        smt_extra: Dict[Tuple[int, int], int] = {}
        for place in placement.assignments:
            busy_cores.setdefault(place[0], set()).add(place)
            smt_extra[place] = smt_extra.get(place, 0) + 1
        smt_pairs: Dict[int, int] = {}
        for (socket, _core), count in smt_extra.items():
            if count > 1:
                smt_pairs[socket] = smt_pairs.get(socket, 0) + 1

        freqs: Dict[int, float] = {}
        freq_power: Dict[int, float] = {}
        core_eq = 0.0
        capacity_hz = 0.0
        for socket, cores in busy_cores.items():
            cluster = machine.cluster(socket)
            freqs[socket] = cluster.effective_frequency(len(cores))
            freq_power[socket] = cluster.freq_power_factor(len(cores))
            eq = len(cores) + smt_pairs.get(socket, 0) * cluster.smt_speedup
            core_eq += eq
            capacity_hz += eq * freqs[socket]
        mean_freq = capacity_hz / core_eq
        if profile.loop_carried_dependence:
            capacity_hz = core_eq**_DEPENDENCE_SCALING_EXPONENT * mean_freq
        if len(freqs) > 1 and placement.num_threads > 1 and profile.parallel_regions:
            imbalance *= mean_freq / min(freqs.values())
        parallel_compute = kernel.parallel_cycles / capacity_hz * imbalance
        return kernel.serial_cycles / max(freqs.values()), parallel_compute, freq_power

    def _imbalance(self, profile, placement: ThreadPlacement) -> float:
        """Static-schedule imbalance of chunked parallel iterations."""
        threads = placement.num_threads
        if threads == 1 or profile.parallel_regions == 0:
            return 1.0
        iterations = profile.parallel_iterations / profile.parallel_regions
        if iterations <= 0:
            return 1.0
        chunks = math.ceil(iterations / threads)
        quantization = (chunks * threads) / iterations
        return max(1.0, quantization)

    def _fork_join(self, regions: float, placement: ThreadPlacement) -> float:
        if regions <= 0 or placement.num_threads == 1:
            return 0.0
        cost = _FORK_JOIN_BASE_S + _FORK_JOIN_PER_THREAD_S * placement.num_threads
        if len(placement.sockets_used) > 1:
            cost *= _CROSS_SOCKET_SYNC_FACTOR
        return regions * cost

    @staticmethod
    def _utilization(compute_time: float, memory_time: float) -> float:
        """Core busy fraction: memory-bound teams stall their pipelines."""
        total = max(compute_time, memory_time)
        if total <= 0:
            return 1.0
        return max(0.35, min(1.0, compute_time / total))

    @staticmethod
    def _vector_power(kernel: CompiledKernel) -> float:
        """Wide SIMD raises dynamic power (~12% for AVX on Haswell)."""
        return 1.0 + 0.12 * (kernel.vector_width - 1.0) / 3.0
