"""Hardware topology of the simulated platform.

A :class:`Machine` is an ordered list of :class:`Cluster`\\ s — groups
of identical cores sharing a last-level cache, a memory interface and
a power envelope.  Each cluster occupies one socket / NUMA position in
the place enumeration.  The paper's homogeneous testbed (2x Xeon
E5-2630 v3) is the degenerate case of two identical ``xeon`` clusters;
asymmetric big.LITTLE parts (see :mod:`repro.machine.registry`) mix
clusters with different core counts, clocks, roofline terms and DVFS
state tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ClusterPower:
    """Per-cluster power envelope (watts), consumed by
    :class:`~repro.machine.power.PowerModel`.

    When a cluster carries no envelope the model's own calibrated Xeon
    constants apply, so the default machine's arithmetic is untouched.
    """

    uncore_w: float = 13.0
    idle_core_w: float = 0.75
    active_core_w: float = 4.6
    smt_thread_w: float = 0.65
    dram_max_w: float = 9.0
    #: dynamic power roughly follows f^power_exponent (f V^2 with V ~ f)
    power_exponent: float = 1.9


@dataclass(frozen=True)
class Cluster:
    """One group of identical cores (a Xeon socket, a P- or E-cluster).

    ``dvfs_states`` lists the available frequency steps (Hz).  An empty
    table means the cluster runs at its fixed nominal clock — how the
    default machine folds turbo effects into calibrated constants.  A
    turbo-boosting Xeon is the same cluster with its turbo bins as the
    table: ``Cluster(name="xeon", dvfs_states=(2.6e9, 2.8e9, 3.0e9, 3.2e9))``.
    """

    name: str = "xeon"
    cores: int = 8
    threads_per_core: int = 2
    frequency_hz: float = 2.4e9
    llc_bytes: float = 20e6
    bandwidth_bytes_s: float = 55e9
    per_thread_bandwidth: float = 13e9
    smt_speedup: float = 0.28  # extra throughput from the 2nd hw thread
    dvfs_states: Tuple[float, ...] = ()
    power: Optional[ClusterPower] = None

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"cluster {self.name!r} needs >= 1 core")
        if self.threads_per_core < 1:
            raise ValueError(f"cluster {self.name!r} needs >= 1 thread per core")
        if self.frequency_hz <= 0:
            raise ValueError(f"cluster {self.name!r} needs a positive clock")
        if any(state <= 0 for state in self.dvfs_states):
            raise ValueError(f"cluster {self.name!r} has a non-positive DVFS state")
        if self.dvfs_states and tuple(sorted(self.dvfs_states)) != self.dvfs_states:
            raise ValueError(
                f"cluster {self.name!r} DVFS states must be sorted ascending"
            )

    @property
    def logical_cpus(self) -> int:
        return self.cores * self.threads_per_core

    def effective_frequency(self, active_cores: int) -> float:
        """Clock at which this cluster runs ``active_cores`` busy cores.

        With a DVFS table the governor race-to-idles: one busy core gets
        the top state and the clock walks down toward the bottom state
        as the cluster fills up (thermal/power headroom shrinks), snapped
        to the nearest available state below the interpolated target.
        Without a table the cluster runs at its fixed nominal clock.
        """
        if not self.dvfs_states:
            return self.frequency_hz
        low, high = self.dvfs_states[0], self.dvfs_states[-1]
        cores = min(max(active_cores, 1), self.cores)
        fraction = (cores - 1) / (self.cores - 1) if self.cores > 1 else 1.0
        target = high - fraction * (high - low)
        chosen = low
        for state in self.dvfs_states:
            if state <= target + 1e-6:
                chosen = state
        return chosen

    def freq_power_factor(self, active_cores: int) -> float:
        """Dynamic-power multiplier of the DVFS state in effect."""
        if not self.dvfs_states:
            return 1.0
        exponent = self.power.power_exponent if self.power else 1.9
        return (self.effective_frequency(active_cores) / self.frequency_hz) ** exponent


@dataclass(frozen=True)
class LogicalCpu:
    """One hardware thread: (socket, core, hw_thread) coordinates.

    ``place_index`` is the CPU's position in the owning machine's
    enumerated ``OMP_PLACES=cores`` place list (see
    :meth:`Machine.core_places`); it is assigned during enumeration
    rather than derived arithmetically, so place ids stay collision-free
    on machines whose clusters have different core counts.
    """

    socket: int
    core: int
    hw_thread: int
    place_index: int = -1

    @property
    def place_id(self) -> int:
        """Index of this CPU's *core place* under ``OMP_PLACES=cores``."""
        return self.place_index


def _xeon_clusters(
    sockets: int,
    cores_per_socket: int,
    threads_per_core: int,
    frequency_hz: float,
    llc_bytes_per_socket: float,
    bandwidth_per_socket: float,
    smt_speedup: float,
) -> Tuple[Cluster, ...]:
    cluster = Cluster(
        name="xeon",
        cores=cores_per_socket,
        threads_per_core=threads_per_core,
        frequency_hz=frequency_hz,
        llc_bytes=llc_bytes_per_socket,
        bandwidth_bytes_s=bandwidth_per_socket,
        smt_speedup=smt_speedup,
    )
    return (cluster,) * sockets


class Machine:
    """An ordered list of clusters; one cluster per socket/NUMA node.

    The homogeneous-shorthand keywords (``sockets``,
    ``cores_per_socket``, ...) build the classic symmetric machine and
    default to the paper's testbed: 2x Xeon E5-2630 v3 (Haswell-EP, 8
    cores @ 2.4 GHz, 20 MB L3, 4-channel DDR4-1866 => ~59 GB/s per
    socket).  Passing ``clusters`` explicitly describes arbitrary
    (possibly asymmetric) topologies.
    """

    def __init__(
        self,
        clusters: Optional[Sequence[Cluster]] = None,
        *,
        name: Optional[str] = None,
        numa_remote_factor: float = 0.62,
        sockets: Optional[int] = None,
        cores_per_socket: Optional[int] = None,
        threads_per_core: Optional[int] = None,
        frequency_hz: Optional[float] = None,
        llc_bytes_per_socket: Optional[float] = None,
        bandwidth_per_socket: Optional[float] = None,
        smt_speedup: Optional[float] = None,
    ) -> None:
        shorthand = (
            sockets,
            cores_per_socket,
            threads_per_core,
            frequency_hz,
            llc_bytes_per_socket,
            bandwidth_per_socket,
            smt_speedup,
        )
        if clusters is not None:
            if any(value is not None for value in shorthand):
                raise ValueError(
                    "pass either clusters or the homogeneous shorthand "
                    "keywords, not both"
                )
            self._clusters = tuple(clusters)
        else:
            self._clusters = _xeon_clusters(
                sockets=2 if sockets is None else sockets,
                cores_per_socket=8 if cores_per_socket is None else cores_per_socket,
                threads_per_core=2 if threads_per_core is None else threads_per_core,
                frequency_hz=2.4e9 if frequency_hz is None else frequency_hz,
                llc_bytes_per_socket=(
                    20e6 if llc_bytes_per_socket is None else llc_bytes_per_socket
                ),
                bandwidth_per_socket=(
                    55e9 if bandwidth_per_socket is None else bandwidth_per_socket
                ),
                smt_speedup=0.28 if smt_speedup is None else smt_speedup,
            )
        if not self._clusters:
            raise ValueError("a machine needs at least one cluster")
        self._name = name or "custom"
        self._numa_remote_factor = numa_remote_factor
        # clusters are frozen: compare them once, not on every evaluation
        self._homogeneous = all(
            cluster == self._clusters[0] for cluster in self._clusters[1:]
        )
        # the enumerated place list IS the source of place identity
        self._places: Tuple[Tuple[int, int], ...] = tuple(
            (socket, core)
            for socket, cluster in enumerate(self._clusters)
            for core in range(cluster.cores)
        )
        self._place_index: Dict[Tuple[int, int], int] = {
            place: index for index, place in enumerate(self._places)
        }

    # -- identity --------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def clusters(self) -> Tuple[Cluster, ...]:
        return self._clusters

    @property
    def numa_remote_factor(self) -> float:
        """Remote-socket effective bandwidth share."""
        return self._numa_remote_factor

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Machine):
            return NotImplemented
        return (
            self._clusters == other._clusters
            and self._numa_remote_factor == other._numa_remote_factor
        )

    def __hash__(self) -> int:
        return hash((self._clusters, self._numa_remote_factor))

    def __repr__(self) -> str:
        shape = "+".join(
            f"{cluster.cores}x{cluster.name}" for cluster in self._clusters
        )
        return f"Machine({self._name!r}, {shape})"

    # -- cluster views ---------------------------------------------------------

    @property
    def sockets(self) -> int:
        return len(self._clusters)

    def cluster(self, socket: int) -> Cluster:
        """The cluster occupying ``socket``."""
        return self._clusters[socket]

    @property
    def is_homogeneous(self) -> bool:
        """True when every socket hosts an identical cluster (the
        degenerate case whose model arithmetic must stay byte-identical
        to the historical symmetric machine)."""
        return self._homogeneous

    def cluster_names(self) -> Tuple[str, ...]:
        """Distinct cluster type names in enumeration order."""
        names: List[str] = []
        for cluster in self._clusters:
            if cluster.name not in names:
                names.append(cluster.name)
        return tuple(names)

    def cluster_sockets(self, name: str) -> Tuple[int, ...]:
        """Socket indices occupied by cluster type ``name``."""
        sockets = tuple(
            socket
            for socket, cluster in enumerate(self._clusters)
            if cluster.name == name
        )
        if not sockets:
            raise ValueError(
                f"machine {self._name!r} has no cluster named {name!r} "
                f"(known: {', '.join(self.cluster_names())})"
            )
        return sockets

    def cluster_logical_cpus(self, name: str) -> int:
        """Logical CPUs across every socket of cluster type ``name``."""
        return sum(
            self._clusters[socket].logical_cpus
            for socket in self.cluster_sockets(name)
        )

    # -- enumeration -----------------------------------------------------------

    @property
    def physical_cores(self) -> int:
        return sum(cluster.cores for cluster in self._clusters)

    @property
    def logical_cpus(self) -> int:
        return sum(cluster.logical_cpus for cluster in self._clusters)

    def cpus(self) -> List[LogicalCpu]:
        """All logical CPUs, ordered socket-major then core then SMT."""
        result: List[LogicalCpu] = []
        for socket, cluster in enumerate(self._clusters):
            for core in range(cluster.cores):
                place_index = self._place_index[(socket, core)]
                for hw_thread in range(cluster.threads_per_core):
                    result.append(
                        LogicalCpu(socket, core, hw_thread, place_index=place_index)
                    )
        return result

    def core_places(self) -> List[Tuple[int, int]]:
        """The OMP_PLACES=cores place list: (socket, core) pairs.

        Places are enumerated socket-major, matching how libgomp sees a
        machine whose logical CPUs are numbered socket-by-socket.
        """
        return list(self._places)

    def place_id(self, socket: int, core: int) -> int:
        """Index of a core place in the enumerated place list."""
        return self._place_index[(socket, core)]

    def cluster_places(self, name: str) -> List[Tuple[int, int]]:
        """The place-list slice belonging to cluster type ``name``."""
        sockets = set(self.cluster_sockets(name))
        return [place for place in self._places if place[0] in sockets]


def default_machine() -> Machine:
    """The paper's platform: 2x Xeon E5-2630 v3, 32 logical CPUs.

    Resolved through the machine registry (``xeon_2s``), so every layer
    that falls back to the default agrees on one shared definition.
    """
    from repro.machine.registry import DEFAULT_MACHINE, get_machine

    return get_machine(DEFAULT_MACHINE)
