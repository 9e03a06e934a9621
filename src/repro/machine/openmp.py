"""OpenMP runtime model: thread-team placement under OMP_PLACES=cores.

SOCRATES controls two OpenMP knobs (paper Section II): the team size
(``num_threads``, 1..32 on the testbed) and the binding policy
(``proc_bind(close)`` or ``proc_bind(spread)``), with
``OMP_PLACES=cores``.  This module reproduces libgomp's placement
semantics for those settings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.machine.topology import Machine


class BindingPolicy(enum.Enum):
    """OpenMP proc_bind policy (the paper's BP knob)."""

    CLOSE = "close"
    SPREAD = "spread"

    @property
    def omp_name(self) -> str:
        return self.value


@dataclass(frozen=True)
class ThreadPlacement:
    """Where a thread team landed on the machine.

    ``assignments`` maps each OpenMP thread id to its (socket, core)
    place; with more threads than places, several threads share a core
    via SMT.  ``cluster`` names the cluster type the team was pinned to
    (``None`` = the whole machine, the historical behaviour).

    The counts the machine model reads on every evaluation (sockets,
    cores, SMT pairs, threads per socket) are computed once, here.
    """

    policy: BindingPolicy
    assignments: Tuple[Tuple[int, int], ...]
    cluster: Optional[str] = None

    def __post_init__(self) -> None:
        per_socket: Dict[int, int] = {}
        per_core: Dict[Tuple[int, int], int] = {}
        for place in self.assignments:
            per_socket[place[0]] = per_socket.get(place[0], 0) + 1
            per_core[place] = per_core.get(place, 0) + 1
        fixed = object.__setattr__
        fixed(self, "_threads_per_socket", per_socket)
        fixed(self, "_sockets_used", tuple(sorted(per_socket)))
        fixed(self, "_cores_used", len(per_core))
        fixed(
            self, "_smt_pairs", sum(1 for count in per_core.values() if count > 1)
        )

    @property
    def num_threads(self) -> int:
        return len(self.assignments)

    @property
    def sockets_used(self) -> Tuple[int, ...]:
        return self._sockets_used

    @property
    def cores_used(self) -> int:
        return self._cores_used

    def threads_per_socket(self) -> Dict[int, int]:
        """Threads per socket, in first-assignment order (a fresh dict)."""
        return dict(self._threads_per_socket)

    @property
    def smt_pairs(self) -> int:
        """Cores running two (or more) threads via hyperthreading."""
        return self._smt_pairs


class OpenMPRuntime:
    """Places OpenMP thread teams on a :class:`Machine`."""

    def __init__(self, machine: Machine) -> None:
        self._machine = machine
        self._places = machine.core_places()
        self._placed: Dict[
            Tuple[int, BindingPolicy, Optional[str]], ThreadPlacement
        ] = {}

    @property
    def machine(self) -> Machine:
        return self._machine

    def max_threads(self, cluster: Optional[str] = None) -> int:
        """OMP_NUM_THREADS upper bound: the number of logical CPUs.

        With ``cluster``, the bound of a team pinned to that cluster
        type (its logical CPUs across all sockets hosting it).
        """
        if cluster is None:
            return self._machine.logical_cpus
        return self._machine.cluster_logical_cpus(cluster)

    def place(
        self,
        num_threads: int,
        policy: BindingPolicy,
        cluster: Optional[str] = None,
    ) -> ThreadPlacement:
        """Assign ``num_threads`` OpenMP threads to core places.

        * ``close``: threads fill consecutive places, so a small team
          stays on one socket (good locality, single-socket bandwidth).
        * ``spread``: threads are distributed as evenly as possible
          over all places, so even a 2-thread team spans both sockets
          (double bandwidth, cross-socket synchronization).

        ``cluster`` restricts the place list to one cluster type (the
        fourth knob: an ``OMP_PLACES`` subset naming only that
        cluster's cores); the close/spread semantics then apply within
        the restricted list.

        Teams larger than the number of places wrap around, stacking a
        second SMT thread per core.  Placements are immutable, so each
        ``(num_threads, policy, cluster)`` is placed once and shared.
        """
        key = (num_threads, policy, cluster)
        placement = self._placed.get(key)
        if placement is None:
            placement = self._placed[key] = self._place(num_threads, policy, cluster)
        return placement

    def _place(
        self, num_threads: int, policy: BindingPolicy, cluster: Optional[str]
    ) -> ThreadPlacement:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if num_threads > self.max_threads(cluster):
            where = (
                f"cluster {cluster!r}'s" if cluster is not None else "the machine's"
            )
            raise ValueError(
                f"num_threads={num_threads} exceeds {where} "
                f"{self.max_threads(cluster)} logical CPUs"
            )
        places = (
            self._places
            if cluster is None
            else self._machine.cluster_places(cluster)
        )
        count = len(places)
        assignments: List[Tuple[int, int]] = []
        if policy is BindingPolicy.CLOSE:
            for thread in range(num_threads):
                assignments.append(places[thread % count])
        else:  # SPREAD
            # libgomp partitions the place list into num_threads chunks
            # and puts one thread at the start of each chunk
            teams = min(num_threads, count)
            for slot in range(teams):
                index = (slot * count) // teams
                assignments.append(places[index])
            # a team larger than the place list stacks SMT threads; the
            # extras are spread over the places with the same rule so
            # both sockets stay balanced
            extras = num_threads - teams
            for extra in range(extras):
                index = (extra * count) // max(extras, 1)
                assignments.append(places[index])
        return ThreadPlacement(
            policy=policy, assignments=tuple(assignments), cluster=cluster
        )
