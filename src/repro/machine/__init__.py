"""Simulated execution platform.

The paper's testbed is a two-socket NUMA machine (2x Intel Xeon
E5-2630 v3: 8 cores/socket, 2-way hyperthreading, 16 cores / 32
logical CPUs, 128 GB DDR4-1866) with RAPL power measurement.  This
package models it: :mod:`repro.machine.topology` describes the
hardware, :mod:`repro.machine.openmp` maps OpenMP thread teams onto it
under ``OMP_PLACES=cores`` with ``close``/``spread`` binding,
:mod:`repro.machine.power` provides the power model and an RAPL-like
meter, and :mod:`repro.machine.executor` turns a compiled kernel plus
a thread placement into (time, power, energy) samples.

A machine is a tuple of :class:`~repro.machine.topology.Cluster`\\ s —
one per socket — so asymmetric (big.LITTLE-style) parts are first-class
citizens: :mod:`repro.machine.registry` names the available platforms
(``xeon_2s`` is the default, bit-for-bit the historical homogeneous
testbed) and every layer resolves its machine parameter through
:func:`~repro.machine.registry.resolve_machine`.
"""

from repro.machine.executor import ExecutionResult, MachineExecutor
from repro.machine.openmp import BindingPolicy, OpenMPRuntime, ThreadPlacement
from repro.machine.power import (
    COMPONENT_DOMAINS,
    DOMAINS,
    DomainPower,
    PowerBreakdown,
    PowerModel,
    RaplMeter,
    cluster_domain,
    invocation_energy,
)
from repro.machine.registry import (
    DEFAULT_MACHINE,
    get_machine,
    machine_names,
    resolve_machine,
)
from repro.machine.topology import Cluster, ClusterPower, Machine, default_machine

__all__ = [
    "BindingPolicy",
    "COMPONENT_DOMAINS",
    "Cluster",
    "ClusterPower",
    "DEFAULT_MACHINE",
    "DOMAINS",
    "DomainPower",
    "ExecutionResult",
    "Machine",
    "MachineExecutor",
    "OpenMPRuntime",
    "PowerBreakdown",
    "PowerModel",
    "RaplMeter",
    "ThreadPlacement",
    "cluster_domain",
    "default_machine",
    "get_machine",
    "invocation_energy",
    "machine_names",
    "resolve_machine",
]
