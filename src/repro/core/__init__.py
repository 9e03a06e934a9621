"""SOCRATES: the end-to-end toolflow and the adaptive application.

:mod:`repro.core.toolflow` chains the paper's Figure 1 pipeline —
Milepost feature extraction, COBAYN flag prediction, LARA weaving
(Multiversioning + Autotuner), compilation of every version, and the
mARGOt profiling DSE — into a single call that turns a plain Polybench
source into an :class:`~repro.core.adaptive.AdaptiveApplication`: the
simulated equivalent of the paper's final adaptive binary.

:mod:`repro.core.scenario` scripts runtime requirement changes over
simulated time (Figure 5's policy switches).
"""

from repro.core.adaptive import AdaptiveApplication, InvocationRecord, KernelVersion
from repro.core.scenario import Phase, Scenario, fig5_flip, power_cap_flip
from repro.core.toolflow import SocratesToolflow, ToolflowResult

__all__ = [
    "AdaptiveApplication",
    "InvocationRecord",
    "KernelVersion",
    "Phase",
    "Scenario",
    "SocratesToolflow",
    "ToolflowResult",
    "fig5_flip",
    "power_cap_flip",
]
