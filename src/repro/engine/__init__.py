"""The unified evaluation engine (compile→place→run as a service).

One cached, parallel, instrumented measurement substrate shared by the
SOCRATES toolflow, the design-space explorer and the COBAYN corpus
builder.  See :mod:`repro.engine.core` for the determinism contract.
"""

from repro.engine.backends import ProcessPoolBackend, SerialBackend
from repro.engine.caching import CacheStats, CompileCache, ProfileCache
from repro.engine.core import EngineCounters, EvaluationEngine
from repro.engine.model import DesignPoint, DesignSpace, ProfiledSample
from repro.engine.telemetry import StageEvent, TelemetryRecorder, stage_report

__all__ = [
    "CacheStats",
    "CompileCache",
    "DesignPoint",
    "DesignSpace",
    "EngineCounters",
    "EvaluationEngine",
    "ProcessPoolBackend",
    "ProfileCache",
    "ProfiledSample",
    "SerialBackend",
    "StageEvent",
    "TelemetryRecorder",
    "stage_report",
]
