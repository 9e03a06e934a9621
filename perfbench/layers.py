"""Outside-in per-layer timing of the ``repro`` modules.

The benchmark never edits ``src/`` and never turns on ``repro.obs``.
Instead, :class:`LayerTracer` replaces selected public functions of each
layer with timing wrappers, from outside the program, and puts every
original back afterwards.  A function defined in module ``M`` is also
bound under its own name in every module that imported it with
``from M import f`` (the benchmark's own modules included); all of
those bindings are swapped, so a call takes the wrapper whichever name
it goes through.

Self time is the wrapper's inclusive time minus the inclusive time of
the wrapped calls nested inside it (tracked with a call stack).  By
construction, the self times of all wrapped functions plus the time
spent inside no wrapped call add up to the measured wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

#: (layer metric prefix, defining module, qualified name) of every
#: wrapped function.  The prefix is the ``repro`` layer the function
#: belongs to, followed by the function's own name.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cobayn.build_corpus", "repro.cobayn.corpus", "build_corpus"),
    ("cobayn.train", "repro.cobayn.autotuner", "CobaynAutotuner.train"),
    ("cobayn.predict", "repro.cobayn.autotuner", "CobaynAutotuner.predict"),
    ("cobayn.bic_score", "repro.cobayn.bn", "DiscreteBayesianNetwork.bic_score"),
    ("cobayn.posterior", "repro.cobayn.bn", "DiscreteBayesianNetwork.posterior"),
    ("lara.weave_benchmark", "repro.lara.metrics", "weave_benchmark"),
    ("analysis.check_unit", "repro.analysis.checker", "check_unit"),
    ("analysis.build_prune_plan", "repro.analysis.cost", "build_prune_plan"),
    ("analysis.kernel_cost_report", "repro.analysis.cost", "kernel_cost_report"),
    ("analysis.summarize_unit", "repro.analysis.interproc", "summarize_unit"),
    (
        "analysis.flag_safety_verdict",
        "repro.analysis.flagsafety",
        "flag_safety_verdict",
    ),
    ("polybench.bound_environment", "repro.polybench.workload", "bound_environment"),
    ("polybench.profile_kernel", "repro.polybench.workload", "profile_kernel"),
    ("cir.parse", "repro.cir.parser", "parse"),
    ("milepost.extract_features", "repro.milepost.features", "extract_features"),
    ("engine.evaluate", "repro.engine.core", "EvaluationEngine.evaluate"),
    ("gcc.compile", "repro.gcc.compiler", "Compiler.compile"),
    ("machine.evaluate", "repro.machine.executor", "MachineExecutor.evaluate"),
    ("machine.run", "repro.machine.executor", "MachineExecutor.run"),
    ("machine.place", "repro.machine.openmp", "OpenMPRuntime.place"),
    ("dse.explore", "repro.dse.explorer", "DesignSpaceExplorer.explore"),
    ("dse.pareto_front", "repro.dse.pareto", "pareto_front"),
    ("margot.update", "repro.margot.manager", "MargotManager.update"),
    ("margot.stop_monitor", "repro.margot.manager", "MargotManager.stop_monitor"),
    ("margot.log", "repro.margot.manager", "MargotManager.log"),
    ("core.build_version_table", "repro.core.adaptive", "build_version_table"),
    ("core.run_once", "repro.core.adaptive", "AdaptiveApplication.run_once"),
)


@dataclass
class LayerStat:
    """Calls into one wrapped function and the self time they took."""

    calls: int = 0
    self_s: float = 0.0


def _resolve(module_name: str, qualname: str) -> Tuple[object, str, Callable]:
    """(owner, attribute, function) of ``module_name.qualname``."""
    owner: object = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    function = vars(owner)[attribute]
    if not callable(function) or isinstance(function, (staticmethod, classmethod)):
        raise TypeError(f"{module_name}.{qualname} is not a plain function")
    return owner, attribute, function


def _modules() -> Iterator[object]:
    """Every loaded module: ``repro``'s own and the callers' (such as
    the benchmark's workloads) may hold a copy of a wrapped function."""
    for module in list(sys.modules.values()):
        if module is not None and hasattr(module, "__dict__"):
            yield module


class LayerTracer:
    """Installs timing wrappers around :data:`TARGETS` and restores them.

    Wrapped calls are accounted only while :attr:`active` is true, so
    a caller can run output checks between timed passes without the
    checks' own calls showing up in the layer numbers.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStat] = {name: LayerStat() for name, _, _ in TARGETS}
        #: inclusive seconds of wrapped calls made outside any other
        #: wrapped call (the traced share of the wall time)
        self.top_level_s = 0.0
        self.active = False
        self._stack: List[float] = []
        # original function -> wrapper, and every (namespace, name) slot
        # that was rebound, so restore() can undo exactly what was done
        self._wrappers: Dict[int, Tuple[Callable, Callable]] = {}
        self._slots: List[Tuple[object, str, Callable]] = []

    # -- install / restore ---------------------------------------------------

    def install(self) -> "LayerTracer":
        if self._slots:
            raise RuntimeError("layer wrappers are already installed")
        try:
            for name, module_name, qualname in TARGETS:
                owner, attribute, original = _resolve(module_name, qualname)
                wrapper = self._wrap(name, original)
                self._wrappers[id(original)] = (original, wrapper)
                self._rebind(owner, attribute, wrapper)
            # ``from M import f`` copies made by other modules
            for module in _modules():
                namespace = vars(module)
                for attribute, value in list(namespace.items()):
                    entry = self._wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        self._rebind(module, attribute, entry[1])
        except BaseException:
            self.restore()  # never leave the program half wrapped
            raise
        return self

    def restore(self) -> None:
        """Put every original back, including copies of a wrapper that a
        module imported while the wrappers were installed."""
        for owner, attribute, original in reversed(self._slots):
            setattr(owner, attribute, original)
        self._slots.clear()
        by_wrapper = {id(wrapper): (wrapper, original) for original, wrapper in self._wrappers.values()}
        for module in _modules():
            namespace = vars(module)
            for attribute, value in list(namespace.items()):
                entry = by_wrapper.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attribute, entry[1])
        self._wrappers.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def _rebind(self, owner: object, attribute: str, value: Callable) -> None:
        self._slots.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def _wrap(self, name: str, function: Callable) -> Callable:
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            stack.append(0.0)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                nested = stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - nested
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer.top_level_s += elapsed

        wrapper.__wrapped_layer__ = name  # type: ignore[attr-defined]
        return wrapper
