"""Flag-safety analysis (rules FPS201-FPS204).

Detects the code shapes that make aggressive compiler-flag versions
unsafe or pointless, per kernel:

* **FPS201** — an innermost loop performs a non-associative
  floating-point reduction; ``-funsafe-math-optimizations`` versions
  reassociate it and change the rounding (the exact gate the compiler
  model applies in :func:`repro.gcc.passes.finalize_vectorization`);
* **FPS202** — a parallel loop carries an array dependence through
  shifted subscripts; reordering/vectorizing flag versions are unsafe;
* **FPS203** — a call-dense loop where ``-fno-inline`` versions only
  pessimize;
* **FPS204** — the interprocedural variant of FPS201: a callee
  reachable from a loop contains an FP reduction, so the caller's
  fast-math versions inherit the hazard (propagated bottom-up over
  the :class:`~repro.analysis.interproc.CallGraph`).

Besides diagnostics, the module renders a :class:`FlagSafetyVerdict`
per unit — the machine-readable half consumed by
:func:`repro.analysis.cost.build_prune_plan` and the COBAYN corpus
builder to exclude unsafe/pointless flag configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.interproc import build_call_graph
from repro.analysis.rules import diagnose
from repro.cir import ast
from repro.cir.analysis import LoopInfo, census, collect_loops
from repro.cir.printer import SourceMap
from repro.cir.visitor import walk
from repro.polybench.workload import (
    _has_loop_carried_dependence,
    _is_reduction_loop,
)

__all__ = [
    "FlagSafetyVerdict",
    "check_unit_flag_safety",
    "flag_safety_verdict",
    "unsafe_config_labels",
]

#: Calls per body operation above which a loop counts as call-dense.
CALL_DENSE_THRESHOLD = 0.02


@dataclass(frozen=True)
class _Findings:
    """What the flag-safety rules see in one function, derived once."""

    loops: List[LoopInfo]
    #: innermost loops that accumulate into an iv-invariant location
    reductions: List[LoopInfo]
    #: outermost loops whose body carries a shifted-subscript dependence
    dependent: List[LoopInfo]
    #: innermost loops whose call density crosses the threshold
    call_dense: List[Tuple[LoopInfo, float]]
    #: contains, or transitively calls into, an FP reduction
    carrier: bool


def _reduction_loops(loops: List[LoopInfo]) -> List[LoopInfo]:
    return [
        info
        for info in loops
        if not info.children
        and info.induction_variable is not None
        and _is_reduction_loop(info.node, info.induction_variable)
    ]


def _dependent_loops(loops: List[LoopInfo]) -> List[LoopInfo]:
    return [
        info
        for info in loops
        if info.parent is None
        and info.induction_variable is not None
        and _has_loop_carried_dependence(info.node, info.induction_variable)
    ]


def _call_dense_loops(
    loops: List[LoopInfo], defined: Set[str]
) -> List[Tuple[LoopInfo, float]]:
    """Only calls to functions *defined in the unit* count: those are
    the ones the inliner could have absorbed, so only they make
    ``-fno-inline`` versions pessimizing."""
    found = []
    for info in loops:
        if info.children:
            continue
        calls = sum(
            1
            for node in walk(info.node.body)
            if isinstance(node, ast.Call) and node.name in defined
        )
        density = calls / max(1, census(info.node.body).total_ops)
        if calls and density >= CALL_DENSE_THRESHOLD:
            found.append((info, density))
    return found


def _findings(
    unit: ast.TranslationUnit, only: Optional[str] = None
) -> Dict[str, _Findings]:
    """Findings of every function defined in ``unit``, or of ``only``.

    Reduction loops are scanned in every function either way: carriers
    propagate bottom-up over the call graph, so whether ``only``
    carries a reduction depends on its callees.
    """
    graph = build_call_graph(unit)
    functions = {func.name: func for func in unit.functions()}
    loops = {name: collect_loops(func.body) for name, func in functions.items()}
    reductions: Dict[str, List[LoopInfo]] = {}
    carriers: Set[str] = set()
    for name in graph.bottom_up():
        reductions[name] = _reduction_loops(loops[name])
        if reductions[name] or any(
            callee in carriers for callee in graph.callees(name)
        ):
            carriers.add(name)
    defined = set(functions)
    return {
        name: _Findings(
            loops=loops[name],
            reductions=reductions[name],
            dependent=_dependent_loops(loops[name]),
            call_dense=_call_dense_loops(loops[name], defined),
            carrier=name in carriers,
        )
        for name in functions
        if only is None or name == only
    }


def check_unit_flag_safety(
    unit: ast.TranslationUnit,
    filename: str,
    lines: Optional[SourceMap] = None,
    phase: str = "pristine",
) -> List[Diagnostic]:
    """All FPS2xx diagnostics of one translation unit."""
    diagnostics: List[Diagnostic] = []
    findings = _findings(unit)
    carriers = {name for name, found in findings.items() if found.carrier}
    for func in unit.functions():
        found = findings[func.name]
        for info in found.reductions:
            iv = info.induction_variable
            diagnostics.append(
                diagnose(
                    "FPS201",
                    f"innermost loop over {iv!r} accumulates a floating-point "
                    f"reduction; fast-math versions reassociate it",
                    filename=filename,
                    function=func.name,
                    node=info.node,
                    lines=lines,
                    phase=phase,
                    hint=(
                        "results of -funsafe-math-optimizations versions "
                        "differ bitwise; keep them out of the lattice, or "
                        "suppress with '#pragma socrates suppress(FPS201)' "
                        "if the kernel tolerates reassociated rounding"
                    ),
                )
            )
        for info in found.dependent:
            iv = info.induction_variable
            diagnostics.append(
                diagnose(
                    "FPS202",
                    f"loop over {iv!r} reads elements written by other "
                    f"iterations (shifted subscript): reordering flag "
                    f"versions are unsafe",
                    filename=filename,
                    function=func.name,
                    node=info.node,
                    lines=lines,
                    phase=phase,
                    hint=(
                        "vectorizing/reassociating flag versions cannot be "
                        "applied to this nest; aggressive lattice points are "
                        "wasted evaluations here"
                    ),
                )
            )
        for info, density in found.call_dense:
            diagnostics.append(
                diagnose(
                    "FPS203",
                    f"loop body is call-dense ({density:.0%} of operations "
                    f"are calls): -fno-inline versions pessimize it",
                    filename=filename,
                    function=func.name,
                    node=info.node,
                    lines=lines,
                    phase=phase,
                    hint=(
                        "drop -fno-inline configurations from this kernel's "
                        "flag lattice; they keep every call out-of-line"
                    ),
                )
            )
        if not found.carrier or found.reductions:
            continue
        # interprocedural: each loop that calls a carrier, once.  A call
        # in this function's body to a defined function is a direct
        # callee by construction of the call graph.
        for info in found.loops:
            callee = next(
                (
                    node.name
                    for node in walk(info.node.body)
                    if isinstance(node, ast.Call) and node.name in carriers
                ),
                None,
            )
            if callee is None:
                continue
            diagnostics.append(
                diagnose(
                    "FPS204",
                    f"call to {callee!r} reaches a floating-point reduction: "
                    f"fast-math versions of this loop inherit the hazard",
                    filename=filename,
                    function=func.name,
                    node=info.node,
                    lines=lines,
                    phase=phase,
                    hint=(
                        "the callee's reduction makes reassociating flags "
                        "unsafe here too; treat this nest like FPS201"
                    ),
                )
            )
    return diagnostics


@dataclass(frozen=True)
class FlagSafetyVerdict:
    """Machine-readable flag-safety outcome for one translation unit.

    ``unsafe_flags`` are :class:`repro.gcc.flags.Flag` names whose
    versions change results (fast-math on reductions/dependences);
    ``pointless_flags`` are names whose versions cannot help (no-inline
    with no inlinable calls, or call-dense bodies).  Rule ids record
    *why* for the audit trail.
    """

    unsafe_flags: Tuple[str, ...]
    pointless_flags: Tuple[str, ...]
    rules: Tuple[str, ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "unsafe_flags": list(self.unsafe_flags),
            "pointless_flags": list(self.pointless_flags),
            "rules": list(self.rules),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FlagSafetyVerdict":
        return cls(
            unsafe_flags=tuple(data.get("unsafe_flags", ())),  # type: ignore[arg-type]
            pointless_flags=tuple(data.get("pointless_flags", ())),  # type: ignore[arg-type]
            rules=tuple(data.get("rules", ())),  # type: ignore[arg-type]
        )


def flag_safety_verdict(
    unit: ast.TranslationUnit, kernel: Optional[str] = None
) -> FlagSafetyVerdict:
    """Summarize FPS verdicts for ``kernel`` (or the whole unit)."""
    if kernel is not None:
        unit.function(kernel)  # KeyError for an unknown kernel
    unsafe: List[str] = []
    pointless: List[str] = []
    rules: List[str] = []

    def note(flags: List[str], flag: str, rule: str) -> None:
        if flag not in flags:
            flags.append(flag)
        if rule not in rules:
            rules.append(rule)

    for found in _findings(unit, kernel).values():
        if found.carrier:
            note(unsafe, "UNSAFE_MATH", "FPS201" if found.reductions else "FPS204")
        if found.dependent:
            note(unsafe, "UNSAFE_MATH", "FPS202")
        if found.call_dense:
            note(pointless, "NO_INLINE_FUNCTIONS", "FPS203")
    return FlagSafetyVerdict(
        unsafe_flags=tuple(unsafe),
        pointless_flags=tuple(pointless),
        rules=tuple(rules),
    )


def unsafe_config_labels(
    verdict: FlagSafetyVerdict, configs: Sequence
) -> Tuple[str, ...]:
    """Labels of flag configurations carrying an unsafe flag."""
    from repro.gcc.flags import Flag

    unsafe = {Flag[name] for name in verdict.unsafe_flags if name in Flag.__members__}
    if not unsafe:
        return ()
    return tuple(
        config.label
        for config in configs
        if any(config.has(flag) for flag in unsafe)
    )
