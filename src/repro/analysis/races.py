"""OpenMP data-race detector (rules OMP001-OMP004).

Interprets the shared-variable classification of
:mod:`repro.cir.dataflow` for every ``#pragma omp parallel for``
region: shared scalars written by the loop body are races (OMP001),
shared arrays written without an induction-indexed subscript are
flagged (OMP002), and pragmas that control nothing analyzable are
surfaced so the silence is not mistaken for a clean bill (OMP003/4).
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import diagnose
from repro.cir import ast
from repro.cir.dataflow import (
    Access,
    SharingReport,
    classify_sharing,
    parallel_regions,
    references_variable,
)
from repro.cir.index import NodeIndex
from repro.cir.printer import SourceMap

_REDUCTION_OPS = {"+=": "+", "-=": "-", "*=": "*", "++": "+", "--": "-"}


def _scalar_hint(access: Access) -> str:
    """Suggest a fix for a shared-scalar write."""
    name = access.name
    reduction_op = _REDUCTION_OPS.get(access.op)
    if reduction_op is None and access.op == "=" and isinstance(access.node, ast.Assign):
        # `x = x + ...` accumulation written without a compound operator
        if references_variable(access.node.rhs, name):
            reduction_op = "+"
    if reduction_op is not None:
        return (
            f"add reduction({reduction_op}:{name}) to the pragma if the "
            f"writes accumulate, or private({name}) if the value is "
            f"per-iteration scratch"
        )
    return f"add private({name}) to the pragma (or declare it inside the loop body)"


def check_region_races(
    report: SharingReport,
    filename: str,
    lines: Optional[SourceMap] = None,
    phase: str = "pristine",
) -> List[Diagnostic]:
    """Race rules for one classified parallel region."""
    diagnostics: List[Diagnostic] = []
    function = report.region.function.name
    induction = report.induction
    seen_scalars = set()
    seen_arrays = set()
    for access in report.shared_writes:
        if not access.is_array:
            if access.name in seen_scalars:
                continue
            seen_scalars.add(access.name)
            diagnostics.append(
                diagnose(
                    "OMP001",
                    f"shared scalar {access.name!r} is written inside the "
                    f"parallel loop without a private/reduction clause",
                    filename=filename,
                    function=function,
                    node=access.node,
                    lines=lines,
                    phase=phase,
                    hint=_scalar_hint(access),
                )
            )
            continue
        if induction is not None and any(
            references_variable(index, induction) for index in access.indices
        ):
            continue  # distinct iterations write distinct elements
        if access.name in seen_arrays:
            continue
        seen_arrays.add(access.name)
        diagnostics.append(
            diagnose(
                "OMP002",
                f"shared array {access.name!r} is written through subscripts "
                f"that never use the parallel induction variable"
                + (f" {induction!r}" if induction else ""),
                filename=filename,
                function=function,
                node=access.node,
                lines=lines,
                phase=phase,
                hint=(
                    f"index the write by the parallel loop variable or "
                    f"privatize {access.name!r}"
                ),
            )
        )
    return diagnostics


def check_function_races(
    func: ast.FunctionDef,
    filename: str,
    lines: Optional[SourceMap] = None,
    phase: str = "pristine",
    index: Optional[NodeIndex] = None,
) -> List[Diagnostic]:
    """All race diagnostics of one function.

    ``index`` is any index that holds ``func``'s body; without one the
    body is indexed once here.
    """
    if index is None:
        index = NodeIndex(func.body)
    diagnostics: List[Diagnostic] = []
    for region in parallel_regions(func, index):
        if region.loop is None:
            diagnostics.append(
                diagnose(
                    "OMP003",
                    "'#pragma omp parallel for' is not followed by a for loop",
                    filename=filename,
                    function=func.name,
                    node=region.pragma,
                    lines=lines,
                    phase=phase,
                    hint="place the pragma directly above the worksharing loop",
                )
            )
            continue
        report = classify_sharing(region, index)
        if report is None:
            continue
        if report.induction is None:
            diagnostics.append(
                diagnose(
                    "OMP004",
                    "cannot identify the induction variable of the parallel "
                    "loop; sharing classification skipped",
                    filename=filename,
                    function=func.name,
                    node=region.loop,
                    lines=lines,
                    phase=phase,
                    hint="use a canonical init like 'i = 0' or 'int i = 0'",
                )
            )
            continue
        diagnostics.extend(check_region_races(report, filename, lines, phase))
    return diagnostics


def check_unit_races(
    unit: ast.TranslationUnit,
    filename: str,
    lines: Optional[SourceMap] = None,
    phase: str = "pristine",
    index: Optional[NodeIndex] = None,
) -> List[Diagnostic]:
    """Race diagnostics for every function of a translation unit.

    ``index`` must describe ``unit`` as it is now; without one the unit
    is indexed once here.
    """
    if index is None:
        index = NodeIndex(unit)
    diagnostics: List[Diagnostic] = []
    for func in unit.functions():
        diagnostics.extend(check_function_races(func, filename, lines, phase, index))
    return diagnostics
