"""The ``socrates check`` rule catalogue.

Three families:

* ``OMP0xx`` — OpenMP data-race lint over ``#pragma omp parallel
  for`` regions (applies to pristine and woven sources alike);
* ``WV1xx`` — weave-verifier structural checks over ``Weaver``
  output (woven sources only; all error severity, because a
  violation corrupts every downstream DSE point);
* ``FPS2xx`` — flag-safety analysis (pristine sources only): code
  shapes that make aggressive compiler-flag versions unsafe
  (fast-math reassociation of FP reductions, reordering of
  alias-dependent loops) or pointless (no-inline in call-dense
  regions).  These verdicts also feed the static
  :class:`~repro.analysis.cost.PrunePlan` that masks lattice points
  before the DSE runs.

The catalogue is what ``docs/static_analysis.md`` documents and what
the SARIF export embeds as the driver's rule metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.cir import ast
from repro.cir.printer import SourceMap


@dataclass(frozen=True)
class Rule:
    """One check: stable id, default severity, documentation."""

    id: str
    severity: Severity
    summary: str
    description: str


_RULE_LIST = [
    Rule(
        id="OMP001",
        severity=Severity.ERROR,
        summary="shared scalar written inside a parallel loop",
        description=(
            "A scalar that is neither privatized by a clause, a reduction "
            "variable, the parallel induction variable, nor declared inside "
            "the region is written by every thread: a data race."
        ),
    ),
    Rule(
        id="OMP002",
        severity=Severity.WARNING,
        summary="shared array written without an induction-indexed subscript",
        description=(
            "A shared array is written through subscripts that never mention "
            "the parallel induction variable, so distinct iterations may "
            "write the same element."
        ),
    ),
    Rule(
        id="OMP003",
        severity=Severity.WARNING,
        summary="parallel-for pragma does not control an analyzable for loop",
        description=(
            "The statement following '#pragma omp parallel for' is not a "
            "'for' loop the analyzer can associate with the pragma."
        ),
    ),
    Rule(
        id="OMP004",
        severity=Severity.WARNING,
        summary="parallel loop induction variable not recognized",
        description=(
            "The controlled loop's init is not a simple declaration or "
            "assignment, so the sharing classification cannot run."
        ),
    ),
    Rule(
        id="WV101",
        severity=Severity.ERROR,
        summary="dispatch wrapper does not cover the version list",
        description=(
            "The wrapper's dispatch arms must call exactly the cloned "
            "versions recorded in the weave plan, one arm per VersionSpec."
        ),
    ),
    Rule(
        id="WV102",
        severity=Severity.ERROR,
        summary="dispatch wrapper lacks a safe default arm",
        description=(
            "The final arm of the wrapper must call a version "
            "unconditionally, so out-of-range control values still compute."
        ),
    ),
    Rule(
        id="WV103",
        severity=Severity.ERROR,
        summary="cloned version carries inconsistent pragmas",
        description=(
            "Every clone must carry the GCC optimize pragma of its "
            "FlagConfiguration and rewrite each parallel-for pragma with "
            "num_threads(__socrates_num_threads) and the proc_bind policy "
            "of its VersionSpec."
        ),
    ),
    Rule(
        id="WV104",
        severity=Severity.ERROR,
        summary="original call site not rewritten to the wrapper",
        description=(
            "Outside the clones and the wrapper itself, no call to the "
            "original kernel may survive weaving."
        ),
    ),
    Rule(
        id="WV105",
        severity=Severity.ERROR,
        summary="control variable not declared exactly once",
        description=(
            "__socrates_version and __socrates_num_threads must each be "
            "declared exactly once at file scope."
        ),
    ),
    Rule(
        id="WV106",
        severity=Severity.ERROR,
        summary="mARGOt weave points missing or misordered",
        description=(
            "margot.h must be included, margot_init() must be the first "
            "statement of main(), and every wrapper call must be surrounded "
            "by margot_update/margot_start_monitor before and "
            "margot_stop_monitor/margot_log after, in that order."
        ),
    ),
    Rule(
        id="FPS201",
        severity=Severity.WARNING,
        summary="non-associative floating-point reduction",
        description=(
            "An innermost loop accumulates floating-point values into a "
            "location invariant in its own induction variable.  Fast-math "
            "flag versions (-funsafe-math-optimizations) reassociate the "
            "sum and change the rounding, so their results differ bitwise "
            "from the strict-IEEE versions."
        ),
    ),
    Rule(
        id="FPS202",
        severity=Severity.WARNING,
        summary="loop-carried array dependence constrains reordering flags",
        description=(
            "A parallel loop reads array elements produced by other "
            "iterations (shifted subscripts).  Flag versions that reorder "
            "or vectorize iterations are unsafe for this loop; the "
            "compiler model refuses to vectorize it at any level."
        ),
    ),
    Rule(
        id="FPS203",
        severity=Severity.WARNING,
        summary="call-dense loop makes -fno-inline versions pessimizing",
        description=(
            "A loop body spends a significant fraction of its operations "
            "on function calls.  Cloning it with -fno-inline keeps every "
            "call out-of-line and slows the region down; such flag "
            "versions are pointless members of the autotuning lattice."
        ),
    ),
    Rule(
        id="FPS204",
        severity=Severity.WARNING,
        summary="callee constrains flag safety interprocedurally",
        description=(
            "A function called from this loop contains a non-associative "
            "floating-point reduction, so fast-math flag versions of the "
            "caller inherit the bitwise-result hazard even though the "
            "caller's own loops look safe."
        ),
    ),
]

#: Rule registry keyed by id.
RULES: Dict[str, Rule] = {rule.id: rule for rule in _RULE_LIST}


def diagnose(
    rule: str,
    message: str,
    *,
    filename: str,
    phase: str,
    function: Optional[str] = None,
    node: Optional[ast.Node] = None,
    lines: Optional[SourceMap] = None,
    hint: Optional[str] = None,
) -> Diagnostic:
    """A finding of ``rule`` at ``node``, with the rule's severity.

    The printed line comes from ``lines`` when both it and ``node`` are
    given; ``node`` also anchors ``#pragma socrates suppress`` spans.
    """
    located = lines is not None and node is not None
    return Diagnostic(
        rule=rule,
        severity=RULES[rule].severity,
        message=message,
        file=filename,
        function=function,
        line=lines.line_of(node) if located else None,
        hint=hint,
        phase=phase,
        anchor_id=id(node) if node is not None else None,
    )
