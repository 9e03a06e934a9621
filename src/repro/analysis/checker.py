"""``socrates check`` orchestration.

Ties the analyses together for one translation unit or one benchmark
app: index the unit once, run the OpenMP race lint (plus the weave
verifier when a :class:`~repro.lara.weaver.WeavePlan` is available)
over that index, and filter the diagnostics through
``#pragma socrates suppress(RULE, ...)`` annotations.

Suppression scopes:

* a suppress pragma attached before a function definition silences
  the listed rules anywhere in that function;
* a suppress pragma inside a block silences them for the next
  statement (and its whole subtree).

Diagnostics are located in the *printed* canonical form of the unit
(``repro.cir`` ASTs carry no original source positions), which is
also exactly what ``socrates weave --source`` and the woven artifacts
show.  The unit is printed for its line map only when the first
diagnostic asks for a line, so a clean unit is never printed.
"""

from __future__ import annotations

import re
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import CheckReport, Diagnostic
from repro.analysis.races import check_unit_races
from repro.analysis.weavecheck import verify_weave
from repro.cir import ast, parse
from repro.cir.index import NodeIndex
from repro.cir.printer import SourceMap

_SUPPRESS_RE = re.compile(r"^\s*socrates\s+suppress\s*\(([^)]*)\)\s*$")

_Span = Tuple[FrozenSet[int], FrozenSet[str]]


def parse_suppress_pragma(text: str) -> Optional[FrozenSet[str]]:
    """Rule ids of a ``socrates suppress(...)`` pragma, or None."""
    match = _SUPPRESS_RE.match(text)
    if match is None:
        return None
    return frozenset(
        part.strip().upper() for part in match.group(1).split(",") if part.strip()
    )


def collect_suppressions(
    unit: ast.TranslationUnit, index: Optional[NodeIndex] = None
) -> List[_Span]:
    """All suppression spans of a unit: (node-id set, rule-id set).

    ``index`` must describe ``unit`` as it is now; without one the unit
    is indexed here.
    """
    if index is None:
        index = NodeIndex(unit)
    spans: List[_Span] = []
    for func in unit.functions():
        for pragma in func.pragmas:
            rules = parse_suppress_pragma(pragma.text)
            if rules:
                spans.append((index.subtree_ids(func), rules))
        for node in index.select(ast.Block, within=func.body):
            for position, stmt in enumerate(node.stmts):
                if not isinstance(stmt, ast.Pragma):
                    continue
                rules = parse_suppress_pragma(stmt.text)
                if not rules or position + 1 >= len(node.stmts):
                    continue
                # the span covers the next statement; when that is an
                # (OMP) pragma, extend through it to the statement it
                # controls, so suppressing above a pragma-loop pair works
                ids: set = set()
                covered = position + 1
                while covered < len(node.stmts) and isinstance(
                    node.stmts[covered], ast.Pragma
                ):
                    ids |= index.subtree_ids(node.stmts[covered])
                    covered += 1
                if covered < len(node.stmts):
                    ids |= index.subtree_ids(node.stmts[covered])
                spans.append((frozenset(ids), rules))
    return spans


def apply_suppressions(
    diagnostics: List[Diagnostic], spans: Sequence[_Span]
) -> List[Diagnostic]:
    """Drop diagnostics whose anchor falls inside a matching span."""
    if not spans:
        return diagnostics
    kept: List[Diagnostic] = []
    for diag in diagnostics:
        suppressed = diag.anchor_id is not None and any(
            diag.anchor_id in ids and diag.rule in rules for ids, rules in spans
        )
        if not suppressed:
            kept.append(diag)
    return kept


def check_unit(
    unit: ast.TranslationUnit,
    filename: str,
    phase: str = "pristine",
    plan=None,
) -> List[Diagnostic]:
    """All diagnostics of one translation unit, suppressions applied.

    One index of the unit serves the race lint, the weave verifier and
    the suppression spans; the line map is rendered on first use.
    """
    from repro.analysis.flagsafety import check_unit_flag_safety

    index = NodeIndex(unit)
    lines = SourceMap(unit)
    diagnostics = check_unit_races(unit, filename, lines, phase, index)
    if phase == "pristine":
        # flag-safety is a property of the original kernel; running it
        # on the woven clones would only repeat each finding per version
        diagnostics.extend(check_unit_flag_safety(unit, filename, lines, phase))
    if plan is not None:
        diagnostics.extend(verify_weave(unit, plan, filename, lines, index))
    return apply_suppressions(diagnostics, collect_suppressions(unit, index))


def check_source_text(text: str, filename: str = "<source>") -> List[Diagnostic]:
    """Lint arbitrary C text (parse + race rules)."""
    unit = parse(text, name=filename)
    return check_unit(unit, filename, phase="pristine")


def check_app(app, include_woven: bool = True, configs=None) -> List[Diagnostic]:
    """Lint a benchmark app: the pristine source and its woven output.

    The woven pass weaves with the same compiler-configuration set the
    toolflow uses (standard levels + the paper's custom flags) and
    runs both the race lint and the weave verifier over the result.
    """
    diagnostics = check_unit(app.parse(), filename=f"{app.name}.c", phase="pristine")
    if include_woven:
        from repro.gcc.flags import paper_custom_flags, standard_levels
        from repro.lara.metrics import weave_benchmark

        if configs is None:
            configs = standard_levels() + paper_custom_flags()
        _, weaver = weave_benchmark(app, configs)
        diagnostics.extend(
            check_unit(
                weaver.unit,
                filename=f"{app.name}.weaved.c",
                phase="woven",
                plan=weaver.plan,
            )
        )
    return diagnostics


def check_apps(
    apps: Sequence, include_woven: bool = True, configs=None
) -> CheckReport:
    """Run :func:`check_app` over many apps into one report."""
    report = CheckReport()
    for app in apps:
        units = 2 if include_woven else 1
        report.extend(
            check_app(app, include_woven=include_woven, configs=configs),
            units=units,
        )
    return report
