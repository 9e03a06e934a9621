"""The weave verifier (rules WV101-WV106).

Statically checks a woven translation unit against its
:class:`~repro.lara.weaver.WeavePlan`: dispatch coverage and the safe
default arm, per-clone pragma consistency, call-site rewriting,
single declaration of the control variables, and the mARGOt weave
points of :mod:`repro.margot.weavepoints` in their required order.
Every violation is an error-severity diagnostic — a broken weave
silently corrupts every downstream DSE point, so the toolflow treats
these as hard failures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import diagnose
from repro.cir import ast
from repro.cir.index import NodeIndex
from repro.cir.printer import SourceMap
from repro.gcc.flags import parse_pragma
from repro.lara.strategies.multiversioning import THREADS_VARIABLE, VERSION_VARIABLE
from repro.margot import weavepoints
from repro.cir.dataflow import is_parallel_for_pragma, parse_omp_clauses


def _call_name(stmt: ast.Stmt) -> Optional[str]:
    """Name of the direct call when ``stmt`` is ``f(...);``, else None."""
    if isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.Call):
        return stmt.expr.name
    return None


def _dispatch_arms(
    wrapper: ast.FunctionDef,
) -> Tuple[List[Tuple[Optional[int], str]], bool, Optional[ast.Node]]:
    """Walk the wrapper's if-else dispatch chain.

    Returns (arms, has_default, offending_node): ``arms`` is a list of
    (matched version index or None for the default, callee name);
    ``has_default`` is True when the chain ends in an unconditional
    call; ``offending_node`` points at the first unrecognized shape.
    """
    arms: List[Tuple[Optional[int], str]] = []
    if len(wrapper.body.stmts) != 1:
        return arms, False, wrapper
    stmt: Optional[ast.Stmt] = wrapper.body.stmts[0]
    while stmt is not None:
        if isinstance(stmt, ast.If):
            cond = stmt.cond
            index: Optional[int] = None
            if (
                isinstance(cond, ast.BinOp)
                and cond.op == "=="
                and isinstance(cond.lhs, ast.Ident)
                and cond.lhs.name == VERSION_VARIABLE
                and isinstance(cond.rhs, ast.IntLit)
            ):
                index = cond.rhs.value
            else:
                return arms, False, stmt
            then = stmt.then
            body_stmts = then.stmts if isinstance(then, ast.Block) else [then]
            if len(body_stmts) != 1:
                return arms, False, stmt
            callee = _call_name(body_stmts[0])
            if callee is None:
                return arms, False, stmt
            arms.append((index, callee))
            stmt = stmt.other
            if stmt is None:
                return arms, False, None  # chain ended without a default arm
            continue
        callee = _call_name(stmt)
        if callee is None:
            return arms, False, stmt
        arms.append((None, callee))
        return arms, True, None
    return arms, False, None


def _check_kernel(
    unit: ast.TranslationUnit,
    result,  # MultiversioningResult
    filename: str,
    lines: Optional[SourceMap],
    index: NodeIndex,
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    kernel = result.kernel
    wrapper_name = result.wrapper
    version_names = list(result.version_names)

    # -- versions exist, with consistent pragmas (WV101 / WV103) --------------
    for name, spec in zip(version_names, result.versions):
        if not unit.has_function(name):
            diagnostics.append(
                diagnose(
                    "WV101",
                    f"cloned version {name!r} of kernel {kernel!r} is missing",
                    filename=filename,
                    phase="woven",
                    function=kernel,
                    hint="the Multiversioning strategy must emit one clone per VersionSpec",
                )
            )
            continue
        clone = unit.function(name)
        diagnostics.extend(
            _check_clone_pragmas(clone, spec, filename, lines, index)
        )

    # -- wrapper dispatch (WV101 / WV102) -------------------------------------
    if not unit.has_function(wrapper_name):
        diagnostics.append(
            diagnose(
                "WV101",
                f"dispatch wrapper {wrapper_name!r} for kernel {kernel!r} is missing",
                filename=filename,
                phase="woven",
                function=kernel,
            )
        )
    else:
        wrapper = unit.function(wrapper_name)
        diagnostics.extend(
            _check_wrapper(wrapper, version_names, kernel, filename, lines)
        )

    # -- original call sites rewritten (WV104) --------------------------------
    skip = set(version_names) | {wrapper_name, kernel}
    for func in unit.functions():
        if func.name in skip:
            continue
        for node in index.calls_to(kernel, within=func.body):
            diagnostics.append(
                diagnose(
                    "WV104",
                    f"call to original kernel {kernel!r} survived weaving",
                    filename=filename,
                    phase="woven",
                    function=func.name,
                    node=node,
                    lines=lines,
                    hint=f"rewrite the call to {wrapper_name!r}",
                )
            )
    return diagnostics


def _check_clone_pragmas(
    clone: ast.FunctionDef,
    spec,  # VersionSpec
    filename: str,
    lines: Optional[SourceMap],
    index: Optional[NodeIndex] = None,
) -> List[Diagnostic]:
    if index is None:
        index = NodeIndex(clone.body)
    diagnostics: List[Diagnostic] = []
    configs = []
    for pragma in clone.pragmas:
        if pragma.is_gcc_optimize:
            try:
                configs.append(parse_pragma(pragma.text))
            except ValueError:
                pass
    if spec.compiler not in configs:
        diagnostics.append(
            diagnose(
                "WV103",
                f"clone {clone.name!r} lacks the '#pragma {spec.compiler.pragma_text}' "
                f"of its VersionSpec",
                filename=filename,
                phase="woven",
                function=clone.name,
                node=clone,
                lines=lines,
                hint="attach the FlagConfiguration pragma when cloning",
            )
        )
    for node in index.select(ast.Pragma, within=clone.body):
        if not is_parallel_for_pragma(node):
            continue
        clauses = parse_omp_clauses(node.text)
        if clauses.num_threads != THREADS_VARIABLE:
            diagnostics.append(
                diagnose(
                    "WV103",
                    f"parallel-for pragma of clone {clone.name!r} does not set "
                    f"num_threads({THREADS_VARIABLE})",
                    filename=filename,
                    phase="woven",
                    function=clone.name,
                    node=node,
                    lines=lines,
                    hint="the thread count must stay a runtime control variable",
                )
            )
        if clauses.proc_bind != spec.binding.omp_name:
            diagnostics.append(
                diagnose(
                    "WV103",
                    f"parallel-for pragma of clone {clone.name!r} has "
                    f"proc_bind({clauses.proc_bind or 'none'}), VersionSpec "
                    f"requires proc_bind({spec.binding.omp_name})",
                    filename=filename,
                    phase="woven",
                    function=clone.name,
                    node=node,
                    lines=lines,
                )
            )
    return diagnostics


def _check_wrapper(
    wrapper: ast.FunctionDef,
    version_names: List[str],
    kernel: str,
    filename: str,
    lines: Optional[SourceMap],
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    arms, has_default, offending = _dispatch_arms(wrapper)
    if offending is not None:
        diagnostics.append(
            diagnose(
                "WV101",
                f"wrapper {wrapper.name!r} has an unrecognized dispatch shape "
                f"(expected an if-else chain on {VERSION_VARIABLE})",
                filename=filename,
                phase="woven",
                function=wrapper.name,
                node=offending,
                lines=lines,
            )
        )
        return diagnostics
    called = [callee for _, callee in arms]
    if sorted(called) != sorted(version_names) or len(called) != len(version_names):
        missing = sorted(set(version_names) - set(called))
        extra = sorted(set(called) - set(version_names))
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"unexpected {extra}")
        diagnostics.append(
            diagnose(
                "WV101",
                f"wrapper {wrapper.name!r} dispatches to {len(called)} version(s), "
                f"plan has {len(version_names)}: " + "; ".join(detail or ["order/arity mismatch"]),
                filename=filename,
                phase="woven",
                function=wrapper.name,
                node=wrapper,
                lines=lines,
                hint="one dispatch arm per VersionSpec, in index order",
            )
        )
    for arm_index, (matched, callee) in enumerate(arms):
        if matched is not None and matched != arm_index:
            diagnostics.append(
                diagnose(
                    "WV101",
                    f"wrapper {wrapper.name!r} arm {arm_index} tests "
                    f"{VERSION_VARIABLE} == {matched}",
                    filename=filename,
                    phase="woven",
                    function=wrapper.name,
                    node=wrapper,
                    lines=lines,
                )
            )
    if not has_default:
        diagnostics.append(
            diagnose(
                "WV102",
                f"wrapper {wrapper.name!r} has no unconditional default arm: "
                f"an out-of-range {VERSION_VARIABLE} would compute nothing",
                filename=filename,
                phase="woven",
                function=wrapper.name,
                node=wrapper,
                lines=lines,
                hint="make the last version the else arm of the dispatch chain",
            )
        )
    return diagnostics


def _check_control_variables(
    unit: ast.TranslationUnit,
    filename: str,
    lines: Optional[SourceMap],
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    counts: Dict[str, int] = {VERSION_VARIABLE: 0, THREADS_VARIABLE: 0}
    for decl in unit.decls:
        if isinstance(decl, ast.Decl) and decl.name in counts:
            counts[decl.name] += 1
    for name, count in counts.items():
        if count != 1:
            diagnostics.append(
                diagnose(
                    "WV105",
                    f"control variable {name!r} declared {count} time(s) at "
                    f"file scope, expected exactly once",
                    filename=filename,
                    phase="woven",
                    hint="the Multiversioning strategy declares each control "
                    "variable once before the first kernel",
                )
            )
    return diagnostics


def _check_margot_points(
    unit: ast.TranslationUnit,
    plan,
    filename: str,
    lines: Optional[SourceMap],
    index: NodeIndex,
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    if not any(
        isinstance(decl, ast.Include) and decl.target == weavepoints.MARGOT_HEADER
        for decl in unit.decls
    ):
        diagnostics.append(
            diagnose(
                "WV106",
                f"woven unit does not include {weavepoints.MARGOT_HEADER!r}",
                filename=filename,
                phase="woven",
            )
        )
    # init at the entry of main
    if not unit.has_function(plan.main):
        diagnostics.append(
            diagnose(
                "WV106",
                f"entry function {plan.main!r} not found; cannot verify "
                f"{weavepoints.INIT_CALL}()",
                filename=filename,
                phase="woven",
            )
        )
    else:
        main = unit.function(plan.main)
        first = main.body.stmts[0] if main.body.stmts else None
        if first is None or _call_name(first) != weavepoints.INIT_CALL:
            diagnostics.append(
                diagnose(
                    "WV106",
                    f"{weavepoints.INIT_CALL}() is not the "
                    f"{weavepoints.INIT_POINT.placement}",
                    filename=filename,
                    phase="woven",
                    function=plan.main,
                    node=first or main,
                    lines=lines,
                )
            )
    # update/start/stop/log around every wrapper call
    wrappers = set(plan.wrappers)
    clones = {name for result in plan.kernels for name in result.version_names}
    for func in unit.functions():
        if func.name in wrappers or func.name in clones:
            continue
        for block in index.select(ast.Block, within=func.body):
            for position, stmt in enumerate(block.stmts):
                call = _wrapper_call_in(stmt, wrappers, index)
                if call is None:
                    continue
                diagnostics.extend(
                    _check_call_site(
                        block, position, func.name, call, filename, lines
                    )
                )
    return diagnostics


def _wrapper_call_in(stmt: ast.Stmt, wrappers, index: NodeIndex) -> Optional[str]:
    """The wrapper name when ``stmt``'s subtree calls one, else None."""
    if isinstance(stmt, (ast.Block, ast.If, ast.For, ast.While, ast.DoWhile)):
        return None  # the call site anchor is the direct statement
    for node in index.select(ast.Call, within=stmt):
        if node.name in wrappers:
            return node.name
    return None


def _check_call_site(
    block: ast.Block,
    index: int,
    function: str,
    wrapper: str,
    filename: str,
    lines: Optional[SourceMap],
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    anchor = block.stmts[index]
    expected_before = list(weavepoints.CALL_SITE_PRELUDE)
    expected_after = list(weavepoints.CALL_SITE_POSTLUDE)
    for offset, point in enumerate(expected_before, start=1):
        neighbor = block.stmts[index - offset] if index - offset >= 0 else None
        actual = _call_name(neighbor) if neighbor is not None else None
        if actual != point.call:
            diagnostics.append(
                diagnose(
                    "WV106",
                    f"{point.call}() must be the {point.placement} to "
                    f"{wrapper!r} (found {actual or 'nothing'})",
                    filename=filename,
                    phase="woven",
                    function=function,
                    node=anchor,
                    lines=lines,
                    hint=f"required order: "
                    + ", ".join(weavepoints.CALL_SITE_SEQUENCE),
                )
            )
    for offset, point in enumerate(expected_after, start=1):
        position = index + offset
        neighbor = block.stmts[position] if position < len(block.stmts) else None
        actual = _call_name(neighbor) if neighbor is not None else None
        if actual != point.call:
            diagnostics.append(
                diagnose(
                    "WV106",
                    f"{point.call}() must be the {point.placement} to "
                    f"{wrapper!r} (found {actual or 'nothing'})",
                    filename=filename,
                    phase="woven",
                    function=function,
                    node=anchor,
                    lines=lines,
                    hint=f"required order: "
                    + ", ".join(weavepoints.CALL_SITE_SEQUENCE),
                )
            )
    return diagnostics


def verify_weave(
    unit: ast.TranslationUnit,
    plan,
    filename: str = "<woven>",
    lines: Optional[SourceMap] = None,
    index: Optional[NodeIndex] = None,
) -> List[Diagnostic]:
    """Check a woven unit against its weave plan.

    Returns every structural violation as an error diagnostic; an
    empty list means the weave is structurally sound.  ``index`` must
    describe ``unit`` as it is now; without one the unit is indexed
    once here.
    """
    if index is None:
        index = NodeIndex(unit)
    diagnostics: List[Diagnostic] = []
    for result in plan.kernels:
        diagnostics.extend(_check_kernel(unit, result, filename, lines, index))
    diagnostics.extend(_check_control_variables(unit, filename, lines))
    diagnostics.extend(_check_margot_points(unit, plan, filename, lines, index))
    return diagnostics
