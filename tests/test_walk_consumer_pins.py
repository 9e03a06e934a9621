"""Pins of every whole-unit traversal the weaver and the weave gate make.

The LARA join-point selections, the Autotuner's call-site lookups, the
OpenMP race lint's region and scope queries, the suppression spans and
the weave verifier each answer a question about one translation unit.
These pins state each answer as the plain ``walk``-based computation
gives it (the ``_ref_*`` helpers below), in ``walk`` order, for the
twelve benchmark units at three points of the weave:

* ``pristine`` — the parsed source;
* ``multiversioned`` — after the Multiversioning strategy alone (the
  unit the Autotuner selects from);
* ``woven`` — after both strategies (the unit the post-weave gate
  checks).

Node identity is compared with ``id``: a consumer must return the very
nodes of the unit, not copies.  The weave verifier's diagnostics on
planted defects are pinned byte-for-byte (rule, function, line,
message) in ``tests/golden/walk_consumers.json``.  Regenerate after an
intended change with::

    PYTHONPATH=src python -c "import json, tests.test_walk_consumer_pins as t; \\
        print(json.dumps(t.snapshot(), indent=1, sort_keys=True))" \\
        > tests/golden/walk_consumers.json
"""

import json
from pathlib import Path

import pytest

from repro.analysis import weavecheck
from repro.analysis.checker import check_unit, collect_suppressions, parse_suppress_pragma
from repro.cir import ast
from repro.cir.analysis import LoopInfo
from repro.cir.dataflow import declared_names, is_parallel_for_pragma, parallel_regions
from repro.cir.dataflow import parse_omp_clauses
from repro.cir.visitor import walk
from repro.gcc.flags import paper_custom_flags, standard_levels
from repro.lara.joinpoint import FunctionJp, LoopJp
from repro.lara.metrics import default_versions, weave_benchmark
from repro.lara.strategies.autotuner import AutotunerStrategy
from repro.lara.strategies.multiversioning import THREADS_VARIABLE, MultiversioningStrategy
from repro.lara.weaver import Weaver
from repro.polybench.suite import BENCHMARK_NAMES, load

GOLDEN = Path(__file__).parent / "golden" / "walk_consumers.json"
PHASES = ("pristine", "multiversioned", "woven")


def _configs():
    return standard_levels() + paper_custom_flags()


def _phase_weaver(name: str, phase: str) -> Weaver:
    app = load(name)
    if phase == "woven":
        return weave_benchmark(app, _configs())[1]
    weaver = Weaver(app.parse())
    if phase == "multiversioned":
        strategy = MultiversioningStrategy(default_versions(_configs()))
        strategy.apply(weaver, list(app.kernels))
    return weaver


# ---------------------------------------------------------------------------
# walk-based references
# ---------------------------------------------------------------------------


def _ids(nodes):
    return [id(node) for node in nodes]


def _ref_select(root, cls):
    return [node for node in walk(root) if isinstance(node, cls)]


def _ref_calls_to(unit, callee):
    """(matching calls, name attributes checked) of a unit-wide select."""
    matches, checked = [], 0
    for func in unit.functions():
        for node in _ref_select(func.body, ast.Call):
            checked += 1
            if node.name == callee:
                matches.append(node)
    return matches, checked


def _ref_owner(unit, call):
    for func in unit.functions():
        if any(node is call for node in walk(func.body)):
            return func
    return None


def _ref_parallel_regions(func):
    regions, seen = [], set()
    for block in _ref_select(func.body, ast.Block):
        for index, stmt in enumerate(block.stmts):
            if not isinstance(stmt, ast.Pragma) or not is_parallel_for_pragma(stmt):
                continue
            if id(stmt) in seen:
                continue
            seen.add(id(stmt))
            after = block.stmts[index + 1] if index + 1 < len(block.stmts) else None
            loop = after if isinstance(after, ast.For) else None
            regions.append((id(stmt), id(loop) if loop else None, parse_omp_clauses(stmt.text)))
    return regions


def _ref_declared_names(node):
    return frozenset(n.name for n in walk(node) if isinstance(n, ast.Decl))


def _ref_subtree_ids(node):
    return frozenset(id(n) for n in walk(node))


def _ref_suppressions(unit):
    spans = []
    for func in unit.functions():
        for pragma in func.pragmas:
            rules = parse_suppress_pragma(pragma.text)
            if rules:
                spans.append((_ref_subtree_ids(func) | {id(func)}, rules))
        for block in _ref_select(func.body, ast.Block):
            for index, stmt in enumerate(block.stmts):
                if not isinstance(stmt, ast.Pragma):
                    continue
                rules = parse_suppress_pragma(stmt.text)
                if not rules or index + 1 >= len(block.stmts):
                    continue
                ids, position = set(), index + 1
                while position < len(block.stmts) and isinstance(
                    block.stmts[position], ast.Pragma
                ):
                    ids |= _ref_subtree_ids(block.stmts[position])
                    position += 1
                if position < len(block.stmts):
                    ids |= _ref_subtree_ids(block.stmts[position])
                spans.append((frozenset(ids), rules))
    return spans


def _ref_clone_pragma_anchors(clone, spec):
    """Anchor ids of the per-pragma WV103 findings, in order."""
    anchors = []
    for node in _ref_select(clone.body, ast.Pragma):
        if not is_parallel_for_pragma(node):
            continue
        clauses = parse_omp_clauses(node.text)
        if clauses.num_threads != THREADS_VARIABLE:
            anchors.append(id(node))
        if clauses.proc_bind != spec.binding.omp_name:
            anchors.append(id(node))
    return anchors


# ---------------------------------------------------------------------------
# planted inputs
# ---------------------------------------------------------------------------


def _plant_suppressions(unit):
    """Suppress pragmas before every other function and, in every
    block, before the first, a middle and the last statement (the last
    one covers nothing), so every span shape occurs."""
    for position, func in enumerate(unit.functions()):
        if position % 2 == 0:
            func.pragmas.append(ast.Pragma(text="socrates suppress(OMP001, WV104)"))
        blocks = _ref_select(func.body, ast.Block)
        for block in blocks:
            count = len(block.stmts)
            for index in sorted({0, count // 2, count}, reverse=True):
                block.stmts.insert(index, ast.Pragma(text="socrates suppress(OMP002)"))
    return unit


def _corrupt_clone_pragmas(unit, plan):
    """Drop ``num_threads`` from the second clone's parallel-for
    pragmas and flip the last clone's ``proc_bind``."""
    result = plan.kernels[0]
    second = unit.function(result.version_names[1])
    for node in _ref_select(second.body, ast.Pragma):
        node.text = node.text.replace(f" num_threads({THREADS_VARIABLE})", "")
    last = unit.function(result.version_names[-1])
    for node in _ref_select(last.body, ast.Pragma):
        node.text = node.text.replace("proc_bind(spread)", "proc_bind(master)")
    # and drop the margot_log of the first instrumented call site
    for func in unit.functions():
        for block in _ref_select(func.body, ast.Block):
            for stmt in block.stmts:
                if isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.Call):
                    if stmt.expr.name == "margot_log":
                        block.stmts.remove(stmt)
                        return unit
    return unit


def _revert_call_sites(unit, plan):
    """Point every call of the first wrapper back at the original kernel."""
    result = plan.kernels[0]
    for func in unit.functions():
        for node in _ref_select(func.body, ast.Call):
            if node.name == result.wrapper:
                node.func.name = result.kernel
    return unit


def _diagnostic_rows(diagnostics):
    return [[d.rule, d.function, d.line, d.message] for d in diagnostics]


def snapshot() -> dict:
    """Gate diagnostics on the planted woven units of every app."""
    rows = {}
    for name in BENCHMARK_NAMES:
        filename = f"{name}.weaved.c"
        corrupt = _phase_weaver(name, "woven")
        _corrupt_clone_pragmas(corrupt.unit, corrupt.plan)
        reverted = _phase_weaver(name, "woven")
        _revert_call_sites(reverted.unit, reverted.plan)
        rows[name] = {
            "corrupt_pragmas": _diagnostic_rows(
                check_unit(corrupt.unit, filename, phase="woven", plan=corrupt.plan)
            ),
            "reverted_calls": _diagnostic_rows(
                check_unit(reverted.unit, filename, phase="woven", plan=reverted.plan)
            ),
        }
    return rows


# ---------------------------------------------------------------------------
# pins
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=[(n, p) for n in BENCHMARK_NAMES for p in PHASES],
                ids=lambda param: f"{param[0]}-{param[1]}")
def phase_weaver(request):
    return _phase_weaver(*request.param)


@pytest.fixture(scope="module", params=BENCHMARK_NAMES)
def woven_weaver(request):
    return _phase_weaver(request.param, "woven")


class TestJoinPointSelections:
    def test_function_pragmas_loops_calls(self, phase_weaver):
        for func in phase_weaver.unit.functions():
            jp = FunctionJp(phase_weaver, func)
            assert _ids(p.node for p in jp.pragmas()) == _ids(_ref_select(func.body, ast.Pragma))
            assert _ids(p.node for p in jp.loops()) == _ids(_ref_select(func.body, ast.For))
            assert _ids(p.node for p in jp.calls()) == _ids(_ref_select(func.body, ast.Call))

    def test_loop_attributes(self, phase_weaver):
        for func in phase_weaver.unit.functions():
            for loop_jp in FunctionJp(phase_weaver, func).loops():
                loop = loop_jp.node
                before = phase_weaver.metrics.attributes_checked
                assert loop_jp.attr("is_innermost") == (not _ref_select(loop.body, ast.For))
                assert loop_jp.attr("induction_variable") == (
                    LoopInfo(node=loop, depth=0).induction_variable
                )
                assert phase_weaver.metrics.attributes_checked == before + 2
            direct = [LoopJp(phase_weaver, loop) for loop in _ref_select(func.body, ast.For)]
            assert [jp.attr("is_innermost") for jp in direct] == [
                not _ref_select(jp.node.body, ast.For) for jp in direct
            ]

    def test_select_calls_to_and_attribute_count(self, phase_weaver):
        unit = phase_weaver.unit
        callees = sorted({call.name for call in _ref_select(unit, ast.Call) if call.name})
        assert callees
        for callee in callees + ["no_such_function"]:
            expected, checked = _ref_calls_to(unit, callee)
            before = phase_weaver.metrics.attributes_checked
            selected = phase_weaver.select_calls_to(callee)
            assert _ids(jp.node for jp in selected) == _ids(expected)
            assert phase_weaver.metrics.attributes_checked == before + checked

    def test_owning_function_of_every_call(self, phase_weaver):
        unit = phase_weaver.unit
        for func in unit.functions():
            for call in _ref_select(func.body, ast.Call):
                owner = AutotunerStrategy._owning_function(phase_weaver, call)
                assert owner is _ref_owner(unit, call) is func
        with pytest.raises(RuntimeError):
            AutotunerStrategy._owning_function(phase_weaver, ast.Call(func=ast.Ident(name="x"), args=[]))


class TestGateQueries:
    def test_parallel_regions(self, phase_weaver):
        for func in phase_weaver.unit.functions():
            regions = parallel_regions(func)
            assert [
                (id(r.pragma), id(r.loop) if r.loop else None, r.clauses) for r in regions
            ] == _ref_parallel_regions(func)
            assert all(region.function is func for region in regions)

    def test_declared_names(self, phase_weaver):
        unit = phase_weaver.unit
        assert declared_names(unit) == _ref_declared_names(unit)
        for node in _ref_select(unit, (ast.Block, ast.For)):
            assert declared_names(node) == _ref_declared_names(node)

    def test_collect_suppressions(self, phase_weaver):
        unit = phase_weaver.unit.clone()
        assert collect_suppressions(unit) == _ref_suppressions(unit) == []
        _plant_suppressions(unit)
        spans = collect_suppressions(unit)
        assert spans == _ref_suppressions(unit)
        assert len(spans) > len(unit.functions())

    def test_clone_pragma_checks(self, woven_weaver):
        plan = woven_weaver.plan
        unit = woven_weaver.unit.clone()
        _corrupt_clone_pragmas(unit, plan)
        findings = 0
        for result in plan.kernels:
            for name, spec in zip(result.version_names, result.versions):
                clone = unit.function(name)
                diagnostics = weavecheck._check_clone_pragmas(clone, spec, "x.c", None)
                assert [d.anchor_id for d in diagnostics] == _ref_clone_pragma_anchors(clone, spec)
                findings += len(diagnostics)
        assert findings


class TestGateDiagnostics:
    def test_planted_defects_match_golden(self):
        assert snapshot() == json.loads(GOLDEN.read_text())
