"""Tests for the weave verifier (rules WV101-WV106).

Each break case weaves a real benchmark, mutates the woven unit the
way a buggy strategy would, and asserts the exact rule fires with a
usable location.
"""

import copy

import pytest

from repro.analysis import Severity, check_unit, verify_weave
from repro.cir import ast, parse
from repro.cir.printer import to_source_with_map
from repro.cir.dataflow import parallel_regions
from repro.cir.visitor import walk
from repro.gcc.flags import paper_custom_flags, standard_levels
from repro.lara.metrics import weave_benchmark
from repro.lara.strategies.multiversioning import THREADS_VARIABLE
from repro.polybench.suite import load


def _weave(name="mvt"):
    configs = standard_levels() + paper_custom_flags()
    _, weaver = weave_benchmark(load(name), configs)
    return weaver


def _rules(diagnostics):
    return sorted({d.rule for d in diagnostics})


class TestCleanWeave:
    def test_woven_suite_sample_verifies_clean(self):
        weaver = _weave()
        _, lines = to_source_with_map(weaver.unit)
        assert verify_weave(weaver.unit, weaver.plan, "mvt.weaved.c", lines) == []

    def test_plan_populated_by_weave_benchmark(self):
        weaver = _weave()
        assert weaver.plan is not None
        assert weaver.plan.kernels and weaver.plan.wrappers
        assert weaver.plan.main == "main"


class TestBreakCases:
    def test_dropped_call_site_rewrite_fires_wv104(self):
        weaver = _weave()
        result = weaver.plan.kernels[0]
        # un-rewrite the first wrapper call back to the original kernel
        reverted = None
        for func in weaver.unit.functions():
            if func.name in set(result.version_names) | {result.wrapper}:
                continue
            for node in walk(func.body):
                if isinstance(node, ast.Call) and node.name == result.wrapper:
                    node.func.name = result.kernel
                    reverted = func.name
                    break
            if reverted:
                break
        assert reverted is not None
        diags = check_unit(weaver.unit, "mvt.weaved.c", phase="woven", plan=weaver.plan)
        wv104 = [d for d in diags if d.rule == "WV104"]
        assert wv104, f"expected WV104, got {_rules(diags)}"
        assert wv104[0].severity is Severity.ERROR
        assert wv104[0].function == reverted
        assert wv104[0].line is not None
        assert result.kernel in wv104[0].message

    def test_stripped_proc_bind_fires_wv103(self):
        weaver = _weave()
        result = weaver.plan.kernels[0]
        clone = weaver.unit.function(result.version_names[0])
        stripped = 0
        for node in walk(clone.body):
            if isinstance(node, ast.Pragma) and "proc_bind" in node.text:
                node.text = node.text[: node.text.index("proc_bind")].rstrip()
                stripped += 1
        assert stripped
        diags = verify_weave(weaver.unit, weaver.plan, "mvt.weaved.c")
        wv103 = [d for d in diags if d.rule == "WV103"]
        assert wv103
        assert all(d.severity is Severity.ERROR for d in wv103)
        assert any("proc_bind" in d.message for d in wv103)
        assert wv103[0].function == clone.name

    def test_wrong_num_threads_fires_wv103(self):
        weaver = _weave()
        result = weaver.plan.kernels[0]
        clone = weaver.unit.function(result.version_names[0])
        for node in walk(clone.body):
            if isinstance(node, ast.Pragma) and THREADS_VARIABLE in node.text:
                node.text = node.text.replace(THREADS_VARIABLE, "4")
        diags = verify_weave(weaver.unit, weaver.plan, "mvt.weaved.c")
        assert any(
            d.rule == "WV103" and "num_threads" in d.message for d in diags
        )

    def test_removed_default_arm_fires_wv102(self):
        weaver = _weave()
        result = weaver.plan.kernels[0]
        wrapper = weaver.unit.function(result.wrapper)
        # drop the unconditional else arm at the end of the chain
        stmt = wrapper.body.stmts[0]
        assert isinstance(stmt, ast.If)
        while isinstance(stmt.other, ast.If):
            stmt = stmt.other
        assert stmt.other is not None
        stmt.other = None
        diags = verify_weave(weaver.unit, weaver.plan, "mvt.weaved.c")
        rules = _rules(diags)
        assert "WV102" in rules
        # the dropped arm also breaks dispatch coverage
        assert "WV101" in rules
        wv102 = [d for d in diags if d.rule == "WV102"][0]
        assert wv102.severity is Severity.ERROR
        assert wv102.function == result.wrapper

    def test_injected_shared_write_fires_omp001(self):
        weaver = _weave()
        result = weaver.plan.kernels[0]
        clone = weaver.unit.function(result.version_names[0])
        region = parallel_regions(clone)[0]
        helper = parse("void h(double sum) { sum = sum + 1.0; }").function("h")
        race = helper.body.stmts[0]
        region.loop.body = ast.Block(stmts=[region.loop.body, race])
        diags = check_unit(weaver.unit, "mvt.weaved.c", phase="woven", plan=weaver.plan)
        omp001 = [d for d in diags if d.rule == "OMP001"]
        assert omp001
        assert omp001[0].severity is Severity.ERROR
        assert omp001[0].function == clone.name
        assert omp001[0].line is not None
        assert "'sum'" in omp001[0].message
        assert "reduction(+:sum)" in omp001[0].hint

    def test_duplicated_control_variable_fires_wv105(self):
        weaver = _weave()
        for index, decl in enumerate(weaver.unit.decls):
            if isinstance(decl, ast.Decl) and decl.name == THREADS_VARIABLE:
                weaver.unit.decls.insert(index, copy.deepcopy(decl))
                break
        diags = verify_weave(weaver.unit, weaver.plan, "mvt.weaved.c")
        wv105 = [d for d in diags if d.rule == "WV105"]
        assert wv105 and "2 time(s)" in wv105[0].message

    def test_removed_margot_log_fires_wv106(self):
        weaver = _weave()
        removed = False
        main = weaver.unit.function("main")
        for block in (n for n in walk(main.body) if isinstance(n, ast.Block)):
            for stmt in list(block.stmts):
                if (
                    isinstance(stmt, ast.ExprStmt)
                    and isinstance(stmt.expr, ast.Call)
                    and stmt.expr.name == "margot_log"
                ):
                    block.stmts.remove(stmt)
                    removed = True
                    break
            if removed:
                break
        assert removed
        diags = verify_weave(weaver.unit, weaver.plan, "mvt.weaved.c")
        wv106 = [d for d in diags if d.rule == "WV106"]
        assert wv106
        assert any("margot_log" in d.message for d in wv106)

    def test_missing_clone_fires_wv101(self):
        weaver = _weave()
        result = weaver.plan.kernels[0]
        victim = result.version_names[0]
        weaver.unit.decls = [
            d
            for d in weaver.unit.decls
            if not (isinstance(d, ast.FunctionDef) and d.name == victim)
        ]
        diags = verify_weave(weaver.unit, weaver.plan, "mvt.weaved.c")
        wv101 = [d for d in diags if d.rule == "WV101"]
        assert any(victim in d.message for d in wv101)


class TestLazyLineMap:
    """The gate prints a unit for its line map only when a diagnostic
    needs a line, and then gives the lines an eager map gives."""

    @staticmethod
    def _count_maps(monkeypatch):
        import repro.cir.printer as printer

        calls = []
        eager = printer.to_source_with_map

        def counting(node):
            calls.append(node)
            return eager(node)

        monkeypatch.setattr(printer, "to_source_with_map", counting)
        return calls

    def test_clean_woven_units_are_never_printed(self, monkeypatch):
        from repro.polybench.suite import BENCHMARK_NAMES

        calls = self._count_maps(monkeypatch)
        for name in BENCHMARK_NAMES:
            weaver = _weave(name)
            diags = check_unit(
                weaver.unit, f"{name}.weaved.c", phase="woven", plan=weaver.plan
            )
            assert diags == [], name
        assert calls == []

    def test_planted_wv103_lines_match_the_eager_map(self, monkeypatch):
        weaver = _weave("2mm")
        result = weaver.plan.kernels[0]
        clone = weaver.unit.function(result.version_names[3])
        pragma = next(
            node
            for node in walk(clone.body)
            if isinstance(node, ast.Pragma) and THREADS_VARIABLE in node.text
        )
        pragma.text = pragma.text.replace(f" num_threads({THREADS_VARIABLE})", "")
        calls = self._count_maps(monkeypatch)
        diags = check_unit(weaver.unit, "2mm.weaved.c", phase="woven", plan=weaver.plan)
        assert len(calls) == 1  # rendered once, for the first line asked
        assert [d.rule for d in diags] == ["WV103"]
        _, eager = to_source_with_map(weaver.unit)
        nodes = {id(node): node for node in walk(weaver.unit)}
        for diag in diags:
            assert diag.anchor_id == id(pragma)
            assert diag.line is not None
            assert diag.line == eager.line_of(nodes[diag.anchor_id])


class TestToolflowGate:
    def test_broken_weave_aborts_the_build(self, monkeypatch):
        from repro.core.toolflow import SocratesToolflow, WeaveVerificationError
        import repro.core.toolflow as toolflow_mod

        original = toolflow_mod.weave_benchmark

        def sabotage(app, configs):
            report, weaver = original(app, configs)
            result = weaver.plan.kernels[0]
            wrapper = weaver.unit.function(result.wrapper)
            stmt = wrapper.body.stmts[0]
            while isinstance(stmt.other, ast.If):
                stmt = stmt.other
            stmt.other = None
            return report, weaver

        monkeypatch.setattr(toolflow_mod, "weave_benchmark", sabotage)
        flow = SocratesToolflow(thread_counts=[1], dse_repetitions=1)
        with pytest.raises(WeaveVerificationError, match="WV10"):
            flow.build(load("mvt"))

    def test_clean_build_reports_diagnostics_list(self):
        from repro.core.toolflow import SocratesToolflow

        flow = SocratesToolflow(thread_counts=[1, 4], dse_repetitions=1)
        result = flow.build(load("mvt"))
        assert result.check_diagnostics == []

    def test_gate_surfaces_warnings_via_obs(self, monkeypatch):
        from repro.core.toolflow import SocratesToolflow
        from repro.obs import Observability
        import repro.core.toolflow as toolflow_mod

        original = toolflow_mod.weave_benchmark

        def inject_warning(app, configs):
            report, weaver = original(app, configs)
            result = weaver.plan.kernels[0]
            clone = weaver.unit.function(result.version_names[0])
            region = parallel_regions(clone)[0]
            helper = parse(
                "void h(void) { B[0] = B[0] + 1.0; }"
            ).function("h")
            region.loop.body = ast.Block(
                stmts=[region.loop.body, helper.body.stmts[0]]
            )
            return report, weaver

        monkeypatch.setattr(toolflow_mod, "weave_benchmark", inject_warning)
        obs = Observability()
        flow = SocratesToolflow(thread_counts=[1], dse_repetitions=1, obs=obs)
        result = flow.build(load("mvt"))
        assert any(d.rule == "OMP002" for d in result.check_diagnostics)
        from repro.obs.export import prometheus_text

        dump = prometheus_text(obs.metrics)
        assert "socrates_check_diagnostics_total" in dump
        assert obs.audit.checks and obs.audit.checks[0].rule == "OMP002"
        # the adaptation JSONL schema is untouched by check traces
        assert obs.audit.as_dicts() == []
