"""Tests for the LARA weaving machinery and the two strategies."""

import pytest

from repro.cir import (
    Call,
    Decl,
    FunctionDef,
    Ident,
    IntLit,
    Pragma,
    Type,
    logical_lines,
    parse,
    to_source,
    walk,
)
from repro.gcc.flags import FlagConfiguration, OptLevel, standard_levels
from repro.lara.metrics import (
    default_versions,
    python_logical_lines,
    strategy_loc,
    weave_benchmark,
)
from repro.lara.strategies.autotuner import AutotunerStrategy
from repro.lara.strategies.multiversioning import (
    THREADS_VARIABLE,
    VERSION_VARIABLE,
    MultiversioningStrategy,
    VersionSpec,
)
from repro.lara.weaver import WeaveError, Weaver
from repro.machine.openmp import BindingPolicy
from repro.polybench.suite import load

SIMPLE = """
#include <stdio.h>
#define N 64
#define DATA_TYPE double

static DATA_TYPE A[N];

void kernel_scale(int n, DATA_TYPE alpha)
{
  int i;
#pragma omp parallel for
  for (i = 0; i < n; i++)
    A[i] = A[i] * alpha;
}

int main(int argc, char **argv)
{
  kernel_scale(N, 1.5);
  kernel_scale(N, 2.0);
  return 0;
}
"""


def simple_versions(count=2):
    configs = [FlagConfiguration(OptLevel.O2), FlagConfiguration(OptLevel.O3)][:count]
    return [
        VersionSpec(compiler=config, binding=binding)
        for config in configs
        for binding in (BindingPolicy.CLOSE, BindingPolicy.SPREAD)
    ]


@pytest.fixture
def weaver():
    return Weaver(parse(SIMPLE, name="simple.c"))


class TestWeaverPrimitives:
    def test_select_functions(self, weaver):
        names = [jp.attr("name") for jp in weaver.select_functions()]
        assert names == ["kernel_scale", "main"]
        assert weaver.metrics.attributes_checked == 2

    def test_select_missing_function_raises(self, weaver):
        with pytest.raises(WeaveError):
            weaver.select_function("nope")

    def test_attribute_reads_counted(self, weaver):
        jp = weaver.select_function("kernel_scale")
        before = weaver.metrics.attributes_checked
        jp.attr("signature")
        jp.attr("param_names")
        assert weaver.metrics.attributes_checked == before + 2

    def test_actions_counted(self, weaver):
        jp = weaver.select_function("kernel_scale")
        before = weaver.metrics.actions_performed
        weaver.clone_function(jp, "kernel_scale__copy")
        weaver.attach_pragma(jp, 'GCC optimize ("O2")')
        assert weaver.metrics.actions_performed == before + 2

    def test_clone_inserted_after_original(self, weaver):
        jp = weaver.select_function("kernel_scale")
        weaver.clone_function(jp, "kernel_scale__v0")
        names = [f.name for f in weaver.unit.functions()]
        assert names.index("kernel_scale__v0") == names.index("kernel_scale") + 1

    def test_clone_is_independent(self, weaver):
        jp = weaver.select_function("kernel_scale")
        clone = weaver.clone_function(jp, "kernel_scale__v0")
        clone.node.body.stmts.clear()
        assert jp.node.body.stmts  # original untouched

    def test_insert_include_once(self, weaver):
        weaver.insert_include("margot.h")
        weaver.insert_include("margot.h")
        includes = [d for d in weaver.unit.decls if type(d).__name__ == "Include"]
        assert sum(1 for d in includes if d.target == "margot.h") == 1

    def test_insert_global_before_first_function(self, weaver):
        weaver.insert_global(
            Decl(type=Type(name="int"), name="control", init=IntLit(text="0"))
        )
        printed = to_source(weaver.unit)
        assert printed.index("int control") < printed.index("void kernel_scale")

    def test_rename_call(self, weaver):
        calls = weaver.select_calls_to("kernel_scale")
        assert len(calls) == 2
        weaver.rename_call(calls[0], "kernel_scale__wrapper")
        printed = to_source(weaver.unit)
        assert "kernel_scale__wrapper(N, 1.5);" in printed
        assert "kernel_scale(N, 2.0);" in printed

    def test_statement_anchored_insertion(self, weaver):
        main = weaver.select_function("main").node
        call = weaver.select_calls_to("kernel_scale")[0].node
        anchor = weaver.statement_containing_call(main, call)
        marker = Decl(type=Type(name="int"), name="before_marker", init=IntLit(text="1"))
        weaver.insert_statement_before(main, anchor, marker)
        printed = to_source(weaver.unit)
        assert printed.index("before_marker") < printed.index("kernel_scale(N, 1.5)")


class TestMultiversioning:
    def test_versions_cloned_with_pragmas(self, weaver):
        strategy = MultiversioningStrategy(simple_versions())
        results = strategy.apply(weaver, ["kernel_scale"])
        result = results["kernel_scale"]
        assert len(result.version_names) == 4
        printed = to_source(weaver.unit)
        assert printed.count('#pragma GCC optimize ("O2")') == 2  # close+spread
        assert printed.count("proc_bind(spread)") == 2

    def test_omp_pragma_gains_runtime_thread_clause(self, weaver):
        strategy = MultiversioningStrategy(simple_versions())
        strategy.apply(weaver, ["kernel_scale"])
        printed = to_source(weaver.unit)
        assert f"num_threads({THREADS_VARIABLE})" in printed

    def test_original_kernel_pragma_untouched(self, weaver):
        strategy = MultiversioningStrategy(simple_versions())
        strategy.apply(weaver, ["kernel_scale"])
        original = weaver.unit.function("kernel_scale")
        pragmas = [n for n in walk(original.body) if isinstance(n, Pragma)]
        assert pragmas[0].text == "omp parallel for"

    def test_wrapper_dispatches_all_versions(self, weaver):
        strategy = MultiversioningStrategy(simple_versions())
        results = strategy.apply(weaver, ["kernel_scale"])
        wrapper = weaver.unit.function(results["kernel_scale"].wrapper)
        called = {
            node.name
            for node in walk(wrapper.body)
            if isinstance(node, Call) and node.name
        }
        assert called == set(results["kernel_scale"].version_names)

    def test_wrapper_checks_version_variable(self, weaver):
        strategy = MultiversioningStrategy(simple_versions())
        results = strategy.apply(weaver, ["kernel_scale"])
        wrapper = weaver.unit.function(results["kernel_scale"].wrapper)
        idents = {n.name for n in walk(wrapper.body) if isinstance(n, Ident)}
        assert VERSION_VARIABLE in idents

    def test_call_sites_rewritten(self, weaver):
        strategy = MultiversioningStrategy(simple_versions())
        results = strategy.apply(weaver, ["kernel_scale"])
        assert results["kernel_scale"].replaced_calls == 2
        printed = to_source(weaver.unit)
        assert "kernel_scale__wrapper(N, 1.5);" in printed

    def test_control_variables_declared(self, weaver):
        strategy = MultiversioningStrategy(simple_versions())
        strategy.apply(weaver, ["kernel_scale"])
        printed = to_source(weaver.unit)
        assert f"int {VERSION_VARIABLE}" in printed
        assert f"int {THREADS_VARIABLE}" in printed

    def test_weaved_source_reparses(self, weaver):
        strategy = MultiversioningStrategy(simple_versions())
        strategy.apply(weaver, ["kernel_scale"])
        printed = to_source(weaver.unit)
        assert to_source(parse(printed)) == printed

    def test_empty_version_list_rejected(self):
        with pytest.raises(ValueError):
            MultiversioningStrategy([])


class TestAutotunerStrategy:
    def test_margot_calls_weaved_in_order(self, weaver):
        mv = MultiversioningStrategy(simple_versions())
        results = mv.apply(weaver, ["kernel_scale"])
        AutotunerStrategy().apply(weaver, [results["kernel_scale"].wrapper])
        printed = to_source(weaver.unit)
        first_call = printed.index("kernel_scale__wrapper(N, 1.5);")
        assert printed.index("margot_update(", 0, first_call) != -1
        assert printed.index("margot_start_monitor();", 0, first_call) != -1
        assert printed.index("margot_stop_monitor();", first_call) > first_call
        assert printed.index("margot_log();", first_call) > first_call

    def test_init_at_main_entry(self, weaver):
        mv = MultiversioningStrategy(simple_versions())
        results = mv.apply(weaver, ["kernel_scale"])
        AutotunerStrategy().apply(weaver, [results["kernel_scale"].wrapper])
        main = weaver.unit.function("main")
        first = main.body.stmts[0]
        assert isinstance(first.expr, Call) and first.expr.name == "margot_init"

    def test_header_inserted(self, weaver):
        mv = MultiversioningStrategy(simple_versions())
        results = mv.apply(weaver, ["kernel_scale"])
        AutotunerStrategy().apply(weaver, [results["kernel_scale"].wrapper])
        assert '#include "margot.h"' in to_source(weaver.unit)

    def test_both_call_sites_instrumented(self, weaver):
        mv = MultiversioningStrategy(simple_versions())
        results = mv.apply(weaver, ["kernel_scale"])
        outcome = AutotunerStrategy().apply(weaver, [results["kernel_scale"].wrapper])
        assert outcome["kernel_scale__wrapper"].instrumented_calls == 2
        printed = to_source(weaver.unit)
        assert printed.count("margot_update(") == 2

    def test_update_passes_control_variable_addresses(self, weaver):
        mv = MultiversioningStrategy(simple_versions())
        results = mv.apply(weaver, ["kernel_scale"])
        AutotunerStrategy().apply(weaver, [results["kernel_scale"].wrapper])
        printed = to_source(weaver.unit)
        assert f"margot_update(&{VERSION_VARIABLE}, &{THREADS_VARIABLE});" in printed


class TestTable1Metrics:
    def test_python_logical_lines_skips_comments_and_docstrings(self):
        source = '"""Doc."""\n\n# comment\nx = 1\n\ndef f():\n    """Doc."""\n    return x\n'
        assert python_logical_lines(source) == 3  # x=1, def, return

    def test_strategy_loc_positive_and_stable(self):
        lines = strategy_loc()
        assert 100 < lines < 600
        assert strategy_loc() == lines

    def test_strategy_loc_matches_an_uncached_count(self, tmp_path):
        import repro.lara.strategies.autotuner as autotuner_module
        import repro.lara.strategies.multiversioning as multiversioning_module
        from pathlib import Path

        uncached = sum(
            python_logical_lines(Path(module.__file__).read_text())
            for module in (multiversioning_module, autotuner_module)
        )
        assert strategy_loc() == uncached == 231  # Table I's denominator
        extra = tmp_path / "extra_strategy.py"
        extra.write_text("x = 1\n\ndef f():\n    return x\n")
        assert strategy_loc([str(extra)]) == uncached + 3

    def test_strategy_loc_reads_each_file_once(self, monkeypatch):
        import repro.lara.metrics as metrics

        expected = strategy_loc()

        def unreadable(source):
            raise AssertionError("strategy source tokenized twice")

        monkeypatch.setattr(metrics, "python_logical_lines", unreadable)
        assert strategy_loc() == expected
        report, _ = weave_benchmark(load("mvt"), standard_levels())
        assert report.strategy_lines == expected

    def test_weave_benchmark_full_report(self, two_mm):
        report, weaver = weave_benchmark(two_mm, standard_levels())
        assert report.benchmark == "2mm"
        assert report.attributes > 50
        assert report.actions > 20
        assert report.weaved_loc > 3 * report.original_loc
        assert report.delta_loc == report.weaved_loc - report.original_loc
        assert report.bloat == pytest.approx(
            report.delta_loc / report.strategy_lines
        )

    def test_weaved_polybench_reparses(self, two_mm):
        _, weaver = weave_benchmark(two_mm, standard_levels())
        printed = to_source(weaver.unit)
        assert to_source(parse(printed)) == printed

    def test_default_versions_cross_product(self):
        versions = default_versions(standard_levels())
        assert len(versions) == 8
        assert len({v.suffix for v in versions}) == 8

    def test_loop_heavy_kernels_check_more_attributes(self):
        """The paper: attribute counts track the number of loops."""
        report_3mm, _ = weave_benchmark(load("3mm"), standard_levels())
        report_mvt, _ = weave_benchmark(load("mvt"), standard_levels())
        assert report_3mm.attributes > report_mvt.attributes
