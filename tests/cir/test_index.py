"""Tests for the one-traversal node index (repro.cir.index)."""

import pytest

from repro.cir import NodeIndex, ast, parse, walk
from repro.gcc.flags import paper_custom_flags, standard_levels
from repro.lara.metrics import weave_benchmark
from repro.polybench.suite import BENCHMARK_NAMES, load

SOURCE = """
int g(int x) { return x; }
void f(int n) {
  int i;
  #pragma omp parallel for
  for (i = 0; i < n; i++) {
    int t = g(i);
    x[i] = g(t) + h(t);
  }
}
"""


def _ids(nodes):
    return [id(node) for node in nodes]


@pytest.fixture(scope="module", params=BENCHMARK_NAMES)
def suite_units(request):
    app = load(request.param)
    woven = weave_benchmark(app, standard_levels() + paper_custom_flags())[1].unit
    return app.parse(), woven


class TestSuiteUnits:
    def test_nodes_are_walk_order(self, suite_units):
        for unit in suite_units:
            assert _ids(NodeIndex(unit).nodes) == _ids(walk(unit))

    def test_every_subtree_is_a_slice(self, suite_units):
        pristine, woven = suite_units
        index = NodeIndex(pristine)
        for node in walk(pristine):
            assert _ids(index.subtree(node)) == _ids(walk(node))
        index = NodeIndex(woven)
        for node in index.select((ast.FunctionDef, ast.Block, ast.For, ast.Pragma)):
            assert _ids(index.subtree(node)) == _ids(walk(node))

    def test_selections_owners_and_calls(self, suite_units):
        for unit in suite_units:
            index = NodeIndex(unit)
            for cls in (ast.Block, ast.For, ast.Pragma, ast.Decl, ast.Call, ast.Stmt):
                expected = [n for n in walk(unit) if isinstance(n, cls)]
                assert _ids(index.select(cls)) == _ids(expected)
                assert index.count(cls) == len(expected)
            for func in unit.functions():
                for node in walk(func):
                    assert index.owner(node) is func
                names = {call.name for call in walk(func) if isinstance(call, ast.Call)}
                for name in names:
                    assert _ids(index.calls_to(name, within=func.body)) == _ids(
                        n for n in walk(func.body) if isinstance(n, ast.Call) and n.name == name
                    )


class TestQueries:
    def test_select_within_includes_the_root(self):
        unit = parse(SOURCE)
        index = NodeIndex(unit)
        loop = index.select(ast.For)[0]
        assert index.select(ast.For, within=loop) == [loop]
        assert index.count(ast.For, within=loop.body) == 0
        assert index.select(ast.Block, within=loop.body) == [loop.body]

    def test_calls_to_and_owner(self):
        unit = parse(SOURCE)
        index = NodeIndex(unit)
        f, g = unit.function("f"), unit.function("g")
        assert [call.name for call in index.calls_to("g")] == ["g", "g"]
        assert index.calls_to("nope") == []
        assert all(index.owner(call) is f for call in index.select(ast.Call))
        assert index.owner(g.body.stmts[0]) is g
        assert index.owner(unit) is None
        assert index.owner(index.calls_to("h")[0]) is f

    def test_subtree_ids(self):
        unit = parse(SOURCE)
        index = NodeIndex(unit)
        func = unit.function("f")
        assert index.subtree_ids(func) == frozenset(id(n) for n in walk(func))

    def test_foreign_nodes(self):
        index = NodeIndex(parse(SOURCE))
        stranger = ast.Call(func=ast.Ident(name="g"), args=[])
        assert index.owner(stranger) is None
        with pytest.raises(KeyError, match="Call node is not in this index"):
            index.select(ast.Call, within=stranger)

    def test_index_of_a_subtree(self):
        unit = parse(SOURCE)
        body = unit.function("f").body
        index = NodeIndex(body)
        assert _ids(index.nodes) == _ids(walk(body))
        assert index.owner(body) is None  # no function inside the root

    def test_an_index_is_a_snapshot(self):
        unit = parse(SOURCE)
        index = NodeIndex(unit)
        body = unit.function("f").body
        body.stmts.append(ast.ExprStmt(expr=ast.Call(func=ast.Ident(name="g"), args=[])))
        assert len(index.calls_to("g")) == 2
        assert len(NodeIndex(unit).calls_to("g")) == 3
