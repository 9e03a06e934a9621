"""Unit tests for the generic AST traversal utilities."""

import pytest

from repro.cir import (
    Assign,
    BinOp,
    ExprStmt,
    For,
    Ident,
    IntLit,
    NodeTransformer,
    NodeVisitor,
    parse,
    to_source,
    walk,
)
from repro.cir.visitor import iter_child_nodes
from repro.polybench.suite import BENCHMARK_NAMES, load

SOURCE = """
void f(int n) {
  int i;
  for (i = 0; i < n; i++)
    x = x + i;
}
"""


class TestWalk:
    def test_walk_yields_root_first(self):
        unit = parse(SOURCE)
        nodes = list(walk(unit))
        assert nodes[0] is unit

    def test_walk_reaches_leaves(self):
        unit = parse(SOURCE)
        idents = [n.name for n in walk(unit) if isinstance(n, Ident)]
        assert "x" in idents and "i" in idents

    def test_iter_child_nodes_flattens_lists(self):
        unit = parse(SOURCE)
        children = list(iter_child_nodes(unit))
        assert len(children) == 1  # the function definition

    def test_walk_count_is_stable(self):
        unit = parse(SOURCE)
        assert len(list(walk(unit))) == len(list(walk(unit)))


class TestNodeVisitor:
    def test_dispatch_by_class_name(self):
        seen = []

        class Collector(NodeVisitor):
            def visit_For(self, node):
                seen.append("for")
                self.generic_visit(node)

            def visit_Assign(self, node):
                seen.append("assign")
                self.generic_visit(node)

        Collector().visit(parse(SOURCE))
        assert seen.count("for") == 1
        assert seen.count("assign") >= 1

    def test_generic_visit_recurses(self):
        counts = {"ident": 0}

        class Counter(NodeVisitor):
            def visit_Ident(self, node):
                counts["ident"] += 1

        Counter().visit(parse(SOURCE))
        assert counts["ident"] > 0


class TestNodeTransformer:
    def test_replace_node(self):
        unit = parse("void f(void) { x = 1; }")

        class Renamer(NodeTransformer):
            def visit_Ident(self, node):
                if node.name == "x":
                    return Ident(name="y")
                return node

        Renamer().visit(unit)
        assert "y = 1;" in to_source(unit)

    def test_remove_statement(self):
        unit = parse("void f(void) { x = 1; y = 2; }")

        class Remover(NodeTransformer):
            def visit_ExprStmt(self, node):
                if isinstance(node.expr, Assign) and node.expr.lhs.name == "x":
                    return None
                return node

        Remover().visit(unit)
        text = to_source(unit)
        assert "x = 1" not in text
        assert "y = 2" in text

    def test_splice_list(self):
        unit = parse("void f(void) { x = 1; }")

        class Duplicator(NodeTransformer):
            def visit_ExprStmt(self, node):
                clone = node.clone()
                return [node, clone]

        Duplicator().visit(unit)
        assert to_source(unit).count("x = 1;") == 2

    def test_clone_is_deep(self):
        unit = parse("void f(void) { x = 1; }")
        func = unit.function("f")
        clone = func.clone()
        clone.body.stmts[0].expr.rhs = IntLit(text="2")
        assert "x = 1;" in to_source(unit)


def _reference_children(node):
    """Child discovery as specified: dataclass field order, then list
    order, skipping ``None`` and non-node values."""
    import dataclasses

    from repro.cir.ast import Node

    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    yield item


def _reference_walk(node):
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(list(_reference_children(current))))


def _owned_containers(unit):
    """Every node and every list object reachable from ``unit``."""
    owned = {}
    for node in _reference_walk(unit):
        owned[id(node)] = node
        for value in vars(node).values():
            if isinstance(value, list):
                owned[id(value)] = value
    return owned


class TestSuitePins:
    """Traversal order and cloning over the twelve benchmark sources."""

    @pytest.fixture(scope="class", params=BENCHMARK_NAMES)
    def suite_unit(self, request):
        return load(request.param).parse()

    def test_walk_matches_the_fields_reference(self, suite_unit):
        expected = [id(node) for node in _reference_walk(suite_unit)]
        assert [id(node) for node in walk(suite_unit)] == expected
        for node in _reference_walk(suite_unit):
            assert [id(c) for c in iter_child_nodes(node)] == [
                id(c) for c in _reference_children(node)
            ]

    def test_clone_prints_like_deepcopy_and_shares_nothing(self, suite_unit):
        import copy

        clone = suite_unit.clone()
        assert to_source(clone) == to_source(copy.deepcopy(suite_unit))
        assert to_source(clone) == to_source(suite_unit)
        original = _owned_containers(suite_unit)
        copied = _owned_containers(clone)
        assert len(copied) == len(original)
        assert not set(original) & set(copied)
        for function in suite_unit.functions():
            assert to_source(function.clone()) == to_source(copy.deepcopy(function))
