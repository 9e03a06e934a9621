"""Interprocedural analysis over a translation unit.

Builds the call graph of a :class:`~repro.cir.ast.TranslationUnit`
and computes *bottom-up function summaries*: dynamic operation counts
(flops, integer ops, loads/stores) weighted by inferred loop trip
counts, with every resolvable call site expanded by its callee's
summary multiplied by the enclosing loops' trip product.  Triangular
bounds follow the same midpoint convention as the workload profiler
(:mod:`repro.polybench.workload`), so the two characterizations are
directly comparable — the cross-validation the static cost oracle
(:mod:`repro.analysis.cost`) relies on.

Recursive call cycles are detected (Tarjan-free: iterative Kahn
peeling of the condensed graph) and left unexpanded; their summaries
are marked unresolved so downstream consumers stay conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.analysis.intervals import FunctionFacts, analyze_function
from repro.cir import ast
from repro.cir.analysis import (
    _MATH_FUNCTIONS,
    LoopInfo,
    _touches_array,
    collect_loops,
    max_loop_depth,
)
from repro.cir.visitor import iter_child_nodes, walk

__all__ = [
    "CallGraph",
    "FunctionSummary",
    "build_call_graph",
    "summarize_unit",
]


@dataclass(frozen=True)
class CallGraph:
    """Who calls whom inside one translation unit."""

    nodes: Tuple[str, ...]
    edges: Mapping[str, Tuple[str, ...]]
    external: Mapping[str, Tuple[str, ...]]

    def callees(self, name: str) -> Tuple[str, ...]:
        """Defined functions called (directly) by ``name``."""
        return self.edges.get(name, ())

    def callers(self, name: str) -> Tuple[str, ...]:
        return tuple(
            caller for caller in self.nodes if name in self.edges.get(caller, ())
        )

    def external_callees(self, name: str) -> Tuple[str, ...]:
        """Called names with no definition in the unit (libc, math)."""
        return self.external.get(name, ())

    def recursive_functions(self) -> FrozenSet[str]:
        """Functions on a call cycle (including self-recursion)."""
        remaining = {name: set(self.edges.get(name, ())) for name in self.nodes}
        changed = True
        while changed:
            changed = False
            for name in list(remaining):
                if not remaining[name]:
                    del remaining[name]
                    for callees in remaining.values():
                        if name in callees:
                            callees.discard(name)
                            changed = True
                    changed = True
        return frozenset(remaining)

    def bottom_up(self) -> Tuple[str, ...]:
        """Callees before callers; cycle members appear last, in
        definition order."""
        recursive = self.recursive_functions()
        order: List[str] = []
        placed = set(recursive)
        remaining = [name for name in self.nodes if name not in recursive]
        while remaining:
            progressed = False
            for name in list(remaining):
                if all(
                    callee in placed or callee in order
                    for callee in self.edges.get(name, ())
                ):
                    order.append(name)
                    remaining.remove(name)
                    progressed = True
            if not progressed:  # pragma: no cover - cycles already peeled
                order.extend(remaining)
                break
        order.extend(name for name in self.nodes if name in recursive)
        return tuple(order)


def build_call_graph(unit: ast.TranslationUnit) -> CallGraph:
    """The direct-call graph of all functions defined in ``unit``."""
    defined = tuple(func.name for func in unit.functions())
    defined_set = set(defined)
    edges: Dict[str, Tuple[str, ...]] = {}
    external: Dict[str, Tuple[str, ...]] = {}
    for func in unit.functions():
        internal: List[str] = []
        outside: List[str] = []
        seen_internal: set = set()
        seen_external: set = set()
        for node in walk(func.body):
            if not (isinstance(node, ast.Call) and node.name):
                continue
            if node.name in defined_set:
                if node.name not in seen_internal:
                    seen_internal.add(node.name)
                    internal.append(node.name)
            elif node.name not in seen_external:
                seen_external.add(node.name)
                outside.append(node.name)
        edges[func.name] = tuple(internal)
        external[func.name] = tuple(outside)
    return CallGraph(nodes=defined, edges=edges, external=external)


@dataclass(frozen=True)
class FunctionSummary:
    """Bottom-up dynamic work estimate for one function.

    Counts are per *call* of the function with loop trips expanded;
    call sites to defined functions add the callee's summary times the
    enclosing trip product.  ``resolved`` is False when any loop trip
    or callee was not statically analyzable — consumers must then
    treat the numbers as lower bounds.  ``facts`` are the interval
    facts the summary was computed from, so consumers need not analyze
    the function again.
    """

    name: str
    flops: float
    int_ops: float
    loads: float
    stores: float
    branch_ops: float
    call_sites: float
    div_ops: float
    math_calls: float
    max_depth: int
    recursive: bool
    resolved: bool
    facts: FunctionFacts = field(compare=False, repr=False)

    @property
    def total_ops(self) -> float:
        return self.flops + self.int_ops + self.loads + self.stores

    @property
    def call_density(self) -> float:
        return self.call_sites / max(1.0, self.total_ops)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "flops": self.flops,
            "int_ops": self.int_ops,
            "loads": self.loads,
            "stores": self.stores,
            "branch_ops": self.branch_ops,
            "call_sites": self.call_sites,
            "div_ops": self.div_ops,
            "math_calls": self.math_calls,
            "max_depth": self.max_depth,
            "recursive": self.recursive,
            "resolved": self.resolved,
        }


@dataclass
class _Accumulator:
    flops: float = 0.0
    int_ops: float = 0.0
    loads: float = 0.0
    stores: float = 0.0
    branch_ops: float = 0.0
    call_sites: float = 0.0
    div_ops: float = 0.0
    math_calls: float = 0.0
    resolved: bool = True


class _SummaryWalker:
    """Trip-weighted census of one function, callee summaries inlined."""

    def __init__(
        self,
        env: Dict[str, int],
        facts: FunctionFacts,
        loop_infos: Dict[int, LoopInfo],
        summaries: Mapping[str, FunctionSummary],
    ) -> None:
        self._env = env
        self._facts = facts
        self._loop_infos = loop_infos
        self._summaries = summaries
        self.totals = _Accumulator()

    def walk_function(self, func: ast.FunctionDef) -> None:
        body = func.body
        stmts = body.stmts if isinstance(body, ast.Block) else [body]
        for stmt in stmts:
            self._visit(stmt, 1.0, dict(self._env))

    def _visit(self, node: ast.Node, weight: float, env: Dict[str, int]) -> None:
        if isinstance(node, ast.For):
            self._visit_loop(node, weight, env)
            return
        if isinstance(node, (ast.While, ast.DoWhile)):
            self.totals.resolved = False
            for child in iter_child_nodes(node):
                self._visit(child, weight, env)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node, weight, env)
            # fall through: arguments may contain loads/arithmetic
        self._count_leaf(node, weight)
        for child in iter_child_nodes(node):
            self._visit(child, weight, env)

    def _visit_loop(self, loop: ast.For, weight: float, env: Dict[str, int]) -> None:
        info = self._loop_infos.get(id(loop)) or LoopInfo(node=loop, depth=0)
        facts = self._facts.constants_at(loop)
        trip = info.trip_count(env, facts)
        if trip is None:
            # triangular bound: bind the enclosing midpoints progressively
            midpoint_env = dict(env)
            midpoint_env.update(facts)
            trip = info.trip_count(midpoint_env)
        if trip is None:
            self.totals.resolved = False
            trip = 1
        trip = max(1, trip)
        # loop-control overhead mirrors the workload profiler: one
        # compare + one increment per iteration
        self.totals.int_ops += weight * trip * 2.0
        body_env = dict(env)
        iv = info.induction_variable
        midpoint = info.midpoint(env, facts)
        if iv is not None and midpoint is not None:
            body_env[iv] = midpoint
        body_weight = weight * trip
        body = loop.body
        stmts = body.stmts if isinstance(body, ast.Block) else [body]
        for stmt in stmts:
            self._visit(stmt, body_weight, body_env)

    def _visit_call(self, call: ast.Call, weight: float, env: Dict[str, int]) -> None:
        self.totals.call_sites += weight
        callee = self._summaries.get(call.name or "")
        if callee is None:
            return
        totals = self.totals
        totals.flops += weight * callee.flops
        totals.int_ops += weight * callee.int_ops
        totals.loads += weight * callee.loads
        totals.stores += weight * callee.stores
        totals.branch_ops += weight * callee.branch_ops
        totals.call_sites += weight * callee.call_sites
        totals.div_ops += weight * callee.div_ops
        totals.math_calls += weight * callee.math_calls
        if not callee.resolved:
            totals.resolved = False

    def _count_leaf(self, node: ast.Node, weight: float) -> None:
        totals = self.totals
        if isinstance(node, ast.Assign):
            if isinstance(node.lhs, ast.ArrayRef):
                totals.stores += weight
                totals.loads -= weight  # the lhs ArrayRef is not a load
            totals.int_ops += weight  # the store/assign op itself
        elif isinstance(node, ast.ArrayRef):
            totals.loads += weight
        elif isinstance(node, ast.BinOp):
            if node.op in ("<", ">", "<=", ">=", "==", "!=", "&&", "||", ","):
                pass
            else:
                if _touches_array(node):
                    totals.flops += weight
                else:
                    totals.int_ops += weight
                if node.op in ("/", "%"):
                    totals.div_ops += weight
        elif isinstance(node, (ast.If, ast.TernaryOp)):
            totals.branch_ops += weight
        elif isinstance(node, ast.Call) and node.name in _MATH_FUNCTIONS:
            totals.math_calls += weight
            totals.flops += weight * 10.0  # a libm call is ~10 flops


def summarize_unit(
    unit: ast.TranslationUnit,
    env: Optional[Mapping[str, int]] = None,
    graph: Optional[CallGraph] = None,
) -> Dict[str, FunctionSummary]:
    """Bottom-up :class:`FunctionSummary` for every defined function."""
    graph = graph or build_call_graph(unit)
    recursive = graph.recursive_functions()
    env = dict(env or {})
    summaries: Dict[str, FunctionSummary] = {}
    functions = {func.name: func for func in unit.functions()}
    for name in graph.bottom_up():
        func = functions[name]
        facts = analyze_function(func, env)
        loop_infos = {id(info.node): info for info in collect_loops(func.body)}
        walker = _SummaryWalker(env, facts, loop_infos, summaries)
        walker.walk_function(func)
        totals = walker.totals
        is_recursive = name in recursive
        summaries[name] = FunctionSummary(
            name=name,
            flops=max(0.0, totals.flops),
            int_ops=max(0.0, totals.int_ops),
            loads=max(0.0, totals.loads),
            stores=max(0.0, totals.stores),
            branch_ops=max(0.0, totals.branch_ops),
            call_sites=max(0.0, totals.call_sites),
            div_ops=max(0.0, totals.div_ops),
            math_calls=max(0.0, totals.math_calls),
            max_depth=max_loop_depth(func),
            recursive=is_recursive,
            resolved=totals.resolved and facts.resolved and not is_recursive,
            facts=facts,
        )
    return summaries
