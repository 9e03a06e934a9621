"""Dataflow analyses over the CIR.

This is the substrate of ``repro.analysis``: variable access
collection (reads/writes with array-subscript structure), def-use
chains and reaching definitions over the structured AST, OpenMP
clause parsing, and the shared-variable classification that the
OpenMP race detector interprets for ``#pragma omp parallel for``
bodies.

The analyses are deliberately flow-structured (no CFG construction):
the CIR only has structured control flow (``if``/``for``/``while``/
``do``), so a two-phase fixpoint over loop bodies is exact for
reaching definitions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.cir import ast
from repro.cir.analysis import LoopInfo
from repro.cir.index import NodeIndex
from repro.cir.visitor import iter_child_nodes, walk

READ = "read"
WRITE = "write"


@dataclass(eq=False)
class Access:
    """One read or write of a named variable.

    ``node`` is the expression/statement performing the access (the
    :class:`~repro.cir.ast.Assign`, :class:`~repro.cir.ast.UnaryOp`
    or :class:`~repro.cir.ast.Ident`/:class:`~repro.cir.ast.ArrayRef`
    itself); ``indices`` holds the subscript expressions when the
    access goes through an array reference; ``compound`` marks
    read-modify-write accesses (``+=``, ``++`` …).
    """

    name: str
    kind: str  # READ or WRITE
    node: ast.Node
    indices: Tuple[ast.Expr, ...] = ()
    compound: bool = False
    op: str = ""  # the assignment/step operator for writes ("=", "+=", "++", ...)

    @property
    def is_array(self) -> bool:
        return bool(self.indices)

    def __repr__(self) -> str:  # compact, for test failure messages
        subscript = "[...]" * len(self.indices)
        return f"Access({self.kind} {self.name}{subscript})"


def _lvalue_root(expr: ast.Expr) -> Tuple[Optional[ast.Ident], Tuple[ast.Expr, ...]]:
    """Peel an lvalue down to its base identifier and subscripts."""
    indices: List[ast.Expr] = []
    while True:
        if isinstance(expr, ast.ArrayRef):
            indices = list(expr.indices) + indices
            expr = expr.base
        elif isinstance(expr, ast.Member):
            expr = expr.base
        elif isinstance(expr, ast.UnaryOp) and expr.op == "*" and not expr.postfix:
            expr = expr.operand
        elif isinstance(expr, ast.Cast):
            expr = expr.operand
        else:
            break
    if isinstance(expr, ast.Ident):
        return expr, tuple(indices)
    return None, tuple(indices)


def collect_accesses(node: ast.Node) -> List[Access]:
    """All variable accesses in the subtree, in evaluation order.

    Function names in direct calls are not variable accesses;
    declarations contribute a write when they carry an initializer.
    """
    out: List[Access] = []
    _collect(node, out)
    return out


def _collect(node: ast.Node, out: List[Access]) -> None:
    if isinstance(node, ast.Assign):
        root, indices = _lvalue_root(node.lhs)
        for index in indices:
            _collect(index, out)
        _collect(node.rhs, out)
        if root is not None:
            compound = node.op != "="
            if compound:
                out.append(Access(root.name, READ, node, indices, compound=True))
            out.append(
                Access(root.name, WRITE, node, indices, compound=compound, op=node.op)
            )
        else:  # exotic lvalue: treat conservatively as reads
            _collect(node.lhs, out)
        return
    if isinstance(node, ast.UnaryOp) and node.op in ("++", "--"):
        root, indices = _lvalue_root(node.operand)
        for index in indices:
            _collect(index, out)
        if root is not None:
            out.append(Access(root.name, READ, node, indices, compound=True))
            out.append(
                Access(root.name, WRITE, node, indices, compound=True, op=node.op)
            )
        return
    if isinstance(node, ast.Call):
        # the callee identifier is a function name, not a variable
        for arg in node.args:
            _collect(arg, out)
        return
    if isinstance(node, ast.ArrayRef):
        root, indices = _lvalue_root(node)
        for index in indices:
            _collect(index, out)
        if root is not None:
            out.append(Access(root.name, READ, node, indices))
        return
    if isinstance(node, ast.Ident):
        out.append(Access(node.name, READ, node))
        return
    if isinstance(node, ast.Decl):
        if node.init is not None:
            _collect(node.init, out)
            out.append(Access(node.name, WRITE, node, op="="))
        for dim in node.array_dims:
            _collect(dim, out)
        return
    if isinstance(node, ast.SizeOf):
        return  # sizeof does not evaluate its operand
    for child in iter_child_nodes(node):
        _collect(child, out)


def declared_names(node: ast.Node, index: Optional[NodeIndex] = None) -> FrozenSet[str]:
    """Names declared anywhere inside the subtree (block-scoped).

    ``index`` is any index that holds ``node``; without one the
    subtree is indexed on the spot.
    """
    if index is None:
        index = NodeIndex(node)
    return frozenset(decl.name for decl in index.select(ast.Decl, within=node))


# ---------------------------------------------------------------------------
# reaching definitions / def-use chains
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Definition:
    """One definition point of a scalar variable."""

    name: str
    node: ast.Node  # the Assign / Decl / UnaryOp / Param that defines it


_Env = Dict[str, FrozenSet[int]]


class ReachingDefinitions:
    """Reaching definitions for the scalars of one function body.

    Array elements are not tracked individually: a write through a
    subscript defines the whole array (conservative, which is what
    the race rules need).
    """

    def __init__(self, func: ast.FunctionDef) -> None:
        self._defs: Dict[int, Definition] = {}
        self._reaching: Dict[int, FrozenSet[int]] = {}
        env: _Env = {}
        for param in func.params:
            definition = Definition(param.name, param)
            self._defs[id(param)] = definition
            env[param.name] = frozenset({id(param)})
        self._flow(func.body, env)

    # -- queries --------------------------------------------------------------

    def definitions_reaching(self, use: ast.Node) -> List[Definition]:
        """The definitions that may reach a read access node."""
        return [self._defs[d] for d in sorted(self._reaching.get(id(use), frozenset()))]

    @property
    def definitions(self) -> List[Definition]:
        return list(self._defs.values())

    # -- structured dataflow ---------------------------------------------------

    def _define(self, name: str, node: ast.Node, env: _Env) -> None:
        if id(node) not in self._defs:
            self._defs[id(node)] = Definition(name, node)
        env[name] = frozenset({id(node)})

    def _record_accesses(self, node: ast.Node, env: _Env) -> None:
        for access in collect_accesses(node):
            if access.kind == READ:
                reaching = env.get(access.name)
                if reaching is not None:
                    self._reaching[id(access.node)] = reaching
            else:
                if access.is_array:
                    # weak update: the old definitions may survive
                    previous = env.get(access.name, frozenset())
                    if id(access.node) not in self._defs:
                        self._defs[id(access.node)] = Definition(
                            access.name, access.node
                        )
                    env[access.name] = previous | {id(access.node)}
                else:
                    self._define(access.name, access.node, env)

    def _flow(self, stmt: Optional[ast.Node], env: _Env) -> _Env:
        if stmt is None:
            return env
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                env = self._flow(inner, env)
            return env
        if isinstance(stmt, ast.If):
            self._record_accesses(stmt.cond, env)
            then_env = self._flow(stmt.then, dict(env))
            else_env = self._flow(stmt.other, dict(env)) if stmt.other else env
            return _join(then_env, else_env)
        if isinstance(stmt, (ast.For, ast.While, ast.DoWhile)):
            return self._flow_loop(stmt, env)
        if isinstance(stmt, (ast.ExprStmt, ast.Decl, ast.DeclGroup, ast.Return)):
            self._record_accesses(stmt, env)
            return env
        if isinstance(stmt, (ast.Pragma, ast.Break, ast.Continue, ast.EmptyStmt)):
            return env
        self._record_accesses(stmt, env)
        return env

    def _flow_loop(self, stmt: ast.Node, env: _Env) -> _Env:
        header: List[ast.Node] = []
        body = stmt.body
        if isinstance(stmt, ast.For):
            if stmt.init is not None:
                env = self._flow(stmt.init, env)
            header = [n for n in (stmt.cond, stmt.step) if n is not None]
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            header = [stmt.cond]

        def one_pass(current: _Env) -> _Env:
            if isinstance(stmt, ast.For) and stmt.cond is not None:
                self._record_accesses(stmt.cond, current)
            if isinstance(stmt, ast.While):
                self._record_accesses(stmt.cond, current)
            current = self._flow(body, current)
            if isinstance(stmt, ast.For) and stmt.step is not None:
                self._record_accesses(stmt.step, current)
            if isinstance(stmt, ast.DoWhile):
                self._record_accesses(stmt.cond, current)
            return current

        # two-phase fixpoint: after one pass the set of loop-generated
        # definitions is known; a second pass under the joined
        # environment records every use with its final reaching set
        after_one = one_pass(dict(env))
        joined = _join(env, after_one)
        after_final = one_pass(dict(joined))
        return _join(env, after_final)


def _join(a: _Env, b: _Env) -> _Env:
    result: _Env = dict(a)
    for name, defs in b.items():
        result[name] = result.get(name, frozenset()) | defs
    return result


@dataclass
class DefUseChains:
    """Def-use chains of one function: definition node -> use nodes."""

    reaching: ReachingDefinitions
    uses: Dict[int, List[ast.Node]] = field(default_factory=dict)
    _nodes: Dict[int, ast.Node] = field(default_factory=dict)

    def uses_of(self, definition_node: ast.Node) -> List[ast.Node]:
        return list(self.uses.get(id(definition_node), []))


def def_use_chains(func: ast.FunctionDef) -> DefUseChains:
    """Compute def-use chains for the scalars of ``func``."""
    reaching = ReachingDefinitions(func)
    chains = DefUseChains(reaching=reaching)
    for node in walk(func.body):
        for definition in reaching.definitions_reaching(node):
            chains.uses.setdefault(id(definition.node), []).append(node)
    return chains


# ---------------------------------------------------------------------------
# OpenMP clause parsing
# ---------------------------------------------------------------------------

_CLAUSE_RE = re.compile(r"([A-Za-z_]\w*)\s*\(([^)]*)\)")


@dataclass(frozen=True)
class OmpClauses:
    """Parsed data-sharing/control clauses of one OpenMP pragma."""

    private: FrozenSet[str] = frozenset()
    firstprivate: FrozenSet[str] = frozenset()
    lastprivate: FrozenSet[str] = frozenset()
    shared: FrozenSet[str] = frozenset()
    reductions: Tuple[Tuple[str, str], ...] = ()  # (operator, variable)
    num_threads: Optional[str] = None
    proc_bind: Optional[str] = None
    schedule: Optional[str] = None

    @property
    def reduction_vars(self) -> FrozenSet[str]:
        return frozenset(name for _, name in self.reductions)

    @property
    def privatized(self) -> FrozenSet[str]:
        """Every variable with a private copy per thread."""
        return (
            self.private
            | self.firstprivate
            | self.lastprivate
            | self.reduction_vars
        )


def _split_vars(body: str) -> FrozenSet[str]:
    return frozenset(part.strip() for part in body.split(",") if part.strip())


def parse_omp_clauses(text: str) -> OmpClauses:
    """Parse the clauses of an OpenMP pragma text (after ``#pragma``).

    Unknown clauses are ignored; malformed ``reduction`` bodies
    (missing the ``op:`` separator) are skipped rather than rejected,
    matching how permissive the CIR pragma handling is elsewhere.
    """
    private: Set[str] = set()
    firstprivate: Set[str] = set()
    lastprivate: Set[str] = set()
    shared: Set[str] = set()
    reductions: List[Tuple[str, str]] = []
    num_threads: Optional[str] = None
    proc_bind: Optional[str] = None
    schedule: Optional[str] = None
    for match in _CLAUSE_RE.finditer(text):
        clause, body = match.group(1), match.group(2).strip()
        if clause == "private":
            private |= _split_vars(body)
        elif clause == "firstprivate":
            firstprivate |= _split_vars(body)
        elif clause == "lastprivate":
            lastprivate |= _split_vars(body)
        elif clause == "shared":
            shared |= _split_vars(body)
        elif clause == "reduction" and ":" in body:
            op, names = body.split(":", 1)
            for name in _split_vars(names):
                reductions.append((op.strip(), name))
        elif clause == "num_threads":
            num_threads = body
        elif clause == "proc_bind":
            proc_bind = body
        elif clause == "schedule":
            schedule = body
    return OmpClauses(
        private=frozenset(private),
        firstprivate=frozenset(firstprivate),
        lastprivate=frozenset(lastprivate),
        shared=frozenset(shared),
        reductions=tuple(reductions),
        num_threads=num_threads,
        proc_bind=proc_bind,
        schedule=schedule,
    )


def is_parallel_for_pragma(pragma: ast.Pragma) -> bool:
    """True for ``omp parallel for`` worksharing pragmas."""
    return (
        pragma.is_omp
        and "parallel" in pragma.text
        and re.search(r"\bfor\b", pragma.text) is not None
    )


# ---------------------------------------------------------------------------
# parallel regions + shared-variable classification
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ParallelRegion:
    """One ``#pragma omp parallel for`` and the loop it controls."""

    function: ast.FunctionDef
    pragma: ast.Pragma
    loop: Optional[ast.For]
    clauses: OmpClauses


def parallel_regions(
    func: ast.FunctionDef, index: Optional[NodeIndex] = None
) -> List[ParallelRegion]:
    """All parallel-for regions of ``func``, in source order.

    Handles both sibling form (pragma then ``for`` in one block) and
    the parser's wrapped form (``Block([pragma, for])`` synthesised
    for pragma-controlled statements in loop/if body position).
    ``index`` is any index that holds ``func``'s body; without one the
    body is indexed on the spot.
    """
    if index is None:
        index = NodeIndex(func.body)
    regions: List[ParallelRegion] = []
    seen: Set[int] = set()
    for node in index.select(ast.Block, within=func.body):
        for position, stmt in enumerate(node.stmts):
            if not isinstance(stmt, ast.Pragma) or not is_parallel_for_pragma(stmt):
                continue
            if id(stmt) in seen:
                continue
            seen.add(id(stmt))
            after = position + 1
            controlled = node.stmts[after] if after < len(node.stmts) else None
            loop = controlled if isinstance(controlled, ast.For) else None
            regions.append(
                ParallelRegion(
                    function=func,
                    pragma=stmt,
                    loop=loop,
                    clauses=parse_omp_clauses(stmt.text),
                )
            )
    return regions


@dataclass(eq=False)
class SharingReport:
    """Shared-variable classification of one parallel region."""

    region: ParallelRegion
    induction: Optional[str]
    privatized: FrozenSet[str]  # clause-privatized + the parallel induction
    local: FrozenSet[str]  # declared inside the region (private by scoping)
    reduction_vars: FrozenSet[str]
    shared_writes: List[Access] = field(default_factory=list)
    shared_reads: List[Access] = field(default_factory=list)

    def is_shared(self, name: str) -> bool:
        return name not in self.privatized and name not in self.local


def classify_sharing(
    region: ParallelRegion, index: Optional[NodeIndex] = None
) -> Optional[SharingReport]:
    """Classify every access of a parallel region by data-sharing.

    Returns ``None`` when the region controls no analyzable ``for``
    loop.  The parallel loop's induction variable is private by the
    OpenMP worksharing rules; variables declared inside the region are
    private by scoping; everything else named by a clause follows the
    clause; the rest is shared.  ``index``, when given, must hold the
    region's loop (see :func:`declared_names`).
    """
    loop = region.loop
    if loop is None:
        return None
    induction = LoopInfo(node=loop, depth=0).induction_variable
    privatized = set(region.clauses.privatized)
    if induction is not None:
        privatized.add(induction)
    local = declared_names(loop, index)
    report = SharingReport(
        region=region,
        induction=induction,
        privatized=frozenset(privatized),
        local=local,
        reduction_vars=region.clauses.reduction_vars,
    )
    for access in collect_accesses(loop):
        if not report.is_shared(access.name):
            continue
        if access.kind == WRITE:
            report.shared_writes.append(access)
        else:
            report.shared_reads.append(access)
    return report


def references_variable(expr: ast.Node, name: str) -> bool:
    """True when the expression subtree mentions identifier ``name``."""
    return any(
        isinstance(node, ast.Ident) and node.name == name for node in walk(expr)
    )
