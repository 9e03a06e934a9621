"""The source-to-source weaver (the MANET role in the paper).

All reads go through join-point attributes (counted as **Att**), all
mutations go through the weaver's action methods (counted as **Act**:
"code insertions, cloning and pragma insertion").  The weaver owns a
translation unit and transforms it in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.cir import (
    Block,
    Call,
    Decl,
    ExprStmt,
    FunctionDef,
    Ident,
    Include,
    Node,
    NodeIndex,
    Pragma,
    Stmt,
    TranslationUnit,
    walk,
)
from repro.cir.visitor import iter_child_nodes
from repro.lara.joinpoint import CallJp, FunctionJp


@dataclass
class WeavingMetrics:
    """The Att / Act counters of one weaving run."""

    attributes_checked: int = 0
    actions_performed: int = 0


@dataclass
class WeavePlan:
    """What a full weaving run promised to produce.

    ``kernels`` holds one
    :class:`~repro.lara.strategies.multiversioning.MultiversioningResult`
    per woven kernel; ``main`` names the entry function the Autotuner
    strategy instrumented.  The weave verifier
    (:mod:`repro.analysis.weavecheck`) checks the woven unit against
    this plan.
    """

    kernels: List[object] = field(default_factory=list)
    main: str = "main"

    @property
    def wrappers(self) -> List[str]:
        return [result.wrapper for result in self.kernels]


class WeaveError(RuntimeError):
    """Raised when a strategy asks for an impossible transformation."""


class Weaver:
    """Transforms one translation unit under metric accounting."""

    def __init__(self, unit: TranslationUnit) -> None:
        self.unit = unit
        self.metrics = WeavingMetrics()
        #: Set by full weaving runs (see :func:`repro.lara.metrics.weave_benchmark`).
        self.plan: Optional[WeavePlan] = None

    # -- metric hooks ---------------------------------------------------------

    def count_attribute(self, count: int = 1) -> None:
        self.metrics.attributes_checked += count

    def count_action(self) -> None:
        self.metrics.actions_performed += 1

    # -- selections -----------------------------------------------------------

    def select_functions(self) -> List[FunctionJp]:
        """All function definitions of the unit, as join points."""
        return [FunctionJp(self, func) for func in self.unit.functions()]

    def select_function(self, name: str) -> FunctionJp:
        for jp in self.select_functions():
            if jp.attr("name") == name:
                return jp
        raise WeaveError(f"no function named {name!r}")

    def index(self, root: Optional[Node] = None) -> NodeIndex:
        """A fresh index of the unit (or of ``root``).

        The index is a snapshot of the tree as it is now: read it until
        the next action that adds, removes or retargets nodes, then
        build a new one.
        """
        return NodeIndex(self.unit if root is None else root)

    def select_calls_to(
        self, callee: str, index: Optional[NodeIndex] = None
    ) -> List[CallJp]:
        """Every call expression targeting ``callee`` anywhere in the unit.

        The select checks the ``name`` attribute of every call in every
        function body (Att).  ``index`` must describe the unit as it is
        now; without one the unit is indexed on the spot.
        """
        if index is None:
            index = self.index()
        result: List[CallJp] = []
        for func in self.unit.functions():
            self.count_attribute(index.count(Call, within=func.body))
            result.extend(
                CallJp(self, node, index)
                for node in index.calls_to(callee, within=func.body)
            )
        return result

    # -- actions ------------------------------------------------------------------

    def insert_include(self, target: str, system: bool = False) -> None:
        """Add an ``#include`` after the last existing include."""
        self.count_action()
        existing = [
            index
            for index, decl in enumerate(self.unit.decls)
            if isinstance(decl, Include)
        ]
        if any(
            isinstance(decl, Include) and decl.target == target
            for decl in self.unit.decls
        ):
            return
        position = existing[-1] + 1 if existing else 0
        self.unit.decls.insert(position, Include(target=target, system=system))

    def insert_global(self, decl: Decl, before_function: Optional[str] = None) -> None:
        """Insert a file-scope declaration before the first function
        (or before ``before_function``)."""
        self.count_action()
        position = len(self.unit.decls)
        for index, node in enumerate(self.unit.decls):
            if isinstance(node, FunctionDef) and (
                before_function is None or node.name == before_function
            ):
                position = index
                break
        self.unit.decls.insert(position, decl)

    def clone_function(self, source: FunctionJp, new_name: str) -> FunctionJp:
        """Duplicate a function definition under ``new_name``.

        The clone is inserted right after the original, preserving
        file order (original first, versions after).
        """
        self.count_action()
        original = source.node
        clone = original.clone()
        clone.name = new_name
        try:
            index = self.unit.decls.index(original)
        except ValueError:
            raise WeaveError(f"function {original.name!r} not in unit")
        insert_at = index + 1
        while insert_at < len(self.unit.decls) and isinstance(
            self.unit.decls[insert_at], FunctionDef
        ) and self.unit.decls[insert_at].name.startswith(original.name + "__"):
            insert_at += 1
        self.unit.decls.insert(insert_at, clone)
        return FunctionJp(self, clone)

    def insert_function(self, func: FunctionDef, after: Optional[str] = None) -> FunctionJp:
        """Insert a brand-new function definition (e.g. the wrapper)."""
        self.count_action()
        position = len(self.unit.decls)
        if after is not None:
            for index, node in enumerate(self.unit.decls):
                if isinstance(node, FunctionDef) and node.name == after:
                    position = index + 1
        self.unit.decls.insert(position, func)
        return FunctionJp(self, func)

    def attach_pragma(self, func: FunctionJp, text: str) -> None:
        """Attach a ``#pragma`` line immediately before a function."""
        self.count_action()
        func.node.pragmas.append(Pragma(text=text))

    def rewrite_pragma(self, pragma: Pragma, new_text: str) -> None:
        """Replace the text of an existing pragma statement."""
        self.count_action()
        pragma.text = new_text

    def rename_call(self, call: CallJp, new_name: str) -> None:
        """Retarget a call expression to a different function."""
        self.count_action()
        if not isinstance(call.node.func, Ident):
            raise WeaveError("cannot rename an indirect call")
        call.node.func = Ident(name=new_name)

    def insert_statement_before(self, func: FunctionDef, anchor: Stmt, stmt: Stmt) -> None:
        """Insert ``stmt`` directly before ``anchor`` inside ``func``."""
        self.count_action()
        block = self._owning_block(func, anchor)
        index = block.stmts.index(anchor)
        block.stmts.insert(index, stmt)

    def insert_statement_after(self, func: FunctionDef, anchor: Stmt, stmt: Stmt) -> None:
        """Insert ``stmt`` directly after ``anchor`` inside ``func``."""
        self.count_action()
        block = self._owning_block(func, anchor)
        index = block.stmts.index(anchor)
        block.stmts.insert(index + 1, stmt)

    def insert_at_function_entry(self, func: FunctionDef, stmt: Stmt) -> None:
        """Insert ``stmt`` as the first statement of ``func``."""
        self.count_action()
        func.body.stmts.insert(0, stmt)

    def leading_pragma(self, func: FunctionDef, anchor: Stmt) -> Optional[Pragma]:
        """The OMP pragma directly preceding ``anchor``, if any.

        Insertions *before* a pragma-controlled statement must go above
        the pragma, or the pragma would bind to the inserted statement.
        Read-only navigation (not metered).
        """
        block = self._owning_block(func, anchor)
        index = block.stmts.index(anchor)
        if index > 0 and isinstance(block.stmts[index - 1], Pragma):
            pragma = block.stmts[index - 1]
            if pragma.is_omp:
                return pragma
        return None

    def statement_containing_call(self, func: FunctionDef, call: Call) -> Stmt:
        """The direct statement of ``func`` whose subtree holds ``call``.

        Read-only navigation (not metered as an action).
        """
        found = self._find_statement(func.body, call)
        if found is None:
            raise WeaveError("call not found in function body")
        return found

    # -- internals ----------------------------------------------------------------

    def _owning_block(self, func: FunctionDef, anchor: Stmt) -> Block:
        from repro.cir import DoWhile, For, If, While

        for node in walk(func.body):
            if isinstance(node, Block) and anchor in node.stmts:
                return node
        # the anchor may be the brace-less body of a control statement:
        # promote that body to a block so siblings can be inserted
        for node in walk(func.body):
            if isinstance(node, (For, While, DoWhile)) and node.body is anchor:
                node.body = Block(stmts=[anchor])
                return node.body
            if isinstance(node, If):
                if node.then is anchor:
                    node.then = Block(stmts=[anchor])
                    return node.then
                if node.other is anchor:
                    node.other = Block(stmts=[anchor])
                    return node.other
        raise WeaveError("anchor statement not found in function")

    def _find_statement(self, block: Block, call: Call) -> Optional[Stmt]:
        for stmt in block.stmts:
            if any(node is call for node in walk(stmt)):
                if isinstance(stmt, Block):
                    inner = self._find_statement(stmt, call)
                    return inner if inner is not None else stmt
                return stmt
        return None
