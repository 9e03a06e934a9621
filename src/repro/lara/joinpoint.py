"""The join-point model: typed, metered views on AST nodes.

LARA aspects *select* join points (functions, loops, calls, pragmas)
and read their attributes to decide where to act.  Every attribute
read goes through :meth:`JoinPoint.attr` and is tallied by the weaver
— this is the paper's **Att** metric ("number of attributes checked in
the LARA strategy about the source code of the application").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from repro.cir import Call, For, FunctionDef, NodeIndex, Pragma

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lara.weaver import Weaver


class JoinPoint:
    """Base join point: wraps one AST node and meters attribute reads.

    A join point selected through a :class:`~repro.cir.NodeIndex`
    keeps that index and answers its subtree attributes from it.
    """

    def __init__(
        self, weaver: "Weaver", node: Any, index: Optional[NodeIndex] = None
    ) -> None:
        self._weaver = weaver
        self.node = node
        self._index = index

    def attr(self, name: str) -> Any:
        """Read one attribute of the underlying node (metered)."""
        self._weaver.count_attribute()
        value = self._read(name)
        return value

    def _read(self, name: str) -> Any:
        raise KeyError(name)


class FunctionJp(JoinPoint):
    """Join point over a function definition.

    Attributes: ``name``, ``return_type``, ``param_count``,
    ``param_names``, ``param_types``, ``signature``, ``has_body``,
    ``storage``.
    """

    node: FunctionDef

    def _read(self, name: str) -> Any:
        func = self.node
        if name == "name":
            return func.name
        if name == "return_type":
            return str(func.return_type)
        if name == "param_count":
            return len(func.params)
        if name == "param_names":
            return [param.name for param in func.params]
        if name == "param_types":
            return [str(param.type) for param in func.params]
        if name == "signature":
            return func.signature
        if name == "has_body":
            return bool(func.body.stmts)
        if name == "storage":
            return list(func.storage)
        raise KeyError(name)

    # -- selections -----------------------------------------------------------
    #
    # Each selection reads ``index`` when given (an index that holds this
    # function's body, e.g. one from :meth:`Weaver.index`), else indexes
    # the body on the spot.

    def pragmas(self, index: Optional[NodeIndex] = None) -> List["PragmaJp"]:
        """All pragma statements inside this function's body."""
        return self._select(PragmaJp, Pragma, index)

    def loops(self, index: Optional[NodeIndex] = None) -> List["LoopJp"]:
        return self._select(LoopJp, For, index)

    def calls(self, index: Optional[NodeIndex] = None) -> List["CallJp"]:
        return self._select(CallJp, Call, index)

    def _select(self, jp_class, node_class, index: Optional[NodeIndex]) -> list:
        body = self.node.body
        if index is None:
            index = NodeIndex(body)
        return [
            jp_class(self._weaver, node, index)
            for node in index.select(node_class, within=body)
        ]


class LoopJp(JoinPoint):
    """Join point over a ``for`` loop.

    Attributes: ``induction_variable``, ``is_innermost``, ``kind``.
    """

    node: For

    def _read(self, name: str) -> Any:
        loop = self.node
        if name == "kind":
            return "for"
        if name == "induction_variable":
            from repro.cir.analysis import LoopInfo

            return LoopInfo(node=loop, depth=0).induction_variable
        if name == "is_innermost":
            index = self._index if self._index is not None else NodeIndex(loop.body)
            return index.count(For, within=loop.body) == 0
        raise KeyError(name)


class PragmaJp(JoinPoint):
    """Join point over a pragma statement.

    Attributes: ``text``, ``is_omp``, ``is_parallel_for``, ``kind``.
    """

    node: Pragma

    def _read(self, name: str) -> Any:
        pragma = self.node
        if name == "text":
            return pragma.text
        if name == "is_omp":
            return pragma.is_omp
        if name == "is_parallel_for":
            return pragma.is_omp and "for" in pragma.text
        if name == "kind":
            return "pragma"
        raise KeyError(name)


class CallJp(JoinPoint):
    """Join point over a call expression.

    Attributes: ``name``, ``arg_count``.
    """

    node: Call

    def _read(self, name: str) -> Any:
        call = self.node
        if name == "name":
            return call.name
        if name == "arg_count":
            return len(call.args)
        raise KeyError(name)
