"""The join-point model: typed, metered views on AST nodes.

LARA aspects *select* join points (functions, loops, calls, pragmas)
and read their attributes to decide where to act.  Every attribute
read goes through :meth:`JoinPoint.attr` and is tallied by the weaver
— this is the paper's **Att** metric ("number of attributes checked in
the LARA strategy about the source code of the application").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from repro.cir import (
    Block,
    Call,
    For,
    FunctionDef,
    Pragma,
    walk,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lara.weaver import Weaver


class JoinPoint:
    """Base join point: wraps one AST node and meters attribute reads."""

    def __init__(self, weaver: "Weaver", node: Any) -> None:
        self._weaver = weaver
        self.node = node

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

    def pragmas(self) -> List["PragmaJp"]:
        """All pragma statements inside this function's body."""
        return [
            PragmaJp(self._weaver, node)
            for node in walk(self.node.body)
            if isinstance(node, Pragma)
        ]

    def loops(self) -> List["LoopJp"]:
        return [
            LoopJp(self._weaver, node)
            for node in walk(self.node.body)
            if isinstance(node, For)
        ]

    def calls(self) -> List["CallJp"]:
        return [
            CallJp(self._weaver, node)
            for node in walk(self.node.body)
            if isinstance(node, Call)
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
            return not any(
                isinstance(node, For) for node in walk(loop.body)
            )
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
