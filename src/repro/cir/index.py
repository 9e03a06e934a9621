"""A one-traversal index of an AST subtree.

LARA aspects select join points by type and attribute, and the weave
gate asks which nodes lie inside which statement or function.  A
:class:`NodeIndex` answers both from one pre-order traversal:

* :attr:`NodeIndex.nodes` — every node of the subtree, in
  :func:`~repro.cir.visitor.walk` order;
* each node's subtree end, so "the nodes under X" is a slice;
* the positions of each node class, and of the calls to each callee;
* the function that owns each node.

An index is a snapshot of the tree as it was when it was built.  Build
one after each mutation phase and pass it explicitly to the consumers
of that phase; it is never stored on the AST, so no consumer can read
an index older than the tree without having been handed one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Dict, FrozenSet, List, Optional, Tuple, Type

from repro.cir.ast import Call, FunctionDef, Node, node_fields


class NodeIndex:
    """Pre-order index of the subtree rooted at ``root``."""

    def __init__(self, root: Node) -> None:
        #: every node of the subtree, in ``walk`` order
        self.nodes: List[Node] = []
        nodes = self.nodes
        ends: List[int] = []
        position: Dict[int, int] = {}
        by_class: Dict[type, List[int]] = defaultdict(list)
        calls: Dict[Optional[str], List[int]] = defaultdict(list)
        # the traversal of ``walk``: children in field order, list fields
        # flattened (pushed in reverse, so they pop in order); an int on
        # the stack marks where the subtree that starts there ends
        reversed_fields: Dict[type, Tuple[str, ...]] = {}
        stack: List[object] = [root]
        pop, push = stack.pop, stack.append
        while stack:
            current = pop()
            cls = current.__class__
            if cls is int:
                ends[current] = len(nodes)  # type: ignore[index]
                continue
            at = len(nodes)
            nodes.append(current)  # type: ignore[arg-type]
            ends.append(0)
            position[id(current)] = at
            by_class[cls].append(at)
            if cls is Call:
                calls[current.name].append(at)  # type: ignore[attr-defined]
            push(at)
            names = reversed_fields.get(cls)
            if names is None:
                names = reversed_fields[cls] = node_fields(cls)[::-1]
            for name in names:
                value = getattr(current, name)
                if isinstance(value, Node):
                    push(value)
                elif isinstance(value, list):
                    for item in reversed(value):
                        if isinstance(item, Node):
                            push(item)
        self._ends = ends
        self._position = position
        self._by_class = dict(by_class)
        self._calls = dict(calls)
        self._selected: Dict[type, List[int]] = {}

    # -- positions ---------------------------------------------------------

    def position(self, node: Node) -> int:
        """Pre-order position of ``node``; ``KeyError`` when not indexed."""
        try:
            return self._position[id(node)]
        except KeyError:
            raise KeyError(f"{type(node).__name__} node is not in this index") from None

    def _span(self, within: Optional[Node]) -> Tuple[int, int]:
        if within is None:
            return 0, len(self.nodes)
        start = self.position(within)
        return start, self._ends[start]

    def _positions(self, cls: Type[Node]) -> List[int]:
        """Positions of the nodes that are instances of ``cls``."""
        found = self._selected.get(cls)
        if found is None:
            lists = [ps for kind, ps in self._by_class.items() if issubclass(kind, cls)]
            found = lists[0] if len(lists) == 1 else sorted(p for ps in lists for p in ps)
            self._selected[cls] = found
        return found

    @staticmethod
    def _slice(positions: List[int], start: int, end: int) -> List[int]:
        return positions[bisect_left(positions, start) : bisect_left(positions, end)]

    # -- queries -----------------------------------------------------------

    def select(self, cls: Type[Node], within: Optional[Node] = None) -> List[Node]:
        """Instances of ``cls`` in the subtree of ``within`` (itself
        included) or in the whole index, in ``walk`` order."""
        start, end = self._span(within)
        nodes = self.nodes
        return [nodes[at] for at in self._slice(self._positions(cls), start, end)]

    def count(self, cls: Type[Node], within: Optional[Node] = None) -> int:
        """How many nodes :meth:`select` would return."""
        start, end = self._span(within)
        positions = self._positions(cls)
        return bisect_left(positions, end) - bisect_left(positions, start)

    def calls_to(self, callee: str, within: Optional[Node] = None) -> List[Call]:
        """Direct calls of ``callee`` under ``within``, in ``walk`` order."""
        start, end = self._span(within)
        nodes = self.nodes
        positions = self._calls.get(callee, [])
        return [nodes[at] for at in self._slice(positions, start, end)]  # type: ignore[misc]

    def subtree(self, node: Node) -> List[Node]:
        """``node`` and all its descendants, in ``walk`` order."""
        start, end = self._span(node)
        return self.nodes[start:end]

    def subtree_ids(self, node: Node) -> FrozenSet[int]:
        return frozenset(map(id, self.subtree(node)))

    def owner(self, node: Node) -> Optional[FunctionDef]:
        """The function definition whose subtree holds ``node``; None
        when ``node`` is outside every function or not indexed."""
        at = self._position.get(id(node))
        if at is None:
            return None
        functions = self._positions(FunctionDef)
        candidate = bisect_right(functions, at) - 1
        if candidate < 0:
            return None
        start = functions[candidate]
        if at >= self._ends[start]:
            return None
        return self.nodes[start]  # type: ignore[return-value]
