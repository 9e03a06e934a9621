"""Generic AST traversal utilities (mirrors the stdlib ``ast`` API).

Child nodes are discovered from dataclass fields, so visitors keep
working when new node kinds are added.  Each class's field names come
from the shared per-class table (:func:`repro.cir.ast.node_fields`).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional

from repro.cir.ast import Node, node_fields


def iter_child_nodes(node: Node) -> Iterator[Node]:
    """Yield every direct child :class:`Node` of ``node``.

    List fields are flattened; ``None`` children are skipped.
    """
    for name in node_fields(type(node)):
        value = getattr(node, name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    yield item


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and all descendants in depth-first pre-order."""
    stack: List[Node] = [node]
    while stack:
        current = stack.pop()
        yield current
        children: List[Node] = []
        for name in node_fields(type(current)):
            value = getattr(current, name)
            if isinstance(value, Node):
                children.append(value)
            elif isinstance(value, list):
                children.extend(item for item in value if isinstance(item, Node))
        stack.extend(reversed(children))


class NodeVisitor:
    """Dispatch on node class name: ``visit_<ClassName>`` methods.

    Unhandled node kinds fall through to :meth:`generic_visit`, which
    recurses into children.
    """

    def visit(self, node: Node) -> Any:
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node: Node) -> None:
        for child in iter_child_nodes(node):
            self.visit(child)


class NodeTransformer:
    """Rewriting visitor: ``visit_<ClassName>`` may return a replacement.

    Return values:
      * a node — replaces the original;
      * ``None`` — removes the node (only legal inside list fields);
      * a list of nodes — splices into the surrounding list field.
    """

    def visit(self, node: Node) -> Optional[Node]:
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node: Node) -> Node:
        for name in node_fields(type(node)):
            value = getattr(node, name)
            if isinstance(value, Node):
                replacement = self.visit(value)
                if isinstance(replacement, list):
                    raise TypeError(
                        f"cannot splice a node list into scalar field "
                        f"{type(node).__name__}.{name}"
                    )
                setattr(node, name, replacement)
            elif isinstance(value, list):
                new_items: List[Any] = []
                for item in value:
                    if not isinstance(item, Node):
                        new_items.append(item)
                        continue
                    replacement = self.visit(item)
                    if replacement is None:
                        continue
                    if isinstance(replacement, list):
                        new_items.extend(replacement)
                    else:
                        new_items.append(replacement)
                setattr(node, name, new_items)
        return node
