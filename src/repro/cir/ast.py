"""AST node definitions for the C subset.

Nodes are plain dataclasses.  Child-node fields are discovered
generically (see :mod:`repro.cir.visitor`), so transformations written
for the LARA weaver do not need per-node boilerplate.

Design notes
------------
* Types are flattened into a :class:`Type` value object (base name,
  pointer level, qualifiers) — enough for Polybench, which only uses
  scalars, arrays and pointers of scalar types.
* ``#pragma`` lines are first-class statements/declarations
  (:class:`Pragma`); the Multiversioning strategy of the paper works by
  inserting and rewriting them.
* ``#include`` and ``#define`` are preserved verbatim
  (:class:`Include`, :class:`MacroDef`) so a weaved translation unit
  prints back to a complete compilable-looking source file.
* Each node class's field names are looked up once, in one shared
  table (:func:`node_fields`); the visitors and :meth:`Node.clone` read
  it instead of calling :func:`dataclasses.fields` per node.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Field names of every node class seen so far, in declaration order.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}

#: Immutable values a clone shares with its original.
_SHARED = (str, int, float, bool, type(None))


def node_fields(cls: type) -> Tuple[str, ...]:
    """The dataclass field names of node class ``cls``, in order."""
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(cls))
        _FIELD_NAMES[cls] = names
    return names


def _clone_value(value: Any) -> Any:
    if isinstance(value, _SHARED):
        return value
    if isinstance(value, Node):
        return value.clone()
    if isinstance(value, list):
        return [_clone_value(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_clone_value(item) for item in value)
    return copy.deepcopy(value)


@dataclass
class Node:
    """Base class for every AST node."""

    def clone(self) -> "Node":
        """Return a deep copy of this node (used by kernel cloning).

        Copies structurally: child nodes are cloned, lists and tuples
        copied, strings and numbers shared, anything else deep-copied.
        """
        twin = object.__new__(type(self))
        twin.__dict__.update(
            (name, _clone_value(value)) for name, value in self.__dict__.items()
        )
        return twin


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass
class Type(Node):
    """A (possibly qualified, possibly pointer) scalar type.

    ``name`` is the space-joined base type ("unsigned long", "double",
    a typedef name, ...), ``pointers`` the number of ``*`` levels and
    ``qualifiers`` an ordered tuple such as ``("static", "const")``.
    """

    name: str
    pointers: int = 0
    qualifiers: Tuple[str, ...] = ()

    def __str__(self) -> str:
        prefix = " ".join(self.qualifiers)
        stars = "*" * self.pointers
        parts = [part for part in (prefix, self.name) if part]
        return " ".join(parts) + (" " + stars if stars else "")

    @property
    def is_floating(self) -> bool:
        """True for ``float``/``double`` (including ``long double``)."""
        return self.name.split()[-1] in {"float", "double"}

    @property
    def is_void(self) -> bool:
        return self.name == "void" and self.pointers == 0


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expressions."""


@dataclass
class IntLit(Expr):
    text: str

    @property
    def value(self) -> int:
        text = self.text.rstrip("uUlL")
        return int(text, 0)


@dataclass
class FloatLit(Expr):
    text: str

    @property
    def value(self) -> float:
        return float(self.text.rstrip("fFlL"))


@dataclass
class StringLit(Expr):
    text: str  # includes the surrounding quotes


@dataclass
class CharLit(Expr):
    text: str  # includes the surrounding quotes


@dataclass
class Ident(Expr):
    name: str


@dataclass
class ArrayRef(Expr):
    """``base[i0][i1]...`` — indices kept as a list for nest analysis."""

    base: Expr
    indices: List[Expr]


@dataclass
class Call(Expr):
    func: Expr
    args: List[Expr]

    @property
    def name(self) -> Optional[str]:
        """Callee name when the callee is a plain identifier."""
        if isinstance(self.func, Ident):
            return self.func.name
        return None


@dataclass
class Member(Expr):
    """``base.field`` or ``base->field``."""

    base: Expr
    field_name: str
    arrow: bool = False


@dataclass
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass
class UnaryOp(Expr):
    op: str
    operand: Expr
    postfix: bool = False  # for i++ / i--


@dataclass
class Assign(Expr):
    """Assignment expression: ``lhs op rhs`` where op is ``=``, ``+=``, ..."""

    op: str
    lhs: Expr
    rhs: Expr


@dataclass
class TernaryOp(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass
class Cast(Expr):
    type: Type
    operand: Expr


@dataclass
class SizeOf(Expr):
    """``sizeof(type)`` or ``sizeof expr``."""

    type: Optional[Type] = None
    operand: Optional[Expr] = None


@dataclass
class CompoundLiteral(Expr):
    """Brace initializer ``{a, b, {c}}`` (used in declarations)."""

    items: List[Expr]


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    """Base class for statements."""


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class Decl(Stmt):
    """A variable declaration, also usable at file scope.

    ``array_dims`` holds one expression per ``[dim]`` suffix; an empty
    list means a plain scalar/pointer declaration.
    """

    type: Type
    name: str
    array_dims: List[Expr] = field(default_factory=list)
    init: Optional[Expr] = None

    @property
    def is_array(self) -> bool:
        return bool(self.array_dims)


@dataclass
class DeclGroup(Stmt):
    """A comma declaration ``int i, j, k;`` kept as one statement.

    Unlike a :class:`Block`, a DeclGroup introduces no scope — it prints
    as a single source line and counts as one logical line of code.
    """

    decls: List[Decl] = field(default_factory=list)


@dataclass
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    other: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class DoWhile(Stmt):
    body: Stmt
    cond: Expr


@dataclass
class For(Stmt):
    """C ``for`` loop; ``init`` may be a declaration or an expression."""

    init: Optional[Stmt]
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Stmt


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Pragma(Stmt):
    """A ``#pragma`` line; ``text`` excludes the ``#pragma `` prefix."""

    text: str

    @property
    def is_omp(self) -> bool:
        return self.text.startswith("omp")

    @property
    def is_gcc_optimize(self) -> bool:
        return self.text.startswith("GCC optimize")


@dataclass
class EmptyStmt(Stmt):
    """A bare ``;``."""


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


@dataclass
class Param(Node):
    type: Type
    name: str
    array_dims: List[Expr] = field(default_factory=list)


@dataclass
class FunctionDef(Node):
    return_type: Type
    name: str
    params: List[Param]
    body: Block
    storage: Tuple[str, ...] = ()  # e.g. ("static",)
    pragmas: List[Pragma] = field(default_factory=list)  # attached before the def

    @property
    def signature(self) -> str:
        params = ", ".join(
            f"{param.type}{param.name}" + "".join("[]" for _ in param.array_dims)
            for param in self.params
        )
        return f"{self.return_type} {self.name}({params})"


@dataclass
class FunctionDecl(Node):
    """A function prototype (declaration without a body)."""

    return_type: Type
    name: str
    params: List[Param]
    storage: Tuple[str, ...] = ()


@dataclass
class Include(Node):
    """``#include <...>`` or ``#include "..."`` kept verbatim."""

    target: str
    system: bool = True

    @property
    def text(self) -> str:
        if self.system:
            return f"#include <{self.target}>"
        return f'#include "{self.target}"'


@dataclass
class MacroDef(Node):
    """``#define NAME body`` kept verbatim (no expansion)."""

    name: str
    body: str = ""

    @property
    def text(self) -> str:
        if self.body:
            return f"#define {self.name} {self.body}"
        return f"#define {self.name}"


@dataclass
class Typedef(Node):
    type: Type
    name: str


@dataclass
class RawDirective(Node):
    """Any other preprocessor line (``#ifdef``, ``#endif``, ...)."""

    text: str


@dataclass
class TranslationUnit(Node):
    """A whole source file: ordered list of top-level declarations."""

    decls: List[Node] = field(default_factory=list)
    name: str = "<anonymous>"

    def functions(self) -> List[FunctionDef]:
        """All function definitions, in file order."""
        return [decl for decl in self.decls if isinstance(decl, FunctionDef)]

    def function(self, name: str) -> FunctionDef:
        """Look up one function definition by name.

        Raises ``KeyError`` when no definition with that name exists.
        """
        for decl in self.decls:
            if isinstance(decl, FunctionDef) and decl.name == name:
                return decl
        raise KeyError(f"no function named {name!r} in {self.name}")

    def has_function(self, name: str) -> bool:
        return any(
            isinstance(decl, FunctionDef) and decl.name == name for decl in self.decls
        )
