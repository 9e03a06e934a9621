"""Pretty-printer and logical-line-of-code metrics for the CIR.

``to_source`` renders an AST back to compilable-looking C text;
``logical_lines`` counts *logical* lines of code the way the paper's
Table I does: one per declaration, simple statement, control-structure
header, pragma, preprocessor line and function signature — braces and
blank lines do not count.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cir import ast

_INDENT = "  "


class SourceMap:
    """Node-id -> 1-based line numbers of one ``to_source`` rendering.

    Statements, declarations and function signatures are recorded as
    they are emitted; :meth:`line_of` resolves any node (including
    sub-expressions) to the line of its nearest recorded ancestor once
    :meth:`expand` has been called with the printed root.

    ``SourceMap(root)`` is the map of ``root`` built on demand: the
    first :meth:`line_of` renders ``root`` with
    :func:`to_source_with_map`, so a caller that never asks for a line
    never prints the tree.  ``root`` must not change before that call.
    """

    def __init__(self, root: Optional[ast.Node] = None) -> None:
        self._lines: Dict[int, int] = {}
        self._pending = root

    def record(self, node: ast.Node, line: int) -> None:
        self._lines.setdefault(id(node), line)

    def line_of(self, node: ast.Node) -> Optional[int]:
        if self._pending is not None:
            root, self._pending = self._pending, None
            self._lines = to_source_with_map(root)[1]._lines
        return self._lines.get(id(node))

    def expand(self, root: ast.Node) -> "SourceMap":
        """Propagate statement lines down to every descendant node."""
        from repro.cir.visitor import iter_child_nodes

        def visit(node: ast.Node, current: Optional[int]) -> None:
            line = self._lines.get(id(node))
            if line is not None:
                current = line
            elif current is not None:
                self._lines[id(node)] = current
            for child in iter_child_nodes(node):
                visit(child, current)

        visit(root, None)
        return self


class _Printer:
    def __init__(self, source_map: Optional[SourceMap] = None) -> None:
        self._lines: List[str] = []
        self._depth = 0
        self._map = source_map

    # -- helpers ------------------------------------------------------------

    def _emit(self, text: str) -> None:
        self._lines.append(_INDENT * self._depth + text)

    def _mark(self, node: ast.Node) -> None:
        """Record that ``node``'s text starts on the next emitted line."""
        if self._map is not None:
            self._map.record(node, len(self._lines) + 1)

    def render(self, node: ast.Node) -> str:
        self._print_node(node)
        return "\n".join(self._lines) + "\n"

    # -- top level ------------------------------------------------------------

    def _print_node(self, node: ast.Node) -> None:
        if not isinstance(node, (ast.TranslationUnit, ast.FunctionDef, ast.Stmt)):
            self._mark(node)
        if isinstance(node, ast.TranslationUnit):
            for index, decl in enumerate(node.decls):
                if index and isinstance(decl, (ast.FunctionDef, ast.FunctionDecl)):
                    self._lines.append("")
                self._print_node(decl)
        elif isinstance(node, ast.Include):
            self._emit(node.text)
        elif isinstance(node, ast.MacroDef):
            self._emit(node.text)
        elif isinstance(node, ast.RawDirective):
            self._emit(node.text)
        elif isinstance(node, ast.Typedef):
            self._emit(f"typedef {node.type} {node.name};")
        elif isinstance(node, ast.FunctionDef):
            for pragma in node.pragmas:
                self._mark(pragma)
                self._emit(f"#pragma {pragma.text}")
            storage = " ".join(node.storage)
            prefix = storage + " " if storage else ""
            self._mark(node)
            self._emit(f"{prefix}{node.return_type} {node.name}({self._params(node.params)})")
            self._print_block(node.body)
        elif isinstance(node, ast.FunctionDecl):
            storage = " ".join(node.storage)
            prefix = storage + " " if storage else ""
            self._emit(f"{prefix}{node.return_type} {node.name}({self._params(node.params)});")
        elif isinstance(node, ast.Stmt):
            self._print_stmt(node)
        else:
            raise TypeError(f"cannot print node of type {type(node).__name__}")

    def _params(self, params: List[ast.Param]) -> str:
        if not params:
            return "void"
        rendered = []
        for param in params:
            dims = "".join(f"[{expr_to_source(d)}]" for d in param.array_dims)
            type_text = str(param.type)
            space = "" if type_text.endswith("*") or not param.name else " "
            rendered.append(f"{type_text}{space}{param.name}{dims}")
        return ", ".join(rendered)

    # -- statements ------------------------------------------------------------

    def _print_block(self, block: ast.Block) -> None:
        self._emit("{")
        self._depth += 1
        for stmt in block.stmts:
            self._print_stmt(stmt)
        self._depth -= 1
        self._emit("}")

    def _print_body(self, stmt: ast.Stmt) -> None:
        """Print a loop/if body, indenting single statements."""
        if isinstance(stmt, ast.Block):
            self._print_block(stmt)
        else:
            self._depth += 1
            self._print_stmt(stmt)
            self._depth -= 1

    def _print_stmt(self, stmt: ast.Stmt) -> None:
        if not isinstance(stmt, ast.Block):
            self._mark(stmt)
        if isinstance(stmt, ast.Block):
            self._print_block(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._emit(expr_to_source(stmt.expr) + ";")
        elif isinstance(stmt, ast.Decl):
            self._emit(self._decl_text(stmt) + ";")
        elif isinstance(stmt, ast.DeclGroup):
            head = self._decl_text(stmt.decls[0])
            rest = [self._decl_tail_text(decl) for decl in stmt.decls[1:]]
            self._emit(", ".join([head] + rest) + ";")
        elif isinstance(stmt, ast.Pragma):
            self._emit(f"#pragma {stmt.text}")
        elif isinstance(stmt, ast.If):
            self._emit(f"if ({expr_to_source(stmt.cond)})")
            self._print_body(stmt.then)
            if stmt.other is not None:
                self._emit("else")
                self._print_body(stmt.other)
        elif isinstance(stmt, ast.For):
            init = self._for_init_text(stmt.init)
            cond = expr_to_source(stmt.cond) if stmt.cond is not None else ""
            step = expr_to_source(stmt.step) if stmt.step is not None else ""
            self._emit(f"for ({init}; {cond}; {step})")
            self._print_body(stmt.body)
        elif isinstance(stmt, ast.While):
            self._emit(f"while ({expr_to_source(stmt.cond)})")
            self._print_body(stmt.body)
        elif isinstance(stmt, ast.DoWhile):
            self._emit("do")
            self._print_body(stmt.body)
            self._emit(f"while ({expr_to_source(stmt.cond)});")
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                self._emit("return;")
            else:
                self._emit(f"return {expr_to_source(stmt.value)};")
        elif isinstance(stmt, ast.Break):
            self._emit("break;")
        elif isinstance(stmt, ast.Continue):
            self._emit("continue;")
        elif isinstance(stmt, ast.EmptyStmt):
            self._emit(";")
        else:
            raise TypeError(f"cannot print statement of type {type(stmt).__name__}")

    def _decl_text(self, decl: ast.Decl) -> str:
        dims = "".join(f"[{expr_to_source(d)}]" for d in decl.array_dims)
        type_text = str(decl.type)
        space = "" if type_text.endswith("*") else " "
        text = f"{type_text}{space}{decl.name}{dims}"
        if decl.init is not None:
            text += f" = {expr_to_source(decl.init)}"
        return text

    def _decl_tail_text(self, decl: ast.Decl) -> str:
        """Render a non-first comma declarator (stars + name + dims)."""
        stars = "*" * decl.type.pointers
        dims = "".join(f"[{expr_to_source(d)}]" for d in decl.array_dims)
        text = f"{stars}{decl.name}{dims}"
        if decl.init is not None:
            text += f" = {expr_to_source(decl.init)}"
        return text

    def _for_init_text(self, init: Optional[ast.Stmt]) -> str:
        if init is None:
            return ""
        if isinstance(init, ast.ExprStmt):
            return expr_to_source(init.expr)
        if isinstance(init, ast.Decl):
            return self._decl_text(init)
        if isinstance(init, ast.DeclGroup):
            head = self._decl_text(init.decls[0])
            rest = [self._decl_tail_text(decl) for decl in init.decls[1:]]
            return ", ".join([head] + rest)
        raise TypeError(f"unsupported for-init node {type(init).__name__}")


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

_PRECEDENCE = {
    ",": 0,
    "=": 1, "+=": 1, "-=": 1, "*=": 1, "/=": 1, "%=": 1,
    "&=": 1, "|=": 1, "^=": 1, "<<=": 1, ">>=": 1,
    "?:": 2,
    "||": 3,
    "&&": 4,
    "|": 5,
    "^": 6,
    "&": 7,
    "==": 8, "!=": 8,
    "<": 9, ">": 9, "<=": 9, ">=": 9,
    "<<": 10, ">>": 10,
    "+": 11, "-": 11,
    "*": 12, "/": 12, "%": 12,
}
_UNARY_PRECEDENCE = 13
_POSTFIX_PRECEDENCE = 14
_PRIMARY_PRECEDENCE = 15


def _expr_parts(expr: ast.Expr) -> "tuple[str, int]":
    """Render an expression; return (text, precedence of its top operator)."""
    if isinstance(expr, ast.IntLit):
        return expr.text, _PRIMARY_PRECEDENCE
    if isinstance(expr, ast.FloatLit):
        return expr.text, _PRIMARY_PRECEDENCE
    if isinstance(expr, ast.StringLit):
        return expr.text, _PRIMARY_PRECEDENCE
    if isinstance(expr, ast.CharLit):
        return expr.text, _PRIMARY_PRECEDENCE
    if isinstance(expr, ast.Ident):
        return expr.name, _PRIMARY_PRECEDENCE
    if isinstance(expr, ast.ArrayRef):
        base = _wrap(expr.base, _POSTFIX_PRECEDENCE)
        indices = "".join(f"[{expr_to_source(i)}]" for i in expr.indices)
        return base + indices, _POSTFIX_PRECEDENCE
    if isinstance(expr, ast.Call):
        func = _wrap(expr.func, _POSTFIX_PRECEDENCE)
        args = ", ".join(expr_to_source(a) for a in expr.args)
        return f"{func}({args})", _POSTFIX_PRECEDENCE
    if isinstance(expr, ast.Member):
        base = _wrap(expr.base, _POSTFIX_PRECEDENCE)
        sep = "->" if expr.arrow else "."
        return f"{base}{sep}{expr.field_name}", _POSTFIX_PRECEDENCE
    if isinstance(expr, ast.UnaryOp):
        if expr.postfix:
            operand = _wrap(expr.operand, _POSTFIX_PRECEDENCE)
            return f"{operand}{expr.op}", _POSTFIX_PRECEDENCE
        operand = _wrap(expr.operand, _UNARY_PRECEDENCE)
        return f"{expr.op}{operand}", _UNARY_PRECEDENCE
    if isinstance(expr, ast.Cast):
        operand = _wrap(expr.operand, _UNARY_PRECEDENCE)
        return f"({expr.type}){operand}", _UNARY_PRECEDENCE
    if isinstance(expr, ast.SizeOf):
        if expr.type is not None:
            return f"sizeof({expr.type})", _PRIMARY_PRECEDENCE
        return f"sizeof {_wrap(expr.operand, _UNARY_PRECEDENCE)}", _UNARY_PRECEDENCE
    if isinstance(expr, ast.BinOp):
        prec = _PRECEDENCE[expr.op]
        lhs = _wrap(expr.lhs, prec)
        rhs = _wrap(expr.rhs, prec + 1)
        if expr.op == ",":
            return f"{lhs}, {rhs}", prec
        return f"{lhs} {expr.op} {rhs}", prec
    if isinstance(expr, ast.Assign):
        prec = _PRECEDENCE[expr.op]
        lhs = _wrap(expr.lhs, prec + 1)
        rhs = _wrap(expr.rhs, prec)
        return f"{lhs} {expr.op} {rhs}", prec
    if isinstance(expr, ast.TernaryOp):
        cond = _wrap(expr.cond, _PRECEDENCE["?:"] + 1)
        then = expr_to_source(expr.then)
        other = _wrap(expr.other, _PRECEDENCE["?:"])
        return f"{cond} ? {then} : {other}", _PRECEDENCE["?:"]
    if isinstance(expr, ast.CompoundLiteral):
        items = ", ".join(expr_to_source(i) for i in expr.items)
        return "{" + items + "}", _PRIMARY_PRECEDENCE
    raise TypeError(f"cannot print expression of type {type(expr).__name__}")


def _wrap(expr: Optional[ast.Expr], min_precedence: int) -> str:
    if expr is None:
        return ""
    text, precedence = _expr_parts(expr)
    if precedence < min_precedence:
        return f"({text})"
    return text


def expr_to_source(expr: Optional[ast.Expr]) -> str:
    """Render one expression subtree to C text."""
    if expr is None:
        return ""
    text, _ = _expr_parts(expr)
    return text


def to_source(node: ast.Node) -> str:
    """Render any AST node (usually a TranslationUnit) to C source text."""
    return _Printer().render(node)


def to_source_with_map(node: ast.Node) -> "tuple[str, SourceMap]":
    """Render to C text and return the expanded node -> line map.

    Every node of the subtree (including sub-expressions) resolves to
    the 1-based line of the statement that prints it; this is what the
    static-analysis diagnostics use for locations.
    """
    source_map = SourceMap()
    text = _Printer(source_map).render(node)
    return text, source_map.expand(node)


# ---------------------------------------------------------------------------
# logical LOC
# ---------------------------------------------------------------------------


def logical_lines(node: ast.Node) -> int:
    """Count logical lines of code of an AST subtree.

    One logical line per: declaration, simple statement, control
    structure header (``if``/``for``/``while``/``do``), ``else`` arm,
    ``return``/``break``/``continue``, pragma, preprocessor directive,
    typedef and function signature.  Blocks and empty statements are
    free.  This matches how the paper's O-LOC/W-LOC columns treat
    source lines (brace-only lines do not count).
    """
    if isinstance(node, ast.TranslationUnit):
        return sum(logical_lines(decl) for decl in node.decls)
    if isinstance(node, (ast.Include, ast.MacroDef, ast.RawDirective, ast.Typedef)):
        return 1
    if isinstance(node, ast.FunctionDecl):
        return 1
    if isinstance(node, ast.FunctionDef):
        return 1 + len(node.pragmas) + logical_lines(node.body)
    if isinstance(node, ast.Block):
        return sum(logical_lines(stmt) for stmt in node.stmts)
    if isinstance(node, ast.If):
        count = 1 + logical_lines(node.then)
        if node.other is not None:
            count += 1 + logical_lines(node.other)
        return count
    if isinstance(node, ast.For):
        return 1 + logical_lines(node.body)
    if isinstance(node, (ast.While, ast.DoWhile)):
        return 1 + logical_lines(node.body)
    if isinstance(node, (ast.ExprStmt, ast.Decl, ast.DeclGroup, ast.Pragma, ast.Return, ast.Break, ast.Continue)):
        return 1
    if isinstance(node, ast.EmptyStmt):
        return 0
    return 0
