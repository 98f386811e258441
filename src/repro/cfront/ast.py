"""Abstract syntax trees for the mini-C subset.

The node set is intentionally small: it covers the dense tensor kernels of
the benchmark corpus (loop nests over arrays, pointer walking, scalar
accumulation) rather than the whole of C.  Nodes are plain dataclasses;
analysis passes traverse them with :func:`walk_statements` /
:func:`walk_expressions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union


# ---------------------------------------------------------------------- #
# Types
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CType:
    """A (very small) C type: a base name plus a pointer depth."""

    base: str          # "int", "float", "double", "void", ...
    pointer_depth: int = 0

    @property
    def is_pointer(self) -> bool:
        return self.pointer_depth > 0

    @property
    def is_floating(self) -> bool:
        return self.base in ("float", "double")

    def __str__(self) -> str:
        return self.base + "*" * self.pointer_depth


# ---------------------------------------------------------------------- #
# Expressions
# ---------------------------------------------------------------------- #
class Expr:
    """Base class for expressions."""


@dataclass
class IntLiteral(Expr):
    value: int


@dataclass
class FloatLiteral(Expr):
    value: float


@dataclass
class Identifier(Expr):
    name: str


@dataclass
class ArrayIndex(Expr):
    """``base[index]`` — base may itself be an expression (pointer or array)."""

    base: Expr
    index: Expr


@dataclass
class UnaryOp(Expr):
    """Prefix unary operation: ``-x``, ``!x``, ``*p``, ``&x``, ``~x``."""

    op: str
    operand: Expr


@dataclass
class IncDec(Expr):
    """``++x`` / ``--x`` / ``x++`` / ``x--`` on an lvalue expression."""

    op: str              # "++" or "--"
    operand: Expr
    is_prefix: bool


@dataclass
class BinaryOp(Expr):
    op: str              # arithmetic, relational or logical operator
    left: Expr
    right: Expr


@dataclass
class Conditional(Expr):
    """Ternary ``cond ? then : otherwise``."""

    condition: Expr
    then: Expr
    otherwise: Expr


@dataclass
class Assignment(Expr):
    """``target op value`` where op is ``=``, ``+=``, ``-=``, ``*=`` or ``/=``."""

    op: str
    target: Expr
    value: Expr


@dataclass
class Call(Expr):
    """A function call.  Only a small builtin set is interpreted (abs, fabs)."""

    name: str
    args: List[Expr] = field(default_factory=list)


@dataclass
class Cast(Expr):
    """A C cast ``(type) expr``; semantically a coercion hint."""

    type: CType
    operand: Expr


# ---------------------------------------------------------------------- #
# Statements
# ---------------------------------------------------------------------- #
class Stmt:
    """Base class for statements."""


@dataclass
class Declarator:
    """One declared name: ``int *p = init`` has name ``p``, depth 1."""

    name: str
    pointer_depth: int = 0
    array_sizes: List[Optional[Expr]] = field(default_factory=list)
    init: Optional[Expr] = None


@dataclass
class Declaration(Stmt):
    base_type: str
    declarators: List[Declarator] = field(default_factory=list)


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    condition: Expr
    then: Stmt
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    condition: Expr
    body: Stmt


@dataclass
class DoWhile(Stmt):
    body: Stmt
    condition: Expr


@dataclass
class For(Stmt):
    init: Optional[Union[Stmt, Expr]]
    condition: Optional[Expr]
    update: Optional[Expr]
    body: Stmt


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Empty(Stmt):
    """A bare ``;``."""


# ---------------------------------------------------------------------- #
# Functions / translation units
# ---------------------------------------------------------------------- #
@dataclass
class Parameter:
    name: str
    type: CType


@dataclass
class FunctionDef:
    name: str
    return_type: CType
    parameters: List[Parameter]
    body: Block

    def parameter(self, name: str) -> Parameter:
        for param in self.parameters:
            if param.name == name:
                return param
        raise KeyError(f"function {self.name} has no parameter {name!r}")

    def parameter_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.parameters)


@dataclass
class TranslationUnit:
    functions: List[FunctionDef] = field(default_factory=list)

    def function(self, name: Optional[str] = None) -> FunctionDef:
        """Look up a function by name, or return the only/first function."""
        if name is None:
            if not self.functions:
                raise KeyError("translation unit contains no functions")
            return self.functions[0]
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")


# ---------------------------------------------------------------------- #
# Traversal helpers
# ---------------------------------------------------------------------- #
def walk_statements(node: Union[Stmt, FunctionDef]) -> Iterator[Stmt]:
    """Yield every statement node reachable from *node*, pre-order."""
    if isinstance(node, FunctionDef):
        yield from walk_statements(node.body)
        return
    yield node
    if isinstance(node, Block):
        for stmt in node.statements:
            yield from walk_statements(stmt)
    elif isinstance(node, If):
        yield from walk_statements(node.then)
        if node.otherwise is not None:
            yield from walk_statements(node.otherwise)
    elif isinstance(node, While):
        yield from walk_statements(node.body)
    elif isinstance(node, DoWhile):
        yield from walk_statements(node.body)
    elif isinstance(node, For):
        if isinstance(node.init, Stmt):
            yield from walk_statements(node.init)
        yield from walk_statements(node.body)


def statement_expressions(stmt: Stmt) -> Iterator[Expr]:
    """Yield the top-level expressions directly attached to *stmt*."""
    if isinstance(stmt, ExprStmt):
        yield stmt.expr
    elif isinstance(stmt, Declaration):
        for decl in stmt.declarators:
            if decl.init is not None:
                yield decl.init
            for size in decl.array_sizes:
                if size is not None:
                    yield size
    elif isinstance(stmt, If):
        yield stmt.condition
    elif isinstance(stmt, While):
        yield stmt.condition
    elif isinstance(stmt, DoWhile):
        yield stmt.condition
    elif isinstance(stmt, For):
        if isinstance(stmt.init, Expr):
            yield stmt.init
        if stmt.condition is not None:
            yield stmt.condition
        if stmt.update is not None:
            yield stmt.update
    elif isinstance(stmt, Return):
        if stmt.value is not None:
            yield stmt.value


def walk_expressions(node: Union[Expr, Stmt, FunctionDef]) -> Iterator[Expr]:
    """Yield every expression node reachable from *node*, pre-order."""
    if isinstance(node, (FunctionDef, Stmt)):
        for stmt in walk_statements(node if isinstance(node, Stmt) else node.body):
            for expr in statement_expressions(stmt):
                yield from walk_expressions(expr)
        return
    yield node
    if isinstance(node, ArrayIndex):
        yield from walk_expressions(node.base)
        yield from walk_expressions(node.index)
    elif isinstance(node, UnaryOp):
        yield from walk_expressions(node.operand)
    elif isinstance(node, IncDec):
        yield from walk_expressions(node.operand)
    elif isinstance(node, BinaryOp):
        yield from walk_expressions(node.left)
        yield from walk_expressions(node.right)
    elif isinstance(node, Conditional):
        yield from walk_expressions(node.condition)
        yield from walk_expressions(node.then)
        yield from walk_expressions(node.otherwise)
    elif isinstance(node, Assignment):
        yield from walk_expressions(node.target)
        yield from walk_expressions(node.value)
    elif isinstance(node, Call):
        for arg in node.args:
            yield from walk_expressions(arg)
    elif isinstance(node, Cast):
        yield from walk_expressions(node.operand)
