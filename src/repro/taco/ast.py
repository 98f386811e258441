"""Abstract syntax trees for TACO tensor-index expressions.

The language follows the grammar of Figure 5 in the paper:

    PROGRAM    ::= TENSOR "=" EXPR
    TENSOR     ::= IDENTIFIER | IDENTIFIER "(" INDEX-EXPR ")"
    EXPR       ::= TENSOR | CONSTANT | "(" EXPR ")" | "-" EXPR
                 | EXPR "+" EXPR | EXPR "-" EXPR | EXPR "*" EXPR | EXPR "/" EXPR

AST nodes are frozen dataclasses: they are hashable, comparable and can be
used as dictionary keys, which the templatization and validation machinery
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Sequence, Tuple, Union

from .errors import TacoTypeError


class BinOp(str, Enum):
    """The four binary operators supported by the extended einsum notation."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Expression:
    """Base class for all expression nodes."""

    def tensors(self) -> Tuple["TensorAccess", ...]:
        """All tensor accesses in the expression, left-to-right."""
        out: List[TensorAccess] = []
        _collect_tensors(self, out)
        return tuple(out)

    def constants(self) -> Tuple["Constant", ...]:
        """All constant leaves in the expression, left-to-right."""
        out: List[Constant] = []
        _collect_constants(self, out)
        return tuple(out)

    def index_variables(self) -> Tuple[str, ...]:
        """All index variables, in order of first appearance."""
        seen: dict[str, None] = {}
        for access in self.tensors():
            for index in access.indices:
                seen.setdefault(index, None)
        return tuple(seen)

    def operators(self) -> Tuple[BinOp, ...]:
        """All binary operators in the expression, left-to-right."""
        out: List[BinOp] = []
        _collect_operators(self, out)
        return tuple(out)

    def depth(self) -> int:
        """Expression depth excluding index expressions.

        Matches the measure of Section 5.1: a single tensor access has depth
        1, ``b(i) + c(i,j)`` has depth 2.
        """
        return _depth(self)


@dataclass(frozen=True)
class TensorAccess(Expression):
    """An access ``name(indices...)``; rank-0 accesses have no indices."""

    name: str
    indices: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise TacoTypeError("tensor access requires a non-empty name")
        if not isinstance(self.indices, tuple):
            object.__setattr__(self, "indices", tuple(self.indices))

    @property
    def rank(self) -> int:
        """The number of index variables used to access the tensor."""
        return len(self.indices)

    @property
    def is_scalar(self) -> bool:
        return self.rank == 0

    def rename(self, name: str) -> "TensorAccess":
        """A copy of this access with a different tensor name."""
        return TensorAccess(name, self.indices)

    def with_indices(self, indices: Sequence[str]) -> "TensorAccess":
        """A copy of this access with different index variables."""
        return TensorAccess(self.name, tuple(indices))

    def __str__(self) -> str:
        if not self.indices:
            return self.name
        return f"{self.name}({','.join(self.indices)})"


@dataclass(frozen=True)
class Constant(Expression):
    """A literal constant.  Values are kept exact (int or Fraction-friendly)."""

    value: Union[int, float]

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class SymbolicConstant(Expression):
    """A templatized constant placeholder (``Const`` in the paper).

    During template instantiation symbolic constants are replaced with the
    literal constants harvested from the input C program.
    """

    name: str = "Const"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary negation ``-expr``."""

    operand: Expression

    def __str__(self) -> str:
        return f"-{_maybe_parenthesize(self.operand)}"


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary operation ``left op right``."""

    op: BinOp
    left: Expression
    right: Expression

    def __str__(self) -> str:
        return (
            f"{_maybe_parenthesize(self.left)} {self.op.value} "
            f"{_maybe_parenthesize(self.right)}"
        )


@dataclass(frozen=True)
class TacoProgram:
    """A full TACO program: ``lhs = rhs``.

    The left-hand side must be a tensor access whose index variables are
    pairwise distinct (an output index may not repeat).
    """

    lhs: TensorAccess
    rhs: Expression

    def __post_init__(self) -> None:
        if len(set(self.lhs.indices)) != len(self.lhs.indices):
            raise TacoTypeError(
                f"left-hand side {self.lhs} repeats an index variable"
            )

    # ------------------------------------------------------------------ #
    # Structural queries used throughout the pipeline
    # ------------------------------------------------------------------ #
    def tensors(self) -> Tuple[TensorAccess, ...]:
        """All tensor accesses: LHS first, then RHS accesses left-to-right."""
        return (self.lhs,) + self.rhs.tensors()

    def tensor_names(self) -> Tuple[str, ...]:
        """Unique tensor names in order of first appearance (LHS first)."""
        seen: dict[str, None] = {}
        for access in self.tensors():
            seen.setdefault(access.name, None)
        return tuple(seen)

    def index_variables(self) -> Tuple[str, ...]:
        """Unique index variables in order of first appearance (LHS first)."""
        seen: dict[str, None] = {}
        for index in self.lhs.indices:
            seen.setdefault(index, None)
        for index in self.rhs.index_variables():
            seen.setdefault(index, None)
        return tuple(seen)

    def reduction_variables(self) -> Tuple[str, ...]:
        """Index variables that appear on the RHS but not on the LHS.

        These are summed over by the implicit einsum reduction.
        """
        lhs_indices = set(self.lhs.indices)
        return tuple(
            index for index in self.rhs.index_variables() if index not in lhs_indices
        )

    def dimension_list(self) -> Tuple[int, ...]:
        """The dimension list of Definition 4.5.

        One entry per *unique* tensor, in order of first appearance (LHS
        first), holding the rank of that tensor.  Constants contribute 0 and
        are appended after the tensors, matching the paper's convention of
        listing "the dimensions of constants and variables as 0".
        """
        dims: dict[str, int] = {}
        for access in self.tensors():
            dims.setdefault(access.name, access.rank)
        result = list(dims.values())
        result.extend(0 for _ in self.rhs.constants())
        for node in walk(self.rhs):
            if isinstance(node, SymbolicConstant):
                result.append(0)
        return tuple(result)

    def operators(self) -> Tuple[BinOp, ...]:
        return self.rhs.operators()

    def depth(self) -> int:
        return self.rhs.depth()

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


# ---------------------------------------------------------------------- #
# Tree traversal helpers
# ---------------------------------------------------------------------- #
def walk(node: Union[Expression, TacoProgram]) -> Iterator[Expression]:
    """Yield every expression node in *node*, pre-order."""
    if isinstance(node, TacoProgram):
        yield node.lhs
        yield from walk(node.rhs)
        return
    yield node
    if isinstance(node, BinaryOp):
        yield from walk(node.left)
        yield from walk(node.right)
    elif isinstance(node, UnaryOp):
        yield from walk(node.operand)


def _collect_tensors(node: Expression, out: List[TensorAccess]) -> None:
    if isinstance(node, TensorAccess):
        out.append(node)
    elif isinstance(node, BinaryOp):
        _collect_tensors(node.left, out)
        _collect_tensors(node.right, out)
    elif isinstance(node, UnaryOp):
        _collect_tensors(node.operand, out)


def _collect_constants(node: Expression, out: List[Constant]) -> None:
    if isinstance(node, Constant):
        out.append(node)
    elif isinstance(node, BinaryOp):
        _collect_constants(node.left, out)
        _collect_constants(node.right, out)
    elif isinstance(node, UnaryOp):
        _collect_constants(node.operand, out)


def _collect_operators(node: Expression, out: List[BinOp]) -> None:
    if isinstance(node, BinaryOp):
        out.append(node.op)
        _collect_operators(node.left, out)
        _collect_operators(node.right, out)
    elif isinstance(node, UnaryOp):
        _collect_operators(node.operand, out)


def _depth(node: Expression) -> int:
    if isinstance(node, (TensorAccess, Constant, SymbolicConstant)):
        return 1
    if isinstance(node, UnaryOp):
        return _depth(node.operand)
    if isinstance(node, BinaryOp):
        return 1 + max(_depth(node.left), _depth(node.right))
    raise TacoTypeError(f"unknown expression node {node!r}")


def _maybe_parenthesize(node: Expression) -> str:
    if isinstance(node, BinaryOp):
        return f"({node})"
    return str(node)


def contains_symbolic_constant(node: Union[Expression, TacoProgram]) -> bool:
    """True when the expression/program contains a ``Const`` placeholder."""
    return any(isinstance(n, SymbolicConstant) for n in walk(node))
