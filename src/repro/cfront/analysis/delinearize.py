"""Affine delinearization of array index expressions.

C kernels frequently access logically multi-dimensional tensors through a
flat array with an affine index such as ``A[i * N + j]`` or
``A[(i * M + j) * K + k]``.  Following the delinearization technique the
paper cites (O'Boyle & Knijnenburg, 2002), this pass recovers the standard
multi-dimensional access form: it decomposes an index expression into a list
of *subscripts*, one per recovered dimension, each driven by one induction
variable.

The dimension prediction of Section 4.2.3 only needs the *count* of recovered
subscripts, but the full decomposition is exposed because the validator uses
it to sanity-check shapes and the tests exercise it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ast import (
    ArrayIndex,
    BinaryOp,
    Cast,
    Expr,
    Identifier,
    IntLiteral,
    UnaryOp,
)


@dataclass(frozen=True)
class AffineTerm:
    """A single affine term: ``coefficient * variable`` (symbolic coefficient)."""

    variable: str
    coefficient: Tuple[str, ...] = ()  # symbolic size factors, e.g. ("N", "M")
    constant_coefficient: int = 1


@dataclass
class AffineForm:
    """An affine combination of induction variables plus a constant offset."""

    terms: List[AffineTerm] = field(default_factory=list)
    constant: int = 0
    is_affine: bool = True

    def variables(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for term in self.terms:
            seen.setdefault(term.variable, None)
        return tuple(seen)


def affine_form(
    expr: Expr, induction_variables: Sequence[str], size_names: Sequence[str]
) -> AffineForm:
    """Decompose *expr* as an affine combination of induction variables.

    Any structure outside the affine fragment marks the form as non-affine,
    in which case callers fall back to counting distinct induction variables.
    """
    induction = set(induction_variables)
    sizes = set(size_names)
    form = AffineForm()

    def fail() -> None:
        form.is_affine = False

    def visit(node: Expr, multiplier: Tuple[str, ...], constant_multiplier: int, sign: int) -> None:
        if not form.is_affine:
            return
        if isinstance(node, Cast):
            visit(node.operand, multiplier, constant_multiplier, sign)
            return
        if isinstance(node, IntLiteral):
            if multiplier:
                # constant times symbolic sizes: treat as plain constant shift
                form.constant += sign * node.value * constant_multiplier
            else:
                form.constant += sign * node.value * constant_multiplier
            return
        if isinstance(node, Identifier):
            if node.name in induction:
                form.terms.append(
                    AffineTerm(node.name, multiplier, sign * constant_multiplier)
                )
                return
            if node.name in sizes:
                # A bare size name contributes a symbolic constant; it does
                # not affect which induction variables drive the access.
                return
            fail()
            return
        if isinstance(node, UnaryOp) and node.op == "-":
            visit(node.operand, multiplier, constant_multiplier, -sign)
            return
        if isinstance(node, BinaryOp):
            if node.op == "+":
                visit(node.left, multiplier, constant_multiplier, sign)
                visit(node.right, multiplier, constant_multiplier, sign)
                return
            if node.op == "-":
                visit(node.left, multiplier, constant_multiplier, sign)
                visit(node.right, multiplier, constant_multiplier, -sign)
                return
            if node.op == "*":
                left_factor = _constant_factor(node.left, induction, sizes)
                right_factor = _constant_factor(node.right, induction, sizes)
                if left_factor is not None:
                    symbols, value = left_factor
                    visit(node.right, multiplier + symbols, constant_multiplier * value, sign)
                    return
                if right_factor is not None:
                    symbols, value = right_factor
                    visit(node.left, multiplier + symbols, constant_multiplier * value, sign)
                    return
                fail()
                return
            fail()
            return
        fail()

    visit(expr, (), 1, 1)
    return form


def _constant_factor(
    node: Expr, induction: Set[str], sizes: Set[str]
) -> Optional[Tuple[Tuple[str, ...], int]]:
    """If *node* is free of induction variables, return its symbolic factors."""
    symbols: List[str] = []
    value = 1

    def visit(n: Expr) -> bool:
        nonlocal value
        if isinstance(n, IntLiteral):
            value *= n.value
            return True
        if isinstance(n, Identifier):
            if n.name in induction:
                return False
            symbols.append(n.name)
            return True
        if isinstance(n, Cast):
            return visit(n.operand)
        if isinstance(n, BinaryOp) and n.op == "*":
            return visit(n.left) and visit(n.right)
        if isinstance(n, UnaryOp) and n.op == "-":
            value_sign_ok = visit(n.operand)
            value *= -1
            return value_sign_ok
        return False

    if visit(node):
        return tuple(symbols), value
    return None


def delinearize_index(
    expr: Expr,
    induction_variables: Sequence[str],
    size_names: Sequence[str],
) -> Tuple[Tuple[str, ...], ...]:
    """Recover the multi-dimensional subscripts of a flat index expression.

    The heuristic groups affine terms by the *number of symbolic size
    factors* in their coefficient: a term ``i * N * M`` belongs to a more
    significant dimension than ``j * N``, which in turn is more significant
    than ``k``.  For the common row-major linearisations this recovers the
    textbook decomposition:

    ``i*N + j``           -> ``((i,), (j,))``
    ``(i*M + j)*K + k``   -> ``((i,), (j,), (k,))``
    ``i``                 -> ``((i,),)``
    """
    form = affine_form(expr, induction_variables, size_names)
    if not form.is_affine or not form.terms:
        # Fall back: one dimension per distinct induction variable present.
        variables = _distinct_induction_variables(expr, induction_variables)
        return tuple((v,) for v in variables)
    by_weight: Dict[int, List[str]] = {}
    for term in form.terms:
        weight = len(term.coefficient) + (abs(term.constant_coefficient) > 1)
        by_weight.setdefault(weight, []).append(term.variable)
    subscripts: List[Tuple[str, ...]] = []
    for weight in sorted(by_weight, reverse=True):
        variables = tuple(dict.fromkeys(by_weight[weight]))
        subscripts.append(variables)
    return tuple(subscripts)


def recovered_rank(
    expr: Expr, induction_variables: Sequence[str], size_names: Sequence[str]
) -> int:
    """The number of dimensions recovered from a flat index expression."""
    subscripts = delinearize_index(expr, induction_variables, size_names)
    return len(subscripts)


def _distinct_induction_variables(
    expr: Expr, induction_variables: Sequence[str]
) -> Tuple[str, ...]:
    from ..ast import walk_expressions

    induction = set(induction_variables)
    seen: Dict[str, None] = {}
    for node in walk_expressions(expr):
        if isinstance(node, Identifier) and node.name in induction:
            seen.setdefault(node.name, None)
    return tuple(seen)


def subscript_rank(
    access: ArrayIndex, induction_variables: Sequence[str], size_names: Sequence[str]
) -> int:
    """Rank of a (possibly nested) subscript access ``A[..][..]``.

    Nested subscripts each contribute at least one dimension; flat affine
    subscripts are delinearized.
    """
    # Collect the chain of index expressions from the outermost ArrayIndex in.
    indices: List[Expr] = []
    node: Expr = access
    while isinstance(node, ArrayIndex):
        indices.append(node.index)
        node = node.base
    indices.reverse()
    total = 0
    for index in indices:
        total += max(1, recovered_rank(index, induction_variables, size_names))
    # An access with no induction variables at all (e.g. ``A[0]``) is scalar-like.
    if all(
        not _distinct_induction_variables(index, induction_variables) for index in indices
    ):
        return 0
    return total
