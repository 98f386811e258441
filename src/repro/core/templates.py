"""Templatization of LLM candidate solutions (Section 4.2.1, Figure 4).

A *template* is a TACO program in which

* every tensor name has been replaced by a symbolic tensor variable
  (``a`` for the left-hand side, then ``b``, ``c``, ... by order of first
  appearance on the right-hand side),
* every index variable has been standardised to the canonical set
  ``i, j, k, l`` by order of first appearance, and
* every literal constant has been replaced by the symbolic placeholder
  ``Const``.

Templates generate concrete programs through *substitutions* that map the
symbolic tensor variables back onto the arguments of the legacy C function
and ``Const`` onto a constant harvested from its source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..taco import (
    BinaryOp,
    Constant,
    Expression,
    SymbolicConstant,
    TacoProgram,
    TensorAccess,
    UnaryOp,
)
from ..taco.grammar import CANONICAL_INDEX_VARIABLES, CANONICAL_TENSOR_NAMES

#: The symbolic name reserved for the left-hand-side tensor.
LHS_SYMBOL = CANONICAL_TENSOR_NAMES[0]  # "a"


@dataclass(frozen=True)
class Template:
    """A templatized TACO program plus its bookkeeping.

    Attributes
    ----------
    program:
        The templatized program (symbolic tensors / indices / constants).
    tensor_mapping:
        Maps each symbolic tensor name back to the original name it replaced
        in the candidate the template was derived from (informational).
    """

    program: TacoProgram
    tensor_mapping: Tuple[Tuple[str, str], ...] = ()

    # ------------------------------------------------------------------ #
    # Structural queries
    # ------------------------------------------------------------------ #
    @property
    def lhs_rank(self) -> int:
        return self.program.lhs.rank

    def tensor_symbols(self) -> Tuple[str, ...]:
        """Unique symbolic tensor names, LHS first."""
        return self.program.tensor_names()

    def dimension_list(self) -> Tuple[int, ...]:
        """The dimension list of Definition 4.5 for this template.

        One entry per unique tensor (LHS first, then RHS tensors by first
        appearance), then one ``0`` entry for each constant placeholder /
        literal, matching the paper's convention of listing the dimension of
        constants and scalar variables as 0.
        """
        dims: List[int] = []
        seen: Dict[str, int] = {}
        for access in self.program.tensors():
            if access.name not in seen:
                seen[access.name] = access.rank
                dims.append(access.rank)
        constant_count = len(self.program.rhs.constants()) + sum(
            1
            for node in _walk_expression(self.program.rhs)
            if isinstance(node, SymbolicConstant)
        )
        dims.extend([0] * constant_count)
        return tuple(dims)

    def num_unique_indices(self) -> int:
        return len(self.program.index_variables())

    def has_constant(self) -> bool:
        return any(
            isinstance(node, (Constant, SymbolicConstant))
            for node in _walk_expression(self.program.rhs)
        )

    def __str__(self) -> str:
        return str(self.program)


def _walk_expression(expr: Expression):
    yield expr
    if isinstance(expr, BinaryOp):
        yield from _walk_expression(expr.left)
        yield from _walk_expression(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from _walk_expression(expr.operand)


def templatize(program: TacoProgram) -> Template:
    """Derive the template of a candidate solution (Figure 4).

    The three standardisation stages are applied in the paper's order:
    tensor templatization, index standardization, constant templatization.
    """
    # --- Tensor templatization ---------------------------------------- #
    tensor_map: Dict[str, str] = {}
    order: List[str] = []

    def symbol_for(name: str) -> str:
        if name not in tensor_map:
            symbol = CANONICAL_TENSOR_NAMES[len(order) % len(CANONICAL_TENSOR_NAMES)]
            tensor_map[name] = symbol
            order.append(name)
        return tensor_map[name]

    symbol_for(program.lhs.name)  # the LHS is always "a"
    for access in program.rhs.tensors():
        symbol_for(access.name)

    # --- Index standardization ----------------------------------------- #
    index_map: Dict[str, str] = {}

    def index_for(variable: str) -> str:
        if variable not in index_map:
            position = len(index_map)
            pool = CANONICAL_INDEX_VARIABLES
            index_map[variable] = (
                pool[position] if position < len(pool) else f"i{position}"
            )
        return index_map[variable]

    for variable in program.lhs.indices:
        index_for(variable)
    for variable in program.rhs.index_variables():
        index_for(variable)

    # --- Rebuild the program with constants templatized ----------------- #
    def rewrite(expr: Expression) -> Expression:
        if isinstance(expr, TensorAccess):
            return TensorAccess(
                symbol_for(expr.name), tuple(index_for(v) for v in expr.indices)
            )
        if isinstance(expr, Constant):
            return SymbolicConstant()
        if isinstance(expr, SymbolicConstant):
            return expr
        if isinstance(expr, UnaryOp):
            return UnaryOp(rewrite(expr.operand))
        if isinstance(expr, BinaryOp):
            return BinaryOp(expr.op, rewrite(expr.left), rewrite(expr.right))
        raise TypeError(f"unknown expression node {expr!r}")

    lhs = TensorAccess(
        symbol_for(program.lhs.name),
        tuple(index_for(v) for v in program.lhs.indices),
    )
    templatized = TacoProgram(lhs, rewrite(program.rhs))
    mapping = tuple((tensor_map[name], name) for name in order)
    return Template(program=templatized, tensor_mapping=mapping)


def templatize_all(programs: Sequence[TacoProgram]) -> List[Template]:
    """Templatize a batch of candidates, skipping any that fail standardisation."""
    templates: List[Template] = []
    for program in programs:
        try:
            templates.append(templatize(program))
        except Exception:  # noqa: BLE001 - malformed candidates are simply dropped
            continue
    return templates


def deduplicate(templates: Sequence[Template]) -> List[Template]:
    """Remove templates that are structurally identical.

    Structural identity is equality of the templatized program text, which is
    exactly the grouping effect templatization is designed to achieve
    (Section 4.2: syntactically different but structurally equivalent
    candidates collapse onto one template).
    """
    seen: Dict[str, Template] = {}
    for template in templates:
        seen.setdefault(str(template.program), template)
    return list(seen.values())
