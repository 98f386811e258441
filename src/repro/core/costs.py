"""Cost model for the weighted A* searches (Section 5).

Three quantities make up the score of a partial template ``x``:

* ``c(x)``   — accumulated cost: the sum of ``-log2 P[r]`` over the rules
  applied so far (probabilities turned into additive costs),
* ``g(x)``   — heuristic completion cost; the top-down search uses the
  ``h(alpha)`` fixpoint of the pCFG, the bottom-up search a per-remaining-
  position minimum,
* ``X(x)``   — the penalty term (see :mod:`repro.core.penalties`).

This module implements the first two.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from ..grammars import (
    NonTerminal,
    ProbabilisticGrammar,
    Production,
    Symbol,
    completion_costs,
    heuristic_completion_cost,
    is_nonterminal,
)
from .dimension_list import DimensionList
from .grammar_gen import position_nonterminal

#: Floor applied when converting probabilities to costs.
_PROBABILITY_FLOOR = 1e-12


class TopDownCostModel:
    """``c`` and ``g`` for the top-down search over a pCFG."""

    def __init__(self, grammar: ProbabilisticGrammar) -> None:
        self._grammar = grammar
        self._completion = completion_costs(grammar)

    def production_cost(self, production: Production) -> float:
        return -math.log2(max(self._grammar.probability(production), _PROBABILITY_FLOOR))

    def completion_cost(self, symbols: Sequence[Symbol]) -> float:
        """``g(x)``: minimal cost of completing every open non-terminal."""
        return heuristic_completion_cost(symbols, self._completion)


class BottomUpCostModel:
    """``c`` and the simplified ``g`` of Section 5.2 for the bottom-up search.

    ``g(x) = sum_{i=k}^{|L|} m(L[i+1])`` where ``k`` is the number of tensors
    already placed and ``m(d)`` is the minimal cost of adding a tensor of
    dimension ``d`` — computed here as the cheapest production of the
    corresponding position non-terminal (plus the cheapest operator for every
    position after the first).
    """

    def __init__(
        self, grammar: ProbabilisticGrammar, dimension_list: DimensionList
    ) -> None:
        self._grammar = grammar
        self._dimension_list = dimension_list
        self._position_costs: Dict[int, float] = {}
        self._min_operator_cost = self._compute_min_operator_cost()
        num_rhs = max(len(dimension_list) - 1, 1)
        for position in range(2, num_rhs + 2):
            self._position_costs[position] = self._compute_position_cost(position)

    def production_cost(self, production: Production) -> float:
        return -math.log2(max(self._grammar.probability(production), _PROBABILITY_FLOOR))

    def _compute_min_operator_cost(self) -> float:
        op_nt = NonTerminal("OP")
        if not self._grammar.has_nonterminal(op_nt):
            return 0.0
        return min(
            self.production_cost(p) for p in self._grammar.productions_for(op_nt)
        )

    def _compute_position_cost(self, position: int) -> float:
        nt = position_nonterminal(position)
        if not self._grammar.has_nonterminal(nt):
            return 0.0
        best = min(self.production_cost(p) for p in self._grammar.productions_for(nt))
        if position > 2:
            best += self._min_operator_cost
        return best

    def completion_cost(self, tensors_placed: int) -> float:
        """``g(x)`` given the number of right-hand-side tensors already placed."""
        num_rhs = max(len(self._dimension_list) - 1, 1)
        total = 0.0
        for position in range(2 + tensors_placed, num_rhs + 2):
            total += self._position_costs.get(position, 0.0)
        return total


def count_rhs_tensors(symbols: Sequence[Symbol]) -> int:
    """Number of already-placed operand tokens on the right-hand side.

    Counts terminal tokens after the ``=`` sign that are not operators or
    parentheses — exactly the tensors/constants the bottom-up chain has
    emitted so far.
    """
    seen_assign = False
    count = 0
    for symbol in symbols:
        if is_nonterminal(symbol):
            continue
        token = str(symbol)
        if token == "=":
            seen_assign = True
            continue
        if not seen_assign:
            continue
        if token in ("+", "-", "*", "/", "(", ")"):
            continue
        count += 1
    return count
