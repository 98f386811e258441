"""Penalty functions for the weighted A* searches (Sections 5.1 and 5.2).

The search score of a (partial or complete) template is
``f(x) = c(x) + g(x) + X(x)`` where ``X`` is the sum of the penalties of the
domain-specific syntactic criteria the template violates.  The top-down
search uses criteria ``a1..a5``; the bottom-up search uses ``b1, b2``.
An infinite penalty effectively removes the template from consideration.

Penalties are computed over a light-weight *view* of the partial template —
its operand tokens, operator tokens and completeness — extracted from the
yield of the derivation tree, so they are cheap to evaluate on every queue
insertion.

Criteria interpretation notes (the paper states them informally):

* "length of x" is the number of operand tokens (tensors and constants),
* "operations defined in the grammar" for a5/b2 means the operators the LLM
  candidates actually used (i.e. with non-default learned weight); with the
  EqualProbability ablation it falls back to all four operators.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..grammars import Symbol, is_terminal
from ..taco.grammar import CONST_TOKEN, OPERATOR_TOKENS
from .dimension_list import DimensionList

#: Penalty magnitudes, as given in the paper.
PENALTY_A1 = 10.0
PENALTY_A2 = 100.0
PENALTY_A3 = math.inf
PENALTY_A4 = math.inf
PENALTY_A5 = math.inf
PENALTY_B1 = 100.0
PENALTY_B2 = math.inf

#: All criterion names, for ablation configuration.
TOPDOWN_CRITERIA = ("a1", "a2", "a3", "a4", "a5")
BOTTOMUP_CRITERIA = ("b1", "b2")

_TENSOR_TOKEN = re.compile(r"^([A-Za-z_]\w*)(?:\(([^)]*)\))?$")


@lru_cache(maxsize=4096)
def _parse_operand_token(token: str) -> Optional[Tuple[str, Tuple[str, ...]]]:
    """Parse ``"b(i,j)"`` into ``("b", ("i", "j"))`` (cached; tokens repeat a lot)."""
    match = _TENSOR_TOKEN.match(token)
    if not match:
        return None
    indices = (
        tuple(part.strip() for part in match.group(2).split(","))
        if match.group(2)
        else ()
    )
    return match.group(1), indices


@dataclass(frozen=True)
class TemplateView:
    """A cheap structural summary of a (partial) template."""

    operand_tokens: Tuple[str, ...]
    operator_tokens: Tuple[str, ...]
    is_complete: bool

    @property
    def length(self) -> int:
        """The template's "length" in the sense of criteria a1/a2.

        This is the number of entries the template would contribute to a
        dimension list: distinct tensor symbols (including the LHS) plus one
        per constant placeholder.  Repeated uses of the same tensor (e.g.
        ``a = b(i) * b(i)``) therefore count once, matching Definition 4.5.
        """
        distinct_tensors = len(set(self.tensor_letters()))
        constants = sum(1 for token in self.operand_tokens if token == CONST_TOKEN)
        return distinct_tensors + constants

    def tensor_letters(self) -> Tuple[str, ...]:
        """The tensor symbol letters in order of appearance (constants skipped)."""
        letters: List[str] = []
        for token in self.operand_tokens:
            if token == CONST_TOKEN:
                continue
            parsed = _parse_operand_token(token)
            if parsed is not None:
                letters.append(parsed[0])
        return tuple(letters)

    def has_constant(self) -> bool:
        return CONST_TOKEN in self.operand_tokens

    def tensors_with_index(self, index: str) -> int:
        count = 0
        for token in self.operand_tokens:
            parsed = _parse_operand_token(token)
            if parsed is not None and index in parsed[1]:
                count += 1
        return count

    def distinct_operators(self) -> FrozenSet[str]:
        return frozenset(self.operator_tokens)

    def repeated_operation_on_same_tensor(self) -> bool:
        """True when ``t op t`` occurs for op in {+, -, /} with identical tokens."""
        for position, operator in enumerate(self.operator_tokens):
            if operator not in ("+", "-", "/"):
                continue
            if position < len(self.operand_tokens) - 1:
                left = self.operand_tokens[position + 0 + 1]  # skip the LHS operand
                right = (
                    self.operand_tokens[position + 2]
                    if position + 2 < len(self.operand_tokens)
                    else None
                )
                if right is not None and left == right:
                    return True
        return False


def view_from_symbols(symbols: Sequence[Symbol]) -> TemplateView:
    """Build a :class:`TemplateView` from the yield of a derivation tree."""
    operands: List[str] = []
    operators: List[str] = []
    complete = True
    for symbol in symbols:
        if not is_terminal(symbol):
            complete = False
            continue
        token = str(symbol)
        if token in ("=", "(", ")"):
            continue
        if token in OPERATOR_TOKENS:
            operators.append(token)
        else:
            operands.append(token)
    return TemplateView(tuple(operands), tuple(operators), complete)


@dataclass
class PenaltyContext:
    """Static context shared by all penalty evaluations of one query."""

    dimension_list: DimensionList
    grammar_has_constant: bool
    observed_operators: FrozenSet[str] = frozenset()
    available_operators: FrozenSet[str] = frozenset(OPERATOR_TOKENS)

    def defined_operators(self) -> FrozenSet[str]:
        """Operators "defined in the grammar" for criteria a5 / b2.

        These are the operators the LLM candidates actually relied on — the
        ones with meaningfully non-zero probability in the learned pCFG (cf.
        Figure 3, where only ``+`` and ``*`` have non-zero probability).  The
        synthesizer filters out operators that occur only incidentally before
        building the context; when no operator information is available at
        all the criterion is vacuous rather than falling back to all four
        operators, so purely copy-shaped kernels are not penalised.
        """
        return self.observed_operators


@dataclass
class PenaltyConfig:
    """Which criteria are enabled (for the Table-2 ablation study)."""

    disabled: FrozenSet[str] = frozenset()

    @classmethod
    def drop(cls, *names: str) -> "PenaltyConfig":
        return cls(disabled=frozenset(names))

    @classmethod
    def drop_all_topdown(cls) -> "PenaltyConfig":
        return cls(disabled=frozenset(TOPDOWN_CRITERIA))

    def enabled(self, name: str) -> bool:
        return name not in self.disabled


# ---------------------------------------------------------------------- #
# Individual criteria
# ---------------------------------------------------------------------- #
def penalty_a1(view: TemplateView, context: PenaltyContext) -> float:
    """Bias against long expressions with poor index variety / missing constants."""
    if not context.grammar_has_constant:
        return 0.0
    if view.length <= 3:
        return 0.0
    if view.tensors_with_index("i") < 2 or not view.has_constant():
        return PENALTY_A1
    return 0.0


def penalty_a2(view: TemplateView, context: PenaltyContext) -> float:
    """Penalise templates whose operand count differs from the dimension list."""
    if not view.is_complete:
        return 0.0
    if view.length != len(context.dimension_list):
        return PENALTY_A2
    return 0.0


def penalty_a3(view: TemplateView, context: PenaltyContext) -> float:
    """Tensor symbols must appear in alphabetical order of first appearance."""
    return PENALTY_A3 if _not_alphabetical(view) else 0.0


def penalty_a4(view: TemplateView, context: PenaltyContext) -> float:
    """Complete templates must not apply +, - or / repeatedly to the same tensor."""
    if not view.is_complete:
        return 0.0
    return PENALTY_A4 if view.repeated_operation_on_same_tensor() else 0.0


def _required_operator_count(context: PenaltyContext) -> float:
    """How many distinct operators criteria a5/b2 demand of a complete template.

    The paper asks for "at least half of the operations defined in the
    grammar".  A template of the predicted shape can only contain
    ``len(L) - 2`` operators (one fewer than its right-hand-side operands), so
    the requirement is capped there: otherwise any query whose candidates
    mention three operators would make every template of the predicted length
    unsatisfiable, including the true solution — clearly not the intent, as
    the paper's own worked example (``a(i) = b(i,j) * c(j)``, one operator)
    must survive the criterion.
    """
    defined = context.defined_operators()
    if not defined:
        return 0.0
    max_possible = max(0, len(context.dimension_list) - 2)
    return min(len(defined) / 2.0, float(max_possible))


def penalty_a5(view: TemplateView, context: PenaltyContext) -> float:
    """Complete templates must use at least half of the defined operations."""
    if not view.is_complete:
        return 0.0
    if len(view.distinct_operators()) < _required_operator_count(context):
        return PENALTY_A5
    return 0.0


def penalty_b1(view: TemplateView, context: PenaltyContext) -> float:
    """Bottom-up variant of the alphabetical-order criterion (finite penalty)."""
    return PENALTY_B1 if _not_alphabetical(view) else 0.0


def penalty_b2(view: TemplateView, context: PenaltyContext) -> float:
    """Once enough tensors are present, at least half of the defined ops must be used."""
    if view.length < len(context.dimension_list):
        return 0.0
    if len(view.distinct_operators()) < _required_operator_count(context):
        return PENALTY_B2
    return 0.0


def _not_alphabetical(view: TemplateView) -> bool:
    seen: List[str] = []
    for letter in view.tensor_letters():
        if letter not in seen:
            seen.append(letter)
    expected = sorted(seen)
    return seen != expected


_CRITERIA = {
    "a1": penalty_a1,
    "a2": penalty_a2,
    "a3": penalty_a3,
    "a4": penalty_a4,
    "a5": penalty_a5,
    "b1": penalty_b1,
    "b2": penalty_b2,
}


#: Cap on the per-evaluator penalty memo; reached only by pathological
#: searches, in which case the memo is simply dropped and rebuilt.
_PENALTY_MEMO_LIMIT = 262_144


class PenaltyEvaluator:
    """Evaluates the total penalty ``X(x)`` for a search style.

    ``evaluate`` is memoized on the symbol tuple: the A* searches score every
    candidate expansion, and distinct derivation paths keep producing the
    same sentential forms, so the view construction and criteria walk run
    once per distinct form instead of once per enqueue attempt.
    """

    def __init__(
        self,
        context: PenaltyContext,
        criteria: Sequence[str],
        config: Optional[PenaltyConfig] = None,
    ) -> None:
        self._context = context
        self._config = config or PenaltyConfig()
        self._criteria = tuple(c for c in criteria if self._config.enabled(c))
        self._memo: Dict[Tuple[Symbol, ...], float] = {}

    @property
    def active_criteria(self) -> Tuple[str, ...]:
        return self._criteria

    def evaluate(self, symbols: Sequence[Symbol]) -> float:
        key = tuple(symbols)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        penalty = self.evaluate_view(view_from_symbols(key))
        if len(self._memo) >= _PENALTY_MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = penalty
        return penalty

    def evaluate_view(self, view: TemplateView) -> float:
        total = 0.0
        for name in self._criteria:
            total += _CRITERIA[name](view, self._context)
            if math.isinf(total):
                return total
        return total

    @classmethod
    def topdown(
        cls, context: PenaltyContext, config: Optional[PenaltyConfig] = None
    ) -> "PenaltyEvaluator":
        return cls(context, TOPDOWN_CRITERIA, config)

    @classmethod
    def bottomup(
        cls, context: PenaltyContext, config: Optional[PenaltyConfig] = None
    ) -> "PenaltyEvaluator":
        return cls(context, BOTTOMUP_CRITERIA, config)
