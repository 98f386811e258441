"""Prediction of the dimension list (Section 4.2.3, Definition 4.5).

The dimension list ``L`` has one entry per tensor position in the target
expression: ``L[1]`` is the rank of the left-hand-side tensor, ``L[2]`` the
rank of the first right-hand-side tensor, and so on (constants and scalar
variables contribute 0).  STAGG predicts it by combining two sources:

* **RHS ranks** come from a vote over the LLM candidates: compute each
  candidate template's dimension list, keep only the lists of maximal
  length, and take the most frequent one.
* **The LHS rank** comes from static analysis of the C program (array
  recovery + delinearization), which is exact, and overrides the first entry
  of the voted list.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..cfront.ast import FunctionDef
from ..cfront.analysis import predict_output_rank
from .templates import Template

#: A dimension list, e.g. ``(1, 2, 1)`` for ``a(i) = b(i,j) * c(j)``.
DimensionList = Tuple[int, ...]


@dataclass(frozen=True)
class DimensionPredictionResult:
    """The predicted dimension list plus provenance information."""

    dimension_list: DimensionList
    voted_list: DimensionList
    static_lhs_rank: Optional[int]
    candidate_lists: Tuple[DimensionList, ...]


def vote_dimension_list(templates: Sequence[Template]) -> DimensionList:
    """The majority dimension list among the longest candidate lists.

    Implements the filter-then-argmax of Section 4.2.3: lists shorter than
    the maximum length are removed, and the most frequent remaining list is
    returned (ties broken towards the list seen first, for determinism).

    One robustness refinement over the paper's literal description: the
    winning (maximal) length must be attested by at least two candidates and
    by at least a third of the votes; otherwise the vote falls back to the
    next longest length with that much support.  A lone candidate (or a small
    minority) that hallucinates an extra term would otherwise discard the
    broadly supported correct shape, which is clearly not the intent of the
    filter — its purpose is to prefer the longest *well-supported* shape.
    """
    lists = [template.dimension_list() for template in templates if template.dimension_list()]
    if not lists:
        return (0, 0)
    by_length: dict[int, List[DimensionList]] = {}
    for dimension_list in lists:
        by_length.setdefault(len(dimension_list), []).append(dimension_list)
    lengths = sorted(by_length, reverse=True)
    support_threshold = max(2, (len(lists) + 2) // 3)
    chosen_length = lengths[0]
    for length in lengths:
        if len(by_length[length]) >= support_threshold:
            chosen_length = length
            break
    longest = by_length[chosen_length]
    counts = Counter(longest)
    best_count = max(counts.values())
    for candidate in longest:  # first-seen tie-break
        if counts[candidate] == best_count:
            return candidate
    return longest[0]


def predict_dimension_list(
    templates: Sequence[Template],
    function: Optional[FunctionDef] = None,
    static_lhs_rank: Optional[int] = None,
) -> DimensionPredictionResult:
    """Predict the dimension list for a lifting task.

    Parameters
    ----------
    templates:
        The templatized LLM candidates.
    function:
        The parsed C kernel; used to predict the LHS rank by static analysis.
        May be omitted when *static_lhs_rank* is given directly.
    static_lhs_rank:
        An already-computed LHS rank (overrides *function*).
    """
    voted = vote_dimension_list(templates)
    lhs_rank: Optional[int] = static_lhs_rank
    if lhs_rank is None and function is not None:
        lhs_rank = predict_output_rank(function)
    final: List[int] = list(voted)
    if not final:
        final = [0, 0]
    if lhs_rank is not None:
        if final:
            final[0] = lhs_rank
        else:
            final = [lhs_rank, 0]
    return DimensionPredictionResult(
        dimension_list=tuple(final),
        voted_list=voted,
        static_lhs_rank=lhs_rank,
        candidate_lists=tuple(t.dimension_list() for t in templates),
    )


def num_unique_indices(templates: Sequence[Template]) -> int:
    """``i(T)``: the number of unique index variables across the candidates.

    The grammar generator uses this to decide how many of the canonical index
    variables the refined grammar may mention.
    """
    best = 0
    for template in templates:
        best = max(best, template.num_unique_indices())
    return max(best, 1)
