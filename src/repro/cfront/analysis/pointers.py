"""Array recovery: pointer alias and advancement analysis.

Many legacy kernels iterate over arrays with explicit pointer arithmetic
(``*p++``) instead of subscripts.  Following the array-recovery technique the
paper cites (Franke & O'Boyle, 2003), this pass answers two questions for
every pointer-valued variable:

1. **Which parameter array does it alias?**  We follow chains of
   ``p = A;``, ``p = &A[k];``, ``p = A + e;`` and ``p = q;`` assignments.
2. **Where does it advance?**  Every site at which the pointer moves
   (``p++``, ``p += e``, re-assignment to a moving expression inside a loop)
   is recorded together with the induction variables of the loops enclosing
   that site.  The maximum enclosing-loop depth of an advancement site is the
   recovered dimensionality of the walk, which feeds the LHS dimension
   prediction of Section 4.2.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..ast import (
    ArrayIndex,
    Assignment,
    BinaryOp,
    Declaration,
    Expr,
    FunctionDef,
    Identifier,
    IncDec,
    UnaryOp,
    statement_expressions,
    walk_expressions,
    walk_statements,
)
from .loops import LoopNest, analyze_loops


@dataclass(frozen=True)
class AdvancementSite:
    """One place where a pointer advances, with its enclosing loop variables."""

    pointer: str
    enclosing_loop_variables: Tuple[str, ...]


@dataclass
class PointerAnalysis:
    """Result of the pointer alias / advancement analysis."""

    pointer_variables: Set[str] = field(default_factory=set)
    aliases: Dict[str, str] = field(default_factory=dict)
    advancement_sites: List[AdvancementSite] = field(default_factory=list)

    def resolve(self, name: str) -> str:
        """Follow alias links from *name* to the parameter array it denotes.

        Unknown names resolve to themselves, so the function is safe to call
        on scalars and parameter names alike.
        """
        seen: Set[str] = set()
        current = name
        while current in self.aliases and current not in seen:
            seen.add(current)
            current = self.aliases[current]
        return current

    def advancement_depth(self, name: str) -> int:
        """The maximum number of loops enclosing any advancement of *name*.

        A pointer that never advances has depth 0; one advanced once per
        iteration of a doubly nested loop has depth 2.  Aliases are followed:
        asking about a parameter array aggregates over every pointer that
        aliases it.
        """
        target = self.resolve(name)
        depth = 0
        for site in self.advancement_sites:
            if self.resolve(site.pointer) == target:
                depth = max(depth, len(site.enclosing_loop_variables))
        return depth

    def is_pointer(self, name: str) -> bool:
        return name in self.pointer_variables


def _alias_target(value: Expr) -> Optional[str]:
    """The array named by a pointer-producing expression, if recognisable."""
    node = value
    # p = A + e  /  p = e + A
    if isinstance(node, BinaryOp) and node.op in ("+", "-"):
        left = _alias_target(node.left)
        if left is not None:
            return left
        return _alias_target(node.right)
    # p = &A[k]
    if isinstance(node, UnaryOp) and node.op == "&":
        inner = node.operand
        while isinstance(inner, ArrayIndex):
            inner = inner.base
        if isinstance(inner, Identifier):
            return inner.name
        return None
    if isinstance(node, Identifier):
        return node.name
    return None


def analyze_pointers(function: FunctionDef, loops: Optional[LoopNest] = None) -> PointerAnalysis:
    """Run the pointer alias / advancement analysis over *function*."""
    nest = loops if loops is not None else analyze_loops(function)
    analysis = PointerAnalysis()

    # Seed the pointer-variable set with pointer parameters and declarations.
    for param in function.parameters:
        if param.type.is_pointer:
            analysis.pointer_variables.add(param.name)
    for stmt in walk_statements(function):
        if isinstance(stmt, Declaration):
            for decl in stmt.declarators:
                if decl.pointer_depth > 0 or decl.array_sizes:
                    analysis.pointer_variables.add(decl.name)

    # Alias chains: declarations with initialisers and plain assignments.
    for stmt in walk_statements(function):
        if isinstance(stmt, Declaration):
            for decl in stmt.declarators:
                if decl.init is None or decl.name not in analysis.pointer_variables:
                    continue
                target = _alias_target(decl.init)
                if target is not None and target != decl.name:
                    analysis.aliases[decl.name] = target
        for top in statement_expressions(stmt):
            for expr in walk_expressions(top):
                if not isinstance(expr, Assignment) or expr.op != "=":
                    continue
                if not isinstance(expr.target, Identifier):
                    continue
                name = expr.target.name
                if name not in analysis.pointer_variables:
                    # Assigning a whole array/pointer value marks the target
                    # as a pointer variable too (e.g. ``p = A`` with p of
                    # inferred type).
                    source = _alias_target(expr.value)
                    if source in analysis.pointer_variables:
                        analysis.pointer_variables.add(name)
                    else:
                        continue
                target = _alias_target(expr.value)
                if target is not None and target != name:
                    analysis.aliases[name] = target

    # Advancement sites: pointer increments / compound advances, recorded with
    # the loop variables of the *statement* that contains them.
    for stmt in walk_statements(function):
        enclosing = nest.variables_enclosing(stmt)
        for top in statement_expressions(stmt):
            for expr in walk_expressions(top):
                pointer_name = _advanced_pointer(expr, analysis.pointer_variables)
                if pointer_name is not None:
                    analysis.advancement_sites.append(
                        AdvancementSite(pointer_name, enclosing)
                    )
    return analysis


def _advanced_pointer(expr: Expr, pointer_variables: Set[str]) -> Optional[str]:
    """If *expr* advances a pointer variable, return that variable's name."""
    if isinstance(expr, IncDec) and isinstance(expr.operand, Identifier):
        if expr.operand.name in pointer_variables:
            return expr.operand.name
    if isinstance(expr, Assignment) and isinstance(expr.target, Identifier):
        name = expr.target.name
        if name not in pointer_variables:
            return None
        if expr.op in ("+=", "-="):
            return name
        if expr.op == "=":
            # Re-assignment counts as an advance only if the new value is
            # derived from the pointer itself (e.g. ``p = p + N``).
            for node in walk_expressions(expr.value):
                if isinstance(node, Identifier) and node.name == name:
                    return name
    return None
