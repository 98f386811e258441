"""Derivation trees and leftmost derivations over context-free grammars.

The top-down A* search of Section 5.1 manipulates *partial derivation trees*:
the frontier of the search is a set of partially expanded trees whose yield
is a sentential form (a mix of terminal tokens and yet-unexpanded
non-terminals).  This module provides that tree representation together with
utilities to:

* expand the leftmost unexpanded non-terminal with a production,
* read off the yield (the partial template),
* extract the sequence of applied productions (the leftmost derivation,
  Definition 4.6), which is exactly what the pCFG weight-learning step counts.

Derivation trees are treated as *persistent* values: expanding a tree never
mutates it.  Internally, :meth:`DerivationTree.expand_leftmost` copies only
the path from the root to the expanded non-terminal and shares every other
subtree with its parent tree, and every node carries a ``complete`` flag, so
expansion and completeness checks cost O(depth) instead of O(tree size).
This matters: the A* searches expand tens of thousands of trees per query.

Yields are carried *incrementally*: a tree caches its yield (and, per yield
element, the nesting level of enclosing expression non-terminals), and
expansion splices the applied production's right-hand side into the parent's
cached yield instead of re-walking the tree from the root.  The searches can
additionally *preview* an expansion — obtain the child's yield without
building the child tree at all — which lets them prune duplicate sentential
forms and infinite-penalty forms before paying for node construction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .cfg import (
    ContextFreeGrammar,
    GrammarError,
    NonTerminal,
    Production,
    Symbol,
    is_nonterminal,
)


class DerivationNode:
    """A node in a derivation tree.

    A node is either a terminal leaf (``symbol`` is a string, ``production``
    is None) or a non-terminal.  A non-terminal node is *unexpanded* while
    ``production`` is None and *expanded* once a production has been applied,
    in which case ``children`` holds one node per right-hand-side symbol.

    Nodes cache two structural facts:

    * ``terminal`` — whether the symbol is a terminal token, and
    * ``complete`` — whether the subtree below contains no unexpanded
      non-terminal (terminals are trivially complete).

    Once a node is referenced by more than one tree (which happens as soon as
    its tree has been expanded) it must be treated as immutable; all mutation
    goes through :meth:`DerivationTree.expand_leftmost`, which copies the
    nodes it changes.
    """

    __slots__ = ("symbol", "production", "children", "terminal", "complete")

    def __init__(
        self,
        symbol: Symbol,
        production: Optional[Production] = None,
        children: Optional[List["DerivationNode"]] = None,
    ) -> None:
        self.symbol = symbol
        self.production = production
        self.children: List[DerivationNode] = children if children is not None else []
        self.terminal = isinstance(symbol, str)
        if self.terminal:
            self.complete = True
        elif production is None:
            self.complete = False
        else:
            self.complete = all(child.complete for child in self.children)

    @property
    def is_terminal(self) -> bool:
        return self.terminal

    @property
    def is_expanded(self) -> bool:
        return self.terminal or self.production is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DerivationNode):
            return NotImplemented
        return (
            self.symbol == other.symbol
            and self.production == other.production
            and self.children == other.children
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DerivationNode({self.symbol!r}, expanded={self.is_expanded})"


#: Non-terminal names whose nesting defines the expression depth measure of
#: Section 5.1; also the default of :meth:`DerivationTree.expression_depth`.
EXPRESSION_NONTERMINALS: Tuple[str, ...] = ("EXPR",)


class DerivationTree:
    """A (possibly partial) derivation tree rooted at the grammar's start symbol."""

    def __init__(
        self,
        grammar: ContextFreeGrammar,
        root: Optional[DerivationNode] = None,
        yield_cache: Optional[Tuple[Symbol, ...]] = None,
        levels_cache: Optional[Tuple[int, ...]] = None,
    ):
        self._grammar = grammar
        self._root = root if root is not None else DerivationNode(grammar.start)
        #: Cached yield and per-element EXPR-nesting levels; filled lazily by
        #: the first yield access and carried forward by expand_leftmost.
        self._yield = yield_cache
        self._levels = levels_cache

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def grammar(self) -> ContextFreeGrammar:
        return self._grammar

    @property
    def root(self) -> DerivationNode:
        return self._root

    # ------------------------------------------------------------------ #
    # Completeness / yields
    # ------------------------------------------------------------------ #
    def is_complete(self) -> bool:
        """True when every non-terminal in the tree has been expanded."""
        return self._root.complete

    def yield_symbols(self) -> Tuple[Symbol, ...]:
        """The yield of the tree: terminals for expanded parts, non-terminals otherwise.

        Cached: the first call walks the tree, subsequent calls (and trees
        produced by :meth:`expand_leftmost`) answer from the carried yield.
        """
        if self._yield is None:
            self._fill_yield_caches()
        return self._yield  # type: ignore[return-value]

    def yield_levels(self) -> Tuple[int, ...]:
        """Per-yield-element nesting level of expression non-terminals.

        Element *k* counts the ancestors of the *k*-th yield element (the
        element itself included when it is an unexpanded expression
        non-terminal) whose symbol is in :data:`EXPRESSION_NONTERMINALS`.
        ``max(yield_levels())`` equals :meth:`expression_depth` for grammars
        whose expression non-terminals have no epsilon productions — which
        holds for every template grammar STAGG generates.
        """
        if self._levels is None:
            self._fill_yield_caches()
        return self._levels  # type: ignore[return-value]

    def yield_depth(self) -> int:
        """``max(yield_levels())`` — the searches' fast expression depth."""
        return max(self.yield_levels(), default=0)

    def _fill_yield_caches(self) -> None:
        symbols: List[Symbol] = []
        levels: List[int] = []
        self._walk_yield(self._root, 0, symbols, levels)
        self._yield = tuple(symbols)
        self._levels = tuple(levels)

    def _walk_yield(
        self, node: DerivationNode, level: int, symbols: List[Symbol], levels: List[int]
    ) -> None:
        if not node.terminal and str(node.symbol) in EXPRESSION_NONTERMINALS:
            level += 1
        if node.terminal or not node.is_expanded:
            symbols.append(node.symbol)
            levels.append(level)
            return
        for child in node.children:
            self._walk_yield(child, level, symbols, levels)

    def yield_tokens(self) -> Tuple[str, ...]:
        """The terminal-only yield.  Raises if the tree is not complete."""
        symbols = self.yield_symbols()
        if any(is_nonterminal(s) for s in symbols):
            raise GrammarError("yield_tokens() called on a partial derivation tree")
        return tuple(str(s) for s in symbols)

    def sentence(self, separator: str = " ") -> str:
        """The yield joined into a single string (partial trees show non-terminals)."""
        return separator.join(str(s) for s in self.yield_symbols())

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def leftmost_nonterminal(self) -> Optional[NonTerminal]:
        """The symbol of the leftmost unexpanded non-terminal, or None."""
        node = self._leftmost_unexpanded(self._root)
        return None if node is None else node.symbol  # type: ignore[return-value]

    def expand_leftmost(
        self,
        production: Production,
        preview: Optional[Tuple[Tuple[Symbol, ...], Tuple[int, ...]]] = None,
    ) -> "DerivationTree":
        """Return a new tree with the leftmost unexpanded non-terminal expanded.

        The original tree is not modified.  Only the nodes on the path from
        the root to the expanded non-terminal are copied; all other subtrees
        are shared between the old and the new tree.  The child's yield is
        derived by splicing *production*'s right-hand side into this tree's
        cached yield, never by re-walking the child from the root; a caller
        that already holds :meth:`preview_expansion`'s result for the same
        production can pass it as *preview* to skip re-splicing.
        """
        new_root = self._expand_path(self._root, production)
        if new_root is None:
            raise GrammarError("cannot expand a complete derivation tree")
        if preview is None:
            preview = self.preview_expansion(production)
        new_yield, new_levels = preview
        return DerivationTree(self._grammar, new_root, new_yield, new_levels)

    def preview_expansion(
        self, production: Production
    ) -> Tuple[Tuple[Symbol, ...], Tuple[int, ...]]:
        """The (yield, levels) an expand_leftmost(production) child would have.

        This costs one tuple splice — no derivation nodes are built — so the
        searches can score, deduplicate and discard candidate expansions
        before constructing the surviving trees.
        """
        symbols = self.yield_symbols()
        levels = self.yield_levels()
        position = next(
            (i for i, symbol in enumerate(symbols) if is_nonterminal(symbol)), None
        )
        if position is None:
            raise GrammarError("cannot expand a complete derivation tree")
        base = levels[position]
        spliced_levels = tuple(
            base + (1 if is_nonterminal(symbol) and symbol.name in EXPRESSION_NONTERMINALS else 0)
            for symbol in production.rhs
        )
        return (
            symbols[:position] + tuple(production.rhs) + symbols[position + 1 :],
            levels[:position] + spliced_levels + levels[position + 1 :],
        )

    def _expand_path(
        self, node: DerivationNode, production: Production
    ) -> Optional[DerivationNode]:
        """Copy the path to the leftmost unexpanded node, applying *production*."""
        if node.complete:
            return None
        if not node.is_expanded:
            if node.symbol != production.lhs:
                raise GrammarError(
                    f"leftmost non-terminal is {node.symbol}, "
                    f"production expands {production.lhs}"
                )
            children = [DerivationNode(sym) for sym in production.rhs]
            return DerivationNode(node.symbol, production, children)
        for position, child in enumerate(node.children):
            if child.complete:
                continue
            replaced = self._expand_path(child, production)
            # ``child`` was the leftmost incomplete child, so ``replaced`` is
            # never None here.
            children = list(node.children)
            children[position] = replaced
            return DerivationNode(node.symbol, node.production, children)
        return None

    def possible_expansions(self) -> Tuple[Production, ...]:
        """All productions applicable to the leftmost unexpanded non-terminal."""
        nt = self.leftmost_nonterminal()
        if nt is None:
            return ()
        return self._grammar.productions_for(nt)

    def _leftmost_unexpanded(self, node: DerivationNode) -> Optional[DerivationNode]:
        if node.complete:
            return None
        if not node.is_expanded:
            return node
        for child in node.children:
            if child.complete:
                continue
            found = self._leftmost_unexpanded(child)
            if found is not None:
                return found
        return None

    # ------------------------------------------------------------------ #
    # Derivations and structural metrics
    # ------------------------------------------------------------------ #
    def applied_productions(self) -> Tuple[Production, ...]:
        """The productions applied so far, in leftmost-derivation order."""
        out: List[Production] = []
        self._collect_productions(self._root, out)
        return tuple(out)

    def _collect_productions(self, node: DerivationNode, out: List[Production]) -> None:
        if node.terminal or not node.is_expanded:
            return
        out.append(node.production)  # type: ignore[arg-type]
        for child in node.children:
            self._collect_productions(child, out)

    def expression_depth(
        self, expression_nonterminals: Sequence[str] = EXPRESSION_NONTERMINALS
    ) -> int:
        """Depth of the expression AST, *excluding* index expressions.

        The paper measures template depth such that ``b(i)`` and ``c(i,j)``
        have depth 1 and ``b(i) + c(i,j)`` has depth 2 (Section 5.1).  We
        approximate this from the derivation tree by counting the maximum
        nesting of nodes labelled with an expression non-terminal (``EXPR`` by
        default), which coincides with that measure for the template grammars
        STAGG generates.
        """
        names = set(expression_nonterminals)

        def walk(node: DerivationNode) -> int:
            if node.terminal:
                return 0
            child_depth = 0
            for child in node.children:
                depth = walk(child)
                if depth > child_depth:
                    child_depth = depth
            own = 1 if str(node.symbol) in names else 0
            return own + child_depth

        return walk(self._root)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DerivationTree({self.sentence()!r})"


def leftmost_derivation(
    grammar: ContextFreeGrammar, productions: Sequence[Production]
) -> DerivationTree:
    """Replay a sequence of productions as a leftmost derivation.

    Useful in tests: given the rule sequence of Definition 4.6 this rebuilds
    the derivation tree (and therefore the derived sentence).
    """
    tree = DerivationTree(grammar)
    for production in productions:
        tree = tree.expand_leftmost(production)
    return tree
