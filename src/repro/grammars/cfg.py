"""Context-free grammar core data structures.

This module implements Definitions 4.1 and 4.2 of the paper: plain
context-free grammars and weighted context-free grammars.  Grammars are
represented at the *token* level: terminals are strings such as ``"b(i,j)"``,
``"+"`` or ``"="`` and non-terminals are :class:`NonTerminal` objects.  This
matches the way STAGG's refined template grammars treat an indexed tensor as
a single atomic choice.

The classes here are deliberately immutable-ish value objects: the synthesis
search manipulates *derivations* over a fixed grammar, so sharing a grammar
between threads or between repeated searches is always safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union


class GrammarError(ValueError):
    """Raised for structurally invalid grammars (unknown symbols, etc.)."""


@dataclass(frozen=True, order=True)
class NonTerminal:
    """A non-terminal symbol, identified by name.

    Non-terminals compare equal by name which makes them usable as dictionary
    keys throughout the search machinery.
    """

    name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"NT({self.name})"


#: A grammar symbol: either a non-terminal or a terminal token (plain string).
Symbol = Union[NonTerminal, str]


def is_terminal(symbol: Symbol) -> bool:
    """Return True if *symbol* is a terminal token."""
    return isinstance(symbol, str)


def is_nonterminal(symbol: Symbol) -> bool:
    """Return True if *symbol* is a :class:`NonTerminal`."""
    return isinstance(symbol, NonTerminal)


@dataclass(frozen=True)
class Production:
    """A production rule ``lhs -> rhs`` where rhs is a sequence of symbols.

    The empty production (``rhs == ()``) represents an epsilon rule, used by
    the bottom-up tail grammars of Section 5.2.
    """

    lhs: NonTerminal
    rhs: Tuple[Symbol, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.lhs, NonTerminal):
            raise GrammarError(f"production lhs must be a NonTerminal, got {self.lhs!r}")
        if not isinstance(self.rhs, tuple):
            object.__setattr__(self, "rhs", tuple(self.rhs))

    @property
    def is_epsilon(self) -> bool:
        """True when the production expands to the empty string."""
        return len(self.rhs) == 0

    def rhs_nonterminals(self) -> List[NonTerminal]:
        """The non-terminal symbols appearing on the right-hand side, in order."""
        return [s for s in self.rhs if is_nonterminal(s)]

    def rhs_terminals(self) -> List[str]:
        """The terminal tokens appearing on the right-hand side, in order."""
        return [s for s in self.rhs if is_terminal(s)]

    def __str__(self) -> str:
        rhs = " ".join(str(s) for s in self.rhs) if self.rhs else "ε"
        return f"{self.lhs} ::= {rhs}"


class ContextFreeGrammar:
    """A context-free grammar ``G = (V, Σ, R, S)`` (Definition 4.1).

    Parameters
    ----------
    start:
        The start symbol ``S``.
    productions:
        The production rules ``R``.  The sets of non-terminals ``V`` and
        terminals ``Σ`` are inferred from the rules.
    """

    def __init__(self, start: NonTerminal, productions: Iterable[Production]) -> None:
        self._start = start
        self._productions: List[Production] = list(productions)
        if not self._productions:
            raise GrammarError("a grammar needs at least one production")
        self._by_lhs: Dict[NonTerminal, List[Production]] = {}
        for prod in self._productions:
            self._by_lhs.setdefault(prod.lhs, []).append(prod)
        if start not in self._by_lhs:
            raise GrammarError(f"start symbol {start} has no productions")
        self._validate()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def start(self) -> NonTerminal:
        """The start symbol ``S``."""
        return self._start

    @property
    def productions(self) -> Tuple[Production, ...]:
        """All production rules, in definition order."""
        return tuple(self._productions)

    @property
    def nonterminals(self) -> Tuple[NonTerminal, ...]:
        """The non-terminal alphabet ``V`` (order of first definition)."""
        seen: Dict[NonTerminal, None] = {}
        for prod in self._productions:
            seen.setdefault(prod.lhs, None)
            for sym in prod.rhs_nonterminals():
                seen.setdefault(sym, None)
        return tuple(seen)

    @property
    def terminals(self) -> Tuple[str, ...]:
        """The terminal alphabet ``Σ`` (order of first appearance)."""
        seen: Dict[str, None] = {}
        for prod in self._productions:
            for sym in prod.rhs_terminals():
                seen.setdefault(sym, None)
        return tuple(seen)

    def productions_for(self, symbol: NonTerminal) -> Tuple[Production, ...]:
        """All productions whose left-hand side is *symbol*."""
        try:
            return tuple(self._by_lhs[symbol])
        except KeyError:
            raise GrammarError(f"non-terminal {symbol} has no productions") from None

    def has_nonterminal(self, symbol: NonTerminal) -> bool:
        """Whether *symbol* has at least one production in this grammar."""
        return symbol in self._by_lhs

    def __len__(self) -> int:
        return len(self._productions)

    def __iter__(self) -> Iterator[Production]:
        return iter(self._productions)

    def __contains__(self, production: Production) -> bool:
        return production in self._productions

    def __str__(self) -> str:
        lines = []
        for lhs in self.nonterminals:
            if lhs not in self._by_lhs:
                continue
            alts = " | ".join(
                (" ".join(str(s) for s in p.rhs) if p.rhs else "ε")
                for p in self._by_lhs[lhs]
            )
            lines.append(f"{lhs} ::= {alts}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Validation helpers
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        defined = set(self._by_lhs)
        for prod in self._productions:
            for sym in prod.rhs_nonterminals():
                if sym not in defined:
                    raise GrammarError(
                        f"production {prod} references undefined non-terminal {sym}"
                    )

    # ------------------------------------------------------------------ #
    # Language membership helpers used by tests / validators
    # ------------------------------------------------------------------ #
    def expand_leftmost(
        self, sentential_form: Sequence[Symbol], production: Production
    ) -> Tuple[Symbol, ...]:
        """Apply *production* to the leftmost non-terminal of a sentential form.

        Raises :class:`GrammarError` if the leftmost non-terminal does not
        match the production's left-hand side, or if the form is already a
        terminal string.
        """
        for idx, sym in enumerate(sentential_form):
            if is_nonterminal(sym):
                if sym != production.lhs:
                    raise GrammarError(
                        f"leftmost non-terminal is {sym}, production expands {production.lhs}"
                    )
                return tuple(sentential_form[:idx]) + production.rhs + tuple(
                    sentential_form[idx + 1 :]
                )
        raise GrammarError("sentential form contains no non-terminal to expand")

    def leftmost_nonterminal(
        self, sentential_form: Sequence[Symbol]
    ) -> Optional[NonTerminal]:
        """The leftmost non-terminal of a sentential form, or None if complete."""
        for sym in sentential_form:
            if is_nonterminal(sym):
                return sym
        return None

    def is_complete(self, sentential_form: Sequence[Symbol]) -> bool:
        """True when the sentential form contains only terminal tokens."""
        return all(is_terminal(sym) for sym in sentential_form)


class WeightedGrammar(ContextFreeGrammar):
    """A weighted CFG: each production carries a non-negative weight.

    Weights typically count how often a production appears in the leftmost
    derivations of the LLM candidate solutions (Section 4.3).  They are turned
    into probabilities by :class:`repro.grammars.pcfg.ProbabilisticGrammar`.
    """

    def __init__(
        self,
        start: NonTerminal,
        productions: Iterable[Production],
        weights: Optional[Dict[Production, float]] = None,
        default_weight: float = 1.0,
    ) -> None:
        super().__init__(start, productions)
        self._default_weight = default_weight
        self._weights: Dict[Production, float] = {}
        for prod in self.productions:
            self._weights[prod] = default_weight
        if weights:
            for prod, weight in weights.items():
                self.set_weight(prod, weight)

    @property
    def default_weight(self) -> float:
        return self._default_weight

    def weight(self, production: Production) -> float:
        """The weight of *production*."""
        try:
            return self._weights[production]
        except KeyError:
            raise GrammarError(f"unknown production {production}") from None

    def set_weight(self, production: Production, weight: float) -> None:
        """Set the weight of *production* (must already be in the grammar)."""
        if production not in self._weights:
            raise GrammarError(f"unknown production {production}")
        if weight < 0:
            raise GrammarError(f"weights must be non-negative, got {weight}")
        self._weights[production] = weight

    def weights(self) -> Dict[Production, float]:
        """A copy of the production-to-weight map."""
        return dict(self._weights)
