"""Tokenizer for TACO tensor-index expressions.

The token set follows the grammar in Figure 5 of the paper plus the small
surface-syntax liberties that LLM output exhibits and STAGG's preprocessing
tolerates: ``:=`` is accepted and normalised to ``=`` and whitespace is
insignificant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import List

from .errors import TacoSyntaxError


class TokenKind(Enum):
    """Kinds of TACO tokens."""

    IDENTIFIER = auto()
    NUMBER = auto()
    ASSIGN = auto()      # "=" or ":="
    PLUS = auto()        # "+"
    MINUS = auto()       # "-"
    STAR = auto()        # "*"
    SLASH = auto()       # "/"
    LPAREN = auto()      # "("
    RPAREN = auto()      # ")"
    COMMA = auto()       # ","
    END = auto()         # end of input


@dataclass(frozen=True)
class Token:
    """A single token with its source position (for error messages)."""

    kind: TokenKind
    text: str
    position: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, pos={self.position})"


_SINGLE_CHAR_TOKENS = {
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
}

#: Unicode characters that LLM output occasionally uses in place of ASCII
#: operators; normalised during lexing.
_UNICODE_NORMALIZATION = {
    "−": "-",   # minus sign
    "∗": "*",   # asterisk operator
    "×": "*",   # multiplication sign
    "÷": "/",   # division sign
    "≠": "=",   # (rare) mangled equals
}


def tokenize(source: str) -> List[Token]:
    """Tokenize *source* into a list of tokens ending with an END token.

    Raises :class:`TacoSyntaxError` for characters outside the TACO alphabet.
    """
    tokens: List[Token] = []
    text = source
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        ch = _UNICODE_NORMALIZATION.get(ch, ch)
        if ch.isspace():
            i += 1
            continue
        if ch == ":" and i + 1 < length and text[i + 1] == "=":
            tokens.append(Token(TokenKind.ASSIGN, "=", i))
            i += 2
            continue
        if ch == "=":
            tokens.append(Token(TokenKind.ASSIGN, "=", i))
            i += 1
            continue
        if ch in _SINGLE_CHAR_TOKENS:
            tokens.append(Token(_SINGLE_CHAR_TOKENS[ch], ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < length and (text[i].isdigit() or text[i] == "."):
                i += 1
            tokens.append(Token(TokenKind.NUMBER, text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < length and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token(TokenKind.IDENTIFIER, text[start:i], start))
            continue
        raise TacoSyntaxError(f"unexpected character {ch!r}", position=i)
    tokens.append(Token(TokenKind.END, "", length))
    return tokens
