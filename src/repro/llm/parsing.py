"""Parsing of LLM responses into TACO candidate programs.

The paper: "We ask for 10 solutions, but we parse in as many solutions as the
LLM gives us (which is sometimes more than 10) and discard any syntactically
incorrect solutions" (Section 4).  LLM output is messy — numbered lists,
bullet points, code fences, ``:=`` instead of ``=`` — so this module first
normalises each line and then keeps exactly those lines that the TACO parser
accepts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List

from ..taco import TacoProgram, parse_program
from ..taco.errors import TacoError

#: Leading list markers stripped from response lines: "1.", "2)", "-", "*", etc.
_LIST_MARKER = re.compile(r"^\s*(?:[-*•]|\d+[.)]|\(\d+\))\s*")

#: Code-fence and quote characters stripped from both ends of a line.
_STRIP_CHARS = "`'\"“”‘’ \t;,"


@dataclass
class ParsedResponse:
    """The result of parsing one raw LLM response."""

    raw_text: str
    lines: List[str] = field(default_factory=list)
    candidates: List[TacoProgram] = field(default_factory=list)
    rejected: List[str] = field(default_factory=list)

    @property
    def num_valid(self) -> int:
        return len(self.candidates)

    @property
    def num_rejected(self) -> int:
        return len(self.rejected)


def normalize_line(line: str) -> str:
    """Strip list markers, code fences and surrounding punctuation from a line."""
    line = line.strip()
    line = _LIST_MARKER.sub("", line)
    line = line.strip(_STRIP_CHARS)
    # Drop trailing end-of-statement semicolons the model sometimes adds.
    line = line.rstrip(";").strip()
    return line


def extract_candidate_lines(raw_text: str) -> List[str]:
    """Split a raw response into normalised, plausibly-TACO lines."""
    lines: List[str] = []
    for raw_line in raw_text.splitlines():
        line = normalize_line(raw_line)
        if not line:
            continue
        if line.startswith("```"):
            continue
        # A TACO candidate must contain an assignment.
        if "=" not in line and ":=" not in line:
            continue
        lines.append(line)
    return lines


def parse_response(raw_text: str) -> ParsedResponse:
    """Parse a raw LLM response into valid TACO candidate programs.

    Syntactically invalid candidates are recorded in ``rejected`` (and
    otherwise ignored), matching the paper's behaviour.
    """
    response = ParsedResponse(raw_text=raw_text)
    response.lines = extract_candidate_lines(raw_text)
    for line in response.lines:
        try:
            program = parse_program(line)
        except TacoError:
            response.rejected.append(line)
            continue
        response.candidates.append(program)
    return response
