"""Portfolio lifting: race registered methods under a shared budget.

The paper's evaluation shows no single STAGG configuration dominating, so
this package races several registered methods against one task and keeps
the first validated+verified program ("first win"), cancelling the losers
cooperatively.  Oracle-derived pipeline artifacts are shared across all
STAGG members — one LLM query, many searches.

* :class:`PortfolioLifter` — the :class:`repro.lifting.Lifter` implementing
  the race (usable anywhere a method is: CLI, evaluation, HTTP service).
* :func:`race` — the racing engine: one run loop over a thread or process
  transport (:func:`transport_for` picks it from an
  :class:`~repro.lifting.executor.ExecutionConfig`), with a shared
  deadline, first-win cancellation and a deterministic tie-break by
  member order.
* :mod:`.spec` — the ``Portfolio(A,B,...)`` name syntax
  (:func:`parse_portfolio_name`) and :func:`register_portfolio` for named
  portfolios (``Portfolio.Default`` is the canonical built-in).

See ROADMAP.md ("Portfolio") for spec syntax, digest rules, first-win
semantics and the warm-cache caveat.
"""

from .lifter import PortfolioLifter
from .scheduler import MemberRun, race, transport_for
from .spec import (
    PORTFOLIO_PREFIX,
    is_portfolio_name,
    parse_portfolio_name,
    portfolio_label,
    register_portfolio,
)

__all__ = [
    "PortfolioLifter",
    "MemberRun",
    "race",
    "transport_for",
    "PORTFOLIO_PREFIX",
    "is_portfolio_name",
    "parse_portfolio_name",
    "portfolio_label",
    "register_portfolio",
]
