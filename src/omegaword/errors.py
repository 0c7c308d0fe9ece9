"""Shared exception types.

Everything raised on purpose by this package derives from OmegawordError,
so callers can catch one type at the CLI boundary and map it to an exit
code without fishing for stray ValueErrors.

Three internal checks raise a bare AssertionError instead:
`buchi._shortest_path` (a goal its caller knows to be reachable),
`congruence.lemma_repair` (more merges than classes) and
`oracles._unbounded_runs_violation` (no violation against a finite
classifier).  Each marks a broken invariant, not bad input or an exhausted
budget, so it is no OmegawordError and has no exit code: it is a bug to
report.
"""

from __future__ import annotations


class OmegawordError(Exception):
    """Base class for all errors raised deliberately by this package."""


class FormatError(OmegawordError):
    """Malformed textual input (word syntax, automaton files, formulas)."""


class AlphabetMismatchError(OmegawordError):
    """Two objects that must share an alphabet do not."""


class UnsupportedWordError(OmegawordError):
    """An oracle or operation was handed a presentation it cannot decide."""


class DegenerateErasureError(UnsupportedWordError):
    """Erasing the neutral letter left a finite word, not an infinite one."""


class UnsupportedHomomorphismError(OmegawordError):
    """The homomorphism cannot be applied to this presentation exactly."""


class DegenerateProductError(OmegawordError):
    """An infinite product whose repeated part concatenates to the empty word."""


class BudgetExceededError(OmegawordError):
    """A configured size or step budget was exhausted before completion."""


class IllegalMoveError(OmegawordError):
    """A game transcript or move violates the rules of some round."""


class UnsupportedFormulaError(OmegawordError):
    """A formula falls outside the decidable fragment of an operation."""
