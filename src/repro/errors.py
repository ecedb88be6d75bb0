"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError`, so callers can
catch a single exception type at API boundaries while still being able to
distinguish schema problems from malformed systems or solver misuse.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class SchemaError(ReproError):
    """A symbol is used inconsistently with its schema declaration."""


class StructureError(ReproError):
    """A structure violates its schema (arity, domain closure, ...)."""


class FormulaError(ReproError):
    """A formula is malformed or evaluated with an incomplete valuation."""


class ParseError(FormulaError):
    """The textual formula syntax could not be parsed."""


class SystemError_(ReproError):
    """A database-driven system definition is inconsistent."""


class RunError(ReproError):
    """A sequence of configurations is not a valid run of a system."""


class TheoryError(ReproError):
    """A database theory (Fraisse class) is used outside its contract."""


class SolverError(ReproError):
    """The emptiness solver was configured or invoked incorrectly."""


class SearchTimeout(ReproError):
    """The emptiness search passed its deadline; ``statistics`` are its counters then."""

    def __init__(self, statistics) -> None:
        super().__init__(
            f"the search passed its deadline after {statistics.configurations_explored} pops"
        )
        self.statistics = statistics


class AutomatonError(ReproError):
    """A word or tree automaton definition is inconsistent."""


class StoreError(ReproError):
    """A result-store backend is misconfigured or its schema is unusable."""


class CertificateError(ReproError):
    """A witness certificate is malformed, unsupported, or fails validation."""
