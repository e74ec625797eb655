"""Exception taxonomy for the workbench.

Every failure mode that callers are expected to handle gets its own
class so tests and the CLI can match on type rather than message text.
"""
from __future__ import annotations


class QdtError(Exception):
    """Base class for all workbench errors."""


# --- linear algebra / geometry ---------------------------------------------

class DimensionMismatch(QdtError):
    """Operands live in ambient spaces of different dimension."""


class ZeroState(QdtError):
    """A state with (numerically) zero norm where a direction is needed."""


class ZeroSubspace(QdtError):
    """The zero subspace was passed where a nonzero event is required."""


class OutsideDomain(QdtError):
    """A state does not lie inside the domain of the act applied to it."""


class NotSubevent(QdtError):
    """Restriction requested to a subspace not contained in the domain."""


class DomainMismatch(QdtError):
    """Acts combined or composed with incompatible domains."""


class CannotOrthogonalize(QdtError):
    """No fresh orthogonal directions left for a requested construction."""


class InsufficientDimension(QdtError):
    """A target subspace is too small to host the requested embedding."""


# --- problem / catalog structure --------------------------------------------

class TooManyMacrostates(QdtError):
    """Exhaustive lattice enumeration refused above the size guard."""


class CatalogTooLarge(QdtError):
    """Pair enumeration over an act catalog exceeded its cap."""


class SeriesTooLarge(QdtError):
    """A branching or Savage series asks for more work than its guard."""


class WeightSumError(QdtError):
    """Branch weights must be positive and sum to one."""


class NormMismatch(QdtError):
    """Paired states must have equal norms."""


class MissingUtility(QdtError):
    """A reward has no utility value assigned."""


# --- oracle behaviour --------------------------------------------------------

class NonMonotoneOracle(QdtError):
    """An elicitation bracket was contradicted by later oracle answers."""


class IntransitiveOracle(QdtError):
    """A preference oracle produced an intransitive comparison set."""


class NotEquipartition(QdtError):
    """Probe acts rank two cells of a claimed equipartition unequally."""


# --- serialization -----------------------------------------------------------

class ParseError(QdtError):
    """Input document is not well-formed JSON."""


class SchemaError(QdtError):
    """Document parsed but a field is missing or has the wrong shape."""


class ValidationError(QdtError):
    """Document describes a structurally invalid decision problem."""
