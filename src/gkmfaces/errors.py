"""Exception types shared across the package."""


class GkmFacesError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(GkmFacesError, ValueError):
    """Vectors of different lengths were mixed in one operation."""


class ZeroWeight(GkmFacesError, ValueError):
    """A weight system or axial function received a zero vector."""


class EmptyPoset(GkmFacesError, ValueError):
    """Posets must contain at least one element."""


class EmptyComplex(GkmFacesError, ValueError):
    """Homology of the empty complex is not computed here."""


class PreconditionFailed(GkmFacesError, ValueError):
    """An operation's structural precondition does not hold for the input."""


class Incomparable(GkmFacesError, ValueError):
    """The Mobius function was asked for a pair s, t with s not below t."""


class NotLocallyGeometric(GkmFacesError, ValueError):
    """Coherence checks require a locally geometric poset."""


class MissingAtomWeight(GkmFacesError, KeyError):
    """A coherence weight function does not cover every atom."""


class GraphModeError(GkmFacesError, ValueError):
    """An operation needed signed axial data but the graph is unsigned."""


class InvalidGraph(GkmFacesError, ValueError):
    """A graph failed GKM validation where a valid graph was required."""


class ConnectionNotCanonical(GkmFacesError, ValueError):
    """No unique span-compatible connection exists (graph not 3-independent)."""


class EnumerationCapExceeded(GkmFacesError, RuntimeError):
    """An enumeration reached, or would reach, more than its cap allows.

    Face enumeration counts its search states as it goes and stops at
    the cap, as the flats search does with the flats it finds; an order
    complex counts its chains before listing any (for homology or
    facets), and an independence complex its nonempty independent sets,
    size by size.
    `reached` is the count when it stopped, and the message names what
    was counted and what was being enumerated at that moment.
    """

    def __init__(self, cap: int, reached: int, message: str):
        super().__init__(message)
        self.cap = cap
        self.reached = reached


class ReconstructionAmbiguous(GkmFacesError, ValueError):
    """A face-poset query needs a reconstruction without diagnostics."""


class ParseError(GkmFacesError, ValueError):
    """Input document syntax or semantic error, with source location."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
