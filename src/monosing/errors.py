"""Exception hierarchy shared by all monosing modules."""


class MonosingError(Exception):
    """Base class for every error raised by this package."""


class ParseError(MonosingError):
    """Presentation file could not be parsed.

    Carries the 1-based line number of the offending statement when known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateIdentifier(ParseError):
    pass


class UnknownVertex(ParseError):
    pass


class UnknownArrow(ParseError):
    pass


class NonComposableRelation(ParseError):
    pass


class RelationTooShort(ParseError):
    pass


class InfiniteDimensional(MonosingError):
    """The algebra has nonzero paths of unbounded length.

    ``witness`` is a human-readable description of a pumpable cycle
    (an arrow cycle avoiding all minimal relations, or a glued chain).
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class ZeroPath(MonosingError):
    """A path that is zero in the algebra was passed where a nonzero one is required."""


class TrivialPath(MonosingError):
    """A trivial path was passed where a nontrivial one is required."""


class NotOneGorenstein(MonosingError):
    """Operation defined only for presentations passing the 1-Gorenstein test."""


class NotGorenstein(MonosingError):
    """Oracle operation defined only for algebras certified Gorenstein."""


class NotAChain(MonosingError):
    """Perfect paths sharing a final arrow failed to form a total left-factor chain."""


class InternalInvariantViolation(MonosingError):
    """A structural law guaranteed by theory failed; indicates a bug, never ignored."""


class PresentationMismatch(MonosingError):
    """Two representations over different presentations were combined."""


class MismatchDetected(MonosingError):
    """Combinatorial and homological classifications disagree (core tripwire)."""


class DegreeOutOfRange(MonosingError):
    """Truncation degree outside [0, top degree]."""


class UndecidedResolution(MonosingError):
    """A resolution whose status could not be certified; the oracle certifies
    every resolution and no longer raises it, but callers may still catch it."""
