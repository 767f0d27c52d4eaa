"""Exception types shared across the package."""


class HubbardTreeError(Exception):
    """Base class for every error raised by this package."""


class SequenceParseError(HubbardTreeError, ValueError):
    """Malformed sequence text, or a letter outside the alphabet."""


class KneadingError(HubbardTreeError, ValueError):
    """A sequence violating the kneading-sequence constraints."""


class BadLeadingSymbol(KneadingError):
    """Kneading sequences must start with the letter 1."""


class StarMisplaced(KneadingError):
    """The wildcard must occur exactly once per period, at its last position."""


class PeriodicWithoutStar(KneadingError):
    """Purely periodic sequences without a wildcard are not kneading sequences."""


class TrivialKneadingSequence(KneadingError):
    """The trivial all-wildcard sequence cannot drive path or tree construction."""


class NotStarPeriodic(HubbardTreeError, ValueError):
    """Operation requires a star-periodic kneading sequence."""


class WrongDegree(HubbardTreeError, ValueError):
    """Operation is not available for this alphabet degree."""


class DepthBudgetExceeded(HubbardTreeError, RuntimeError):
    """A truncated input ran out of trustworthy symbols, or an iteration
    ran out of its step budget, before an answer."""


class TruncatedTree(HubbardTreeError, RuntimeError):
    """Operation requires a tree in finite mode."""


class VertexNotFound(HubbardTreeError, KeyError):
    """The requested point is not a vertex of the tree."""


class NotAGap(HubbardTreeError, ValueError):
    """The given pair of path points does not bound a gap."""


class NonIncreasingAddress(HubbardTreeError, ValueError):
    """Internal addresses must be strictly increasing and start at 1."""


class CriticalOrbit(HubbardTreeError, ValueError):
    """Orbit classification is not defined for the critical orbit itself."""


class MeetInconsistency(HubbardTreeError, RuntimeError):
    """Internal guard: the tripod recursion failed to settle.  Always a bug."""
