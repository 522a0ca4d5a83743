"""Exception types shared across the package.

All numerical-domain failures derive from ArnoldTonguesError so that the
command line tool can map them to a single exit code.
"""


class ArnoldTonguesError(Exception):
    """Base class for numerical-domain failures raised by this package."""


class CriticalPointError(ArnoldTonguesError):
    """First derivative too close to zero for an operation that divides by it."""


class RootBracketError(ArnoldTonguesError):
    """A root that must exist inside a bracket could not be bracketed.

    Raised by maps._plateau, the envelopes' per-b plateau bisection, when
    the plateau-closing root is missing: a solver bug, not a bad input.
    """


class NoOrbitError(ArnoldTonguesError):
    """No periodic orbit with the requested rotation label was found."""


class AmbiguityError(ArnoldTonguesError):
    """More orbit translation classes found than the theory allows."""


class EmptyPlateauError(ArnoldTonguesError):
    """No point of the requested rational level set was found in the window."""


class BadWindowError(ArnoldTonguesError):
    """The search window does not bracket the requested plateau."""


class ContinuationLostError(ArnoldTonguesError):
    """Curve continuation lost its bracket.  Carries the offending b."""

    def __init__(self, message, b=None):
        super().__init__(message)
        self.b = b
