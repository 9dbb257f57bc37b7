"""Exception hierarchy for the casson3 package."""


class Casson3Error(Exception):
    """Base class for all computation errors raised by this package."""


class InvalidSurgery(Casson3Error):
    """Surgery description is not 1/K on a (2,q) torus knot with q odd, K
    nonzero, or the orientation sign is not +-1."""


class SnapFailure(Casson3Error):
    """A float rho did not single out one point of the 1/(4*a1*a2*a3) lattice;
    the caller falls back to the exact path."""


class TooManyConnections(Casson3Error):
    """A sphere has more flat connections than one run may enumerate."""


class ConventionMismatch(Casson3Error):
    """The frozen sign conventions failed their calibration anchors."""


class InapplicableMove(Casson3Error):
    """A chain-complex move's precondition does not hold (e.g. no cancellable pair)."""


class GradingFormulaUnavailable(Casson3Error):
    """No grading formula is implemented for this sphere."""


class MissingClosedForm(Casson3Error):
    """No stored closed forms for this q."""


class DegreeExceeded(Casson3Error):
    """A check point deviates from the fitted polynomial."""


class NotCoprime(Casson3Error):
    """Torus knot parameters must be coprime."""
