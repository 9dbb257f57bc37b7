"""Exception hierarchy for the casson3 package."""


class Casson3Error(Exception):
    """Base class for all computation errors raised by this package."""


class InvalidSurgery(Casson3Error):
    """Surgery description is not 1/K on a (2,q) torus knot with q odd, K
    nonzero, or the orientation sign is not +-1."""


class SnapFailure(Casson3Error):
    """A float rho did not single out one point of the 1/(4*a1*a2*a3) lattice;
    the caller falls back to the integer kernel."""


class TooManyConnections(Casson3Error):
    """A request's spheres have more flat connections together than one run
    may enumerate, or a fiber's modulus is past the per-fiber kernel tables."""


class ConventionMismatch(Casson3Error):
    """The frozen sign conventions failed their calibration anchors."""


class InapplicableMove(Casson3Error):
    """A chain-complex move's precondition does not hold (e.g. no cancellable pair)."""


class GradingFormulaUnavailable(Casson3Error):
    """A grading mu is not an integer (`floer._mu`), or the degrees span both parities."""


class MissingClosedForm(Casson3Error):
    """No stored closed forms for this q."""


class DegreeExceeded(Casson3Error):
    """No fit of degree <= MAX_FIT_DEGREE passes the samples, or no sample is left to check it."""

