"""casson3: exact arithmetic for a fully perturbative SU(3) Casson-type
invariant of the homology spheres obtained by 1/K surgery on (2,q) torus
knots, with the structural laws (integrality, orientation symmetry, move
calculus for the chain-complex correction, connected sums) as testable
surfaces."""

__version__ = "0.1.0"

from .assembly import (
    InvariantReport,
    assemble,
    assemble_on_sphere,
    connect_sum_Lambda,
    connect_sum_lambda,
    lambda_su2,
    lambda_su3,
    reference_A,
    reference_B,
    reference_C,
    reference_Lambda,
)
from .dedekind import FloatEstimate, RhoValue, c_correction, rho_adjoint, verify_convention
from .errors import (
    Casson3Error,
    ConventionMismatch,
    DegreeExceeded,
    GradingFormulaUnavailable,
    InapplicableMove,
    InvalidSurgery,
    MissingClosedForm,
    NotCoprime,
    SnapFailure,
    TooManyConnections,
)
from .flat_moduli import FlatConnection, count_connections, enumerate_connections
from .floer import (
    GF2Matrix,
    MorseMove,
    Z2ChainComplex,
    apply_move,
    build_floer_complex,
    dual_reflect,
    floer_correction,
    floer_grading,
    homology_ranks,
    r_invariant,
    zero_complex,
)
from .knotpoly import alexander_torus, check_conjecture, second_derivative_at_one
from .polynomial import RationalPoly, fit_and_verify
from .seifert import BrieskornSphere, from_surgery, reverse_orientation

__all__ = [name for name in dir() if not name.startswith("_")]
