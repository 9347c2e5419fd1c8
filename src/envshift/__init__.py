"""Commutative subalgebras of enveloping algebras, verified in exact arithmetic."""

from .algebra import (
    GL,
    SO_EVEN,
    SO_ODD,
    SP,
    AlgebraError,
    AlgebraSpec,
    bracket_structure,
    dimension_and_index,
    make_algebra,
    parse_algebra,
)
from .chains import (
    ChainSpec,
    chain_generators,
    commutativity_failures,
    load_chain_file,
    make_chain,
    noncommuting_pairs,
)
from .classical import (
    PointOnDual,
    random_rank2_point,
    shift_expand,
)
from .elements import (
    casimir,
    check_centralizer,
    matrix_power_element,
    shift_commutator_residual,
    shift_generator,
    stabilizer_basis,
)
from .independence import (
    RankCertificate,
    brailov_duality_check,
    jacobian_rank,
    tangent_intersection_dim,
    transcendency_check,
)
from .params import ParamPolynomial
from .pbw import NCPolynomial, ParseError, commutator, format_poly, multiply, parse
from .shifts import (
    ShiftMatrix,
    canonical_shift,
    shift_from_designator,
    shift_from_rows,
    symbolic_shift,
)

__version__ = "0.1.0"
