"""Commuting-matrix models for moduli of modules over differential
algebras on complex tori.

The package has two scalar regimes, exact Gaussian rationals and complex
floating point, shared by every layer: linear algebra (``linalg``),
differential-algebra classification triples (``dalgebra``), period
lattices and their dual tori (``torus``), commuting-tuple models of the
punctual moduli (``adhm``), the assembled length-n moduli with their
charts and transforms (``moduli``), where a rank-1 module is a length-1
chart point, and the seeded property battery (``checks``) behind the
``abelmod check`` command line.
"""

from .adhm import (
    CommutingTuple,
    IdealNormalForm,
    InvariantFlag,
    MarkedTuple,
    PunctualData,
    decompose_punctual,
    expm1_matrix,
    from_points,
    ideal_normal_form,
    is_stable,
    joint_spectrum,
    krylov_span,
    log1p_matrix,
    marked_automorphisms_trivial,
    rees_family,
    rees_limit,
    sequiv_normal_form,
    spectrum_support,
    triangularize,
)
from .dalgebra import (
    DAlgebraLabel,
    Poly,
    UtaiTriple,
    bracket_sections,
    classify,
    cohomology_dim,
    fm_dual,
    gl_act,
    jacobi_check,
    orbit_invariants,
)
from .errors import AbelmodError, SchemaError
from .linalg import EXACT, FLOAT, Matrix, Scalar, ToleranceFrame
from .moduli import (
    FiberSpace,
    HilbPoint,
    SymPoint,
    assemble_pieces,
    betti_assemble,
    betti_marked,
    betti_unmarked,
    diagram_check,
    hilbert_chow,
    hodge_deform,
    hodge_rescale,
    hodge_undeform,
    rank1_identify,
    rh_to_betti,
    rh_to_derham,
)
from .torus import AbelianVarietyModel, square_model

__version__ = "0.1.0"

__all__ = [
    "AbelianVarietyModel",
    "AbelmodError",
    "CommutingTuple",
    "DAlgebraLabel",
    "EXACT",
    "FLOAT",
    "FiberSpace",
    "HilbPoint",
    "IdealNormalForm",
    "InvariantFlag",
    "MarkedTuple",
    "Matrix",
    "Poly",
    "PunctualData",
    "Scalar",
    "SchemaError",
    "SymPoint",
    "ToleranceFrame",
    "UtaiTriple",
    "assemble_pieces",
    "betti_assemble",
    "betti_marked",
    "betti_unmarked",
    "bracket_sections",
    "classify",
    "cohomology_dim",
    "decompose_punctual",
    "diagram_check",
    "expm1_matrix",
    "fm_dual",
    "from_points",
    "gl_act",
    "hilbert_chow",
    "hodge_deform",
    "hodge_rescale",
    "hodge_undeform",
    "ideal_normal_form",
    "is_stable",
    "jacobi_check",
    "joint_spectrum",
    "krylov_span",
    "log1p_matrix",
    "marked_automorphisms_trivial",
    "orbit_invariants",
    "rank1_identify",
    "rees_family",
    "rees_limit",
    "rh_to_betti",
    "rh_to_derham",
    "sequiv_normal_form",
    "spectrum_support",
    "square_model",
    "triangularize",
    "__version__",
]
