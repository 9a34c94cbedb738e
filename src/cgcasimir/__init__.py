"""Exact-arithmetic Casimir operators of centrally extended conformal
Galilei algebras: structure constants, PBW calculus, graded ansatz
enumeration, Weyl-algebra realisations, and the search/verification
pipeline."""

from .grading import (AnsatzBasis, default_grade, default_target_grades, enumerate_ansatz,
                      grade_of)
from .liealg import (
    AlgebraSpec,
    GeneratorId,
    InvalidSpecError,
    LieAlgebra,
    bb_count,
    bracket,
    jacobi_check,
    make_cga,
    parse_spec,
)
from .realization import (
    DiffOp,
    VarSet,
    compose,
    is_parameter_scalar,
    realize_element,
    realize_generator,
    verify_realization,
)
from .solver import (
    CasimirReport,
    LinearSystem,
    ReducedCheckError,
    nullspace,
    solve_casimirs,
    verify_casimir,
)
from .theorems import (
    TheoremRangeError,
    TheoremReport,
    build_theorem_casimir,
    theorem_report,
    theorem_terms,
)
from .uea import UEAElement, commutator, multiply, normal_order, omega

__all__ = [
    "AlgebraSpec", "AnsatzBasis", "CasimirReport", "DiffOp", "GeneratorId",
    "InvalidSpecError", "LieAlgebra", "LinearSystem", "ReducedCheckError",
    "TheoremRangeError", "TheoremReport", "UEAElement", "VarSet", "bb_count",
    "bracket", "build_theorem_casimir", "commutator", "compose", "default_grade",
    "default_target_grades", "enumerate_ansatz", "grade_of", "is_parameter_scalar",
    "jacobi_check", "make_cga", "multiply", "normal_order", "nullspace", "omega",
    "parse_spec", "realize_element", "realize_generator", "solve_casimirs",
    "theorem_report", "theorem_terms", "verify_casimir", "verify_realization",
]

__version__ = "0.1.0"
