"""Exact Clifford-algebra and pure-spinor machinery, culminating in
structure-constant models of the split exceptional Lie algebras."""

# Nothing in the package calls scipy.  It is imported because
# perfbench/job.py reads sys.modules["scipy"].__version__ after every
# benchmark job.
import scipy  # noqa: F401

from spinor_forge.field import PrimeField, Rationals, make_field
from spinor_forge.fock import Config, SpinorVec, annihilate, create
from spinor_forge.clifford import (
    CliffordElem,
    act,
    commutator,
    grade_project,
    grading_element,
    h_operator,
    multiply,
    orthonormal_vector,
    transpose,
    witt_e,
    witt_i,
)
from spinor_forge.norms import (
    BilinearForm,
    b_eval,
    graded_norm,
    norm_solution_dimension,
    solve_spinor_norm,
)
from spinor_forge.pairings import (
    grade2_pairing,
    graded_pairing,
    orbit_map_adjoint,
    top_grade_pairing,
)
from spinor_forge.exceptional import (
    LieAlgebra,
    build_e6,
    build_e7,
    build_e8,
    killing_form,
    label_str,
    root_decomposition,
    spanning_check,
    to_json,
    verify_jacobi,
)
from spinor_forge.props import SUITES, run_suites

__version__ = "0.1.0"

__all__ = [
    "BilinearForm",
    "CliffordElem",
    "Config",
    "LieAlgebra",
    "PrimeField",
    "Rationals",
    "SUITES",
    "SpinorVec",
    "act",
    "annihilate",
    "b_eval",
    "build_e6",
    "build_e7",
    "build_e8",
    "commutator",
    "create",
    "grade2_pairing",
    "grade_project",
    "graded_norm",
    "graded_pairing",
    "grading_element",
    "h_operator",
    "killing_form",
    "label_str",
    "make_field",
    "multiply",
    "norm_solution_dimension",
    "orbit_map_adjoint",
    "orthonormal_vector",
    "root_decomposition",
    "run_suites",
    "solve_spinor_norm",
    "spanning_check",
    "to_json",
    "top_grade_pairing",
    "transpose",
    "verify_jacobi",
    "witt_e",
    "witt_i",
]
