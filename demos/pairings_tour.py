"""
Spinor pairings valued in the Clifford algebra
==============================================

Two spinors pair into a grade-2 element (an infinitesimal rotation), a
top-grade scalar multiple of the grading element, or a graded mix.  The
grade-2 pairing has a closed-form matrix on basis pairs that agrees
with the four-sum definition, and the whole toolkit obeys two clean
vector-valued relations.
"""

from spinor_forge.fock import Config, SpinorVec
from spinor_forge.clifford import act, commutator, grading_element, orthonormal_vector
from spinor_forge.norms import b_eval, solve_spinor_norm
from spinor_forge.pairings import (
    grade2_pairing,
    grade2_pairing_on_basis,
    orbit_map_adjoint,
    top_grade_coefficient,
    top_grade_pairing,
)

n = 4
config = Config(n)
form = solve_spinor_norm(config)
field = config.field

imask, jmask = 0b0011, 0b1100
phi = SpinorVec.basis(config, imask)
psi = SpinorVec.basis(config, jmask)
elem = grade2_pairing(form, phi, psi)
print(f"grade-2 pairing of two complementary basis spinors at n={n}:")
print(" ", elem)

# the closed-form matrix route gives the same operator on every basis vector
for kmask in range(config.size):
    direct = act(elem, SpinorVec.basis(config, kmask))
    closed = grade2_pairing_on_basis(form, imask, jmask, kmask)
    assert direct == closed
print("closed-form basis matrix agrees with the four-sum route")

# the top-grade pairing is a scalar times the grading element, nonzero
# exactly when the two masks are complementary
coeff = top_grade_coefficient(form, phi, psi)
print(f"top-grade coefficient on the complementary pair: {coeff}")
assert top_grade_pairing(form, phi, psi) == grading_element(config).scale(coeff)
assert top_grade_coefficient(form, phi, SpinorVec.basis(config, 0b0110)) == field.zero()

# relations: for each vector w,
#   2 [L(phi,psi), w] = s psi*(w.phi) - phi*(w.psi)
#   2 B(phi,psi) w    = s psi*(w.phi) + phi*(w.psi)
# with s the reversal sign at this n
sign = field.from_int(-1 if (n * (n - 1) // 2) & 1 else 1)
two = field.from_int(2)
two_b = two * b_eval(form, phi, psi)
for s in range(2 * n):
    vec = orthonormal_vector(config, s)
    first = orbit_map_adjoint(form, psi, act(vec, phi)).scale(sign)
    second = orbit_map_adjoint(form, phi, act(vec, psi))
    assert commutator(elem, vec).scale(two) == first - second
    assert vec.scale(two_b) == first + second
print(f"both bracket relations hold on all {2 * n} orthonormal vectors")
