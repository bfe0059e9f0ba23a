"""
Building e6, e7 and e8 from spinor pairings
===========================================

Each algebra is a grade-2 Clifford piece plus one or two spinor
modules, with the spinor-spinor bracket supplied by the pairings.  The
construction is verified on the spot: antisymmetry, the full Jacobi
sweep, the spanning rank of the spinor brackets, and the Killing-form
rank, over the rationals and over a prime field.
"""

import time

from spinor_forge.builders import build_e6, build_e7, build_e8, solve_e7_constants
from spinor_forge.exceptional import (
    killing_form,
    label_str,
    spanning_check,
    verify_jacobi,
    with_flipped_sign,
)
from spinor_forge.field import PrimeField

for builder in (build_e6, build_e7, build_e8):
    algebra = builder()
    start = time.perf_counter()
    report = verify_jacobi(algebra)
    span = spanning_check(algebra)
    _, rank = killing_form(algebra)
    print(
        f"{algebra.name}: dim {algebra.dim}, jacobi "
        f"{'clean' if report else 'VIOLATED'} over {report.triples_covered} "
        f"triples, spinor span {span.rank}/{span.expected}, killing rank "
        f"{rank}, {time.perf_counter() - start:.1f}s"
    )

# a taste of the structure constants: one spinor-spinor bracket in e8
e8 = build_e8()
spinors = e8.spinor_indices()
i, j, terms = next(
    (a, b, e8.bracket(a, b))
    for a in spinors for b in spinors
    if a < b and e8.bracket(a, b)
)
lhs = f"[{label_str(e8.basis[i])}, {label_str(e8.basis[j])}]"
rhs = " + ".join(f"({c}) {label_str(e8.basis[k])}" for k, c in terms[:4])
print(f"\n{lhs} = {rhs}" + (" + ..." if len(terms) > 4 else ""))

# the e7 bracket constants are solved from Jacobi, not hardcoded
c1, c2 = solve_e7_constants()
print(f"e7 spinor bracket constants solved from the Jacobi nullspace: "
      f"({c1}, {c2})")

# flip one structure constant sign and the verifier notices immediately
mutant = with_flipped_sign(e8, i, j, terms[0][0])
pairs = sorted(
    {(min(i, x), max(i, x)) for x in range(e8.dim) if x != i}
    | {(min(j, x), max(j, x)) for x in range(e8.dim) if x != j}
)
report = verify_jacobi(mutant, pairs=pairs)
print(f"one flipped sign -> {len(report.violations)} violating pairs found")

# the same pipeline runs over any prime field away from 2 and 3
modular = build_e6(field=PrimeField(7))
report = verify_jacobi(modular)
print(f"e6 over the 7-element field: jacobi {'clean' if report else 'VIOLATED'}")
