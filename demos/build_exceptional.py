"""
Building e6, e7 and e8 from spinor pairings
===========================================

Each algebra is a grade-2 Clifford piece plus one or two spinor
modules, with the spinor-spinor bracket supplied by the pairings.  The
construction is verified on the spot by exceptional.run_checks, the one
battery: antisymmetry, the full Jacobi sweep, the spanning rank of the
spinor brackets, and the Killing-form rank, over the rationals and over
a prime field.
"""

from spinor_forge.builders import build_e6, build_e7, build_e8, solve_e7_constants
from spinor_forge.exceptional import (
    label_str,
    run_checks,
    verify_jacobi,
    with_flipped_sign,
)
from spinor_forge.field import PrimeField


def verify(algebra):
    """Run the battery on algebra and print one line of verdicts."""
    checks = run_checks(algebra)
    verdicts = ", ".join(
        f"{c['check']} {'ok' if c['ok'] else 'FAILED'}" for c in checks
    )
    seconds = sum(c["seconds"] for c in checks)
    print(f"{algebra.name} over {algebra.config.field.spec}: dim {algebra.dim}; "
          f"{verdicts}; {seconds:.1f}s")


e8 = build_e8()
for algebra in (build_e6(), build_e7(), e8):
    verify(algebra)

# a taste of the structure constants: one spinor-spinor bracket in e8
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
verify(build_e6(field=PrimeField(7)))
