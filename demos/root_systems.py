"""
Root systems identify the algebras
==================================

The basis vectors whose ad is diagonal in the basis form a maximal
commuting subalgebra, found in the structure table with no label read:
the diagonal grade-2 elements, plus the sl2 Cartan element for e7 and
the grading line for e6.  Decomposing each algebra into integer weight
spaces recovers the full root system, and the reconstructed Cartan
matrix names the type with no outside tables involved.
"""

from spinor_forge.builders import build_e6, build_e7, build_e8
from spinor_forge.exceptional import label_str, root_decomposition

for builder in (build_e6, build_e7, build_e8):
    algebra = builder()
    datum = root_decomposition(algebra)
    norms = sorted({str(v) for v in datum.root_norms})
    print(f"{algebra.name}: type {datum.type_name}, rank {datum.rank}, "
          f"{len(datum.roots)} roots ({len(datum.positive_roots)} positive), "
          f"root norm(s) {norms}")
    cartan = ", ".join(label_str(lab) for lab in datum.cartan_labels[:4])
    print(f"  cartan starts with: {cartan}, ...")

# the e8 Cartan matrix, row by row
datum = root_decomposition(build_e8())
print("\ne8 Cartan matrix from the reconstructed simple roots:")
for row in datum.cartan_matrix:
    print("  " + " ".join(f"{v:2d}" for v in row))
