"""Known answers for the benchmark workloads and the checks against them.

Each check returns one operation record {"op", "ok", "detail"}; the
benchmark's fail_rate is failed records over attempted ones.  The answers
do not come from running the code under test:

- verify-e8: C(248, 3) = 2,511,496 Jacobi triples over C(248, 2) = 30,628
  index pairs; the degree-zero part so(16) has dimension C(16, 2) = 120;
  e8 is simple, so its Killing form has full rank 248; its root system
  is E8 with 240 roots; the export must equal the committed
  golden/e8.json byte for byte (size and SHA-256 below).
- props-n7: 14 checks, all ok, with the detail strings the unmodified
  code printed at n = 7 (frozen below, in run order).
- mutants-e7-fp7: e7 has dimension 133, and a table with one flipped
  structure constant must violate the Jacobi identity on some pair that
  touches the flipped bracket.
"""

E8_DIM = 248
E8_PAIRS = 30628
E8_TRIPLES = 2511496
E8_SPAN_RANK = 120
E8_ROOT_TYPE = "E8"
E8_ROOT_COUNT = 240
E8_EXPORT_BYTES = 310621
E8_EXPORT_SHA256 = "b0a5966630b69f9221bf8f9a3cab9bafa5522e90a6d3fc039e91313afe8dbd11"

E7_DIM = 133

PROPS_N7 = (
    ("car-relations", "all 6272 (a, b, basis vector) operator identities hold exactly"),
    ("h-eigenvalues", "eigenvalue k - n/2 on all 128 basis vectors; [H, e_a] = e_a and [H, i_a] = -i_a for a <= 7"),
    ("q-isometry", "exhaustive to grade 2 (106^2 pairs) plus 36 stratified higher-grade pairs"),
    ("pi-completeness", "6 seeded sparse elements plus H and the grading element"),
    ("eps-duality", "32 seeded (monomial, grade) pairs at k <= 3, covering the complementary grades on the left side"),
    ("norm-dimension", "defining system over all 16384 unknowns solved: dimension 1"),
    ("plain-symmetry", "sign -1, parity 1, full antidiagonal support (128 entries), checked over every entry"),
    ("graded-symmetry", "sign +1, parity 1, full antidiagonal support (128 entries), checked over every entry"),
    ("ck-invariance", "transpose characterization on 455 exhaustive and 30 sampled blades, plus 30 direct seeded triples"),
    ("grade2-symmetry", "520 seeded basis pairs with parity, plus 15 sparse pairs"),
    ("top-symmetry", "sign +1 and parity 1 on all 128 support pairs; off-support vanishing on 100 seeded pairs"),
    ("graded-pairing-symmetry", "500 seeded basis pairs with per-component parity"),
    ("bracket-relations", "1000 seeded pairs (250 sparse) over all 14 vectors"),
    ("matrix-agreement", "600 seeded basis triples"),
)

E8_OPS = 6  # antisymmetry, jacobi, spanning, killing rank, roots, export


def record(op: str, ok: bool, detail: str = "") -> dict:
    return {"op": op, "ok": bool(ok), "detail": "" if ok else detail}


def check_antisymmetry(violations) -> dict:
    return record("antisymmetry", not violations, f"{len(violations)} violating pairs")


def check_jacobi_full(report) -> dict:
    ok = (
        bool(report)
        and report.dim == E8_DIM
        and report.pairs_checked == E8_PAIRS
        and report.triples_covered == E8_TRIPLES
    )
    return record("jacobi", ok, repr(report))


def check_span(span) -> dict:
    ok = span.rank == E8_SPAN_RANK and span.expected == E8_SPAN_RANK
    return record("degree-zero-spanning", ok, f"rank {span.rank} of {span.expected}")


def check_killing_rank(rank: int) -> dict:
    return record("killing-rank", rank == E8_DIM, f"rank {rank}")


def check_roots(roots) -> dict:
    ok = roots.type_name == E8_ROOT_TYPE and len(roots.roots) == E8_ROOT_COUNT
    return record("roots", ok, f"type {roots.type_name} with {len(roots.roots)} roots")


def check_export(data: bytes) -> dict:
    import hashlib

    digest = hashlib.sha256(data).hexdigest()
    ok = len(data) == E8_EXPORT_BYTES and digest == E8_EXPORT_SHA256
    return record("export", ok, f"{len(data)} bytes, sha256 {digest}")


def check_props(results) -> list[dict]:
    """One record per expected check; missing or extra results fail."""
    got = [(r.check, r.ok, r.detail) for r in results]
    out = []
    for idx, (check, detail) in enumerate(PROPS_N7):
        have = got[idx] if idx < len(got) else None
        out.append(record(check, have == (check, True, detail), repr(have)))
    if len(got) > len(PROPS_N7):
        out.append(record("props-count", False, f"{len(got)} results"))
    return out


def check_e7_dim(dim: int) -> dict:
    return record("e7-dim", dim == E7_DIM, f"dim {dim}")


def check_mutant(flip, report, dim: int) -> dict:
    """A mutant counts as detected only if some touching pair violates."""
    ok = bool(report.violations) and report.pairs_checked == 2 * dim - 3
    return record(
        f"mutant{tuple(flip)}",
        ok,
        f"{len(report.violations)} violating pairs of {report.pairs_checked}",
    )
