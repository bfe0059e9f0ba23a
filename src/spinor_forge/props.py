"""Executable property suites for the spinor machinery.

Each check restates one structural fact the package is built on (the CAR
relations, the symmetry tables, the grade dualities, the pairing
relations) as a pass/fail result with an explicit coverage regime.  The
same battery backs the test suite and the command line `props` report.
Everything runs over the rationals, exactly; sampled regimes draw from
seeded generators so repeat runs are byte-identical.

Every check runs on one harness: `_check` names it after its function
and builds its CheckResult, and the body walks its cases in a fixed
order, stops at the first failing one and names that case in `detail`.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from functools import lru_cache, wraps
from itertools import combinations, product
from math import prod

from .clifford import (
    CliffordElem,
    act,
    commutator,
    grade_project,
    grade_projections,
    grading_element,
    h_operator,
    multiply,
    orthonormal_vector,
    q_map,
    slot_metric,
    trace_rows,
    transpose,
    vector_commutators,
    witt_e,
    witt_i,
)
from .fock import (
    Config,
    SpinorVec,
    apply_monomial,
    parity,
)
from .norms import (
    BilinearForm,
    b_eval,
    graded_norm,
    norm_solution_dimension,
    solve_spinor_norm,
)
from .pairings import (
    _slot_adjoints,
    grade2_pairing,
    grade2_pairing_on_basis,
    graded_pairing,
    top_grade_coefficient,
)

# (sign, pairing parity) keyed by n mod 4.  Sign +1 means symmetric, -1
# antisymmetric; parity 0 means nonzero only on equal spinor parities, 1
# only on opposite ones.  The graded pairing row gives the parity of its
# grade-2 component; the grade-1 component has the complementary parity.
PLAIN_NORM_TABLE = {0: (1, 0), 1: (1, 1), 2: (-1, 0), 3: (-1, 1)}
GRADED_NORM_TABLE = {0: (1, 0), 1: (-1, 1), 2: (-1, 0), 3: (1, 1)}
GRADE2_TABLE = {0: (-1, 0), 1: (-1, 1), 2: (1, 0), 3: (1, 1)}
TOP_TABLE = {0: (1, 0), 1: (-1, 1), 2: (-1, 0), 3: (1, 1)}
GRADED_PAIRING_TABLE = {0: (-1, 0), 1: (1, 1), 2: (1, 0), 3: (-1, 1)}


@dataclass(slots=True)
class CheckResult:
    """Outcome of one named check at one n."""

    check: str
    n: int
    ok: bool
    detail: str

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"CheckResult({self.check!r}, n={self.n}, {status})"

    def to_dict(self) -> dict:
        return asdict(self)


# One Config per n for every check, so the cached norms and Clifford
# elements share it and config checks take the identity fast path.
_config = lru_cache(maxsize=None)(Config)


class _Failed(Exception):
    """Ends the running check; its one argument is the failure detail."""


def _check(fn):
    """Make a check body fn(n, ...) into the check named after it:
    check_q_isometry is the check "q-isometry".

    The body returns its ok detail, or raises _Failed(detail) at its first
    failing case, from any depth; either way the check returns one
    CheckResult, the return type the body is annotated with.  Every other
    exception propagates.  The check keeps the body's name, docstring and
    signature.
    """
    name = fn.__name__.removeprefix("check_").replace("_", "-")

    @wraps(fn)
    def run(n: int, *args, **kwargs) -> CheckResult:
        try:
            return CheckResult(name, n, True, fn(n, *args, **kwargs))
        except _Failed as failed:
            return CheckResult(name, n, False, str(failed))

    return run


def _first(cases, ok):
    """The first case (a tuple of ok's arguments) for which ok(*case) is
    false, or None; a case is a nonempty tuple, so a found one is truthy."""
    return next((case for case in cases if not ok(*case)), None)


def _seeded_pairs(r: random.Random, size: int, count: int) -> Iterator[tuple[int, int]]:
    """count basis pairs (im, jm), each drawn from r as it is reached."""
    return ((r.randrange(size), r.randrange(size)) for _ in range(count))


def _sample_spinor(config: Config, r: random.Random) -> SpinorVec:
    """A sparse spinor: two terms drawn from r, which may share a mask."""
    terms = {}
    for _ in range(2):
        terms[r.randrange(config.size)] = config.field.from_int(r.randrange(1, 9))
    return SpinorVec(config, terms)


# ---------------------------------------------------------------- fock


@_check
def check_car_relations(n: int) -> CheckResult:
    """create/annihilate anticommute among themselves; the mixed bracket
    is delta_ab times the identity.  Exhaustive on every basis vector.

    On e_M.v, create(a) and annihilate(a) are the one-generator words
    e_a and i_a, each one signed move of the mask (`apply_monomial`).  The
    moves of each generator on all 2^n masks are listed once, so xy + yx
    on e_M.v is two two-move paths, four list reads, summed by mask."""
    config = _config(n)
    modes = range(1, n + 1)
    masks = range(config.size)
    e_moves = {a: [apply_monomial(1 << (a - 1), 0, m) for m in masks] for a in modes}
    i_moves = {a: [apply_monomial(0, 1 << (a - 1), m) for m in masks] for a in modes}

    def anticommutator(m: int, x: list, y: list) -> dict:
        """(xy + yx) e_M.v for the move lists x and y as {mask: coefficient},
        zeros dropped."""
        out: dict[int, int] = {}
        for first, second in ((y, x), (x, y)):
            if (hit := first[m]) and (end := second[hit[1]]):
                out[end[1]] = out.get(end[1], 0) + hit[0] * end[0]
        return {mask: c for mask, c in out.items() if c}

    def car_ok(m: int, a: int, b: int) -> bool:
        return (
            not anticommutator(m, e_moves[a], e_moves[b])
            and not anticommutator(m, i_moves[a], i_moves[b])
            and anticommutator(m, i_moves[a], e_moves[b]) == ({m: 1} if a == b else {})
        )

    if bad := _first(product(masks, modes, modes), car_ok):
        raise _Failed("identity failed at basis mask {}, a={}, b={}".format(*bad))
    return (
        f"all {config.size * n * n} (a, b, basis vector) operator identities "
        "hold exactly"
    )


@_check
def check_h_eigenvalues(n: int) -> CheckResult:
    """The number operator acts on a k-particle basis vector with
    eigenvalue k - n/2 and satisfies [H, e_a] = e_a, [H, i_a] = -i_a."""
    config = _config(n)
    field = config.field
    h = h_operator(config)
    for m in range(config.size):
        psi = SpinorVec.basis(config, m)
        if act(h, psi) != psi.scale(field.from_fraction(2 * m.bit_count() - n, 2)):
            raise _Failed(f"wrong eigenvalue on basis mask {m}")
    minus_one = field.from_int(-1)
    for a in range(1, n + 1):
        ea, ia = witt_e(config, a), witt_i(config, a)
        if commutator(h, ea) != ea:
            raise _Failed(f"[H, e_{a}] != e_{a}")
        if commutator(h, ia) != ia.scale(minus_one):
            raise _Failed(f"[H, i_{a}] != -i_{a}")
    return (
        f"eigenvalue k - n/2 on all {config.size} basis vectors; "
        f"[H, e_a] = e_a and [H, i_a] = -i_a for a <= {n}"
    )


# ------------------------------------------------------------ clifford


@_check
def check_q_isometry(n: int) -> CheckResult:
    """2^n g(alpha, beta) = Tr(transpose(Q(alpha)) Q(beta)) on wedge
    basis pairs: exhaustive for n <= 3, exhaustive up to grade 2 plus
    stratified higher-grade samples for larger n, one row of traces per
    outer blade (`trace_rows`), never the whole pair matrix."""
    config = _config(n)
    field = config.field
    zero = field.zero()
    nslots = 2 * n

    def require(outer: list, inner: list) -> None:
        """Fail at the first (s1, s2) pair off the metric; each blade and
        each outer transpose is built once, every pair traces its product
        without forming it."""
        blades = {s: q_map(config, s) for s in outer + inner}
        transposed = (transpose(blades[s]) for s in outer)
        rows = zip(outer, trace_rows(config, transposed, [blades[s] for s in inner]))
        traces = ((s1, s2, t) for s1, row in rows for s2, t in zip(inner, row))

        def pair_ok(s1: tuple, s2: tuple, t) -> bool:
            if s1 != s2:
                # trace_rows fills a zero entry with this same shared zero
                return t is zero or t == zero
            return t == field.from_int(config.size * prod(map(slot_metric, s1)))

        if bad := _first(traces, pair_ok):
            raise _Failed("failed at pair {} x {}".format(*bad[:2]))

    if n <= 3:
        every = [s for k in range(nslots + 1) for s in combinations(range(nslots), k)]
        require(every, every)
        return f"exhaustive over all {len(every)}^2 wedge pairs"

    low = [s for k in range(3) for s in combinations(range(nslots), k)]
    require(low, low)
    r = random.Random(1009 + n)
    for k in range(3, nslots + 1):
        a = tuple(sorted(r.sample(range(nslots), k)))
        b = tuple(sorted(r.sample(range(nslots), k)))
        c = tuple(sorted(r.sample(range(nslots), r.randrange(k))))
        require([a], [a, b, c])
    return (
        f"exhaustive to grade 2 ({len(low)}^2 pairs) plus {3 * (nslots - 2)} "
        "stratified higher-grade pairs"
    )


@_check
def check_pi_completeness(n: int) -> CheckResult:
    """The grade projections sum to the identity: exhaustive on basis
    monomials for n <= 3, seeded sparse elements plus the structured
    elements H and the grading element for larger n."""
    config = _config(n)

    def complete(x: CliffordElem) -> bool:
        total = CliffordElem.zero(config)
        for part in grade_projections(x):
            total = total + part
        return total == x

    if n <= 3:
        one = config.field.from_int(1)

        def monomial_ok(emask: int, imask: int) -> bool:
            return complete(CliffordElem(config, {(emask, imask): one}))

        if bad := _first(product(range(config.size), repeat=2), monomial_ok):
            raise _Failed(
                "projections do not sum back at monomial ({}, {})".format(*bad)
            )
        return f"exhaustive over all {config.size ** 2} basis monomials"

    r = random.Random(2003 + n)
    samples = []
    for _ in range(6):
        terms = {}
        for _ in range(4):
            mono = (r.randrange(config.size), r.randrange(config.size))
            terms[mono] = config.field.from_int(r.randrange(1, 7))
        samples.append(CliffordElem(config, terms))
    samples.append(h_operator(config))
    samples.append(grading_element(config))
    for idx, x in enumerate(samples):
        if not complete(x):
            raise _Failed(f"projections do not sum back at sample {idx}")
    return "6 seeded sparse elements plus H and the grading element"


@_check
def check_eps_duality(n: int) -> CheckResult:
    """Multiplying by the grading element swaps complementary grades:
    projecting eps*c to grade 2n-k equals eps times the grade-k part of
    c.  Exhaustive over monomials and grades for n <= 3; for larger n,
    seeded monomials at k <= 3 (the identity then also exercises the
    complementary top-side projections on the left)."""
    config = _config(n)
    eps = grading_element(config)

    def dual_ok(mono: tuple[int, int], coeff, k: int) -> bool:
        c = CliffordElem(config, {mono: coeff})
        return grade_project(multiply(eps, c), 2 * n - k) == multiply(
            eps, grade_project(c, k)
        )

    if n <= 3:
        one = config.field.from_int(1)
        monomials = product(range(config.size), repeat=2)
        cases = ((mono, one, k) for mono in monomials for k in range(2 * n + 1))
        regime = (
            f"exhaustive over all {config.size ** 2} monomials and "
            f"{2 * n + 1} grades"
        )
    else:
        r = random.Random(3001 + n)
        drawn = []
        for _ in range(8):
            mono = (r.randrange(config.size), r.randrange(config.size))
            drawn.append((mono, config.field.from_int(r.randrange(1, 7))))
        cases = ((mono, coeff, k) for mono, coeff in drawn for k in range(4))
        regime = (
            f"{4 * len(drawn)} seeded (monomial, grade) pairs at k <= 3, covering "
            "the complementary grades on the left side"
        )
    if bad := _first(cases, dual_ok):
        raise _Failed(f"failed at monomial {bad[0]}, grade {bad[2]}")
    return regime


# --------------------------------------------------------------- norms


@_check
def check_norm_dimension(n: int) -> CheckResult:
    """The defining system for the spinor norm has a one dimensional
    solution space; re-solved from scratch over all basis pairs."""
    dim = norm_solution_dimension(_config(n))
    if dim != 1:
        raise _Failed(f"solution space has dimension {dim}, not 1")
    return f"defining system over all {4 ** n} unknowns solved: dimension 1"


def _symmetry_check(form: BilinearForm, table: dict[int, tuple[int, int]]) -> str:
    config = form.config
    sym, par = table[config.n % 4]
    try:
        got = (form.symmetry(), form.pairing_parity())
    except AssertionError as exc:
        raise _Failed(str(exc)) from None
    if got != (sym, par):
        raise _Failed(f"expected (sign, parity) {(sym, par)}, got {got}")
    if len(form.entries) != config.size:
        raise _Failed("antidiagonal support is incomplete")
    return (
        f"sign {sym:+d}, parity {par}, full antidiagonal support "
        f"({config.size} entries), checked over every entry"
    )


@_check
def check_plain_symmetry(n: int) -> CheckResult:
    """The spinor norm matches its n mod 4 symmetry and parity row."""
    return _symmetry_check(solve_spinor_norm(_config(n)), PLAIN_NORM_TABLE)


@_check
def check_graded_symmetry(n: int) -> CheckResult:
    """The graded norm matches its n mod 4 symmetry and parity row."""
    return _symmetry_check(
        graded_norm(solve_spinor_norm(_config(n))), GRADED_NORM_TABLE
    )


@_check
def check_ck_invariance(n: int) -> CheckResult:
    """Grade-k elements with k = 2, 3 (mod 4) are infinitesimal
    isometries of the norm: B(c.phi, psi) + B(phi, c.psi) = 0.

    For n <= 3 checked directly and exhaustively.  For larger n the
    equivalent transpose characterization transpose(c) = -c is checked
    on wedge basis elements (all of them for n <= 5, grades 2 and 3
    exhaustively plus seeded higher-grade samples beyond), together with
    seeded direct triples.
    """
    config = _config(n)
    form = solve_spinor_norm(config)
    field = config.field
    zero = field.zero()
    nslots = 2 * n
    grades = [k for k in range(2, nslots + 1) if k % 4 in (2, 3)]

    if n <= 3:
        basis_vecs = [SpinorVec.basis(config, m) for m in range(config.size)]
        blades = [s for k in grades for s in combinations(range(nslots), k)]

        # cases come grouped by blade: one set of images serves a group
        @lru_cache(maxsize=1)
        def images(slots: tuple[int, ...]) -> list[SpinorVec]:
            c = q_map(config, slots)
            return [act(c, psi) for psi in basis_vecs]

        def direct_ok(slots: tuple[int, ...], im: int, jm: int) -> bool:
            img = images(slots)
            total = b_eval(form, img[im], basis_vecs[jm]) + b_eval(
                form, basis_vecs[im], img[jm]
            )
            return total == zero

        pairs = list(product(range(config.size), repeat=2))
        cases = ((slots, im, jm) for slots in blades for im, jm in pairs)
        if bad := _first(cases, direct_ok):
            raise _Failed(
                "direct identity failed at blade {}, pair ({}, {})".format(*bad)
            )
        return (
            f"direct, exhaustive: {len(blades)} blades x {config.size}^2 basis pairs"
        )

    # every exhaustive grade (all for n <= 5, else k <= 3) precedes every
    # sampled one, so the blades are checked in grade order
    r = random.Random(4007 + n)
    exhaustive, sampled = [], []
    for k in grades:
        if n <= 5 or k <= 3:
            exhaustive += combinations(range(nslots), k)
        else:
            sampled += (tuple(sorted(r.sample(range(nslots), k))) for _ in range(6))
    minus_one = field.from_int(-1)
    for slots in exhaustive + sampled:
        c = q_map(config, slots)
        if transpose(c) != c.scale(minus_one):
            raise _Failed(f"transpose(c) != -c at blade {slots}")

    direct = 30
    for _ in range(direct):
        k = r.choice(grades)
        slots = tuple(sorted(r.sample(range(nslots), k)))
        c = q_map(config, slots)
        phi = _sample_spinor(config, r)
        psi = _sample_spinor(config, r)
        if b_eval(form, act(c, phi), psi) + b_eval(form, phi, act(c, psi)) != zero:
            raise _Failed(f"direct identity failed at blade {slots}")
    return (
        f"transpose characterization on {len(exhaustive)} exhaustive and "
        f"{len(sampled)} sampled blades, plus {direct} direct seeded triples"
    )


# ------------------------------------------------------------ pairings


@_check
def check_grade2_symmetry(n: int) -> CheckResult:
    """The grade-2 pairing matches its n mod 4 symmetry sign and
    vanishes off its parity row: exhaustive on basis pairs for n <= 5,
    seeded basis and sparse pairs beyond."""
    config = _config(n)
    form = solve_spinor_norm(config)
    sym, par = GRADE2_TABLE[n % 4]
    sgn = config.field.from_int(sym)

    def basis_pair_ok(im: int, jm: int) -> bool:
        fwd = grade2_pairing(
            form, SpinorVec.basis(config, im), SpinorVec.basis(config, jm)
        )
        rev = grade2_pairing(
            form, SpinorVec.basis(config, jm), SpinorVec.basis(config, im)
        )
        if fwd != rev.scale(sgn):
            return False
        return (parity(im) + parity(jm)) % 2 == par or fwd.is_zero()

    if n <= 5:
        if bad := _first(product(range(config.size), repeat=2), basis_pair_ok):
            raise _Failed("failed at basis pair ({}, {})".format(*bad))
        return f"exhaustive over all {config.size}^2 basis pairs"

    r = random.Random(5003 + n)
    pairs = _seeded_pairs(r, config.size, 520)
    if bad := _first(pairs, basis_pair_ok):
        raise _Failed("failed at basis pair ({}, {})".format(*bad))
    for _ in range(15):
        p1, p2 = _sample_spinor(config, r), _sample_spinor(config, r)
        if grade2_pairing(form, p1, p2) != grade2_pairing(form, p2, p1).scale(sgn):
            raise _Failed("failed at a seeded sparse pair")
    return "520 seeded basis pairs with parity, plus 15 sparse pairs"


@_check
def check_top_symmetry(n: int) -> CheckResult:
    """The top-grade coefficient is supported exactly on the
    antidiagonal and matches its n mod 4 symmetry sign; exhaustive over
    the support for every n, with off-support vanishing checked
    exhaustively for n <= 4 and on seeded pairs beyond."""
    config = _config(n)
    form = solve_spinor_norm(config)
    field = config.field
    sym, par = TOP_TABLE[n % 4]
    sgn = field.from_int(sym)
    full = config.size - 1
    zero = field.zero()

    def coeff(im: int, jm: int):
        return top_grade_coefficient(
            form, SpinorVec.basis(config, im), SpinorVec.basis(config, jm)
        )

    for im in range(config.size):
        jm = im ^ full
        fwd = coeff(im, jm)
        if fwd == zero:
            raise _Failed(f"vanishes on its support at pair ({im}, {jm})")
        if fwd != sgn * coeff(jm, im):
            raise _Failed(f"wrong sign at pair ({im}, {jm})")
        if (parity(im) + parity(jm)) % 2 != par:
            raise _Failed(f"parity row violated at ({im}, {jm})")

    if n <= 4:
        pairs = product(range(config.size), repeat=2)
        off = f"off-support vanishing exhaustive over {config.size}^2 pairs"
    else:
        r = random.Random(6007 + n)
        pairs = _seeded_pairs(r, config.size, 100)
        off = "off-support vanishing on 100 seeded pairs"
    if bad := _first(pairs, lambda im, jm: jm == im ^ full or coeff(im, jm) == zero):
        raise _Failed("nonzero off support at ({}, {})".format(*bad))
    return (
        f"sign {sym:+d} and parity {par} on all {config.size} support pairs; " + off
    )


@_check
def check_graded_pairing_symmetry(n: int) -> CheckResult:
    """The graded pairing matches its n mod 4 symmetry sign and its two
    components vanish off their complementary parity rows: exhaustive on
    basis pairs for n <= 4, seeded pairs beyond."""
    config = _config(n)
    gform = graded_norm(solve_spinor_norm(config))
    sym, par2 = GRADED_PAIRING_TABLE[n % 4]
    par1 = 1 - par2
    sgn = config.field.from_int(sym)

    def basis_pair_ok(im: int, jm: int) -> bool:
        fwd = graded_pairing(
            gform, SpinorVec.basis(config, im), SpinorVec.basis(config, jm)
        )
        rev = graded_pairing(
            gform, SpinorVec.basis(config, jm), SpinorVec.basis(config, im)
        )
        if fwd != rev.scale(sgn):
            return False
        mismatch = (parity(im) + parity(jm)) % 2
        if mismatch != par2 and not grade_project(fwd, 2).is_zero():
            return False
        return mismatch == par1 or grade_project(fwd, 1).is_zero()

    if n <= 4:
        pairs = product(range(config.size), repeat=2)
        regime = (
            f"exhaustive over all {config.size}^2 basis pairs with "
            "per-component parity"
        )
    else:
        r = random.Random(7001 + n)
        pairs = _seeded_pairs(r, config.size, 500)
        regime = "500 seeded basis pairs with per-component parity"
    if bad := _first(pairs, basis_pair_ok):
        raise _Failed("failed at basis pair ({}, {})".format(*bad))
    return regime


@_check
def check_bracket_relations(n: int) -> CheckResult:
    """The two vector-valued relations tying the grade-2 pairing, the
    orbit-map adjoint and the norm together:

        2 [L(phi, psi), w] = s psi*(w.phi) - phi*(w.psi)
        2 B(phi, psi) w    = s psi*(w.phi) + phi*(w.psi)

    with s the reversal sign (-1)^(n(n-1)/2), for every orthonormal
    vector w.  L is the four-sum grade2_pairing; [L, w] for every w comes
    from one vector_commutators pass and psi*(w.phi) from one
    pairings._slot_adjoints call (E_s moves by _slot_move, the adjoint by
    _adjoint_rows, the rule orbit_map_adjoint runs on); their test oracles
    are the generic commutator and orbit_map_adjoint after act.  Both
    relations at every w go into one int sum keyed (relation, slot,
    monomial), so one exact zero test per pair decides and no two cases
    can cancel.  Exhaustive on basis pairs for n <= 3, plus 1000 seeded
    random pairs for every n, a quarter of them sparse.
    """
    config = _config(n)
    form = solve_spinor_norm(config)
    field = config.field
    sign = -1 if (n * (n - 1) // 2) & 1 else 1
    vecs = [orthonormal_vector(config, s) for s in range(2 * n)]

    def pair_ok(phi: SpinorVec, psi: SpinorVec) -> bool:
        elem = grade2_pairing(form, phi, psi)
        b_num, b_den = field.parts(b_eval(form, phi, psi))
        first, den = _slot_adjoints(form, psi, phi)
        second = _slot_adjoints(form, phi, psi)[0]
        # relation 0 is 2 [L, w] - s first + second times den(L) den,
        # relation 1 is 2 B w - s first - second times den(B) den
        acc: dict = {}
        for slot, row in vector_commutators(elem).items():
            for mono, c in row.items():
                acc[0, slot, mono] = 2 * den * c
        for slot, vec in enumerate(vecs):
            for mono, c in vec._num.items():
                acc[1, slot, mono] = 2 * b_num * den * c
        for rows, k0, k1 in ((first, -sign, -sign), (second, 1, -1)):
            k0 *= elem._den
            k1 *= b_den
            for slot, row in rows.items():
                for mono, c in row.items():
                    acc[0, slot, mono] = acc.get((0, slot, mono), 0) + k0 * c
                    acc[1, slot, mono] = acc.get((1, slot, mono), 0) + k1 * c
        return not field.canon(acc, 1)[0]

    def basis_pair_ok(im: int, jm: int) -> bool:
        return pair_ok(SpinorVec.basis(config, im), SpinorVec.basis(config, jm))

    detail = f"1000 seeded pairs (250 sparse) over all {2 * n} vectors"
    if n <= 3:
        if bad := _first(product(range(config.size), repeat=2), basis_pair_ok):
            raise _Failed("relation failed at basis pair ({}, {})".format(*bad))
        detail = f"exhaustive over {config.size ** 2} basis pairs, plus " + detail

    r = random.Random(8009 + n)
    for idx in range(750):
        if not basis_pair_ok(r.randrange(config.size), r.randrange(config.size)):
            raise _Failed(f"relation failed at random basis pair {idx}")
    for idx in range(250):
        if not pair_ok(_sample_spinor(config, r), _sample_spinor(config, r)):
            raise _Failed(f"relation failed at random sparse pair {idx}")
    return detail


@_check
def check_matrix_agreement(n: int, samples: int | None = None) -> CheckResult:
    """The closed-form basis matrix of the grade-2 pairing agrees with
    the four-sum route applied to basis vectors: exhaustive over all
    (I, J, K) triples for n <= 5, seeded triples beyond (600 by default,
    more when requested).  grade2_pairing_on_basis runs the same
    _l2_coords and _c2_move as the e6/e7/e8 builders, so this checks the
    closed form the builders use against the independent four-sum.
    ValueError unless samples is None or an int >= 1."""
    if samples is not None and (type(samples) is not int or samples < 1):
        raise ValueError(
            f"matrix-agreement needs an int samples >= 1, got {samples!r}"
        )
    config = _config(n)
    form = solve_spinor_norm(config)
    size = config.size
    basis_vecs = [SpinorVec.basis(config, m) for m in range(size)]

    # exhaustive triples come grouped by (im, jm): one pairing serves a group
    @lru_cache(maxsize=1)
    def pairing(im: int, jm: int) -> CliffordElem:
        return grade2_pairing(form, basis_vecs[im], basis_vecs[jm])

    def agrees(im: int, jm: int, km: int) -> bool:
        got = act(pairing(im, jm), basis_vecs[km])
        return got == grade2_pairing_on_basis(form, im, jm, km)

    if n <= 5 and samples is None:
        triples = product(range(size), repeat=3)
        regime = f"exhaustive over all {size}^3 basis triples"
    else:
        count = 600 if samples is None else samples
        r = random.Random(9001 + n)
        triples = (tuple(r.randrange(size) for _ in range(3)) for _ in range(count))
        regime = f"{count} seeded basis triples"
    if bad := _first(triples, agrees):
        raise _Failed("routes disagree at triple ({}, {}, {})".format(*bad))
    return regime


SUITES: dict[str, tuple] = {
    "fock": (check_car_relations, check_h_eigenvalues),
    "clifford": (check_q_isometry, check_pi_completeness, check_eps_duality),
    "norms": (
        check_norm_dimension,
        check_plain_symmetry,
        check_graded_symmetry,
        check_ck_invariance,
    ),
    "pairings": (
        check_grade2_symmetry,
        check_top_symmetry,
        check_graded_pairing_symmetry,
        check_bracket_relations,
        check_matrix_agreement,
    ),
}


def suite_names(n: int, suites=None) -> tuple[str, ...]:
    """The named suites (all of them by default), each once in first-seen
    order: the filter of `spinor-forge props --suite`.  ValueError for an
    n that is not an int in 1..8 (a bool too) or an unknown name."""
    if type(n) is not int or not 1 <= n <= 8:
        raise ValueError(f"property suites require an int 1 <= n <= 8, got {n!r}")
    names = tuple(SUITES) if suites is None else tuple(dict.fromkeys(suites))
    for name in names:
        if name not in SUITES:
            raise ValueError(
                f"unknown suite {name!r}; choose from {sorted(SUITES)}"
            )
    return names


def run_suites(n: int) -> list[CheckResult]:
    """Run every property suite at one n, in SUITES order; ValueError for
    an n that is not an int in 1..8."""
    return [fn(n) for name in suite_names(n) for fn in SUITES[name]]
