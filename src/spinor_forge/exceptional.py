"""Structure-constant tables of Lie algebras and their exact verifiers.

A LieAlgebra is a labeled basis, a row source, and a sparse table of int
numerators over one denominator L.den, one entry per unordered pair; the
checks read those ints.  The row source takes no argument and yields one
row per unordered pair, with both orders in the table's form.  One sweep
per algebra reads it once, comparing the two orders of each row, and
keeps its verdict; the first read runs it, so a table is empty or
complete.  The e6, e7 and e8 constructions that supply the row sources
live in builders; this module checks whatever table it is given, reads
no label to sweep it, and imports none of the construction code (no
norms, pairings, clifford or builders), so the checks stay independent
of what they check.

Verification is numeric and exact: the Jacobi identity is checked as the
matrix identity ad([x,y]) = [ad x, ad y] on the int numerators, the Killing
form and its rank certify semisimplicity, the degree-zero span of the
spinor brackets is ranked, and the root decomposition recovers the Dynkin
type from scratch, its Cartan found in the table (the basis vectors whose
ad is diagonal in the basis), not picked by label.  The Jacobi engine
works in groups: a left index l with its set R_l of right indices, each
ad_l expanded once per group and joined with the rows and columns of
every ad_r, r in R_l.  Column k of the residue of pair (l, r) is the
Jacobiator of (b_l, b_r, b_k), totally antisymmetric because the table
is, so the full sweep sums it only for k > r and sees each triple once;
a pair subset keeps every column.
run_checks is the one battery: antisymmetry, Jacobi, span and Killing
rank in order, each entry timed.  with_flipped_sign makes the broken
copies that show the checks fire.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from .field import Scalar, scalar_str
from .fock import Config, mask_str
from .linalg import IncrementalRank

# A basis label: (kind, *fields), e.g. ("ei", 1, 2) or ("s", mask).
Label = tuple


def label_str(label: Label) -> str:
    """Short printable form, also used in the JSON export."""
    kind = label[0]
    if kind == "ee":
        return f"e{label[1]}e{label[2]}"
    if kind == "ii":
        return f"i{label[1]}i{label[2]}"
    if kind == "ei":
        return f"ei({label[1]},{label[2]})"
    if kind == "sl2":
        return f"sl2({label[1]})"
    if kind == "eps":
        return "eps"
    if kind == "s":
        return "S" + mask_str(label[1])
    if kind == "s2":
        return f"S{mask_str(label[1])}x{label[2] + 1}"
    raise ValueError(f"unknown label {label!r}")


def is_spinor_label(label: Label) -> bool:
    return label[0] in ("s", "s2")


_INT = (int, np.integer)  # the index types the verifiers accept, bool aside


def _check_pair(i, j, n: int) -> None:
    """ValueError unless i and j are int indices in [0, n), neither a bool."""
    ok = isinstance(i, _INT) and isinstance(j, _INT) and 0 <= i < n and 0 <= j < n
    if not ok or type(i) is bool or type(j) is bool:
        raise ValueError(f"bad index pair {(i, j)!r}")


class LieAlgebra:
    """A Lie algebra with labeled basis and a swept sparse bracket table.

    fn is a row source: fn() yields one row (i, j, [b_i, b_j], [b_j, b_i])
    per unordered pair, i < j, and (i, i, t, t) on the diagonal.  Each
    bracket is sorted (k, numerator) int pairs over self.den, zeros
    dropped: den over Q; 1 over F_p, each numerator the residue of
    num / den in [1, p).  den must be an int >= 1, over F_p prime to p.
    Only the i < j entry is stored and the flipped order is its negation,
    so the table is antisymmetric by construction; the one sweep that
    fills it reads fn once, checks it and keeps the verdict
    (verify_antisymmetry).  The first read runs that sweep, so the table
    is empty or complete and evaluated, the ordered pairs evaluated into
    it, is 0 or dim^2; the engine built from it is kept for every later
    Jacobi or Killing call.  A source that yields no row for a pair, or
    gives it as (j, i), is a ValueError, not an empty table.
    """

    __slots__ = ("name", "config", "basis", "index", "den", "evaluated", "_fn",
                 "_table", "_verdict", "_engine")

    def __init__(
        self, name: str, config: Config, basis: list[Label], fn: Callable, den: int
    ) -> None:
        self.name = name
        self.config = config
        self.basis = tuple(basis)
        self.index = {lab: i for i, lab in enumerate(self.basis)}
        if len(self.index) != len(self.basis):
            raise ValueError("duplicate basis labels")
        p = config.field.characteristic
        if type(den) is not int or den < 1 or (p and den % p == 0):
            raise ValueError(f"den must be an int >= 1 prime to p, got {den!r}")
        self.den = 1 if p else den
        self.evaluated = 0
        self._fn = fn
        self._table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        self._verdict: Optional[list[tuple[int, int]]] = None
        self._engine: Optional[_AdjointProducts] = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _sweep(self) -> list[tuple[int, int]]:
        """The (i, j), i <= j, whose two orders are not negations, from the
        table's one sweep: the first call fills the empty table with the
        i < j entries of one pass of the row source and keeps the list in
        _verdict for later calls.  ValueError, keeping nothing, if a pair
        i < j got no row (one count of the table; the first such pair is
        named)."""
        if self._verdict is not None:
            return self._verdict
        n, p = self.dim, self.config.field.characteristic
        table, bad = {}, []
        for i, j, t, u in self._fn():
            if i < j:
                table[i, j] = t
            # -c is p - c over F_p (rows hold residues in [1, p)); as p is
            # odd, a diagonal bracket equals its negation only when it is
            # zero
            if (t or u) and t != tuple((k, p - c) for k, c in u):
                bad.append((i, j))
        if len(table) < comb(n, 2):
            ij = next(ij for ij in combinations(range(n), 2) if ij not in table)
            raise ValueError(f"{self.name}: the block rule left {ij} without a row")
        self._table, self._verdict, self.evaluated = table, bad, n * n
        return bad

    def numerators(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """[b_i, b_j] as ((k, numerator over den), ...) ascending in k."""
        if type(i) is not int or type(j) is not int:
            # True == 1 would find (1, j), and a str or None fails i < j
            _check_pair(i, j, self.dim)
        key = (i, j) if i < j else (j, i)
        got = self._table.get(key)
        if got is None:
            # checked before the sweep runs; [b_i, b_i] = 0
            _check_pair(i, j, self.dim)
            if i == j:
                return ()
            try:
                self._sweep()
            except ValueError as err:
                raise ValueError(f"{err}; reading {key}") from None
            got = self._table[key]
        p = self.config.field.characteristic  # p - c: -c over Q, canonical over F_p
        return got if i <= j else tuple((k, p - c) for k, c in got)

    def bracket(self, i: int, j: int) -> tuple[tuple[int, Scalar], ...]:
        """[b_i, b_j] as ((k, field scalar), ...) ascending in k."""
        scalar, den = self.config.field.from_fraction, self.den
        return tuple((k, scalar(c, den)) for k, c in self.numerators(i, j))

    def materialize(self) -> "LieAlgebra":
        """Fill the table by its one sweep (_sweep); at once if that ran."""
        self._sweep()
        return self

    def nonzero_count(self) -> int:
        """The number of nonzero brackets of the swept table, unsorted."""
        self._sweep()
        return sum(map(bool, self._table.values()))

    def nonzero_brackets(self) -> list[tuple[tuple[int, int], tuple]]:
        """Sorted ((i, j), ((k, numerator), ...)) over the nonzero brackets."""
        self._sweep()
        return sorted((ij, t) for ij, t in self._table.items() if t)

    def adjoint_products(self) -> "_AdjointProducts":
        """The int64 ad arrays of the complete table, built on first use.

        Building them materializes the table, whose entries are never
        replaced, so the kept engine stays exact for this algebra.
        """
        if self._engine is None:
            self._engine = _AdjointProducts(self)
        return self._engine

    def with_flipped_sign(self, i: int, j: int, k: int) -> "LieAlgebra":
        """A copy with the sign of one structure constant flipped.

        Once (i, j, k) is known to name a structure constant, builds this
        algebra's engine (a mutant exists to be verified), so the copy
        takes the complete table with one numerator negated, and an engine
        patched from this one's: the same index arrays, its own values with
        the flipped constant's two entries negated.  It keeps this one's
        antisymmetry verdict (same rule).  This algebra is left unchanged.
        ValueError, before any engine is built, unless i, j and k are int
        indices that name one.
        """
        try:
            if j < i:
                i, j = j, i
        except TypeError:
            pass  # not two numbers: _check_pair refuses them
        _check_pair(i, j, self.dim)
        if i == j:
            raise ValueError("mutation needs two distinct basis indices")
        terms = self.numerators(i, j)
        if not isinstance(k, _INT) or type(k) is bool or k not in {t[0] for t in terms}:
            raise ValueError(f"no structure constant at ({i}, {j}, {k})")
        engine = self.adjoint_products()
        p = self.config.field.characteristic
        clone = copy.copy(self)
        clone.name = f"{self.name}~flip({i},{j},{k})"
        clone._table = dict(self._table)
        clone._table[(i, j)] = tuple((kk, p - c if kk == k else c) for kk, c in terms)
        clone._engine = engine.flipped(i, j, k)
        return clone

    def spinor_indices(self) -> list[int]:
        return [i for i, lab in enumerate(self.basis) if is_spinor_label(lab)]

    def degree_zero_indices(self) -> list[int]:
        return [i for i, lab in enumerate(self.basis) if not is_spinor_label(lab)]

    def __repr__(self) -> str:
        return (
            f"LieAlgebra({self.name!r}, dim={self.dim}, "
            f"field={self.config.field.spec})"
        )


with_flipped_sign = LieAlgebra.with_flipped_sign


# --- the keyed-product engine for Jacobi and Killing ---


# Left indices per batch of the Jacobi engine: a batch of e8's full sweep
# joins a few tens of thousands of terms, so memory does not grow with the
# sweep.
_BATCH_LEFT = 2


def _ragged(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, index) over every index in every range [starts[q], stops[q])."""
    lens = stops - starts
    owner = np.repeat(np.arange(lens.size), lens)
    offsets = np.cumsum(lens) - lens
    return owner, np.arange(owner.size) - offsets[owner] + starts[owner]


def _starts(keys: np.ndarray, size: int) -> np.ndarray:
    """ptr[v] for v in 0..size: the entries with key v sit at
    [ptr[v], ptr[v + 1]) once sorted by key."""
    return np.r_[0, np.cumsum(np.bincount(keys, minlength=size))]


class _AdjointProducts:
    """Every ad b_a stored once, as int64 COO arrays.

    These arrays are the engine's only copy of the structure constants:
    c_ij^k is the entry ad_i[k, j], and mat, row, col, val list the entries
    sorted by (mat, row), each ptr array giving where a key's entries
    start.  val holds the table's numerators as they are, over L.den, so
    a product of two constants lives on the den^2 scale; over F_p they are
    residues and each product is reduced mod p before the sum.  A Gram or
    Jacobi key sums at most n * max(n, 3) products, and the constructor
    proves that count times max|v|^2 over Q (p over F_p) is below 2^63,
    or raises ValueError.

    Two permutations of the entries, by (row, mat) and by (col, mat), give
    row x or column x of every ad_r with r in a range as one slice.  A
    Jacobi batch is a few left indices l, each with its set R_l of right
    indices: each entry of ad_l is expanded once and meets those slices,
    so ad_l ad_r and ad_r ad_l come for every r in R_l from one join.
    """

    def __init__(self, L: LieAlgebra) -> None:
        n = self.n = L.dim
        self.p = L.config.field.characteristic or None
        mat, row, col, consts = [], [], [], []
        for (i, j), terms in L.nonzero_brackets():
            for k, c in terms:
                # ad_i[k, j] = c and ad_j[k, i] = -c
                mat += (i, j)
                row += (k, k)
                col += (j, i)
                consts.append(c)
        term_bound = self.p or max(map(abs, consts), default=0) ** 2
        if n * max(n, 3) * term_bound >= 1 << 63:
            raise ValueError(f"{L.name}: structure constants too large for int64")
        mat_a = np.array(mat, dtype=np.int64)
        row_a = np.array(row, dtype=np.int64)
        order = np.argsort(mat_a * n + row_a, kind="stable")
        self.mat = mat_a[order]
        self.row = row_a[order]
        self.col = np.array(col, dtype=np.int64)[order]
        self.val = np.outer(np.array(consts, dtype=np.int64), (1, -1)).ravel()[order]
        self.mat_ptr = _starts(self.mat, n)
        self.row_ptr = _starts(self.mat * n + self.row, n * n)
        row_key, col_key = self.row * n + self.mat, self.col * n + self.mat
        self.by_row = np.argsort(row_key, kind="stable")
        self.by_row_ptr = _starts(row_key, n * n)
        self.by_col = np.argsort(col_key, kind="stable")
        self.by_col_ptr = _starts(col_key, n * n)

    def flipped(self, i: int, j: int, k: int) -> "_AdjointProducts":
        """A copy with c_ij^k negated: its two entries ad_i[k, j] and ad_j[k, i].

        The index arrays are shared; val is copied, so self is unchanged.
        """
        n = self.n
        out = copy.copy(self)
        out.val = self.val.copy()
        for a, b in ((i, j), (j, i)):
            lo, hi = self.row_ptr[a * n + k], self.row_ptr[a * n + k + 1]
            e = lo + np.flatnonzero(self.col[lo:hi] == b)
            out.val[e] = -out.val[e]
        return out

    def entries(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(q, e): e runs over the entries of ad_mats[q], q ascending."""
        return _ragged(self.mat_ptr[mats], self.mat_ptr[mats + 1])

    def product(self, e: np.ndarray, f: np.ndarray) -> np.ndarray:
        """val[e] * val[f], each product reduced mod p over F_p."""
        prod = self.val[e] * self.val[f]
        if self.p is not None:
            prod %= self.p
        return prod

    def jacobi_violations(
        self, left: np.ndarray, member: np.ndarray, full: bool
    ) -> np.ndarray:
        """Codes a * n + b, a < b, of the pairs where ad [b_a, b_b] != [ad b_a, ad b_b].

        Group q is l = left[q] with R_l = {r : member[q, r]}; the residue
        ad_l ad_r - ad_r ad_l - sum_m c_lr^m ad_m is summed by (q, r, k, t)
        key for r in R_l.  Its column k is the Jacobiator J(b_l, b_r, b_k),
        which is totally antisymmetric because the table is.  With full
        (R_l = {r > l}) only columns k > r are summed, so each triple
        a < b < c is seen once, at pair (a, b), column c, and a failing
        triple reports (a, b), (a, c) and (b, c); otherwise every column
        is summed and a failing (l, r) reports itself.  Codes may repeat.
        """
        n = self.n
        row, col, mat = self.row, self.col, self.mat
        start = member.argmax(axis=1)  # the first r of each group
        stop = n - member[:, ::-1].argmax(axis=1)  # one past its last
        q, e = self.entries(left)
        parts = []
        # ad_l ad_r: entry (t, x) of ad_l meets row x of every ad_r
        x = col[e] * n
        hit, s = _ragged(self.by_row_ptr[x + start[q]], self.by_row_ptr[x + stop[q]])
        f = self.by_row[s]
        parts.append((q[hit], mat[f], col[f], row[e[hit]], self.product(e[hit], f)))
        # -ad_r ad_l: entry (x, k) of ad_l meets column x of every ad_r, and
        # on the full sweep only the ad_r with r < k
        x = row[e] * n
        last = np.maximum(np.minimum(stop[q], col[e]), start[q]) if full else stop[q]
        hit, s = _ragged(self.by_col_ptr[x + start[q]], self.by_col_ptr[x + last])
        f = self.by_col[s]
        parts.append((q[hit], mat[f], col[e[hit]], row[f], -self.product(e[hit], f)))
        # -sum_m c_lr^m ad_m, where c_lr^m = ad_l[m, r] is an entry of ad_l
        # in column r
        in_r = member[q, col[e]]
        c, s = q[in_r], e[in_r]
        hit, g = self.entries(row[s])
        parts.append((c[hit], col[s[hit]], col[g], row[g], -self.product(s[hit], g)))

        keys, vals = [], []
        for qq, r, k, t, v in parts:
            keep = member[qq, r]
            if full:
                keep &= k > r
            keys.append((((qq * n + r) * n + k) * n + t)[keep])
            vals.append(v[keep])
        key = np.concatenate(keys)
        if not key.size:
            return key
        order = np.argsort(key)
        key = key[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        sums = np.add.reduceat(np.concatenate(vals)[order], starts)
        if self.p is not None:
            sums %= self.p
        bad = key[starts][sums != 0] // n
        k, bad = bad % n, bad // n
        r, l = bad % n, left[bad // n]
        if full:
            return np.concatenate(((l * n + r), (l * n + k), (r * n + k)))
        return np.minimum(l, r) * n + np.maximum(l, r)

    def gram(self) -> np.ndarray:
        """The int64 array tr(ad_i ad_j) = sum over a, m of ad_i[a, m] ad_j[m, a].

        Each entry (a, m) of some ad_i meets every entry of every ad_j at
        the transposed position (m, a), read off the entries sorted by
        position.
        """
        n = self.n
        mat = np.repeat(np.arange(n), np.diff(self.mat_ptr))
        pos = self.row * n + self.col
        by_pos = np.argsort(pos)
        pos_ptr = _starts(pos, n * n)
        at = self.col * n + self.row
        e, t = _ragged(pos_ptr[at], pos_ptr[at + 1])
        f = by_pos[t]
        gram = np.zeros(n * n, dtype=np.int64)
        np.add.at(gram, mat[e] * n + mat[f], self.product(e, f))
        return gram.reshape(n, n)


@dataclass(slots=True)
class JacobiReport:
    """Outcome of a Jacobi sweep; truthy exactly when no pair violated."""

    algebra: str
    field: str
    dim: int
    pairs_checked: int
    triples_covered: int
    violations: tuple[tuple[int, int], ...]
    seconds: float
    batches: int
    engine_seconds: float

    def __bool__(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "field": self.field,
            "dim": self.dim,
            "pairs_checked": self.pairs_checked,
            "triples_covered": self.triples_covered,
            "violations": [list(v) for v in self.violations],
            "ok": bool(self),
            "seconds": round(self.seconds, 3),
            "batches": self.batches,
            "engine_seconds": round(self.engine_seconds, 3),
        }

    def __repr__(self) -> str:
        return (
            f"JacobiReport({self.algebra}, pairs={self.pairs_checked}, "
            f"triples={self.triples_covered}, violations={len(self.violations)})"
        )


def _check_pairs(pairs: list, n: int) -> None:
    """ValueError unless pairs is nonempty and every entry is a pair of two
    distinct int indices in [0, n)."""
    if not pairs:
        raise ValueError("no index pairs given; pass pairs=None for all of them")
    for pair in pairs:
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise ValueError(f"bad index pair {pair!r}") from None
        _check_pair(i, j, n)
        if i == j:
            raise ValueError(f"bad index pair {(i, j)!r}")


def verify_jacobi(L: LieAlgebra, pairs=None) -> JacobiReport:
    """Check ad([b_i, b_j]) = [ad b_i, ad b_j] for the given index pairs.

    Each pair identity covers every Jacobi triple (b_i, b_j, b_k) at once,
    so the default full sweep covers all C(dim, 3) distinct triples.  Work
    is exact, on int64 over the int numerators in L's engine
    (L.adjoint_products(), shared with killing_form; its constructor
    proves every sum fits, and over F_p each product is reduced mod p).
    Each pair is oriented toward its endpoint of higher degree in the pair
    set, ties to the smaller index, and the pairs sharing a left index l
    form its group R_l; _BATCH_LEFT groups go through the engine at a
    time.  The full sweep is every pair, so l = min and R_l = {r > l}:
    there the engine sums only columns k > r, and since the Jacobiator of
    the antisymmetric table is totally antisymmetric, each triple is
    summed once and a failing one reports its three pairs.  A pair subset
    keeps every column.  Either way the violations are the pairs with a
    nonzero Jacobiator, ascending.  batches counts the engine calls and
    engine_seconds is the time this call spent building the engine (0.0
    if it was built).  ValueError, before the engine is built, for an
    empty pair set or a pair that is not two distinct int indices.
    """
    t0 = perf_counter()
    n = L.dim
    if pairs is None:
        low, high = np.triu_indices(n, 1)
    else:
        pairs = list(pairs)
        _check_pairs(pairs, n)
        pair_list = sorted({(min(i, j), max(i, j)) for i, j in pairs})
        low, high = np.array(pair_list, dtype=np.int64).reshape(-1, 2).T
    deg = np.bincount(np.r_[low, high], minlength=n)
    up = deg[high] > deg[low]
    member = np.zeros((n, n), dtype=bool)
    member[np.where(up, high, low), np.where(up, low, high)] = True
    if pairs is None:
        triples = comb(n, 3)
    else:
        # a triple holding t >= 1 pairs of P is counted t times by
        # |P|(n - 2) and C(t, 2) times by the sum over vertices; t - C(t, 2)
        # is 1 but for t = 3, so add back the triangles, each seen on its
        # three edges
        adj = member | member.T
        triangles = int((adj[low] & adj[high]).sum()) // 3
        triples = low.size * (n - 2) - int((deg * (deg - 1) // 2).sum()) + triangles

    built = L._engine is not None
    t1 = perf_counter()
    engine = L.adjoint_products()
    engine_seconds = 0.0 if built else perf_counter() - t1
    groups = np.flatnonzero(member.any(axis=1))
    batches = [groups[s : s + _BATCH_LEFT] for s in range(0, groups.size, _BATCH_LEFT)]
    codes = np.sort(
        np.concatenate(
            [np.zeros(0, dtype=np.int64)]
            + [engine.jacobi_violations(b, member[b], pairs is None) for b in batches]
        )
    )
    codes = codes[np.diff(codes, prepend=-1) != 0]

    return JacobiReport(
        L.name,
        L.config.field.spec,
        n,
        low.size,
        triples,
        tuple(zip((codes // n).tolist(), (codes % n).tolist())),
        perf_counter() - t0,
        len(batches),
        engine_seconds,
    )


def verify_antisymmetry(L: LieAlgebra) -> list[tuple[int, int]]:
    """The pairs (i, j), i <= j, ascending, where the row source fails
    antisymmetry.

    The stored table is antisymmetric by construction, so this reads the
    verdict of its one sweep (L._sweep, run by the first of this check,
    materialize and a read): the source's two orders of every pair
    compared, and the diagonal, which must vanish.  ValueError if the
    source gives no row for a pair.
    """
    return sorted(L._sweep())


def killing_form(L: LieAlgebra) -> tuple[list[list[Scalar]], int]:
    """The Killing matrix kappa(b_i, b_j) = tr(ad b_i ad b_j) and its rank.

    The Gram matrix comes from L's keyed-product engine, the one
    verify_jacobi uses (L.adjoint_products()): exact int64 sums over the
    int numerators over den^2, each entry the sum of the diagonal terms of
    ad_i ad_j, every i and j in one pass.  Its int rows, reduced mod p
    over F_p, go straight into IncrementalRank, as spanning_check's do:
    the common den^2 does not change the rank, and no field scalar is
    formed before it (run_checks reads the rank alone, from _gram_into,
    and builds no matrix).  The Killing form is 2h^v times the normalised
    invariant form (24, 36 and 60 times it for e6, e7, e8), so for p >= 5
    it vanishes only for e8 over F_5: rank 0.
    """
    field = L.config.field
    acc = IncrementalRank(field)
    scalar, denom, zero = field.from_fraction, L.den * L.den, field.zero()
    rows = _gram_into(acc, L)
    matrix = [[scalar(v, denom) if v else zero for v in row] for row in rows]
    return matrix, acc.rank


def _gram_into(acc: IncrementalRank, L: LieAlgebra) -> list[list[int]]:
    """Add the int rows of L's Killing Gram matrix (numerators over den^2,
    reduced mod p over F_p) to the reducer `acc` and return them, so the
    rank needs no scalar matrix."""
    field, gram = L.config.field, L.adjoint_products().gram()
    if field.characteristic:
        # an int that is 0 mod p must not become a pivot
        gram %= field.characteristic
    rows = gram.tolist()
    for row in rows:
        acc.add({j: v for j, v in enumerate(row) if v})
    return rows


@dataclass(slots=True)
class SpanReport:
    """Rank of the degree-zero span of all spinor-spinor brackets."""

    rank: int
    expected: int
    pairs_used: int

    def __bool__(self) -> bool:
        return self.rank == self.expected

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": bool(self)}


def spanning_check(L: LieAlgebra) -> SpanReport:
    """Do the spinor-spinor brackets span the whole degree-zero part?

    Incremental rank with early exit; pairs_used counts the brackets fed
    before the span filled up (or all nonzero ones if it never did).
    """
    zero_idx = L.degree_zero_indices()
    expected = len(zero_idx)
    pos = {k: t for t, k in enumerate(zero_idx)}
    acc = IncrementalRank(L.config.field)
    pairs_used = 0
    # int numerators: every vector is den times its own, which keeps the rank
    for a, b in combinations(L.spinor_indices(), 2):
        terms = L.numerators(a, b)
        if not terms:
            continue
        vec = {}
        for k, c in terms:
            t = pos.get(k)
            if t is None:
                raise RuntimeError(
                    "spinor bracket leaked outside the degree-zero part"
                )
            vec[t] = c
        pairs_used += 1
        acc.add(vec)
        if acc.rank == expected:
            break
    return SpanReport(acc.rank, expected, pairs_used)


def run_checks(L: LieAlgebra) -> list[dict]:
    """The battery, in order: {"check": name, ...fields, "ok", "seconds"} each.

    seconds is the check's own wall time.  Antisymmetry runs first and
    sweeps the table, unless a read already did; brackets_evaluated is the
    table's total (L.evaluated, dim^2), nonzero its nonzero brackets.
    """

    def antisymmetry() -> dict:
        bad = verify_antisymmetry(L)
        return {"ok": not bad, "violations": [list(p) for p in bad],
                "brackets_evaluated": L.evaluated, "nonzero": L.nonzero_count()}

    def killing() -> dict:
        acc = IncrementalRank(L.config.field)
        _gram_into(acc, L)
        return {"rank": acc.rank, "dim": L.dim, "ok": acc.rank == L.dim}

    checks = []
    for name, check in (
        ("antisymmetry", antisymmetry),
        ("jacobi", lambda: verify_jacobi(L).to_dict()),
        ("degree-zero-spanning", lambda: spanning_check(L).to_dict()),
        ("killing-rank", killing),
    ):
        t0 = perf_counter()
        fields = {k: v for k, v in check().items() if k not in ("algebra", "field")}
        seconds = round(perf_counter() - t0, 3)
        checks.append({"check": name, **fields, "seconds": seconds})
    return checks


@dataclass(slots=True)
class RootDatum:
    """Cartan weights, roots, simple roots and the detected Dynkin type."""

    algebra: str
    cartan_labels: tuple[Label, ...]
    cartan_indices: tuple[int, ...]
    weights: tuple[tuple[int, ...], ...]
    roots: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    simple_roots: tuple[tuple[int, ...], ...]
    cartan_matrix: tuple[tuple[int, ...], ...]
    rank: int
    type_name: str
    root_norms: frozenset

    def __repr__(self) -> str:
        return (
            f"RootDatum({self.algebra}: type={self.type_name}, rank={self.rank}, "
            f"roots={len(self.roots)})"
        )


def _dynkin_type(a: list[tuple[int, ...]]) -> str:
    r = len(a)
    adj = {i: [j for j in range(r) if j != i and a[i][j]] for i in range(r)}
    if sum(len(v) for v in adj.values()) != 2 * (r - 1):
        raise ValueError("Dynkin graph is not a tree")
    seen = {0}
    queue = [0]
    while queue:
        cur = queue.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    if len(seen) != r:
        raise ValueError("Dynkin graph is not connected")
    hubs = [i for i in range(r) if len(adj[i]) == 3]
    if len(hubs) != 1 or any(len(adj[i]) > 3 for i in range(r)):
        raise ValueError("unrecognised Dynkin diagram")
    hub = hubs[0]
    lengths = []
    for start in adj[hub]:
        ln, prev, cur = 1, hub, start
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            ln += 1
        lengths.append(ln)
    names = {(1, 2, 2): "E6", (1, 2, 3): "E7", (1, 2, 4): "E8"}
    key = tuple(sorted(lengths))
    if key not in names:
        raise ValueError("unrecognised Dynkin diagram")
    return names[key]


def root_decomposition(L: LieAlgebra) -> RootDatum:
    """Decompose L under its diagonal Cartan subalgebra and name the type.

    The Cartan basis H_s is found in the table, in one pass over the
    nonzero brackets: b_c is in it iff every nonzero [b_c, b_x] is a
    multiple of b_x, and that multiple over den is g_s, the weight of x_g
    on H_s, which must be an integer.  No label is read.  As the table is
    antisymmetric, the H_s commute and every basis vector is a
    simultaneous ad-eigenvector.  The other basis vectors must have
    nonzero, distinct weights, and the roots must be closed under negation.
    Positive means lexicographically positive.  Everything past the
    weights is int arithmetic on the table's numerators: the coroot of a
    root b is h_b = [x_b, x_-b], which must lie in the Cartan span with
    b(h_b) != 0, and a_ij = 2 a_i(h_j) / a_j(h_j).  The root norms are
    (b, b) = b(h_b)^2 / kappa(h_b, h_b), kappa(h, h') = sum over the roots
    g of g(h) g(h') being the Killing form on the Cartan; den cancels from
    both ratios.  Rational field only.
    """
    if L.config.field.characteristic != 0:
        raise ValueError("root decomposition requires the rational field")
    # each stored [b_i, b_j] read both ways: [b_j, b_i] is its negation
    off, eigen = set(), {}  # eigen[c, x]: [b_c, b_x] on b_x, over den
    for (i, j), terms in L.nonzero_brackets():
        for c, x, sign in ((i, j, 1), (j, i, -1)):
            if len(terms) == 1 and terms[0][0] == x:
                eigen[c, x] = sign * terms[0][1]
            else:
                off.add(c)
    cartan_idx = [c for c in range(L.dim) if c not in off]
    r = len(cartan_idx)
    weights = []
    for x in range(L.dim):
        w = [eigen.get((c, x), 0) for c in cartan_idx]
        if any(v % L.den for v in w):
            raise ValueError(f"non-integral weight on {label_str(L.basis[x])}")
        weights.append(tuple(v // L.den for v in w))
    cartan_set = set(cartan_idx)
    at = {}  # root -> the index of its root vector
    for x in range(L.dim):
        if x in cartan_set:
            continue
        if not any(weights[x]):
            raise ValueError("zero weight outside the Cartan subalgebra")
        at[weights[x]] = x
    roots = sorted(at)
    if len(roots) != L.dim - r:
        raise ValueError("repeated root")
    neg = {g: tuple(-v for v in g) for g in roots}
    if not all(m in at for m in neg.values()):
        raise ValueError("roots are not closed under negation")

    positive = [g for g in roots if g > (0,) * r]
    pos_set = set(positive)
    simple = [
        al
        for al in positive
        if not any(tuple(a - b for a, b in zip(al, be)) in pos_set for be in positive)
    ]
    if len(simple) != r:
        raise ValueError(f"found {len(simple)} simple roots, expected {r}")

    def on(al, h):  # al(h), h in Cartan coordinates
        return sum(a * b for a, b in zip(al, h))

    slot = {k: s for s, k in enumerate(cartan_idx)}
    coroot = {}  # root b -> (h_b, b(h_b)), numerators over den
    for g in roots:
        h = [0] * r
        for k, c in L.numerators(at[g], at[neg[g]]):
            if k not in slot:
                raise ValueError(f"[x, x_-] of root {g} leaves the Cartan subalgebra")
            h[slot[k]] = c
        coroot[g] = h, on(g, h)
        if not coroot[g][1]:
            raise ValueError(f"root {g} vanishes on its coroot")

    cartan_matrix = []
    for al in simple:
        row = []
        for be in simple:
            h, bh = coroot[be]
            val, rem = divmod(2 * on(al, h), bh)
            if rem:
                raise ValueError("non-integral Cartan matrix entry")
            row.append(val)
        cartan_matrix.append(tuple(row))
    for i in range(r):
        for j in range(r):
            if i != j and cartan_matrix[i][j] not in (0, -1):
                raise ValueError("unexpected off-diagonal Cartan matrix entry")

    gram = [[sum(g[s] * g[t] for g in roots) for t in range(r)] for s in range(r)]
    return RootDatum(
        algebra=L.name,
        cartan_labels=tuple(L.basis[i] for i in cartan_idx),
        cartan_indices=tuple(cartan_idx),
        weights=tuple(weights),
        roots=tuple(roots),
        positive_roots=tuple(positive),
        simple_roots=tuple(simple),
        cartan_matrix=tuple(cartan_matrix),
        rank=r,
        type_name=_dynkin_type(cartan_matrix),
        root_norms=frozenset(
            Fraction(bh * bh, on(h, [on(row, h) for row in gram]))
            for h, bh in coroot.values()
        ),
    )


def to_json(L: LieAlgebra) -> str:
    """Deterministic structure-constant export: same build, same bytes.

    Schema: {"name", "field", "dim", "basis": [label strings],
    "brackets": [{"i", "j", "terms": [[k, scalar string], ...]}, ...]}
    with i < j ascending and only nonzero brackets listed.  Each numerator
    over L.den prints as scalar_str prints its field scalar; each distinct
    one is JSON-encoded once per call, and each bracket is one f-string.
    """
    scalar, den = L.config.field.from_fraction, L.den
    text = lru_cache(None)(lambda c: json.dumps(scalar_str(scalar(c, den))))
    head = {"name": L.name, "field": L.config.field.spec, "dim": L.dim}
    head["basis"] = [label_str(lab) for lab in L.basis]
    brackets = ",".join(
        f'{{"i":{i},"j":{j},"terms":[{",".join(f"[{k},{text(c)}]" for k, c in terms)}]}}'
        for (i, j), terms in L.nonzero_brackets()
    )
    return f'{json.dumps(head, separators=(",", ":"))[:-1]},"brackets":[{brackets}]}}\n'
