"""Exact linear algebra helpers over the scalar abstraction.

One dense Gauss-Jordan elimination (_reduce) serves ranks, nullspaces
and inverses; a sparse incremental rank accumulator serves spanning
checks, and vectorized elimination mod p serves as an integer rank
certificate.  Everything here is exact; no floating point.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .field import Field, Scalar


def _reduce(
    rows: Sequence[Sequence[Scalar]], ncols: int, field: Field
) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form of a copy, and its pivot columns.

    Stops once every row holds a pivot: the columns after that are
    free, and the rows are already reduced in every pivot column.
    """
    work = [list(r) for r in rows]
    for r in work:
        if len(r) != ncols:
            raise ValueError("row length does not match ncols")
    pivot_cols: list[int] = []
    for col in range(ncols):
        rank = len(pivot_cols)
        if rank == len(work):
            break
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = field.one() / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for i in range(len(work)):
            if i == rank or not work[i][col]:
                continue
            f = work[i][col]
            work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        pivot_cols.append(col)
    return work, pivot_cols


def echelon_rank(rows: Sequence[Sequence[Scalar]], field: Field) -> int:
    """Rank of a dense matrix by Gauss-Jordan elimination on a copy."""
    return len(_reduce(rows, len(rows[0]) if rows else 0, field)[1])


def nullspace(rows: Sequence[Sequence[Scalar]], ncols: int, field: Field) -> list[list[Scalar]]:
    """Basis of the right kernel of a dense matrix with ncols columns."""
    work, pivot_cols = _reduce(rows, ncols, field)
    basis = []
    pivot_set = set(pivot_cols)
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero()] * ncols
        vec[free] = field.one()
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -work[i][free]
        basis.append(vec)
    return basis


def inverse(rows: Sequence[Sequence[Scalar]], field: Field) -> list[list[Scalar]]:
    """Inverse of a square matrix, by eliminating [A | I]; ValueError if singular."""
    r = len(rows)
    one, zero = field.one(), field.zero()
    aug = [
        list(row) + [one if i == j else zero for j in range(r)]
        for i, row in enumerate(rows)
    ]
    work, pivot_cols = _reduce(aug, 2 * r, field)
    if pivot_cols != list(range(r)):
        raise ValueError("matrix is singular")
    return [row[r:] for row in work]


class IncrementalRank:
    """Tracks the rank of a growing span of sparse vectors.

    Rows are kept in reduced form keyed by their leading column, so each
    add costs one reduction pass against the stored pivots.
    """

    def __init__(self, field: Field) -> None:
        self.field = field
        self._pivots: dict[int, dict[int, Scalar]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, vec: dict[int, Scalar]) -> bool:
        """Reduce vec against the span; returns True if the rank grew."""
        work = {c: v for c, v in vec.items() if v}
        while work:
            lead = min(work)
            row = self._pivots.get(lead)
            if row is None:
                inv = self.field.one() / work[lead]
                self._pivots[lead] = {c: v * inv for c, v in work.items()}
                return True
            f = work[lead]
            for c, v in row.items():
                nv = work.get(c, self.field.zero()) - f * v
                if nv:
                    work[c] = nv
                else:
                    work.pop(c, None)
        return False


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p of an integer matrix, reducing entries first.

    Entries may be arbitrary-precision; reduction happens in Python before
    the elimination runs vectorized in int64 (products stay below 2^63
    because both factors are < p <= 2^31 - 1).
    """
    if p > (1 << 31) - 1:
        raise ValueError("modulus too large for the int64 elimination")
    a = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
    if a.size == 0:
        return 0
    nrows, ncols = a.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        below = a[rank + 1 :, col]
        hit = np.nonzero(below)[0]
        if hit.size:
            a[rank + 1 :][hit] = (
                a[rank + 1 :][hit] - np.outer(below[hit], a[rank])
            ) % p
        rank += 1
    return rank
