"""Exact linear algebra helpers over the scalar abstraction.

One sparse elimination (IncrementalRank) serves everything: rows are
reduced against the stored pivots as they are added, which gives the
rank, and reduced() back-substitutes them into reduced row echelon form,
which gives nullspaces and inverses.  Everything here is exact; no
floating point.
"""

from __future__ import annotations

from typing import Sequence

from .field import Field, Scalar


class IncrementalRank:
    """Tracks the rank of a growing span of sparse vectors.

    Rows are kept in echelon form keyed by their leading column, each
    scaled to lead with one, so each add costs one reduction pass
    against the stored pivots.
    """

    def __init__(self, field: Field) -> None:
        self.field = field
        self._pivots: dict[int, dict[int, Scalar]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _subtract(self, work: dict[int, Scalar], f: Scalar, row: dict[int, Scalar]) -> None:
        """work -= f * row, dropping the entries that cancel."""
        zero = self.field.zero()
        for c, v in row.items():
            nv = work.get(c, zero) - f * v
            if nv:
                work[c] = nv
            else:
                work.pop(c, None)

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
            self._subtract(work, work[lead], row)
        return False

    def reduced(self) -> dict[int, dict[int, Scalar]]:
        """The span's reduced row echelon form, keyed by pivot column.

        Back-substitutes in place from the last pivot to the first, so
        every row is zero in every other pivot column; adding more rows
        afterwards still works.
        """
        for col in sorted(self._pivots, reverse=True):
            row = self._pivots[col]
            for c in [c for c in row if c != col and c in self._pivots]:
                self._subtract(row, row[c], self._pivots[c])
        return self._pivots


def _span(rows: Sequence[Sequence[Scalar]], ncols: int, field: Field) -> IncrementalRank:
    """The rows of a dense matrix with ncols columns, added to one reducer."""
    acc = IncrementalRank(field)
    for row in rows:
        if len(row) != ncols:
            raise ValueError("row length does not match ncols")
        acc.add({c: v for c, v in enumerate(row) if v})
    return acc


def echelon_rank(rows: Sequence[Sequence[Scalar]], field: Field) -> int:
    """Rank of a dense matrix."""
    return _span(rows, len(rows[0]) if rows else 0, field).rank


def nullspace(rows: Sequence[Sequence[Scalar]], ncols: int, field: Field) -> list[list[Scalar]]:
    """Basis of the right kernel of a dense matrix with ncols columns."""
    pivots = _span(rows, ncols, field).reduced()
    zero = field.zero()
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [zero] * ncols
        vec[free] = field.one()
        for pc, row in pivots.items():
            vec[pc] = -row.get(free, zero)
        basis.append(vec)
    return basis


def inverse(rows: Sequence[Sequence[Scalar]], field: Field) -> list[list[Scalar]]:
    """Inverse of a square matrix, by reducing [A | I]; ValueError if singular."""
    r = len(rows)
    one, zero = field.one(), field.zero()
    aug = [
        list(row) + [one if i == j else zero for j in range(r)]
        for i, row in enumerate(rows)
    ]
    pivots = _span(aug, 2 * r, field).reduced()
    if any(i not in pivots for i in range(r)):
        raise ValueError("matrix is singular")
    return [[pivots[i].get(r + j, zero) for j in range(r)] for i in range(r)]
