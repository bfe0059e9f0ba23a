"""Exact linear algebra helpers over the scalar abstraction.

One sparse elimination (IncrementalRank) serves everything: rows are
reduced against the stored pivots as they are added, which gives the
rank, and reduced() back-substitutes them into reduced row echelon form,
which gives the inverse.  Rows may hold field scalars or ints (numerators
over a common denominator, reduced mod p over F_p), so the structure
table's numerators are ranked as they are.  Everything here is exact; no
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


def inverse(rows: Sequence[Sequence[Scalar]], field: Field) -> list[list[Scalar]]:
    """Inverse of a square matrix, by reducing [A | I]; ValueError if singular
    or not square."""
    r = len(rows)
    one, zero = field.one(), field.zero()
    acc = IncrementalRank(field)
    for i, row in enumerate(rows):
        if len(row) != r:
            raise ValueError("matrix is not square")
        acc.add({c: v for c, v in enumerate(row) if v} | {r + i: one})
    pivots = acc.reduced()
    if any(i not in pivots for i in range(r)):
        raise ValueError("matrix is singular")
    return [[pivots[i].get(r + j, zero) for j in range(r)] for i in range(r)]
