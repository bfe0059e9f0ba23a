"""Exact linear algebra over the scalar abstraction: one routine.

IncrementalRank reduces rows against the stored pivots as they are
added, which gives the rank of their span.  Rows may hold field scalars
or ints (numerators over a common denominator, reduced mod p over F_p),
so the structure table's numerators are ranked as they are.  Everything
here is exact; no floating point.
"""

from __future__ import annotations

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
