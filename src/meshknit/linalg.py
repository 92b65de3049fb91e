"""Exact rational linear algebra helpers.

All rank computations in the mesh calculus go through :class:`RationalEchelon`,
a sparse reduced row-echelon accumulator.  Entries are ``int`` or
``fractions.Fraction``: a division happens only when a new pivot is scaled to
one, and it goes through ``Fraction``.  No floating point is used anywhere in
the package.
"""

from __future__ import annotations

from fractions import Fraction

Scalar = int | Fraction


class RationalEchelon:
    """Incremental reduced row echelon form over the rationals.

    Rows are sparse ``{column: Scalar}`` dicts.  ``pivots`` maps each
    pivot column to its row; the row's least column is its pivot, the entry
    there is 1, and no other row has an entry in that column.  The form is
    therefore unique for the span of the rows inserted so far, and ``rank``
    is the rank of that span.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, Scalar]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict[int, Scalar]) -> dict[int, Scalar]:
        """The residue of ``row`` modulo the stored rows: the unique vector
        congruent to it with no entry in a pivot column."""
        row = {c: v for c, v in row.items() if v}
        for c in [c for c in row if c in self.pivots]:
            _subtract(row, row[c], self.pivots[c])
        return row

    def insert(self, row: dict[int, Scalar]) -> bool:
        """Insert ``row``; return True when it increased the rank."""
        residue = self.reduce(row)
        if not residue:
            return False
        lead = min(residue)
        scale = residue[lead]
        if scale == -1:
            residue = {c: -v for c, v in residue.items()}
        elif scale != 1:
            residue = {c: _exact(Fraction(v) / scale) for c, v in residue.items()}
        for piv in self.pivots.values():
            if lead in piv:
                _subtract(piv, piv[lead], residue)
        self.pivots[lead] = residue
        return True


def _subtract(row: dict[int, Scalar], f: Scalar, other: dict[int, Scalar]) -> None:
    """``row -= f * other`` in place, keeping only nonzero entries."""
    for col, v in other.items():
        new = row.get(col, 0) - f * v
        if new:
            row[col] = new
        else:
            del row[col]


def _exact(q: Fraction) -> Scalar:
    """An integral Fraction as an int, any other as itself."""
    return q.numerator if q.denominator == 1 else q
