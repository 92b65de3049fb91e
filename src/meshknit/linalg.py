"""Exact rational linear algebra helpers.

All rank computations in the mesh calculus go through :class:`RationalEchelon`,
a sparse row-echelon accumulator over ``fractions.Fraction``.  No floating
point is used anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction


class RationalEchelon:
    """Incremental row echelon form over the rationals.

    Rows are sparse ``{column: Fraction}`` dicts.  ``insert`` reduces the row
    against the current echelon and keeps it when a new pivot appears, so
    ``rank`` is always the rank of everything inserted so far.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict[int, Fraction]) -> dict[int, Fraction]:
        """Return the residue of ``row`` modulo the rows stored so far."""
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                break
            factor = row[lead] / piv[lead]
            for c, v in piv.items():
                new = row.get(c, Fraction(0)) - factor * v
                if new:
                    row[c] = new
                else:
                    row.pop(c, None)
        return row

    def insert(self, row: dict[int, Fraction]) -> bool:
        """Insert ``row``; return True when it increased the rank."""
        residue = self.reduce(row)
        if not residue:
            return False
        self.pivots[min(residue)] = residue
        return True

