"""The reduced echelon kernel against the partially reduced one it replaced."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import natural_map

from meshknit.dynkin import loewy_number
from meshknit.linalg import RationalEchelon
from meshknit.mesh import MeshTransporter
from meshknit.ztquiver import build_window


class _PartialEchelon:
    """Reference: the earlier echelon, which kept each row's lead unscaled
    and reduced only leading entries."""

    def __init__(self):
        self.pivots = {}

    def insert(self, row) -> bool:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                self.pivots[lead] = row
                return True
            factor = row[lead] / piv[lead]
            for c, v in piv.items():
                new = row.get(c, Fraction(0)) - factor * v
                if new:
                    row[c] = new
                else:
                    row.pop(c, None)
        return False


def _reduce_full(ech, row):
    """Reference: the earlier reading of a column, full reduction of a unit row."""
    row = {c: Fraction(v) for c, v in row.items() if v}
    done = -1
    while True:
        cands = [c for c in row if c > done and c in ech.pivots]
        if not cands:
            return row
        c = min(cands)
        piv = ech.pivots[c]
        factor = row[c] / piv[c]
        for col, v in piv.items():
            new = row.get(col, Fraction(0)) - factor * v
            if new:
                row[col] = new
            else:
                row.pop(col, None)
        done = c


def _exact(v) -> bool:
    return type(v) in (int, Fraction)


scalars = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
)


@st.composite
def row_lists(draw):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(scalars, min_size=ncols, max_size=ncols), max_size=8))
    return ncols, [{c: v for c, v in enumerate(r) if v} for r in rows]


@settings(max_examples=300, deadline=None)
@given(row_lists())
def test_echelon_stays_reduced_and_matches_the_partial_reference(case):
    ncols, rows = case
    ech, ref = RationalEchelon(), _PartialEchelon()
    for row in rows:
        assert ech.insert(dict(row)) == ref.insert(row)
        assert ech.rank == len(ref.pivots)
        assert set(ech.pivots) == set(ref.pivots)
        for c, piv in ech.pivots.items():
            assert min(piv) == c and piv[c] == 1
            assert all(_exact(v) and v for v in piv.values())
            assert not any(c in other for d, other in ech.pivots.items() if d != c)
        free = [c for c in range(ncols) if c not in ech.pivots]
        for c in range(ncols):
            want = _reduce_full(ref, {c: 1})
            got = {c: 1} if c not in ech.pivots else {f: -ech.pivots[c][f] for f in free if f in ech.pivots[c]}
            assert got == want, (c, rows)
        assert ech.reduce(row) == {}


def test_transporter_classes_are_exact(configs_cache):
    """Arrow matrices and the natural maps between transporters hold ints or
    Fractions, never floats: from each point of slice 0 to every point of
    nonzero dimension, the map that the basis morphism induces on the hom
    functor of its target."""
    for name in ("A3", "D4", "E6"):
        config = configs_cache(name)[0]
        tree = config.tree
        w = build_window(tree, config, 0, 2 * loewy_number(tree) + 2)
        for x in sorted(p for p in w.points if p.slice == 0):
            tr = MeshTransporter(w, x)
            for mat in tr.arrow_matrix.values():
                assert all(_exact(v) for row in mat for v in row)
            for y in sorted(tr.dims):
                for cols in natural_map(tr, MeshTransporter(w, y), [1] * tr.dim(y)).values():
                    assert all(_exact(v) for col in cols for v in col)
