"""Dimensions of morphism spaces in mesh categories.

Two independent routes compute ``dim k(window)(x, y)``:

* :func:`starting_function` -- the fast additive recurrence that knits hom
  dimensions forward, clipping at zero, by ``ztquiver._walk`` on an int plan;
  it reads a window's two ends and residues and builds no window;
* :class:`MeshTransporter` / :func:`hom_dim_oracle` -- exact rational linear
  algebra on a built window: the space spanned by paths modulo the subspace
  generated by the mesh sums, built level by level (dimension = path count
  minus the rank of the relation rows).  Entries are ``int`` unless a pivot
  scaling left a ``Fraction``, so matrices of 0 and +-1 never touch ``Fraction``.

Both give the nonzero dimensions as one ``dict[Pt, int]`` (the transporter's
``dims``), and both walk in level order from the source.  Every arrow raises
the level by one, and a value is at most the sum of the values at its
in-neighbours, one level down; so once a whole level is zero every higher
one is, and a walk stops at the first point two levels above its highest
nonzero value.  The library reads the recurrence from two stores, neither
built on a window: ``ztquiver._stable_support`` per vertex of a tree (the
C1/C2 test beside ``Configuration``, and the Nakayama map), and
:class:`ProjectiveQuiver`, one int row of hom(P, -), one bit set of its
projective support and its arrow ends per nu-orbit of the projectives P of
k(Z Delta_C), all read by projective index: ``present`` builds its
fundamental algebras, presentations and Cartan matrices on those indices,
and imports this module, never the other way round.  The transporter, which
also carries the arrow matrices of the quotient functor, is the exact route
behind ``meshknit mesh homdim`` and the tests' oracle, for hom dimensions
and, through the natural maps between two transporters, for composites.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_

from .dynkin import AffineMap, DynkinTree, loewy_number
from .errors import InvalidInput, WindowTooSmall
from .linalg import RationalEchelon, Scalar
from .ztquiver import Configuration, Pt, QuiverWindow, _require_configuration, _stable_support, _walk, reach


def starting_function(tree: DynkinTree, x: Pt, window: QuiverWindow | None = None) -> dict[Pt, int]:
    """The nonzero hom dimensions from ``x`` by the knitting recurrence.

    It runs on the slices and decoration of ``window``, which it reads and
    does not build; with no window, on the stable slices [x.slice, x.slice +
    L + 1].  In level order from ``x`` each non-projective point ``z`` gets
    ``max(0, sum over in-neighbors - value at tau z)`` and a projective ``c*``
    copies the value at ``c``, so :func:`_walk` runs on stable points, a
    source c* from tau^-1 c.  A window of another tree is refused with
    InvalidInput; a source outside the slices, off the tree, or projective
    off the decoration with WindowTooSmall.
    """
    L, n = loewy_number(tree), tree.rank
    if window is None:
        lo, hi, residues = x.slice, x.slice + L + 1, frozenset()
    elif window.tree != tree:
        raise InvalidInput(f"the window belongs to {window.tree.name}, not to {tree.name}")
    else:
        lo, hi, residues = window.i_min, window.i_max, window.residues
    off_decoration = x.proj and (x.slice % L, x.vertex) not in residues
    if x.slice not in range(lo, hi + 1) or x.vertex not in tree.vertices or off_decoration:
        raise WindowTooSmall(f"window does not contain the source {x}")
    # tau^-1 c, by index, for each point c of the decoration in the slices
    cut = {j + n for j in range((hi - lo + 1) * n) if ((lo + j // n) % L, j % n + 1) in residues}
    dims = {x: 1}
    for j, v in enumerate(_walk(tree, hi - lo + 1, cut, x.slice + x.proj - lo, x.vertex)):
        if v:  # the point and, over a point of the decoration, its projective
            p = Pt(lo + j // n, j % n + 1)
            dims[p] = v
            if j + n in cut:
                dims[p._replace(proj=True)] = v
    return dims


class MeshTransporter:
    """The functor ``hom(source, -)`` realized as explicit vector spaces.

    For every window point ``p`` a basis of the quotient of the path space
    by the mesh relations is fixed, and every arrow ``w -> p`` carries the
    induced rational matrix.  The basis at ``p`` is the free columns of the
    path space, each a basis vector j at an in-neighbour w pushed along
    w -> p; ``free_cols[p]`` lists those (w, j).  A class is a list of exact
    scalars (``int`` or ``Fraction``), and the class of the source is ``[1]``.
    """

    def __init__(self, window: QuiverWindow, source: Pt):
        if source not in window.points:
            raise WindowTooSmall(f"window does not contain the source {source}")
        self.window = window
        self.source = source
        self.dims: dict[Pt, int] = {source: 1}  # nonzero dimensions only
        self.arrow_matrix: dict[tuple[Pt, Pt], list[list[Scalar]]] = {}
        self.free_cols: dict[Pt, list[tuple[Pt, int]]] = {}  # in level order
        lvl, order, dims = window.level, window.order, self.dims
        top = lvl[source]  # the highest level of nonzero dimension
        for p in order[order.index(source) + 1 :]:
            if lvl[p] > top + 1:
                break
            ins = [w for w in sorted(window.in_nb[p]) if w in dims]
            if not ins:
                continue
            cols = [(w, j) for w in ins for j in range(dims[w])]  # the path-space columns
            total, offsets = len(cols), {w: c for c, (w, j) in enumerate(cols) if j == 0}
            ech = RationalEchelon()
            tz = None if p.proj else window.tau.get(p)
            if tz in dims:
                # the mesh relations at p: the images of the basis of tz
                for j in range(dims[tz]):
                    row: dict[int, Scalar] = {}
                    for w in ins:
                        for i, r in enumerate(self.arrow_matrix.get((tz, w), ())):
                            if r[j]:
                                row[offsets[w] + i] = r[j]
                    ech.insert(row)
            piv = ech.pivots
            free = [c for c in range(total) if c not in piv]
            if not free:
                continue
            dims[p] = len(free)
            self.free_cols[p] = [cols[c] for c in free]
            top = lvl[p]
            # the quotient map: e_c for a free column c, -row_c for a pivot one
            quot = [
                [-piv[c].get(f, 0) if c in piv else int(c == f) for c in range(total)]
                for f in free
            ]
            for w in ins:
                off = offsets[w]
                self.arrow_matrix[(w, p)] = [row[off : off + dims[w]] for row in quot]

    def dim(self, p: Pt) -> int:
        return self.dims.get(p, 0)

    def apply_arrow(self, a: Pt, b: Pt, vec: list[Scalar]) -> list[Scalar]:
        mat = self.arrow_matrix.get((a, b))
        if mat is None:
            return [0] * self.dims.get(b, 0)
        return [sum(x * y for x, y in zip(row, vec)) for row in mat]


def hom_dim_oracle(window: QuiverWindow, x: Pt, y: Pt) -> int:
    """dim of the path space modulo mesh relations, by exact linear algebra.

    Paths never leave the slice band between their endpoints, so the
    interval between two window points always lies inside the window;
    WINDOW_TOO_SMALL only means an endpoint is missing.
    """
    if x not in window.points or y not in window.points:
        raise WindowTooSmall("both points must lie in the window")
    return MeshTransporter(window, x).dim(y)


def precedes(window: QuiverWindow, x: Pt, y: Pt) -> bool:
    """True when a path x -> y exists in the window.  Every arrow raises the
    level by one, so the search never passes the level of y."""
    ymax = window.level[y]
    return y in reach([x], lambda p: (q for q in window.out_nb[p] if window.level[q] <= ymax))


# ---------------------------------------------------------------------------
# the Nakayama automorphism of the stable quiver


@lru_cache(maxsize=None)
def _nu_inverse_map(tree: DynkinTree) -> AffineMap:
    """nu^{-1} on stable points; (0, v) goes to the top of hom((0, v), -)."""
    L, depth = loewy_number(tree), tree.depth
    images = []
    for v in tree.vertices:
        want = depth[v] + L - 1  # the level of (0, v) is depth[v]
        cands = [p for p in _stable_support(tree, v) if 2 * p.slice + depth[p.vertex] == want]
        # An invariant, not an input check: trees come from make_tree, so
        # Delta is Dynkin, and there hom(x, -) on Z Delta has exactly one
        # point at its top level L - 1 above x, namely nu^{-1}(x).
        assert len(cands) == 1, f"nu^-1({Pt(0, v)}) not unique: {cands}"
        images.append(cands[0])
    return AffineMap((0,) + tuple(p.slice for p in images), (0,) + tuple(p.vertex for p in images))


def nu_inverse(tree: DynkinTree, p: Pt) -> Pt:
    """nu^{-1} on the stable quiver; on projectives it shifts by tau^{-L}."""
    if p.proj:
        return Pt(p.slice + loewy_number(tree), p.vertex, True)
    return Pt(*_nu_inverse_map(tree)(p.slice, p.vertex))


def nakayama(tree: DynkinTree, p: Pt) -> Pt:
    """The Nakayama automorphism nu; nu(x) precedes x and nu^2 = tau^(L-1)."""
    if p.proj:
        return Pt(p.slice - loewy_number(tree), p.vertex, True)
    return Pt(*_nu_inverse_map(tree).inverse()(p.slice, p.vertex))


# ---------------------------------------------------------------------------
# the quiver of the infinite selfinjective category attached to a configuration


class ProjectiveQuiver:
    """Arrows and hom data among the projectives of k(Z Delta_C), built once.

    Projectives are read by int index: the j-th of the ``rank`` lifts in
    slices [0, L), in sorted order, moved up k periods, has index j + k rank.
    Index order is ``Pt`` order, an index is >= 0 exactly when its slice is,
    and ``index`` and ``point`` convert; only output builds a ``Pt``.

    The category is periodic under nu = tau^L, so hom(p, q) = hom(p - kL,
    q - kL), and each nu-orbit gets one int row of :func:`_walk` on slices
    [-1, 2L + 1] at its lift in [0, L) (``row``); hom(p, c*) is the row's
    value at c, plus 1 if c* = p.  Every hom between distinct projectives is 0
    or 1 (the build asserts it on every pair), so each lift p also gets one bit
    set S_p of the indices of the projectives q != p with hom(p, q) != 0, all
    in slices [0, 2L + 1], where the walk stops; S moves by ``rank`` bits per
    period.  The heads out of p are S_p minus the union of S_r over r in S_p
    (radical square test); the tails into each lift are those heads, inverted,
    and ``heads_at``/``tails_at`` move them up by whole periods.  A search over
    the infinite quiver bounds itself by level (``level_at``).
    """

    def __init__(self, config: Configuration):
        tree = config.tree
        L, n = loewy_number(tree), tree.rank
        self._period, self._n = L, n
        self._depth, self._residues = tree.depth, config.residues
        near = config.lifts(0, 2 * L + 1)  # the indices 0 .. len(near) - 1
        self._lifts, self._at = near[:n], {r: j for j, r in enumerate(near[:n])}
        cut = {(i + 2) * n + x - 1 for i, x in config.lifts(-1, 2 * L + 1)}
        # rows cover slices [-1, 2L + 1]; the lift c* walks from tau^-1 c
        self._rows = {r: _walk(tree, 2 * L + 3, cut, r[0] + 2, r[1]) for r in self._lifts}
        masks = []
        for (i, x), row in self._rows.items():
            homs = [row[(s + 1) * n + y - 1] for s, y in near]
            # An invariant, not an input check: projective_quiver validates the
            # configuration, and hom spaces between its projectives are then at
            # most one-dimensional (the tests check three periods of each).
            assert max(homs) <= 1, f"hom({Pt(i, x, True)}, -) > 1 between projectives"
            masks.append(sum(d << j for j, d in enumerate(homs)))
        self._masks = [masks[j % n] << j // n * n for j in range(len(near))]  # S at index j
        heads, tails = [], [[] for _ in range(n)]
        for j, s in enumerate(masks):
            inner = [b for b in range(len(near)) if s >> b & 1]
            below = reduce(or_, (self._masks[b] for b in inner), 0)
            heads.append([b for b in inner if not below >> b & 1])
            for b in heads[j]:  # the tail, moved so the head sits at its lift
                tails[b % n].append(j - b // n * n)
        self._heads, self._tails = heads, [sorted(t) for t in tails]

    def index(self, p: Pt) -> int | None:
        """The index of a projective p of the configuration, else None."""
        k, i = divmod(p.slice, self._period)
        j = self._at.get((i, p.vertex)) if p.proj else None
        return None if j is None else j + k * self._n

    def point(self, a: int) -> Pt:
        k, j = divmod(a, self._n)
        i, x = self._lifts[j]
        return Pt(i + k * self._period, x, True)

    def level_at(self, a: int) -> int:
        k, j = divmod(a, self._n)
        return 2 * (self._lifts[j][0] + k * self._period) + self._depth[self._lifts[j][1]] + 1

    def row(self, p: Pt) -> tuple[int, list[int]]:
        """hom(p, -) on stable points for a projective p of the configuration
        (else WindowTooSmall): the slice ``first`` of offset 0 and the row,
        with hom(p, (s, x)) = row[(s - first) * rank + x - 1] at the indices
        the row has, else 0."""
        row = self._rows.get((p.slice % self._period, p.vertex)) if p.proj else None
        if row is None:
            raise WindowTooSmall(f"{p} is not a projective of the configuration")
        return p.slice - p.slice % self._period - 1, row

    def hom(self, p: Pt, q: Pt) -> int:
        """dim hom(p, q) for a projective p of the configuration (else WindowTooSmall) and any q."""
        (ps, px, _), (qs, qx, qproj) = p, q
        first, row = self.row(p)
        j = (qs - first) * self._n + qx - 1
        if not 0 <= j < len(row) or (qproj and (qs % self._period, qx) not in self._residues):
            return 0
        return row[j] + (qproj and qs == ps and qx == px)

    def heads_at(self, a: int) -> list[int]:
        """The sorted heads of the arrows out of index a."""
        j = a % self._n
        k = a - j  # whole periods
        return [b + k for b in self._heads[j]]

    def tails_at(self, a: int) -> list[int]:
        """The sorted tails of the arrows into index a."""
        j = a % self._n
        k = a - j
        return [b + k for b in self._tails[j]]

    def support_at(self, a: int) -> list[int]:
        """The sorted indices b with hom(a, b) != 0, a included: a and the
        bits of S_a, and each of those homs is 1."""
        k, j = divmod(a, self._n)
        s = self._masks[j]
        return sorted([a, *(b + k * self._n for b in range(s.bit_length()) if s >> b & 1)])

    def nonzero(self, chain) -> bool:
        """Is the composite along a chain of projective indices nonzero?  It
        is when each node after the first lies in S of the first node and of
        the node before it: one mask AND per node, in the first node's period.
        Homs between nodes are at most one-dimensional and composites of basis
        maps are zero or basis maps (Bautista-Gabriel-Roiter-Salmeron, 1985),
        so a nonzero p -> r -> q needs hom(p, q) != 0; the tests check that it
        is then nonzero against the natural maps of transporters."""
        masks, k = self._masks, chain[0] // self._n * self._n
        first = prev = masks[chain[0] - k]
        for b in chain[1:]:
            if b < k or not (first & prev) >> (b - k) & 1:
                return False
            prev = masks[b - k]
        return True

    def path_nonzero(self, chain: list[Pt]) -> bool:
        """``nonzero`` on points; False when one is not a projective of the configuration."""
        at = [self.index(q) for q in chain]
        return None not in at and self.nonzero(at)


@lru_cache(maxsize=1)
def projective_quiver(config: Configuration) -> ProjectiveQuiver:
    """The projective quiver of a configuration that satisfies C1/C2.  The last
    one is kept: calls in a row on one configuration share it, and check it once."""
    _require_configuration(config)
    return ProjectiveQuiver(config)
