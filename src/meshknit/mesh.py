"""Dimensions of morphism spaces in mesh categories.

Two independent routes compute ``dim k(window)(x, y)``:

* :func:`starting_function` -- the fast additive recurrence that knits hom
  dimensions forward, clipping at zero, on a per-tree int plan (:func:`_plan`);
* :class:`MeshTransporter` / :func:`hom_dim_oracle` -- exact rational linear
  algebra: the space spanned by paths modulo the subspace generated by the
  mesh sums, built level by level (dimension = path count minus the rank of
  the relation rows).  Entries are ``int`` unless a pivot scaling left a
  ``Fraction``, so matrices of 0 and +-1 never touch ``Fraction``.

Both walk in level order from the source.  Every arrow raises the level by
one, and a value is at most the sum of the values at its in-neighbours, one
level down; so once a whole level is zero every higher one is, and a walk
stops at the first point two levels above its highest nonzero value.  The
library reads the recurrence from two stores: :func:`_stable_support` per
vertex of a tree (the C1/C2 test of ``classify`` and the Nakayama map), and
:class:`ProjectiveQuiver`, one int row of hom(P, -) and one bit set of its
projective support per nu-orbit of the projectives P of k(Z Delta_C).  The
transporter, which also carries the arrow matrices of the quotient functor,
is the exact route behind ``meshknit mesh homdim`` and the tests' oracle, for
hom dimensions and, through the natural maps between two transporters, for
composites.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache, reduce
from itertools import islice, product
from operator import or_

from .dynkin import AffineMap, DynkinTree, Residue, loewy_number
from .errors import WindowTooSmall
from .linalg import RationalEchelon, Scalar
from .ztquiver import Configuration, Pt, QuiverWindow, build_window, reach


class HomTable:
    """Hom dimensions from a fixed source point over a window."""

    def __init__(self, source: Pt, window: QuiverWindow, dims: dict[Pt, int]):
        self.source = source
        self.window = window
        self.dims = dims

    def __getitem__(self, p: Pt) -> int:
        return self.dims.get(p, 0)

    def support(self) -> list[Pt]:
        return sorted(p for p, d in self.dims.items() if d > 0)


def starting_function(tree: DynkinTree, x: Pt, window: QuiverWindow | None = None) -> HomTable:
    """Hom dimensions from ``x`` by the knitting recurrence (on Z Delta, unless a window is given).

    Points are processed in level order from ``x``; each non-projective
    point ``z`` gets ``max(0, sum over in-neighbors - value at tau z)``, a
    projective ``c*`` copies the value at ``c``, so :func:`_walk` runs on stable
    points, a source c* from tau^-1 c.  Only nonzero values are stored.
    """
    if window is None:
        window = build_window(tree, None, x.slice, x.slice + loewy_number(tree) + 1)
    if x not in window.points:
        raise WindowTooSmall(f"window does not contain the source {x}")
    n, i_min = tree.rank, window.i_min
    cut = {(p.slice - i_min + 1) * n + p.vertex - 1 for p in window.points if p.proj}
    dims = {x: 1}
    for j, v in enumerate(_walk(tree, window.i_max - i_min + 1, cut, x.slice + x.proj - i_min, x.vertex)):
        if v:  # the point and, in the window, the projective over it
            i, y = i_min + j // n, j % n + 1
            dims.update((q, v) for q in (Pt(i, y), Pt(i, y, True)) if q in window.points)
    return HomTable(x, window, dims)


@lru_cache(maxsize=None)
def _plan(tree: DynkinTree, span: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The stable points (i, x) of ``span`` slices from 0 in level order, as
    (index ``i * rank + x - 1``, level, in-neighbour indices, tau-index), and
    their levels.  Index ``span * rank`` stays 0: it pads and is tau of slice 0."""
    n, depth, size = tree.rank, tree.depth, span * tree.rank
    ins: list[list[int]] = [[] for _ in range(size)]
    for i, (lo, hi) in product(range(span), tree.edges):
        ins[i * n + hi - 1].append(i * n + lo - 1)
        if i + 1 < span:
            ins[(i + 1) * n + lo - 1].append(i * n + hi - 1)
    level = [2 * (j // n) + depth[j % n + 1] for j in range(size)]
    order = sorted(range(size), key=level.__getitem__)
    pad = [ins[j] + [size] * (3 - len(ins[j])) for j in range(size)]
    steps = [(j, level[j], *pad[j], j - n if j >= n else size) for j in order]
    return steps, [level[j] for j in order]


def _walk(tree: DynkinTree, span: int, cut: set[int], s: int, x: int) -> list[int]:
    """hom((s, x), -) by index on a plan, then the zero slot, for slice offset
    s (all 0 past the span), under one bit per point: ``cut`` holds tau^-1 c
    for the points c of a decoration, where c* cancels the tau-subtraction."""
    steps, levels = _plan(tree, span)
    vals = [0] * (span * tree.rank + 1)
    if s < span:
        vals[s * tree.rank + x - 1] = 1
        top = 2 * s + tree.depth[x]  # the highest level holding a nonzero value
        for j, lvl, a, b, c, t in islice(steps, bisect_right(levels, top), None):
            if lvl > top + 1:
                break
            v = vals[a] + vals[b] + vals[c] - (0 if j in cut else vals[t])
            if v > 0:
                vals[j], top = v, lvl
    return vals


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
def _stable_support(tree: DynkinTree, vertex: int) -> tuple[Pt, ...]:
    """The support of hom((0, vertex), -) on the stable quiver Z Delta, once per tree."""
    return tuple(starting_function(tree, Pt(0, vertex)).support())


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


class _Translates:
    """Lists of projectives keyed by any projective p: the list kept for p's
    residue, at its lift in [0, L), moved up to p by whole periods."""

    def __init__(self, period: int, at_lift: dict[Residue, list[Pt]]):
        self._period, self._at_lift = period, at_lift

    def __getitem__(self, p: Pt) -> list[Pt]:
        k = p.slice - p.slice % self._period
        return [Pt(q.slice + k, q.vertex, True) for q in self._at_lift.get((p.slice - k, p.vertex), ())]


class ProjectiveQuiver:
    """Arrows and hom data among the projectives of k(Z Delta_C), built once.

    The category is periodic under nu = tau^L, so hom(p, q) = hom(p - kL,
    q - kL), and the arrows at p are those at p - kL moved up kL slices.  Each
    nu-orbit gets one int row of :func:`_walk` on slices [-1, 2L + 1], at its
    lift in [0, L), read by slice arithmetic with no ``Pt`` built; hom(p, c*)
    is the row's value at c, plus 1 if c* = p.  So ``hom`` and ``support`` (of
    any q), ``hom_dim``, ``out_nb`` and ``in_nb`` cover the infinite quiver; a
    search bounds itself by ``level``.

    Every hom between distinct projectives is 0 or 1 (the build asserts it on
    every pair), so each lift p also gets one bit set S_p: the projectives q
    != p with hom(p, q) != 0, as indices into the sorted projectives on
    slices [0, 2L + 1] (``_index``).  Every nonzero hom out of a lift lands
    there: arrows never lower the slice, and the row's walk stops inside its
    span.  Each period holds ``rank`` projectives, so moving q up by L moves
    its index by ``rank``, and S at a nu-translate is S at the lift shifted by
    ``rank`` bits per period.  An arrow p -> q exists when hom(p, q) != 0 and
    no composite through a third projective realizes it (radical square
    test): the heads out of p are S_p minus the union of S_r over r in S_p.
    The arrows into each residue's lift are those out of the lifts, inverted.
    """

    def __init__(self, config: Configuration):
        tree = config.tree
        L, n = loewy_number(tree), tree.rank
        self._period, self._n, self._span = L, n, 2 * L + 3  # rows cover slices [-1, 2L + 1]
        self._depth, self._residues = tree.depth, config.residues
        near = config.lifts(0, 2 * L + 1)
        self._index = {q: j for j, q in enumerate(near)}
        cut = {(i + 2) * n + x - 1 for i, x in config.lifts(-1, 2 * L + 1)}
        # the lifts in [0, L) are near[:n]; the lift c* walks from tau^-1 c
        self._rows = {r: _walk(tree, self._span, cut, r[0] + 2, r[1]) for r in near[:n]}
        masks = []
        for (i, x), row in self._rows.items():
            homs = [row[(s + 1) * n + y - 1] for s, y in near]
            # An invariant, not an input check: projective_quiver validates the
            # configuration, and hom spaces between its projectives are then at
            # most one-dimensional (the tests check three periods of each).
            assert max(homs) <= 1, f"hom({Pt(i, x, True)}, -) > 1 between projectives"
            masks.append(sum(d << j for j, d in enumerate(homs)))
        self._masks = [masks[j % n] << j // n * n for j in range(len(near))]  # S at near[j]
        out: dict[Residue, list[Pt]] = {}
        into: dict[Residue, list[Pt]] = {r: [] for r in near[:n]}
        for p, s in zip(near[:n], masks):
            inner = [j for j in range(len(near)) if s >> j & 1]
            below = reduce(or_, (self._masks[j] for j in inner), 0)
            heads = [j for j in inner if not below >> j & 1]
            out[p] = [Pt(*near[j], True) for j in heads]
            for j in heads:  # the tail, moved so the head sits at its lift
                into[near[j % n]].append(Pt(p[0] - j // n * L, p[1], True))
        for tails in into.values():
            tails.sort()
        self.out_nb, self.in_nb = _Translates(L, out), _Translates(L, into)

    def level(self, p: Pt) -> int:
        return 2 * p.slice + self._depth[p.vertex] + 1

    def _row(self, p: Pt) -> list[int]:
        """The hom row of a projective p of the configuration, else WindowTooSmall."""
        row = self._rows.get((p.slice % self._period, p.vertex)) if p.proj else None
        if row is None:
            raise WindowTooSmall(f"{p} is not a projective of the configuration")
        return row

    def hom(self, p: Pt, q: Pt) -> int:
        """dim hom(p, q) for a projective p of the configuration (else WindowTooSmall) and any q."""
        (ps, px, _), (qs, qx, qproj) = p, q
        row = self._row(p)
        L, i = self._period, ps % self._period  # p moved down to its lift in [0, L)
        s = qs - ps + i + 1  # q moved alike, as a slice offset in [-1, 2L + 1]
        if not 0 <= s < self._span or (qproj and (qs % L, qx) not in self._residues):
            return 0
        return row[s * self._n + qx - 1] + (qproj and qs == ps and qx == px)

    def support(self, p: Pt) -> list[Pt]:
        """The sorted points q with hom(p, q) != 0, for a projective p."""
        L, n = self._period, self._n
        k = p.slice - p.slice % L - 1  # the slice of offset 0
        stable = [Pt(k + j // n, j % n + 1) for j, v in enumerate(self._row(p)) if v]
        return sorted([p, *stable, *(Pt(s, x, True) for s, x, _ in stable if (s % L, x) in self._residues)])

    def hom_dim(self, p: Pt, q: Pt) -> int:
        """dim hom(p, q), 0 or 1, for projectives p != q; 0 for p == q."""
        return self.hom(p, q) if p != q else 0

    def path_nonzero(self, chain: list[Pt]) -> bool:
        """Is the composite along a chain of projectives nonzero?

        It is when every consecutive hom is nonzero and so is hom(chain[0],
        q) for every later q.  Hom spaces between nodes are at most
        one-dimensional, and a composite of basis maps is zero or a basis map
        (Bautista-Gabriel-Roiter-Salmeron, 1985); so a nonzero p -> r -> q
        needs hom(p, q) != 0.  That it is then nonzero is checked, not derived:
        the tests compare it with the natural map hom(r, -) -> hom(p, -) that
        p -> r induces, nonzero at q, on the chains of three periods and those
        the relation search extends, in four nu-translates.  The chain is moved
        down to the period of its first node, and each node after the first
        must lie in the bit sets of the first node and of the node before it:
        one mask AND per node.  A repeated node (hom(q, q) = 0 here) makes a
        zero chain.
        """
        k = chain[0].slice - chain[0].slice % self._period
        masks, index = self._masks, self._index
        at = [index.get((q.slice - k, q.vertex)) for q in chain]
        if None in at:
            return False
        first = masks[at[0]]
        return all((first & masks[a]) >> b & 1 for a, b in zip(at, at[1:]))

    def complete_pairs(self, members) -> list[tuple[Pt, Pt]]:
        """All pairs (p, q) of a fundamental set carrying a complete morphism.

        A nonzero p -> q is complete inside the subcategory when composing
        with any of its arrows out of q, or into p, kills it.  Convexity
        guarantees that testing the quiver arrows of the ambient category with
        both ends in the set is enough.
        """
        out: list[tuple[Pt, Pt]] = []
        member_set = set(members)
        for p in members:
            for q in members:
                if not self.hom_dim(p, q):
                    continue
                if any(
                    z in member_set and self.path_nonzero([p, q, z]) for z in self.out_nb[q]
                ) or any(w in member_set and self.path_nonzero([w, p, q]) for w in self.in_nb[p]):
                    continue
                out.append((p, q))
        return sorted(out)


@lru_cache(maxsize=1)
def projective_quiver(config: Configuration) -> ProjectiveQuiver:
    """The projective quiver of a configuration that satisfies C1/C2.  The last
    one is kept: calls in a row on one configuration share it, and check it once."""
    from .classify import _require_configuration  # local to avoid an import cycle
    _require_configuration(config)
    return ProjectiveQuiver(config)


def complete_morphisms(config: Configuration, fund: list[Pt]) -> list[tuple[Pt, Pt]]:
    """All pairs (p, q) of the fundamental set carrying a complete morphism."""
    from .present import _validated_fundamental  # local to avoid an import cycle

    pq, fund = _validated_fundamental(config, fund)
    return pq.complete_pairs(fund)
