"""Dimensions of morphism spaces in mesh categories.

Two independent routes compute ``dim k(window)(x, y)``:

* :func:`starting_function` -- the fast additive recurrence that knits hom
  dimensions forward, clipping at zero;
* :class:`MeshTransporter` / :func:`hom_dim_oracle` -- exact rational linear
  algebra: the space spanned by paths modulo the subspace generated by the
  mesh sums, built level by level (dimension = path count minus the rank of
  the relation rows).  Entries are ``int`` unless a pivot scaling left a
  ``Fraction``, so matrices of 0 and +-1 never touch ``Fraction``.

Both walk the window's level order (:attr:`QuiverWindow.order`).  Callers
that need only dimensions (``present.cartan_matrix``,
``knitting.dims_on_section``, the Nakayama map) use the recurrence.  The
transporter additionally carries the arrow matrices of the quotient functor,
which is what composition is made of: :class:`ProjectiveQuiver`'s
radical-square test, completeness and relations.  The two must agree
everywhere, configuration windows with projective sources included; the test
suite enforces this, the library never cross-checks at runtime.
"""

from __future__ import annotations

from functools import lru_cache

from .dynkin import DynkinTree, loewy_number
from .errors import WindowTooSmall
from .linalg import RationalEchelon, Scalar
from .ztquiver import AffineMap, Configuration, Pt, QuiverWindow, build_window, reach


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


def starting_function(
    tree: DynkinTree, x: Pt, window: QuiverWindow | None = None, config=None
) -> HomTable:
    """Hom dimensions from ``x`` by the knitting recurrence.

    Points are processed in level order; each non-projective point ``z``
    gets ``max(0, sum over in-neighbors - value at tau z)``, a projective
    ``c*`` simply copies the value at ``c``.
    """
    if window is None:
        L = loewy_number(tree)
        window = build_window(tree, config, x.slice, x.slice + L + 1)
    if x not in window.points:
        raise WindowTooSmall(f"window does not contain the source {x}")
    lvl, in_nb, tau = window.level, window.in_nb, window.tau
    lx = lvl[x]
    svals: dict[Pt, int] = {}
    for p in window.order:
        if p == x:
            svals[p] = 1
        elif lvl[p] <= lx:
            svals[p] = 0
        elif p.proj:
            svals[p] = svals.get(Pt(p.slice, p.vertex), 0)
        else:
            total = sum(svals.get(w, 0) for w in in_nb[p])
            svals[p] = max(0, total - svals.get(tau.get(p), 0))
    return HomTable(x, window, svals)


class MeshTransporter:
    """The functor ``hom(source, -)`` realized as explicit vector spaces.

    For every window point ``p`` a basis of the quotient of the path space
    by the mesh relations is fixed, and every arrow ``w -> p`` carries the
    induced rational matrix.  Classes of concrete paths are obtained by
    multiplying those matrices; a class is a list of exact scalars (``int``
    or ``Fraction``), and the class of the source is ``[1]``.
    """

    def __init__(self, window: QuiverWindow, source: Pt):
        if source not in window.points:
            raise WindowTooSmall(f"window does not contain the source {source}")
        self.window = window
        self.source = source
        self.dims: dict[Pt, int] = {}
        self.arrow_matrix: dict[tuple[Pt, Pt], list[list[Scalar]]] = {}
        lvl = window.level
        for p in window.order:
            if p == source:
                self.dims[p] = 1
                continue
            if lvl[p] <= lvl[source]:
                self.dims[p] = 0
                continue
            ins = [w for w in sorted(window.in_nb[p]) if self.dims.get(w, 0) > 0]
            widths = [self.dims[w] for w in ins]
            total = sum(widths)
            if total == 0:
                self.dims[p] = 0
                continue
            offsets = {}
            run = 0
            for w, d in zip(ins, widths):
                offsets[w] = run
                run += d
            ech = RationalEchelon()
            tz = None if p.proj else window.tau.get(p)
            if tz is not None and self.dims.get(tz, 0) > 0:
                # the mesh relations at p: the images of the basis of tz
                for j in range(self.dims[tz]):
                    row: dict[int, Scalar] = {}
                    for w in ins:
                        for i, r in enumerate(self.arrow_matrix.get((tz, w), ())):
                            if r[j]:
                                row[offsets[w] + i] = r[j]
                    ech.insert(row)
            piv = ech.pivots
            free = [c for c in range(total) if c not in piv]
            self.dims[p] = len(free)
            # the quotient map: e_c for a free column c, -row_c for a pivot one
            quot = [
                [-piv[c].get(f, 0) if c in piv else int(c == f) for c in range(total)]
                for f in free
            ]
            for w, d in zip(ins, widths):
                off = offsets[w]
                self.arrow_matrix[(w, p)] = [row[off : off + d] for row in quot]

    def translated(self, shift: int) -> MeshTransporter:
        """The transporter from the source moved up ``shift`` slices, a
        non-negative multiple of the configuration's period, in the same
        window.  A value at q depends only on the points between the source
        and q, so the translate shares the matrices and keeps nonzero dims."""

        def up(p: Pt) -> Pt:
            return Pt(p.slice + shift, p.vertex, p.proj)

        pts = self.window.points
        tr = object.__new__(MeshTransporter)
        tr.window = self.window
        tr.source = up(self.source)
        tr.dims = {q: d for p, d in self.dims.items() if d and (q := up(p)) in pts}
        tr.arrow_matrix = {
            (up(a), q): m for (a, b), m in self.arrow_matrix.items() if (q := up(b)) in pts
        }
        return tr

    def dim(self, p: Pt) -> int:
        return self.dims.get(p, 0)

    def apply_arrow(self, a: Pt, b: Pt, vec: list[Scalar]) -> list[Scalar]:
        mat = self.arrow_matrix.get((a, b))
        if mat is None:
            return [0] * self.dims.get(b, 0)
        return [sum(x * y for x, y in zip(row, vec)) for row in mat]

    def path_class(self, path: list[Pt]) -> list[Scalar]:
        """The class of a concrete path starting at the source."""
        assert path and path[0] == self.source
        return self.transport([1], path)

    def transport(self, vec: list[Scalar], path: list[Pt]) -> list[Scalar]:
        """Push a class at ``path[0]`` along a path."""
        for a, b in zip(path, path[1:]):
            vec = self.apply_arrow(a, b, vec)
            if not any(vec):
                return vec
        return vec

    def _reaching(self, target: Pt) -> set[Pt]:
        """Points of nonzero dimension with a path to ``target`` through such points."""
        in_nb, dims = self.window.in_nb, self.dims
        return reach([target], lambda p: (w for w in in_nb[p] if dims.get(w, 0) > 0))

    def nonzero_path(self, target: Pt) -> list[Pt] | None:
        """The lexicographically smallest path with nonzero class, if any."""
        if self.dim(target) == 0:
            return None
        reaches = self._reaching(target)
        stack = [(self.source, [self.source], [1])]
        while stack:
            p, path, vec = stack.pop()
            if p == target:
                return path
            succ = sorted((q for q in self.window.out_nb[p] if q in reaches), reverse=True)
            for q in succ:
                nvec = self.apply_arrow(p, q, vec)
                if any(nvec):
                    stack.append((q, path + [q], nvec))
        return None

    def basis_paths(self, target: Pt) -> list[list[Pt]]:
        """Greedy lex-ordered paths forming a basis of hom(source, target)."""
        want = self.dim(target)
        if want == 0:
            return []
        found: list[list[Pt]] = []
        ech = RationalEchelon()
        reaches = self._reaching(target)

        def rec(p: Pt, path: list[Pt], vec: list[Scalar]) -> bool:
            if p == target:
                if ech.insert({i: v for i, v in enumerate(vec) if v}):
                    found.append(list(path))
                return len(found) == want
            for q in sorted(w for w in self.window.out_nb[p] if w in reaches):
                nvec = self.apply_arrow(p, q, vec)
                if any(nvec):
                    if rec(q, path + [q], nvec):
                        return True
            return False

        rec(self.source, [self.source], [1])
        return found


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
    L = loewy_number(tree)
    images = []
    for v in tree.vertices:
        src = Pt(0, v)
        hom = starting_function(tree, src)
        lvl = hom.window.level
        want = lvl[src] + L - 1
        cands = [p for p in hom.support() if lvl[p] == want and not p.proj]
        assert len(cands) == 1, f"nu^-1({src}) not unique: {cands}"
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
    """Arrows and hom data among the projectives of a window.

    An arrow p -> q exists when hom(p, q) is one-dimensional and no
    composite through a third projective realizes it (radical square test).
    All hom spaces between distinct projectives are at most one-dimensional;
    this is asserted.  One transporter is built per nu-orbit, at its lowest
    node; the higher nodes get its translate (:meth:`MeshTransporter.translated`).
    """

    def __init__(self, config: Configuration, i_lo: int, i_hi: int):
        tree = config.tree
        L = loewy_number(tree)
        self.config = config
        self.tree = tree
        self.window = build_window(tree, config, i_lo - 1, i_hi + L + 2)
        self.nodes = tuple(Pt(i, x, True) for i, x in config.lifts(i_lo, i_hi))
        self.transporters: dict[Pt, MeshTransporter] = {}
        self.hom: dict[tuple[Pt, Pt], int] = {}
        lowest: dict[tuple[int, int], MeshTransporter] = {}
        for p in self.nodes:  # sorted, so each orbit is met at its lowest node first
            base = lowest.get((p.slice % L, p.vertex))
            if base is None:
                tr = lowest[(p.slice % L, p.vertex)] = MeshTransporter(self.window, p)
            else:
                tr = base.translated(p.slice - base.source.slice)
            self.transporters[p] = tr
            for q in self.nodes:
                if q == p:
                    continue
                d = tr.dim(q)
                assert d <= 1, f"hom({p},{q}) = {d} > 1 between projectives"
                if d:
                    self.hom[(p, q)] = d
        self._rep_paths: dict[tuple[Pt, Pt], list[Pt]] = {}
        self.arrows: list[tuple[Pt, Pt]] = []
        for (p, q), _ in sorted(self.hom.items()):
            if not self._factors(p, q):
                self.arrows.append((p, q))
        self.out_nb: dict[Pt, list[Pt]] = {p: [] for p in self.nodes}
        self.in_nb: dict[Pt, list[Pt]] = {p: [] for p in self.nodes}
        for a, b in self.arrows:
            self.out_nb[a].append(b)
            self.in_nb[b].append(a)

    def rep_path(self, p: Pt, q: Pt) -> list[Pt] | None:
        key = (p, q)
        if key not in self._rep_paths:
            self._rep_paths[key] = self.transporters[p].nonzero_path(q)
        return self._rep_paths[key]

    def composite_nonzero(self, p: Pt, r: Pt, q: Pt) -> bool:
        """Is the composite hom(p,r) o hom(r,q) nonzero in the mesh category?"""
        first = self.rep_path(p, r)
        second = self.rep_path(r, q)
        if first is None or second is None:
            return False
        tr = self.transporters[p]
        vec = tr.path_class(first)
        vec = tr.transport(vec, second)
        return any(vec)

    def _factors(self, p: Pt, q: Pt) -> bool:
        for r in self.nodes:
            if r in (p, q):
                continue
            if (p, r) in self.hom and (r, q) in self.hom and self.composite_nonzero(p, r, q):
                return True
        return False

    def path_nonzero(self, vertices: list[Pt]) -> bool:
        """Is the composite along a chain of projectives nonzero?"""
        p = vertices[0]
        tr = self.transporters[p]
        vec: list[Scalar] | None = None
        at = p
        for q in vertices[1:]:
            seg = self.rep_path(at, q)
            if seg is None:
                return False
            vec = tr.path_class(seg) if vec is None else tr.transport(vec, seg)
            if not any(vec):
                return False
            at = q
        return vec is not None and any(vec)

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
                if q == p or (p, q) not in self.hom:
                    continue
                if any(
                    z in member_set and self.composite_nonzero(p, q, z) for z in self.out_nb[q]
                ) or any(w in member_set and self.composite_nonzero(w, p, q) for w in self.in_nb[p]):
                    continue
                out.append((p, q))
        return sorted(out)


def complete_morphisms(config: Configuration, fund: list[Pt]) -> list[tuple[Pt, Pt]]:
    """All pairs (p, q) of the fundamental set carrying a complete morphism."""
    from .present import _validated_fundamental  # local to avoid an import cycle

    pq, fund = _validated_fundamental(config, fund)
    return pq.complete_pairs(fund)
