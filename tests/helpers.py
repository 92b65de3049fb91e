"""Shared test utilities, including the naive reference oracle.

``naive_hom_dim`` enumerates every path between two window points and builds
the full relation matrix (one row per ``q . mesh-sum . p`` combination),
returning path count minus rank.  It shares no code with the incremental
transporter; it anchors the oracle itself on small windows.  ``path_exists``
is a plain depth-first search, the reference for reachability.
``ReferenceWindow`` is the window constructor as it stood before points
were shared, building a fresh ``Pt`` wherever one is needed; it is the
reference for ``QuiverWindow``.  ``reference_is_admissible`` is the orbit
test as it stood before the orbit map, ``reference_witness`` the orbit map's
cone refusal as it stood before the band scan, ``reference_fold`` the
quotient as it stood before it read one period of slices (every window point,
arrow and tau pair mapped to its representative in the window's middle band),
and ``orbit_by_iteration`` lists orbit points by stepping a group's
generator, with no closed form.  ``orbit_cases`` lists the (tree,
configuration, group) triples the orbit test is swept over.
``reference_starting_function`` is ``mesh.starting_function`` as it stood
before its walk moved onto an int plan of stable points: the dict-keyed
recurrence over the window's level order, projectives included; it is the
reference for the plan-based walk.
``OnDemand`` is a dict that computes a missing value on first read, used to
build one transporter per node only when a test reads it.
``natural_map`` is the map hom(r, -) -> hom(p, -) that a morphism p -> r
induces, built from the transporters of p and r with no path search, and
``composite_nonzero`` pushes the class of a chain of projectives through it
one node at a time: the exact oracle for ``ProjectiveQuiver.path_nonzero``.
``eager_projective_quiver`` is the projective quiver computed in full, one
fresh transporter per node, with composites decided by
``composite_nonzero``, and ``closure_domain`` the fundamental domain found by
two reachability closures in a window; they are the references for the
on-demand ``ProjectiveQuiver`` and the closed-form
``fundamental_domain_points``.  ``reference_standard_relations`` finds the
relations of a periodic presentation by deciding every labelled path as a
whole chain, the reference for the relation search of ``quiver_of_AC``.
``reference_pt_relations`` is that search as it stood on ``Pt`` chains,
before it moved onto projective indices, with each composite decided from
``hom`` reads; it is the reference for the index search's output order.
``reference_cartan_matrix`` is ``present.cartan_matrix`` as it stood before
it read the support masks: each representative's hom support rebuilt as
points from its row, summed by ``hom``.
``edge_rule_section`` orients a section edge by edge from slice differences,
and ``greedy_knit_toward`` knits by moving the least movable live orbit one
step at a time, within a step budget the caller gives (the tests give the
former 6 * L * rank); they are the references for the level function of
``Section`` and for the level-ordered passes and derived L-pass bound of
``knit_pattern``.  ``reference_knit_run`` is ``knit_run`` as it stood before
the shared kernel ``knitting._knit``: it stops once the vector has repeated
across a period, with a 6L-pass guard, writing every cell and knot of its
trace as the sweep meets it; it is the reference for the trace ``knit_run``
builds from the kernel's pass vectors over exactly 2L passes.
``reference_knit_knots`` is ``knitting._knit_knots`` as it stood when it knit
all 2L passes, the reference for the run that knits L and shifts them.
``reflections`` lists the fundamental algebras one source or sink reflection
away from a given one, and ``reflection_closure`` every one reached by
repeating them: the search that joins the fundamental algebras of a
configuration, with no step cap.
``presentation_isomorphic`` decides whether two finite presentations are
isomorphic as quivers with relations, by digraph matching.
``reference_period`` is ``Configuration.period`` as it stood when it built a
shifted configuration per divisor of L; it is the reference for the period
read off the residue set directly.
``reference_reach`` is the reach relation of the residues as residue sets,
read off ``_stable_support`` with no mask; ``reference_axioms`` is C1/C2 on
it, and ``reference_moved`` the residues a group's generator moves off a set,
found through the generator's affine map.  They are the references for the
mask check and ``GroupAction.moved``, and share no code with the mask table.
``reference_bruteforce`` is ``classify._enumerate_bruteforce`` as it stood
before the exact-cover search: a search for independent sets of exactly rank
points, filtered by the covering axiom; it reads ``reference_reach`` and is
the reference for that search.
``reference_extend_automorphism`` is ``ztquiver.extend_automorphism`` as it
stood while graph automorphisms were vertex permutations, the reference for
the maps ``tree_automorphisms`` returns; ``reference_representative`` is
the least point of an orbit in a band of slices, a minimum over the
generator's powers.  The orbit-test, witness, fold and Cartan references
key orbits by it, so they share no code with ``GroupAction.orbit_key``,
the table they check.
``reference_classes`` is ``classify.configurations_up_to_aut`` as it stood
before residue sets became masks: each acting map applied to the residues,
the lexicographically least member of each orbit its representative, and
the configurations taken in ``reference_order``, by sorted residue tuple,
the order ``enumerate_configurations`` lists.
``count_windows`` records every ``QuiverWindow`` construction and every
explicit build of a window's points and arrows while a test runs.
``reference_pedigree_vector`` is ``pedigree_dimension_vector`` as it stood
before each pedigree kept its vector: one in-order walk of the whole tree
(beta subtree, node, alpha subtree), each node given its depth plus one.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product, starmap
from types import SimpleNamespace

import networkx as nx
from networkx.algorithms.isomorphism import DiGraphMatcher

from meshknit.classify import _acting_maps
from meshknit.dynkin import AffineMap, DynkinTree, flip_automorphism, loewy_number, make_tree
from meshknit.errors import EmptyRange, InvalidDimensionVector, WindowTooSmall
from meshknit.knitting import KnitTrace, _knit, knit_pattern
from meshknit.linalg import RationalEchelon
from meshknit.mesh import MeshTransporter, projective_quiver
from meshknit.present import (
    CommuteRel,
    QuiverPresentation,
    ScaledCommuteRel,
    ZeroRel,
    _validated_fundamental,
    fundamental_sinks,
    fundamental_sources,
    reflect_fundamental,
)
from meshknit.ztquiver import (
    AdmissibleGroup,
    Configuration,
    Pt,
    QuiverWindow,
    Residue,
    _as_residues,
    _stable_support,
    build_window,
    plus_admissible_enumeration,
    reach,
    table_groups,
)


def all_paths(window, x, y):
    out = []
    target_level = window.level[y]

    def dfs(p, acc):
        if p == y:
            out.append(tuple(acc))
            return
        for q in sorted(window.out_nb[p]):
            if window.level[q] <= target_level:
                dfs(q, acc + [q])

    dfs(x, [x])
    return out


def path_exists(window, x, y) -> bool:
    """Depth-first search for a path x -> y inside the window."""
    seen = {x}
    stack = [x]
    while stack:
        p = stack.pop()
        if p == y:
            return True
        for q in window.out_nb[p]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return False


def naive_hom_dim(window, x, y) -> int:
    paths = all_paths(window, x, y)
    if not paths:
        return 0
    index = {p: i for i, p in enumerate(paths)}
    ech = RationalEchelon()
    for z in sorted(window.points):
        if z.proj:
            continue
        tz = window.tau.get(z)
        if tz is None:
            continue
        middles = [w for w in window.in_nb[z] if w in window.out_nb.get(tz, [])]
        if not middles:
            continue
        for front in all_paths(window, x, tz):
            for back in all_paths(window, z, y):
                row: dict[int, Fraction] = {}
                for w in middles:
                    whole = front + (w,) + back
                    if whole in index:
                        row[index[whole]] = row.get(index[whole], Fraction(0)) + 1
                if row:
                    ech.insert(row)
    return len(paths) - ech.rank


def count_windows(monkeypatch) -> SimpleNamespace:
    """From now until the test ends, ``made`` gets the arguments of each
    ``QuiverWindow`` construction and ``built`` each window whose six explicit
    fields are built."""
    counts = SimpleNamespace(made=[], built=[])
    init, build = QuiverWindow.__init__, QuiverWindow._build
    monkeypatch.setattr(QuiverWindow, "__init__", lambda w, *a: counts.made.append(a) or init(w, *a))
    monkeypatch.setattr(QuiverWindow, "_build", lambda w: counts.built.append(w) or build(w))
    return counts


class ReferenceWindow:
    """The window constructor before points were shared: the same fields as
    ``QuiverWindow``, each point built afresh wherever it is used."""

    def __init__(self, tree, config, i_min: int, i_max: int):
        if i_min > i_max:
            raise EmptyRange(f"slice range [{i_min}, {i_max}] is empty")
        self.tree = tree
        self.residues = _as_residues(tree, config)
        self.i_min = i_min
        self.i_max = i_max
        L = loewy_number(tree)
        depth = tree.depth

        pts: set[Pt] = set()
        for i in range(i_min, i_max + 1):
            for x in tree.vertices:
                pts.add(Pt(i, x))
                if (i % L, x) in self.residues:
                    pts.add(Pt(i, x, True))

        arrows: list[tuple[Pt, Pt]] = []
        for i in range(i_min, i_max + 1):
            for lo, hi in tree.edges:
                arrows.append((Pt(i, lo), Pt(i, hi)))
                if i + 1 <= i_max:
                    arrows.append((Pt(i, hi), Pt(i + 1, lo)))
        for p in sorted(pts):
            if p.proj:
                base = Pt(p.slice, p.vertex)
                arrows.append((base, p))
                succ = Pt(p.slice + 1, p.vertex)
                if succ in pts:
                    arrows.append((p, succ))

        self.points = frozenset(pts)
        self.arrows = tuple(sorted(arrows))
        self.tau = {
            Pt(i, x): Pt(i - 1, x)
            for i in range(i_min + 1, i_max + 1)
            for x in tree.vertices
        }
        self.level = {p: 2 * p.slice + depth[p.vertex] + (1 if p.proj else 0) for p in pts}
        self.out_nb: dict[Pt, list[Pt]] = {p: [] for p in pts}
        self.in_nb: dict[Pt, list[Pt]] = {p: [] for p in pts}
        for a, b in self.arrows:
            self.out_nb[a].append(b)
            self.in_nb[b].append(a)

    @cached_property
    def order(self) -> tuple[Pt, ...]:
        """The points sorted by ``(level, point)``: every arrow goes forward."""
        lvl = self.level
        return tuple(sorted(self.points, key=lambda p: (lvl[p], p)))

    @property
    def projectives(self) -> list[Pt]:
        return sorted(p for p in self.points if p.proj)


def _acts_on_window(group, window) -> bool:
    """The group acts on the decorated quiver iff it maps the configured
    point set onto itself."""
    g = group.generator_map(window.tree).mod(loewy_number(window.tree))
    return frozenset(starmap(g, window.residues)) == window.residues


def reference_is_admissible(group, window) -> bool:
    """Orbit test: no orbit may meet ``{x} u x+`` or ``{x} u x-`` twice."""
    tree = window.tree
    action = group.action(tree)
    if window.i_max - window.i_min + 1 < action.period + 2:
        raise WindowTooSmall(
            f"window of {window.i_max - window.i_min + 1} slices cannot hold a "
            f"fundamental domain of {group.name(tree)} plus margins"
        )
    if not _acts_on_window(group, window):
        return False
    if not action.period:
        return False  # finite orbits: a nontrivial power fixes every point

    key = {p: reference_representative(action, p) for p in window.points}
    for p in window.points:
        for nbs in (window.out_nb[p], window.in_nb[p]):
            cone = [p, *nbs]
            if len({key[q] for q in cone}) < len(cone):
                return False
    return True


def reference_witness(group, window) -> str | None:
    """The orbit map's cone refusal as it stood before the band scan: every
    window point in sorted order, keyed by canonical orbit representatives;
    None when no cone meets an orbit twice."""
    action = group.action(window.tree)
    for p in sorted(window.points):
        for cone in ([p, *window.out_nb[p]], [p, *window.in_nb[p]]):
            keys = [reference_representative(action, q) for q in cone]
            if len(set(keys)) < len(cone):
                j = next(j for j, k in enumerate(keys) if k in keys[:j])
                return f"{cone[keys.index(keys[j])]} and {cone[j]} next to {p} lie in one orbit"
    return None


def reference_fold(group, window):
    """The points, arrows, tau and projectives of the quotient of an
    admissible window, each point mapped to the least point of its orbit in
    the band of ``period`` slices from ``i_min + (span - period) // 2``."""
    action = group.action(window.tree)
    band_lo = window.i_min + (window.i_max - window.i_min + 1 - action.period) // 2
    band = {p: reference_representative(action, p, band_lo) for p in window.points}
    tau = {}
    for p, q in sorted(window.tau.items()):
        tau.setdefault(band[p], band[q])
    return (
        tuple(sorted(set(band.values()))),
        tuple(sorted({(band[a], band[b]) for a, b in window.arrows})),
        tau,
        tuple(sorted({band[p] for p in window.points if p.proj})),
    )


def orbit_by_iteration(group, tree, p, lo: int, hi: int) -> set:
    """The points of p's orbit with slice in [lo, hi], by stepping the
    generator g and its inverse one point at a time; needs infinite orbits."""
    g = group.generator_map(tree)
    preimage = {}  # x -> (slice offset, y) with g(i, y) = (i + offset, x)
    for y in tree.vertices:
        j, x = g(0, y)
        preimage[x] = (j, y)
    # the order d of g's permutation, the translation T of g^d, and the
    # largest slice offset of g^r for r < d
    images = {v: (0, v) for v in tree.vertices}
    d, smax = 0, 0
    while True:
        images = {v: g(*images[v]) for v in tree.vertices}
        d += 1
        if all(y == v for v, (_, y) in images.items()):
            break
        smax = max(smax, *(abs(j) for j, _ in images.values()))
    T = images[1][0]
    assert T, "finite orbits"
    bound = d * ((hi - lo + abs(p.slice - lo) + smax) // abs(T) + 2)
    steps = (g, lambda i, x: (i - preimage[x][0], preimage[x][1]))
    orbit = {p} if lo <= p.slice <= hi else set()
    for step in steps:
        i, x = p.slice, p.vertex
        for _ in range(bound):
            i, x = step(i, x)
            if lo <= i <= hi:
                orbit.add(Pt(i, x, p.proj))
    return orbit


def orbit_cases(configs):
    """Every ``table_groups(s_max=2)`` group of every configuration of A2-A5,
    D4 and D5, then groups the orbit test refuses: tau^0, tau^0 * phi on A3,
    the glide on A2 and A4 with and without a configuration, and a twist that
    moves the configuration.  ``configs(name)`` lists a tree's configurations."""
    for name in ["A2", "A3", "A4", "A5", "D4", "D5"]:
        tree = make_tree(name[0], int(name[1]))
        for config in configs(name):
            for group in table_groups(tree, config, s_max=2):
                yield tree, config, group
    a3 = make_tree("A", 3)
    flip = AdmissibleGroup(0, flip_automorphism(a3))
    for config in (None, configs("A3")[0]):
        yield a3, config, AdmissibleGroup(0)
        yield a3, config, flip
    moved = next(c for c in configs("A3") if not flip.stabilizes(c))
    yield a3, moved, AdmissibleGroup(3, flip.twist)
    for tree in (make_tree("A", 2), make_tree("A", 4)):
        for config in [None, *configs(tree.name)]:
            yield tree, config, AdmissibleGroup(0, glide=True)


def reference_starting_function(tree, x, window=None) -> dict:
    """The nonzero hom dimensions from ``x`` by the knitting recurrence,
    walked over the window's level order: each non-projective point ``z``
    gets ``max(0, sum over in-neighbors - value at tau z)``, a projective
    ``c*`` copies the value at ``c``; the walk stops at the first point two
    levels above the highest nonzero value.  Without a window, it builds the
    stable window of slices [x.slice, x.slice + L + 1]."""
    if window is None:
        window = build_window(tree, None, x.slice, x.slice + loewy_number(tree) + 1)
    if x not in window.points:
        raise WindowTooSmall(f"window does not contain the source {x}")
    lvl, in_nb, tau, order = window.level, window.in_nb, window.tau, window.order
    svals: dict[Pt, int] = {x: 1}
    top = lvl[x]  # the highest level holding a nonzero value
    for p in order[order.index(x) + 1 :]:
        if lvl[p] > top + 1:
            break
        if p.proj:
            v = svals.get(Pt(p.slice, p.vertex), 0)
        else:
            v = sum(svals.get(w, 0) for w in in_nb[p]) - svals.get(tau.get(p), 0)
        if v > 0:
            svals[p] = v
            top = lvl[p]
    return svals


def reference_pedigree_vector(p) -> tuple[int, ...]:
    """The depth plus one of each node of a pedigree, in order."""
    out = []

    def walk(node, depth):
        if node.beta:
            walk(node.beta, depth + 1)
        out.append(depth + 1)
        if node.alpha:
            walk(node.alpha, depth + 1)

    walk(p, 0)
    return tuple(out)


class OnDemand(dict):
    """A dict that computes a missing value by ``fill(key)`` on first read."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def natural_map(tr_p, tr_r, v=(1,)) -> dict:
    """The natural map hom(r, -) -> hom(p, -) induced by the morphism p -> r
    whose class in ``tr_p`` at r is ``v``, for transporters ``tr_p`` and
    ``tr_r`` on one window.  At each point z of r's support it is a list of
    columns, one per basis vector of hom(r, z), each a class of ``tr_p`` at z.

    It is built in r's level order from ``[v]`` at r.  A basis vector f at z
    is the image of a basis vector j at an in-neighbour w
    (``tr_r.free_cols``), and naturality gives M_z e_f = A^p_{w->z} M_w e_j,
    with A^p the arrow matrix of ``tr_p``.  No path is searched."""
    cols = {tr_r.source: [list(v)]}
    for z, basis in tr_r.free_cols.items():
        cols[z] = [tr_p.apply_arrow(w, z, cols[w][j]) for w, j in basis]
    return cols


def composite_nonzero(tr, chain, memo=None) -> bool:
    """Is the composite of basis maps along a chain of projectives nonzero?
    ``tr`` maps a node to its transporter, all on one window.  The class [1]
    of chain[0] -> chain[1] is pushed one node at a time: at each later node
    r, the natural map of chain[0] -> r, induced by the class so far, takes
    the basis of hom(r, q) to the class of the chain up to the next node q.
    ``memo`` keeps the natural maps by (chain[0], r, class)."""
    memo = {} if memo is None else memo
    p = chain[0]
    v = [1] if tr[p].dim(chain[1]) else [0]
    for r, q in zip(chain[1:], chain[2:]):
        if not any(v):
            return False
        key = (p, r, tuple(v))
        if key not in memo:
            memo[key] = natural_map(tr[p], tr[r], v)
        cols = memo[key].get(q)
        if not cols:  # hom(r, q) = 0
            return False
        v = cols[0]
    return any(v)


def eager_projective_quiver(config, i_lo: int, i_hi: int):
    """hom, arrows, out_nb and in_nb among the projective lifts in slices
    [i_lo, i_hi], every pair computed: one fresh transporter per node, all hom
    values, and the radical-square test on every nonzero pair, deciding each
    composite by the natural map (``composite_nonzero``).  hom values are not
    bounded here."""
    L = loewy_number(config.tree)
    window = build_window(config.tree, config, i_lo - 1, i_hi + L + 2)
    nodes = [Pt(i, x, True) for i, x in config.lifts(i_lo, i_hi)]
    tr = {p: MeshTransporter(window, p) for p in nodes}
    hom = {(p, q): tr[p].dim(q) for p in nodes for q in nodes if q != p and tr[p].dim(q)}
    memo = {}
    arrows = [
        (p, q)
        for p, q in sorted(hom)
        if not any(
            (p, r) in hom and (r, q) in hom and composite_nonzero(tr, [p, r, q], memo)
            for r in nodes
            if r not in (p, q)
        )
    ]
    out_nb = {p: [q for a, q in arrows if a == p] for p in nodes}
    in_nb = {q: [p for p, b in arrows if b == q] for q in nodes}
    return hom, arrows, out_nb, in_nb


def reference_cartan_matrix(config, group):
    """The Cartan numbers of an admissible quotient as ``(reps, matrix)``:
    entry (p, q) sums hom(p, t) over the projectives t of the support of
    hom(p, -) whose representative is q, with the support read as points off
    the row of p."""
    pq, tree = projective_quiver(config), config.tree
    L, n = loewy_number(tree), tree.rank
    action = group.action(tree)
    lifts = config.lifts(0, action.period - 1)
    reps = list(dict.fromkeys(reference_representative(action, Pt(i, x, True)) for i, x in lifts))
    matrix = dict.fromkeys(product(reps, reps), 0)
    for p in reps:
        first, row = pq.row(p)
        stable = [Pt(first + j // n, j % n + 1) for j, v in enumerate(row) if v]
        for t in [p, *(Pt(s, x, True) for s, x, _ in stable if (s % L, x) in config.residues)]:
            matrix[(p, reference_representative(action, t))] += pq.hom(p, t)
    return reps, matrix


def closure_domain(config, section):
    """Configuration points behind the section and ahead of its shift by L
    slices down, as the intersection of two reach closures in a window."""
    L = loewy_number(config.tree)
    lo = min(section.levels) - L - 1
    hi = max(section.levels) + 1
    window = build_window(config.tree, config, lo, hi)
    behind = reach(section.points(), window.in_nb.__getitem__)
    ahead = reach(section.shifted(-L).points(), window.out_nb.__getitem__)
    between = (behind & ahead) - set(section.points())
    return [Pt(i, x) for i, x in config.lifts(lo + 1, hi) if Pt(i, x) in between]


def reference_standard_relations(config, pres) -> tuple:
    """The relations of a periodic presentation from ``quiver_of_AC``, found
    again from its arrows alone.

    Every labelled path from the base copy is decided as a whole chain by
    ``composite_nonzero``, in fresh transporters, one per node.  A zero path
    is a relation when dropping its first or its last arrow leaves a nonzero
    path; a zero path is not extended, since every extension has a zero
    prefix, and no length is cut off.  Nonzero paths with the same ends, apart at
    both ends, commute.  Zero relations come in walk order, the first of
    equal label paths kept; commutativity relations sorted.
    """
    L = loewy_number(config.tree)

    def point(name, shift=0):
        i, x = map(int, name.split("_"))
        return Pt(i + shift * L, x, True)

    fund = sorted(point(name) for name in pres.meta["fundamental"])
    i_lo = min(p.slice for p in fund)
    i_hi = max(p.slice for p in fund) + 2 * L + 1
    nodes = {Pt(i, x, True) for i, x in config.lifts(i_lo, i_hi)}
    window = build_window(config.tree, config, i_lo - 1, i_hi + L + 2)
    label = {}
    for a in pres.arrows:
        src, dst = point(a.src), point(a.dst, a.shift)
        for k in range(4):
            ka, kb = Pt(src.slice + k * L, src.vertex, True), Pt(dst.slice + k * L, dst.vertex, True)
            if ka in nodes and kb in nodes:
                label[(ka, kb)] = a.label

    tr, memo = OnDemand(lambda p: MeshTransporter(window, p)), {}

    def labels(chain):
        return tuple(label[(a, b)] for a, b in zip(chain, chain[1:]))

    zeros, parallel = [], {}

    def walk(chain):
        for nxt in sorted(b for a, b in label if a == chain[-1]):
            longer = chain + (nxt,)
            if composite_nonzero(tr, longer, memo):
                parallel.setdefault((longer[0], nxt), []).append(longer)
                walk(longer)
            elif composite_nonzero(tr, longer[1:], memo):
                zeros.append(ZeroRel(labels(longer)))

    for p in fund:
        walk((p,))
    commutes = {
        CommuteRel(*sorted((labels(u), labels(v))))
        for paths in parallel.values()
        for u, v in combinations(sorted(paths), 2)
        if u[1] != v[1] and u[-2] != v[-2]
    }
    return tuple(dict.fromkeys(zeros)) + tuple(sorted(commutes, key=lambda r: (r.lhs, r.rhs)))


def reference_pt_relations(config, pres) -> list:
    """The relations of a periodic presentation from ``quiver_of_AC``, found
    again by ``present._standard_relations`` as it stood on ``Pt`` chains: the
    same depth-first search over ``heads_at`` from the sorted fundamental set,
    an arrow labelled by its tail's residue and its head's slice offset and
    vertex.  A chain is decided by the composite rule read from ``hom``
    (every consecutive hom nonzero, and every hom out of the first node), not
    by the support masks, so no mask code is shared with the index search."""
    pq, L = projective_quiver(config), loewy_number(config.tree)

    def point(name, shift=0):
        i, x = map(int, name.split("_"))
        return Pt(i + shift * L, x, True)

    base_labels = {}
    for arrow in pres.arrows:
        a, b = point(arrow.src), point(arrow.dst, arrow.shift)
        base_labels[a.slice % L, a.vertex, b.slice - a.slice, b.vertex] = arrow.label

    def nonzero(chain):
        return all(pq.hom(a, b) and pq.hom(chain[0], b) for a, b in zip(chain, chain[1:]))

    def labels(path):
        return tuple(base_labels[a.slice % L, a.vertex, b.slice - a.slice, b.vertex] for a, b in zip(path, path[1:]))

    zeros, parallel = [], {}

    def explore(path):
        p, last = path[0], path[-1]
        if len(path) > 1:
            parallel.setdefault((p, last), []).append(tuple(path))
        for nxt in map(pq.point, pq.heads_at(pq.index(last))):
            cand = path + [nxt]
            if nonzero([p, nxt] if len(path) == 1 else [p, last, nxt]):
                explore(cand)
            elif len(path) == 2 or nonzero([path[1], last, nxt]):
                zeros.append(ZeroRel(labels(cand)))

    for p in sorted(point(name) for name in pres.meta["fundamental"]):
        explore([p])
    commutes = set()
    for (p, q), paths in sorted(parallel.items()):
        for u, v in combinations(sorted(paths), 2):
            if u[1] != v[1] and u[-2] != v[-2]:
                commutes.add(CommuteRel(*sorted((labels(u), labels(v)))))
    return list(dict.fromkeys(zeros)) + sorted(commutes, key=lambda r: (r.lhs, r.rhs))


def edge_rule_section(tree, levels):
    """``(sources, sinks)`` of the slice tuple ``levels``, or None when it is
    not a section.  Along a canonical edge ``(lo, hi)`` the slices must
    satisfy ``slice(lo) - slice(hi) in {0, 1}``: equality gives the arrow
    ``lo -> hi``, a difference of one the arrow ``hi -> lo``."""
    arrows = []
    for lo, hi in tree.edges:
        gap = levels[lo - 1] - levels[hi - 1]
        if gap not in (0, 1):
            return None
        arrows.append((lo, hi) if gap == 0 else (hi, lo))
    targets = {b for _, b in arrows}
    starts = {a for a, _ in arrows}
    return (
        [v for v in tree.vertices if v not in targets],
        [v for v in tree.vertices if v not in starts],
    )


def greedy_knit_toward(tree, section, dims, d, budget):
    """Knit from the section backward (``d = -1``) or forward (``d = 1``)
    until every orbit has ended; return the end points and all dimensions.

    Each step moves the least live orbit whose live neighbours all sit one
    arrow ahead of it in direction ``d``.  Canonical edges satisfy lo < hi,
    so the neighbour over ``y`` of a point ``(l, x)`` in direction ``d`` sits
    at slice ``l + off``: ``off = (y < x)`` forward and ``-(y > x)``
    backward."""
    name = "forward" if d > 0 else "backward"
    nbrs = {
        x: tuple((y, (y < x) if d > 0 else -(y > x)) for y in ys)
        for x, ys in tree.neighbors.items()
    }
    levels = [0, *section.levels]
    values = [0, *dims]
    live = [False] + [True] * tree.rank
    recorded = {Pt(levels[v], v): values[v] for v in tree.vertices}
    ends = set()

    def can_move(x):
        l = levels[x]
        for y, off in nbrs[x]:
            if live[y] and levels[y] - l != off:
                assert levels[y] - l == off - d, "live fragment lost sectional shape"
                return False
        return True

    steps = 0
    while len(ends) < tree.rank:
        steps += 1
        if steps > budget:
            raise InvalidDimensionVector(f"{name} knitting does not terminate")
        x = next(v for v in tree.vertices if live[v] and can_move(v))
        l = levels[x]
        s = sum(recorded.get(Pt(l + off, y), 0) for y, off in nbrs[x]) - values[x]
        if s >= 1:
            levels[x] = l + d
            values[x] = s
            recorded[Pt(l + d, x)] = s
        elif s == -1:
            ends.add(Pt(l, x))
            live[x] = False
        else:
            raise InvalidDimensionVector(f"{name} count {s} at vertex {x}: not a pattern vector")
    return ends, recorded


def reference_knit_run(tree, section, dims):
    """Run the knit-and-knot loop on a validated pattern vector.

    The run stops as soon as the dimension vector repeats across one full
    period of section shifts (the knot pattern then repeats too, which is
    asserted), or refuses after 6L passes without a repeat.
    """
    knit_pattern(tree, section, dims)  # raises on invalid vectors
    L = loewy_number(tree)
    max_shifts = 6 * L
    # Every pass raises each level by one, so each later pass starts from a
    # translate of the section and the same source order is valid again.
    order = plus_admissible_enumeration(section)
    sweep = [(x, section.slice_of(x), tree.neighbors[x]) for x in order]
    trace = KnitTrace(section0=section, order=[])
    cells, knots, projective_dims = trace.cells, trace.knots, trace.projective_dims
    for v in tree.vertices:
        cells[section.point_of(v)] = dims[v - 1]
    trace.shift_vectors.append(dims)
    values = list(dims)

    detected = None
    shift = 0
    while True:
        for x, level, nbrs in sweep:
            s = sum(values[y - 1] for y in nbrs) - values[x - 1]
            if s > 0:
                values[x - 1] = s
            else:
                p = Pt(level + shift, x)
                if s != -1:
                    raise InvalidDimensionVector(f"knot count {s} at {p}: vector is inconsistent")
                knots.append(p)
                projective_dims[p] = values[x - 1] + 1
            cells[Pt(level + shift + 1, x)] = values[x - 1]
        trace.order.extend(order)
        shift += 1
        trace.shift_vectors.append(tuple(values))
        if detected is None and shift >= L and trace.shift_vectors[shift] == trace.shift_vectors[shift - L]:
            detected = shift
            trace.periodic_after = detected
        if detected is not None and shift >= detected + L:
            break
        if detected is None and shift >= max_shifts:
            raise InvalidDimensionVector("knit-and-knot run never became periodic")

    def knot_block(first_shift):
        pts = set()
        for p in trace.knots:
            rel = p.slice - section.slice_of(p.vertex)
            if first_shift <= rel < first_shift + L:
                pts.add((p.slice, p.vertex))
        return frozenset(pts)

    first = knot_block(detected - L)
    second = knot_block(detected)
    assert second == frozenset((i + L, x) for i, x in first), (
        "knot blocks fail to repeat after the dimension vector does"
    )
    assert len(first) == tree.rank, (
        f"period block holds {len(first)} knots, expected {tree.rank}"
    )

    config = Configuration(tree, {(i % L, x) for i, x in first})
    return config, trace


def reference_knit_knots(tree, section, dims):
    """The knit-and-knot run of a validated vector: its configuration, its
    knots as ``(slice, vertex, projective dimension)`` and its pass vectors,
    all 2L passes knitted; the first half of the knots lifts the
    configuration."""
    L = loewy_number(tree)
    knots = []
    vectors = _knit(section, dims, 1, 2 * L, knots)
    if vectors[L] != vectors[0]:
        raise InvalidDimensionVector(f"knit-and-knot run does not repeat after {L} passes")
    config = Configuration(tree, [(i, x) for i, x, _ in knots[: len(knots) // 2]])
    return config, knots, vectors


def reflections(config, fund) -> list[tuple[Pt, ...]]:
    """The fundamental algebras one source or sink reflection away from ``fund``."""
    return [reflect_fundamental(config, fund, x, "source") for x in fundamental_sources(config, fund)] + [
        reflect_fundamental(config, fund, x, "sink") for x in fundamental_sinks(config, fund)
    ]


def normalized(config, fund) -> tuple[Pt, ...]:
    """A fundamental algebra of ``config`` moved by nu to its least slice in [0, L)."""
    pq, at, _ = _validated_fundamental(config, fund)
    return tuple(map(pq.point, at))


def reflection_closure(config, fund) -> set[tuple[Pt, ...]]:
    """Every fundamental algebra reached from ``fund`` by source and sink
    reflections, ``fund`` included, each moved by nu to its least slice in [0, L)."""
    return reach([normalized(config, fund)], lambda f: reflections(config, f))


def _relation_pointform(pres: QuiverPresentation, mapping: dict[str, str]):
    """Relations as point sequences under a vertex mapping."""
    by_label = pres.arrow_by_label()

    def path_points(path):
        pts = [mapping[by_label[path[0]].src]]
        for lab in path:
            pts.append(mapping[by_label[lab].dst])
        return tuple(pts)

    out = set()
    for r in pres.relations:
        if isinstance(r, ZeroRel):
            out.add(("zero", path_points(r.path)))
        elif isinstance(r, CommuteRel):
            out.add(("commute", frozenset((path_points(r.lhs), path_points(r.rhs)))))
        elif isinstance(r, ScaledCommuteRel):
            out.add(
                ("scaled", frozenset((path_points(r.lhs), path_points(r.rhs))), r.a)
            )
        else:
            out.add(("power", path_points(r.lhs), r.m, path_points(r.rhs)))
    return out


def presentation_isomorphic(p1: QuiverPresentation, p2: QuiverPresentation) -> bool:
    """Quiver-with-relations isomorphism via digraph matching."""
    if len(p1.points) != len(p2.points) or len(p1.arrows) != len(p2.arrows):
        return False
    g1, g2 = nx.DiGraph(), nx.DiGraph()
    g1.add_nodes_from(p1.points)
    g2.add_nodes_from(p2.points)
    for a in p1.arrows:
        g1.add_edge(a.src, a.dst)
    for a in p2.arrows:
        g2.add_edge(a.src, a.dst)
    ident = {p: p for p in p2.points}
    target = _relation_pointform(p2, ident)
    for mapping in DiGraphMatcher(g1, g2).isomorphisms_iter():
        if _relation_pointform(p1, mapping) == target:
            return True
    return False


def reference_period(config) -> int:
    """Smallest e >= 1 with tau^e C = C, tried over the divisors of L by
    building each shifted configuration through an affine map."""
    L = config.modulus
    for e in sorted(d for d in range(1, L + 1) if L % d == 0):
        if config.shifted(e).residues == config.residues:
            return e
    return L


@lru_cache(maxsize=None)
def reference_reach(tree: DynkinTree) -> dict[Residue, frozenset[Residue]]:
    """For each fundamental-domain residue, the residues its homs can hit,
    read off the stable supports as residue sets."""
    L = loewy_number(tree)
    return {
        (i, x): frozenset(((i + p.slice) % L, p.vertex) for p in _stable_support(tree, x))
        for i in range(L)
        for x in tree.vertices
    }


def reference_axioms(tree: DynkinTree, residues) -> tuple[bool, str | None]:
    """C2 (no member reaches another), then C1 (every residue reaches a
    member), on the residues reduced mod L, all of which must be residues."""
    L, hits = loewy_number(tree), reference_reach(tree)
    E = frozenset((i % L, x) for i, x in residues)
    if any(hits[e] & E - {e} for e in E):
        return False, "C2"
    if not all(hits[u] & E for u in hits):
        return False, "C1"
    return True, None


def reference_moved(group: AdmissibleGroup, tree: DynkinTree, residues) -> list[Residue]:
    """The residues whose image under the group's generator, slice reduced
    mod L, lies off the set, least first."""
    g, L = group.generator_map(tree), loewy_number(tree)
    images = {r: g(*r) for r in residues}
    return sorted(r for r, (j, y) in images.items() if (j % L, y) not in residues)


def reference_bruteforce(tree: DynkinTree) -> set[frozenset[Residue]]:
    """Independent-set search over the pair-exclusion graph of one
    fundamental domain, filtered by the covering axiom C1."""
    L = loewy_number(tree)
    universe = [(i, x) for i in range(L) for x in tree.vertices]
    index = {u: k for k, u in enumerate(universe)}
    m = len(universe)
    reach = reference_reach(tree)

    conflict = [0] * m
    for u in universe:
        for v in reach[u]:
            if v != u:
                conflict[index[u]] |= 1 << index[v]
                conflict[index[v]] |= 1 << index[u]

    covered_by = [0] * m  # covered_by[u] = residues whose support contains u
    for u in universe:
        for v in reach[u]:
            covered_by[index[u]] |= 1 << index[v]

    results: set[frozenset[Residue]] = set()
    want = tree.rank
    full = (1 << m) - 1

    def dfs(start: int, chosen: list[int], chosen_mask: int, banned: int):
        if len(chosen) == want:
            if all(covered_by[k] & chosen_mask for k in range(m)):
                results.add(frozenset(universe[k] for k in chosen))
            return
        avail = full & ~banned & ~((1 << start) - 1)
        if bin(avail).count("1") + len(chosen) < want:
            return
        pool = chosen_mask | avail
        for k in range(m):
            if not (covered_by[k] & pool):
                return
        for k in range(start, m):
            bit = 1 << k
            if avail & bit:
                dfs(k + 1, chosen + [k], chosen_mask | bit, banned | bit | conflict[k])

    dfs(0, [], 0, 0)
    return results


def reference_order(residue_sets) -> list:
    """The residue sets sorted by their sorted residue tuples."""
    return sorted(residue_sets, key=sorted)


def reference_classes(tree: DynkinTree, configs) -> list[tuple]:
    """``(representative residues, orbit size, stabiliser names)`` per class,
    in the order of each class's least given member: every orbit found by
    applying each acting map, its least member the representative."""
    maps = _acting_maps(tree)
    seen: set[frozenset[Residue]] = set()
    out = []
    for res in reference_order(c.residues for c in configs):
        if res in seen:
            continue
        orbit = {frozenset(starmap(m, res)) for _, m in maps}
        seen |= orbit
        rep = min(orbit, key=sorted)
        stab = tuple(name for name, m in maps if frozenset(starmap(m, rep)) == rep)
        out.append((rep, len(orbit), stab))
    return out


def reference_extend_automorphism(tree: DynkinTree, mapping: tuple[int, ...]) -> AffineMap:
    """The tree automorphism ``v -> mapping[v - 1]`` extended to the
    translation quiver, with the per-vertex slice correction that keeps every
    arrow an arrow."""
    depth = tree.depth
    kappa = (depth[mapping[0]] - depth[1]) % 2
    return AffineMap(
        (0,) + tuple((depth[v] - depth[mapping[v - 1]] + kappa) // 2 for v in tree.vertices),
        (0,) + tuple(mapping),
    )


def reference_representative(action, p: Pt, lo: int = 0) -> Pt:
    """The least point of p's orbit with slice in [lo, lo + period), the
    minimum over ``action.powers``; a finite orbit by its least point."""
    x, P = p.vertex, action.period
    if not P:
        return min(Pt(p.slice + g.shift[x], g.perm[x], p.proj) for g in action.powers)
    return min(
        Pt(lo + (p.slice + g.shift[x] - lo) % P, g.perm[x], p.proj) for g in action.powers
    )
