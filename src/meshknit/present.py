"""Quiver-with-relations output for the classified algebras.

The infinite selfinjective category attached to a configuration is Schurian
and has a standard presentation in which parallel paths agree; its quiver is
periodic under the Nakayama shift nu = tau^L.  A fundamental algebra is a
connected convex set of projectives meeting every nu-orbit once; folding by
nu produces the trivial extension, whose shape in type A is a Brauer quiver.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

from .classify import Pedigree
from .dynkin import loewy_number
from .errors import (
    InvalidBrauer,
    InvalidInput,
    NoSpecialArrow,
    NotAdmissible,
    NotFundamental,
    NotSink,
    NotSource,
    TooSmall,
)
from .knitting import fundamental_domain_points
from .mesh import ProjectiveQuiver, projective_quiver
from .ztquiver import AdmissibleGroup, Configuration, Pt, Section, _refusal, reach

# ---------------------------------------------------------------------------
# presentation containers


@dataclass(frozen=True)
class PArrow:
    label: str
    src: str
    dst: str
    shift: int = 0  # number of nu^{-1}-copies the arrow crosses (periodic case)


@dataclass(frozen=True)
class ZeroRel:
    path: tuple[str, ...]

    kind = "zero"


@dataclass(frozen=True)
class CommuteRel:
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    kind = "commute"


@dataclass(frozen=True)
class ScaledCommuteRel:
    """lhs = rhs + a * (rhs extended by one more loop factor); a in {0, 1}."""

    lhs: tuple[str, ...]
    rhs: tuple[str, ...]
    a: int

    kind = "scaled_commute"


@dataclass(frozen=True)
class PowerCommuteRel:
    """(lhs)^m = rhs."""

    lhs: tuple[str, ...]
    m: int
    rhs: tuple[str, ...]

    kind = "power_commute"


Relation = ZeroRel | CommuteRel | ScaledCommuteRel | PowerCommuteRel


@dataclass
class QuiverPresentation:
    points: tuple[str, ...]
    arrows: tuple[PArrow, ...]
    relations: tuple[Relation, ...]
    periodic: bool = False
    meta: dict = field(default_factory=dict)

    def arrow_by_label(self) -> dict[str, PArrow]:
        return {a.label: a for a in self.arrows}

    def to_json(self) -> str:
        data = {
            "points": list(self.points),
            "arrows": [
                {"from": a.src, "to": a.dst, "label": a.label, "shift": a.shift}
                for a in self.arrows
            ],
            "relations": [{"kind": r.kind, **vars(r)} for r in self.relations],
            "periodic": self.periodic,
        }
        return json.dumps(data, sort_keys=True)


# ---------------------------------------------------------------------------
# fundamental algebras


def _validated_fundamental(config: Configuration, points) -> tuple[ProjectiveQuiver, list[int], int]:
    """Check C1/C2, nu-transversality, connectedness and convexity; returns
    the projective quiver of the configuration, the sorted indices ``at`` of
    the points moved down k periods so that the least lies in [0, rank), and
    k.  Each point is read as the projective over it; one that is not a
    projective of the configuration has no index and is refused."""
    pq, n = projective_quiver(config), config.tree.rank
    raw = [pq.index(Pt(p.slice, p.vertex, True)) for p in points]
    if len(raw) != n:
        raise NotFundamental(f"{len(raw)} points cannot meet {n} nu-orbits once")
    if None in raw or len({a % n for a in raw}) != n:
        raise NotFundamental("points do not represent the nu-orbits of the projectives")
    return pq, *_lowered(pq, n, raw)


def _lowered(pq: ProjectiveQuiver, n: int, raw: list[int]) -> tuple[list[int], int]:
    """A transversal index set moved down k periods so that its least index
    lies in [0, n), sorted, and k; NotFundamental unless it is connected
    and convex."""
    k = min(raw) // n
    at = sorted(a - k * n for a in raw)
    defect = _shape_defect(pq, at)
    if defect:
        raise NotFundamental(defect)
    return at, k


def _shape_defect(pq: ProjectiveQuiver, at: list[int]) -> str | None:
    """Why a set of projective indices is not connected and convex in the
    quiver, or None.  Only the least offender becomes a ``Pt``, for the
    message.

    The quiver is acyclic (hom(p, q) != 0 needs a higher level at q), so the
    points on paths between members are exactly those both reachable from
    and reaching the set.  The quiver is infinite: the forward search stops
    at the highest member's level, above which nothing reaches the set, and
    the backward one at the lowest member's level, below which nothing is
    reached from it.
    """
    members = set(at)
    linked = reach(at[:1], lambda a: members.intersection(pq.heads_at(a) + pq.tails_at(a)))
    if linked != members:
        return f"points are not connected in the quiver: {pq.point(min(members - linked))} is cut off"
    lvl = pq.level_at
    bottom, top = min(map(lvl, at)), max(map(lvl, at))
    ahead = reach(at, lambda a: (b for b in pq.heads_at(a) if lvl(b) <= top))
    behind = reach(at, lambda b: (a for a in pq.tails_at(b) if lvl(a) >= bottom))
    between = ahead & behind
    if between - members:
        return f"a quiver path between points of the set leaves it at {pq.point(min(between - members))}"
    return None


def fundamental_algebras(config: Configuration) -> list[tuple[Pt, ...]]:
    """All connected convex nu-transversal projective sets, up to
    nu-translation: those whose least slice lies in [0, L).  No slice bound
    is needed: such a set is connected and has a member in [0, L), so it
    grows from that lift one quiver neighbour at a time, each of a new residue
    and of slice >= 0; the shape test keeps the convex sets so grown.  They
    grow as projective indices, whose residue is j mod rank."""
    pq, n = projective_quiver(config), config.tree.rank
    grown = {frozenset([j]) for j in range(n)}  # the lifts in [0, L)
    step = lru_cache(maxsize=None)(lambda a: [b for b in pq.heads_at(a) + pq.tails_at(a) if b >= 0])
    for _ in range(n - 1):
        grown = {s | {b} for s in grown for a in s for b in step(a) if all((b - c) % n for c in s)}
    kept = (at for at in map(sorted, grown) if _shape_defect(pq, at) is None)
    return sorted(tuple(map(pq.point, at)) for at in kept)


def _fundamental_ends(at: list[int], neighbours) -> list[int]:
    """Members with no neighbour in the set, read by ``neighbours``
    (``ProjectiveQuiver.tails_at`` for sources, ``heads_at`` for sinks)."""
    members = set(at)
    return [a for a in at if members.isdisjoint(neighbours(a))]


def fundamental_sources(config: Configuration, fund) -> list[Pt]:
    pq, at, _ = _validated_fundamental(config, fund)
    return list(map(pq.point, _fundamental_ends(at, pq.tails_at)))


def fundamental_sinks(config: Configuration, fund) -> list[Pt]:
    pq, at, _ = _validated_fundamental(config, fund)
    return list(map(pq.point, _fundamental_ends(at, pq.heads_at)))


def complete_morphisms(config: Configuration, fund) -> list[tuple[Pt, Pt]]:
    """All pairs (p, q) of the fundamental set carrying a complete morphism.

    A nonzero p -> q is complete inside the subcategory when composing with
    any of its arrows out of q, or into p, kills it.  Convexity guarantees that
    testing the quiver arrows of the ambient category with both ends in the
    set is enough.
    """
    pq, at, _ = _validated_fundamental(config, fund)
    members = set(at)
    return [
        (pq.point(a), pq.point(b))
        for a in at
        for b in at
        if pq.nonzero((a, b))
        and not any(z in members and pq.nonzero((a, b, z)) for z in pq.heads_at(b))
        and not any(w in members and pq.nonzero((w, a, b)) for w in pq.tails_at(a))
    ]


def reflect_fundamental(config: Configuration, fund, x: Pt, direction: str) -> tuple[Pt, ...]:
    """Replace a source x by its forward Nakayama translate (or a sink by
    the backward one); the result is again a fundamental algebra and the
    two moves are mutually inverse.  x may be named in ``fund`` as given or
    moved by nu as the other functions return it: the set has one member
    per residue, so either names one member.

    A source stays attached through the connecting arrow into the next
    copy, so it moves forward; a sink dually moves backward.
    """
    if direction not in ("source", "sink"):
        raise InvalidInput(f"direction must be 'source' or 'sink', got {direction!r}")
    pq, at, k = _validated_fundamental(config, fund)
    n, x = config.tree.rank, Pt(x.slice, x.vertex, True)
    a = pq.index(x)
    if a is not None and a not in at:
        a -= k * n  # x as given, moved like the set
    if direction == "source":
        if a not in _fundamental_ends(at, pq.tails_at):
            raise NotSource(f"{x} is not a source of the fundamental algebra")
        moved = a + n
    else:
        if a not in _fundamental_ends(at, pq.heads_at):
            raise NotSink(f"{x} is not a sink of the fundamental algebra")
        moved = a - n
    at, _ = _lowered(pq, n, [b for b in at if b != a] + [moved])
    return tuple(map(pq.point, at))


def is_pattern_algebra(config: Configuration, fund) -> bool:
    """Does the fundamental algebra come from a section pattern?

    True exactly when, up to nu, the set equals the configuration points of
    a fundamental domain between some section and its Nakayama shift.

    No section is searched for: the one candidate is built.  The domain of a
    section T holds the lifts (i, x) with T_x - L <= i < T_x, where T_x is
    T's slice over x.  So a member (i, x) lies behind T when T's level
    ``2 * T_x + depth(x)`` is at least 2(i + 1) + depth(x).  Raising each
    member's vertex to that bound and relaxing ``level[u] = max(level[u],
    level[w] - 1)`` over both ends of every edge, rank - 1 times, gives the
    least section S with every member behind it.  S is a section because
    sections form a lattice: adjacent levels differ by one and keep depth's
    parity, and a bound minus a tree distance keeps that parity.  A section
    T whose domain is the set has every member behind it, so T >= S, and no
    member more than L slices behind it, so none more than L behind S.  S's
    domain then contains the set; both hold one point per residue, so they
    are equal.
    """
    pq, at, _ = _validated_fundamental(config, fund)
    tree, stable = config.tree, [Pt(p.slice, p.vertex) for p in map(pq.point, at)]
    depth, level = tree.depth, dict.fromkeys(tree.vertices, -math.inf)
    for i, x, _ in stable:
        level[x] = max(level[x], 2 * (i + 1) + depth[x])
    for _ in range(tree.rank - 1):
        for u, w in tree.edges:
            level[u], level[w] = max(level[u], level[w] - 1), max(level[w], level[u] - 1)
    section = Section(tree, tuple((level[v] - depth[v]) // 2 for v in tree.vertices))
    return fundamental_domain_points(config, section) == stable


# ---------------------------------------------------------------------------
# the periodic presentation of the configuration category


def _point_name(p: Pt) -> str:
    return f"{p.slice}_{p.vertex}"


def quiver_of_AC(config: Configuration, fund) -> QuiverPresentation:
    """Periodic presentation of the configuration category.

    The quiver consists of nu-copies of the fundamental quiver plus the
    connecting arrows into the next copy; one connecting arrow exists per
    complete morphism of the fundamental algebra (for the one-vertex tree
    the completeness criterion degenerates, so arrows are always read off
    the radical-square computation directly).  Relations are the standard
    ones: zero on minimal vanishing paths, commutativity on minimal
    parallel pairs, decided by mesh-dimension tests.  They generate the
    ideal I but are not a minimal set: over one presentation per
    configuration of A3, 12 of the 27 relations follow from the others
    (ROADMAP item 3, step B).
    """
    pq, at, _ = _validated_fundamental(config, fund)
    n, members = config.tree.rank, set(at)

    found = []  # (tail, head moved into the fundamental copy, shift) as indices
    for a in at:
        for b in pq.heads_at(a):
            if b in members:
                found.append((a, b, 0))
            else:
                # An invariant of a validated set F, not an input check.  Say
                # b = f + kL for the member f of b's residue.  hom(f, f + L)
                # is the socle of f, and every nonzero a -> b extends to
                # a -> a + L.  So k >= 2 gives paths f -> f + L -> a, and k <= 0
                # a path a -> b -> f: convexity puts f + L or b in F as well.
                assert b - n in members, "arrow leaves the fundamental copy by more than one period"
                found.append((a, b - n, 1))

    names = {a: _point_name(pq.point(a)) for a in at}
    labels: dict[tuple[int, int], str] = {}
    arrows = []
    for k, (a, base, shift) in enumerate(sorted(found)):
        label = f"a{k}"
        labels[a % n, base + shift * n - a // n * n] = label
        arrows.append(PArrow(label, names[a], names[base], shift))

    relations = _standard_relations(pq, at, labels, n)
    return QuiverPresentation(
        points=tuple(names.values()),
        arrows=tuple(arrows),
        relations=tuple(relations),
        periodic=True,
        meta={"fundamental": list(names.values())},
    )


def _standard_relations(pq: ProjectiveQuiver, fund: list[int], base_labels: dict, n: int) -> list[Relation]:
    """Zero relations on minimal vanishing paths and commutativity relations
    on minimal parallel pairs, for paths starting in the base copy.  They
    generate I but are not minimal: a path-minimal zero path can follow
    from a commutativity and a shorter zero, as 12 of 27 relations do on A3.

    Paths are tuples of projective indices, in the convention of
    :class:`~meshknit.mesh.ProjectiveQuiver`, whose order is ``Pt`` order; a
    label tuple is built only for a relation.  The search extends only
    nonzero paths, and a subpath of a nonzero path is nonzero.  So
    ``path + (nxt,)`` is nonzero exactly when the composite ``path[0] ->
    path[-1] -> nxt`` is, and a zero one is minimal exactly when ``path[1:] +
    (nxt,)`` is nonzero: a single arrow, or a nonzero composite ``path[1] ->
    path[-1] -> nxt``.  That is at most two composites of three nodes per
    extension, decided by ``pq.nonzero``.  An arrow a -> b is labelled as its
    nu-translate out of the fundamental member of its tail's residue, which
    the tail's lift index a mod n and the head's offset from the start of the
    tail's period, b - (a // n) n, name.

    No length cut is needed: no nonzero path has more than L arrows.  An
    arrow c* -> d* raises the level by at least 2 (a map out of c* factors
    through its one arrow, c* -> tau^-1 c, and d* != tau^-1 c); and a nonzero
    path p -> ... -> q has hom(p, q) != 0, which pairs nondegenerately with
    hom(q, p + L) into the socle hom(p, p + L), so q is at most 2L levels up.
    """

    def labels(path) -> tuple[str, ...]:
        return tuple(base_labels[a % n, b - a // n * n] for a, b in zip(path, path[1:]))

    zeros: list[ZeroRel] = []
    parallel: dict[tuple[int, int], list[tuple[int, ...]]] = {}  # nonzero paths by ends

    def explore(path: tuple[int, ...]):
        p, last = path[0], path[-1]
        if len(path) > 1:
            parallel.setdefault((p, last), []).append(path)
        for nxt in pq.heads_at(last):
            if len(path) == 1 or pq.nonzero((p, last, nxt)):  # an arrow is nonzero
                explore(path + (nxt,))
            elif len(path) == 2 or pq.nonzero((path[1], last, nxt)):
                zeros.append(ZeroRel(labels(path + (nxt,))))

    for p in sorted(fund):
        explore((p,))

    commutes: set[CommuteRel] = set()
    for paths in parallel.values():
        pairs = [(u, v) for u, v in itertools.combinations(paths, 2) if u[1] != v[1] and u[-2] != v[-2]]
        if pairs:
            named = {u: labels(u) for u in set(itertools.chain(*pairs))}  # each path once
            commutes.update(CommuteRel(*sorted((named[u], named[v]))) for u, v in pairs)

    # translates yield identical label paths; keep the first of each
    return list(dict.fromkeys(zeros)) + sorted(commutes, key=lambda r: (r.lhs, r.rhs))


def trivial_extension_presentation(config: Configuration, fund) -> QuiverPresentation:
    """The finite presentation obtained by folding the periodic one along nu."""
    periodic = quiver_of_AC(config, fund)
    L = loewy_number(config.tree)

    def fold_name(name: str) -> str:
        i, v = name.split("_")
        return f"{int(i) % L}_{v}"

    points = tuple(sorted({fold_name(p) for p in periodic.points}))
    arrows = []
    seen_pairs = set()
    for a in periodic.arrows:
        src, dst = fold_name(a.src), fold_name(a.dst)
        # An invariant, not an input check: two arrows a -> b and a -> b + L
        # cannot both exist, since hom(a, b), hom(b, b + L) and hom(a, b + L)
        # nonzero make a -> b + L the composite a -> b -> b + L.
        assert (src, dst) not in seen_pairs, "folded quiver would carry a double arrow"
        seen_pairs.add((src, dst))
        arrows.append(PArrow(a.label, src, dst, 0))
    return QuiverPresentation(
        points=points,
        arrows=tuple(arrows),
        relations=periodic.relations,
        periodic=False,
        meta={"folded_from": dict(periodic.meta)},
    )


# ---------------------------------------------------------------------------
# Cartan matrices of admissible quotients


def cartan_matrix(config: Configuration, group: AdmissibleGroup):
    """Cartan numbers of the combinatorial quotient: entry (p, q) counts
    hom(p, g q) summed over the group, on orbit representatives, each the
    least point of its orbit in slices [0, R)."""
    pq = projective_quiver(config)
    tree = config.tree
    action = group.action(tree)
    R = action.period
    refusal = _refusal(action, config.residues, -1, R)
    if refusal is not None:
        raise NotAdmissible(f"{action.name} is not admissible: {refusal}")
    # Projective indices follow Pt order from slice 0, so the lifts of slices
    # [0, hi] have the indices 0, 1, ...  The group moves no configuration
    # point, so each representative is one of the lifts in [0, R).  S_a of a
    # lift a in [0, R) reaches slice 2L + 1 of a's period, at most hi.
    L = loewy_number(tree)
    hi = ((R - 1) // L + 2) * L + 1
    lifts = config.lifts(0, hi)
    key, index = action.orbit_key, {r: a for a, r in enumerate(lifts)}
    rep = [index[key[i % R, x]] for i, x in lifts]  # each lift's representative
    at = [a for a, r in enumerate(rep) if r == a]
    column = {a: c for c, a in enumerate(at)}
    col = [column[r] for r in rep]
    rows = [[0] * len(at) for _ in at]
    for row, a in zip(rows, at):
        for b in pq.support_at(a):  # each of these homs is 1
            row[col[b]] += 1
    reps = [Pt(*lifts[a], True) for a in at]
    matrix = {(p, q): v for p, row in zip(reps, rows) for q, v in zip(reps, row)}
    return reps, matrix


# ---------------------------------------------------------------------------
# Brauer quivers


@dataclass(frozen=True)
class BrauerQuiver:
    """A quiver partitioned into alpha- and beta-cycles, two per point in
    unreduced form, any two cycles meeting in at most one point, and the
    cycle-intersection graph a tree.  Length-one cycles are loops; the
    reduced form omits them."""

    points: tuple
    alpha_cycles: tuple[tuple, ...]
    beta_cycles: tuple[tuple, ...]
    reduced: bool = False
    special: tuple | None = None  # (src, dst) of a designated special arrow

    def cycles(self) -> list[tuple[str, tuple]]:
        return [("alpha", c) for c in self.alpha_cycles] + [
            ("beta", c) for c in self.beta_cycles
        ]

    def arrows(self) -> list[tuple[object, object, str]]:
        return [(a, b, flavor) for flavor, c in self.cycles() for a, b in zip(c, [*c[1:], *c[:1]])]


def validate_brauer(q: BrauerQuiver) -> None:
    names = sorted(map(str, q.points))  # presentations name a point by str(p)
    if clash := next((a for a, b in zip(names, names[1:]) if a == b), None):
        raise InvalidBrauer(f"two points are named {clash!r}")
    flavors_at: dict[object, list[str]] = {p: [] for p in q.points}
    cycles = q.cycles()
    for flavor, cyc in cycles:
        if len(set(cyc)) != len(cyc):
            raise InvalidBrauer("a cycle passes through a point twice")
        for p in cyc:
            if p not in flavors_at:
                raise InvalidBrauer(f"cycle point {p} is not a quiver point")
            flavors_at[p].append(flavor)
    least = 1 if q.reduced else 2
    for p, flavors in flavors_at.items():
        if not least <= len(flavors) <= 2:
            raise InvalidBrauer(f"point {p} lies on {len(flavors)} cycles")
    edges = 0
    for (_, c1), (_, c2) in itertools.combinations(cycles, 2):
        shared = len(set(c1) & set(c2))
        if shared > 1:
            raise InvalidBrauer("two cycles share more than one point")
        edges += shared
    # the cycle graph must be a tree
    if edges != len(cycles) - 1:
        raise InvalidBrauer("cycle-intersection graph is not a tree")
    sets = [set(c) for _, c in cycles]
    if len(reach([0], lambda k: (j for j, cj in enumerate(sets) if sets[k] & cj))) != len(sets):
        raise InvalidBrauer("cycle-intersection graph is not connected")
    for p, flavors in flavors_at.items():
        if len(set(flavors)) < len(flavors):
            raise InvalidBrauer(f"point {p} lies on two {flavors[0]}-cycles")


# -- pedigrees to Brauer quivers and back


def _pedigree_nodes(p, ident: str = "r"):
    """The node ids by tree position: the root is 'r', and a beta- or
    alpha-child appends 'b' or 'a' to its parent's id."""
    yield ident
    if p.beta:
        yield from _pedigree_nodes(p.beta, ident + "b")
    if p.alpha:
        yield from _pedigree_nodes(p.alpha, ident + "a")


def brauer_from_pedigree(pedigree) -> BrauerQuiver:
    """Close the maximal alpha- and beta-paths of a pedigree into cycles;
    points missing a cycle of one flavor receive a loop of that flavor."""
    if pedigree.size < 2:
        raise TooSmall("the one-point case is the double loop; excluded")
    ids = set(_pedigree_nodes(pedigree))

    def paths(step: str) -> list[tuple[str, ...]]:
        """The maximal paths s, s+step, s+step+step, ... of node ids, one
        from every id that does not end in step."""
        return [
            tuple(itertools.takewhile(ids.__contains__, (s + step * k for k in itertools.count())))
            for s in ids
            if not s.endswith(step)
        ]

    # beta arrows run child -> parent, so cycles read the paths deepest-first
    bq = BrauerQuiver(
        points=tuple(sorted(ids)),
        alpha_cycles=tuple(sorted(paths("a"))),
        beta_cycles=tuple(sorted(path[::-1] for path in paths("b"))),
    )
    validate_brauer(bq)
    return bq


def pedigree_from_brauer(q: BrauerQuiver, omega) -> Pedigree:
    """Rebuild the pedigree of all self-avoiding walks from omega that use
    alpha-arrows forward and beta-arrows backward."""
    validate_brauer(q)
    if q.reduced:
        raise InvalidBrauer("walk reconstruction expects the unreduced quiver")
    if omega not in q.points:
        raise InvalidBrauer(f"{omega} is not a point of the quiver")
    alpha_next = {a: b for a, b, flavor in q.arrows() if flavor == "alpha"}
    beta_prev = {b: a for a, b, flavor in q.arrows() if flavor == "beta"}

    children: dict[object, dict[str, object]] = {p: {} for p in q.points}
    reached = {omega}
    walks = [(omega, (omega,))]
    while walks:
        here, visited = walks.pop()
        for kind, nxt in (("alpha", alpha_next.get(here)), ("beta", beta_prev.get(here))):
            if nxt is None or nxt in visited:
                continue
            if nxt in reached:
                raise InvalidBrauer("two walks reach the same point")
            reached.add(nxt)
            children[here][kind] = nxt
            walks.append((nxt, visited + (nxt,)))
    if reached != set(q.points):
        raise InvalidBrauer("walks from the base point miss some points")

    def build(p) -> Pedigree:
        return Pedigree(**{kind: build(child) for kind, child in children[p].items()})

    return build(omega)


# -- presentations of (exceptional) Brauer quiver algebras


def _cycle_label(flavor: str, src, dst) -> str:
    return f"{flavor[0]}:{src}>{dst}"


def _zeta(point, flavor: str, cyc: tuple) -> tuple[str, ...]:
    """The labels of the path once around cyc, from point back to it."""
    k = cyc.index(point)
    order = [*cyc[k:], *cyc[:k], point]
    return tuple(_cycle_label(flavor, a, b) for a, b in zip(order, order[1:]))


def _cycle_arrows(cycles) -> dict[PArrow, str]:
    """Each arrow of the (flavor, cycle) pairs, in cycle order, to its flavor."""
    return {
        PArrow(_cycle_label(flavor, a, b), str(a), str(b), 0): flavor
        for flavor, cyc in cycles
        for a, b in zip(cyc, [*cyc[1:], *cyc[:1]])
    }


def _mixed_zeros(points, arrows, flavor: dict[PArrow, str]) -> list[Relation]:
    """A length-two path that changes cycle flavor at a point vanishes; the
    paths come point by point, each end in the order of arrows."""
    return [
        ZeroRel((a.label, b.label))
        for p in points
        for a in arrows
        if a.dst == p
        for b in arrows
        if b.src == p and flavor[a] != flavor[b]
    ]


def _exceptional_cycle(q: BrauerQuiver, cycle: tuple, m: int) -> tuple:
    """The cycle as a tuple, once it is a cycle of q and m >= 1."""
    exc = tuple(cycle)
    if exc not in [c for _, c in q.cycles()]:
        raise InvalidBrauer(f"{exc} is not a cycle of the quiver")
    if m < 1:
        raise InvalidBrauer(f"the multiplicity must be at least 1, got m = {m}")
    return exc


def exceptional_cycle_presentation(q: BrauerQuiver, cycle: tuple, m: int) -> QuiverPresentation:
    """Presentation of the Brauer-quiver algebra with one exceptional cycle:
    mixed length-two paths vanish and the two cycle paths at each point
    agree, the exceptional one raised to the m-th power.  m = 1 is the plain
    Brauer-quiver algebra."""
    validate_brauer(q)
    if q.reduced:
        raise InvalidBrauer("the presentation expects the unreduced quiver")
    cycles = q.cycles()
    exc = _exceptional_cycle(q, cycle, m)
    points = tuple(str(p) for p in q.points)
    flavor = _cycle_arrows(cycles)
    arrows = tuple(flavor)
    relations = _mixed_zeros(points, arrows, flavor)
    for p in q.points:
        # the exceptional cycle's path first, when p lies on it
        (c1, z1), (_, z2) = sorted(
            ((c, _zeta(p, f, c)) for f, c in cycles if p in c), key=lambda cz: cz[0] != exc
        )
        if c1 == exc and m > 1:
            relations.append(PowerCommuteRel(z1, m, z2))
        else:
            relations.append(CommuteRel(*sorted((z1, z2))))
    return QuiverPresentation(
        points=points,
        arrows=arrows,
        relations=tuple(relations),
        meta={"exceptional_cycle": [str(p) for p in cycle], "multiplicity": m},
    )


def exceptional_cover(q: BrauerQuiver, cycle: tuple, m: int) -> BrauerQuiver:
    """The Z/m-cover: the exceptional cycle unrolls m-fold, every other
    cycle lifts to m disjoint copies."""
    validate_brauer(q)
    if q.reduced:
        raise InvalidBrauer("the cover expects the unreduced quiver")
    special = _exceptional_cycle(q, cycle, m)
    lifted: dict[str, list[tuple]] = {"alpha": [], "beta": []}
    for flavor, cyc in q.cycles():
        copies = [tuple((p, j) for p in cyc) for j in range(m)]
        lifted[flavor] += [sum(copies, ())] if cyc == special else copies
    points = tuple(sorted(((p, j) for p in q.points for j in range(m)), key=str))
    cover = BrauerQuiver(points, tuple(sorted(lifted["alpha"])), tuple(sorted(lifted["beta"])))
    validate_brauer(cover)
    return cover


# -- the exceptional quotients in type D_{3m}


def d3m_quotient_presentations(q: BrauerQuiver) -> tuple[QuiverPresentation, QuiverPresentation]:
    """Contract the special arrow of a reduced Brauer quiver into a loop and
    emit the two candidate presentations, differing only in the scalar of
    the loop relation."""
    validate_brauer(q)
    if not q.reduced:
        raise InvalidBrauer("the construction expects a reduced Brauer quiver")
    if q.special is None:
        raise NoSpecialArrow("no special arrow designated")
    src, dst = q.special
    cycles = q.cycles()
    host = next(((f, c) for f, c in cycles if (src, dst) in zip(c, [*c[1:], *c[:1]])), None)
    if host is None:
        raise NoSpecialArrow(f"{q.special} is not an arrow of the quiver")
    flavor, cyc = host
    if len(cyc) < 3:
        raise NoSpecialArrow("a special arrow needs a cycle of length at least three")
    if any(sum(p in c for _, c in cycles) > 1 for p in (src, dst)):
        raise NoSpecialArrow("the endpoints of a special arrow must have order two")
    if clash := [p for p in q.points if str(p) == "c0" and p not in (src, dst)]:
        raise InvalidBrauer(f"c0 names the contracted point; {clash[0]!r} is not an end of the special arrow")

    # rotate so the cycle reads (dst=c0, c1, ..., ct, src); contraction glues
    # src onto c0 and turns the special arrow into the loop gamma
    k = cyc.index(dst)
    c0, *mid, last = [*cyc[k:], *cyc[:k]]
    # holds by construction: (src, dst) is a step of the cycle, and
    # validate_brauer refused a cycle through a point twice
    assert last == src
    # the other cycles avoid src and dst, whose order is one
    others = [(f, c) for f, c in cycles if c != cyc]

    ring = ["c0", *map(str, mid), "c0"]
    ring_arrows = [PArrow(f"al{i}", a, b, 0) for i, (a, b) in enumerate(zip(ring, ring[1:]), start=1)]
    # gamma and the ring keep the flavor of the contracted cycle
    flavors = {PArrow("gamma", "c0", "c0", 0): flavor, **dict.fromkeys(ring_arrows, flavor)}
    flavors.update(_cycle_arrows(others))
    arrows = tuple(flavors)
    points = tuple(sorted({a.src for a in arrows} | {a.dst for a in arrows}))
    ring_labels = tuple(a.label for a in ring_arrows)

    relations: list[Relation] = [
        ZeroRel(("gamma",) * 4),
        ZeroRel((ring_labels[-1], ring_labels[0])),
        *_mixed_zeros(points, arrows, flavors),
    ]
    # socle relations away from the loop point; the socle path around the
    # contracted cycle passes gamma at c0
    loop = ring_labels + ("gamma",)
    zetas: dict[str, list[tuple[str, ...]]] = {}
    for j, p in enumerate(mid, start=1):
        zetas.setdefault(str(p), []).append(loop[j:] + loop[:j])
    for f, c in others:
        for p in c:
            zetas.setdefault(str(p), []).append(_zeta(p, f, c))
    for p, zs in sorted(zetas.items()):
        if p == "c0":
            continue
        for z in zs:
            relations += [ZeroRel(z + (a.label,)) for a in arrows if a.src == p]
            relations += [ZeroRel((a.label,) + z) for a in arrows if a.dst == p]
        if len(zs) == 2:
            relations.append(CommuteRel(*sorted(zs)))

    meta = {"loop": "gamma", "contracted": [str(src), str(dst)]}
    a0, a1 = (
        QuiverPresentation(
            points,
            arrows,
            (ScaledCommuteRel(ring_labels, ("gamma", "gamma"), a), *relations),
            meta=dict(meta, a=a),
        )
        for a in (0, 1)
    )
    return a0, a1
