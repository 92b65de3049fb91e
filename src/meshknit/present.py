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
from dataclasses import dataclass, field

from .classify import _require_configuration
from .dynkin import loewy_number
from .errors import (
    InvalidBrauer,
    NoSpecialArrow,
    NotAdmissible,
    NotFundamental,
    NotSink,
    NotSource,
    TooSmall,
)
from .mesh import ProjectiveQuiver, starting_function
from .ztquiver import AdmissibleGroup, Configuration, Pt, _orbit_map, build_window, reach

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
        rels = []
        for r in self.relations:
            if isinstance(r, ZeroRel):
                rels.append({"kind": "zero", "path": list(r.path)})
            elif isinstance(r, CommuteRel):
                rels.append({"kind": "commute", "lhs": list(r.lhs), "rhs": list(r.rhs)})
            elif isinstance(r, ScaledCommuteRel):
                rels.append(
                    {"kind": "scaled_commute", "lhs": list(r.lhs), "rhs": list(r.rhs), "a": r.a}
                )
            else:
                rels.append(
                    {"kind": "power_commute", "lhs": list(r.lhs), "m": r.m, "rhs": list(r.rhs)}
                )
        data = {
            "points": list(self.points),
            "arrows": [
                {"from": a.src, "to": a.dst, "label": a.label, "shift": a.shift}
                for a in self.arrows
            ],
            "relations": rels,
            "periodic": self.periodic,
        }
        return json.dumps(data, sort_keys=True)


# ---------------------------------------------------------------------------
# fundamental algebras


def _normalize_min_shift(config: Configuration, points) -> tuple[Pt, ...]:
    """nu-translate a projective set so its smallest slice lies in [0, L)."""
    L = loewy_number(config.tree)
    lo = min(p.slice for p in points)
    k = lo // L
    return tuple(sorted(Pt(p.slice - k * L, p.vertex, True) for p in points))


def _validated_fundamental(
    config: Configuration, points, above: int = 0
) -> tuple[ProjectiveQuiver, tuple[Pt, ...]]:
    """Check connectedness, convexity and nu-transversality; returns the
    ambient projective quiver, reaching ``above`` slices above the set (the
    verdicts do not depend on it: paths between members stay in their band),
    and the normalized point set."""
    tree = config.tree
    L = loewy_number(tree)
    fund = _normalize_min_shift(config, [Pt(p.slice, p.vertex, True) for p in points])
    if len(fund) != tree.rank:
        raise NotFundamental(f"{len(fund)} points cannot meet {tree.rank} nu-orbits once")
    orbits = {(p.slice % L, p.vertex) for p in fund}
    if len(orbits) != tree.rank or orbits != config.residues:
        raise NotFundamental("points do not represent the nu-orbits of the projectives")
    i_lo = min(p.slice for p in fund)
    i_hi = max(p.slice for p in fund)
    pq = ProjectiveQuiver(config, i_lo, i_hi + above)
    if any(p not in pq.nodes for p in fund):
        raise NotFundamental("some points are not projectives of the configuration")
    defect = _shape_defect(pq, fund)
    if defect:
        raise NotFundamental(defect)
    return pq, fund


def _shape_defect(pq: ProjectiveQuiver, points: tuple[Pt, ...]) -> str | None:
    """Why a projective set is not connected and convex in the quiver, or None.

    The quiver is acyclic (hom(p, q) != 0 needs a higher level at q), so the
    points on paths between members are exactly those both reachable from
    and reaching the set.
    """
    members = set(points)
    linked = reach(points[:1], lambda p: members.intersection(pq.out_nb[p] + pq.in_nb[p]))
    if linked != members:
        return f"points are not connected in the quiver: {min(members - linked)} is cut off"
    between = reach(points, pq.out_nb.__getitem__) & reach(points, pq.in_nb.__getitem__)
    if between - members:
        return f"a quiver path between points of the set leaves it at {min(between - members)}"
    return None


def fundamental_algebras(config: Configuration) -> list[tuple[Pt, ...]]:
    """All connected convex nu-transversal projective sets, up to
    nu-translation, searched inside a window of three periods."""
    _require_configuration(config)
    tree = config.tree
    L = loewy_number(tree)
    pq = ProjectiveQuiver(config, 0, 3 * L - 1)
    residues = sorted(config.residues)
    out = []
    for shifts in itertools.product(range(3), repeat=len(residues)):
        if min(shifts) != 0:
            continue
        cand = tuple(
            sorted(Pt(i + k * L, x, True) for (i, x), k in zip(residues, shifts))
        )
        if _shape_defect(pq, cand) is None:
            out.append(cand)
    return sorted(out)


def _fundamental_ends(config: Configuration, fund, side: str) -> list[Pt]:
    """Members with no ``side`` neighbour (``in_nb`` or ``out_nb``) in the set."""
    pq, fund = _validated_fundamental(config, fund)
    neighbours = getattr(pq, side)
    return sorted(p for p in fund if not set(neighbours[p]).intersection(fund))


def fundamental_sources(config: Configuration, fund) -> list[Pt]:
    return _fundamental_ends(config, fund, "in_nb")


def fundamental_sinks(config: Configuration, fund) -> list[Pt]:
    return _fundamental_ends(config, fund, "out_nb")


def reflect_fundamental(config: Configuration, fund, x: Pt, direction: str) -> tuple[Pt, ...]:
    """Replace a source x by its forward Nakayama translate (or a sink by
    the backward one); the result is again a fundamental algebra and the
    two moves are mutually inverse.

    A source stays attached through the connecting arrow into the next
    copy, so it moves forward; a sink dually moves backward.
    """
    L = loewy_number(config.tree)
    x = Pt(x.slice, x.vertex, True)
    if direction == "source":
        if x not in fundamental_sources(config, fund):
            raise NotSource(f"{x} is not a source of the fundamental algebra")
        moved = Pt(x.slice + L, x.vertex, True)
    elif direction == "sink":
        if x not in fundamental_sinks(config, fund):
            raise NotSink(f"{x} is not a sink of the fundamental algebra")
        moved = Pt(x.slice - L, x.vertex, True)
    else:
        raise ValueError("direction must be 'source' or 'sink'")
    new = [p for p in fund if p != x] + [moved]
    _, normalized = _validated_fundamental(config, new)
    return normalized


def _all_section_shapes(tree) -> list[tuple[int, ...]]:
    """Level tuples of all sections with vertex 1 anchored at slice 0."""
    shapes: list[dict[int, int]] = [{1: 0}]
    for lo, hi in tree.edges:  # edges are listed parent-first per construction
        new = []
        for partial in shapes:
            anchor = partial.get(lo)
            if anchor is not None:
                for l_hi in (anchor, anchor - 1):
                    ext = dict(partial)
                    ext[hi] = l_hi
                    new.append(ext)
            else:
                anchor = partial[hi]
                for l_lo in (anchor, anchor + 1):
                    ext = dict(partial)
                    ext[lo] = l_lo
                    new.append(ext)
        shapes = new
    return [tuple(s[v] for v in tree.vertices) for s in shapes]


def is_pattern_algebra(config: Configuration, fund) -> bool:
    """Does the fundamental algebra come from a section pattern?

    True exactly when, up to translation, the set equals the configuration
    points of a fundamental domain between some section and its Nakayama
    shift.
    """
    from .knitting import fundamental_domain_points
    from .ztquiver import Section

    _, fund = _validated_fundamental(config, fund)

    def profile(points) -> tuple:
        lo = min(p[0] for p in points)
        return tuple(sorted((i - lo, x) for i, x in points))

    target = profile([(p.slice, p.vertex) for p in fund])
    for levels in _all_section_shapes(config.tree):
        section = Section(config.tree, levels)
        domain = fundamental_domain_points(config, section)
        if profile([(p.slice, p.vertex) for p in domain]) == target:
            return True
    return False


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
    parallel pairs, decided by mesh-dimension tests.
    """
    _require_configuration(config)
    tree = config.tree
    L = loewy_number(tree)
    # wide ambient quiver: the base copy plus two more periods for relations
    pq, fund = _validated_fundamental(config, fund, above=2 * L + 1)
    complete = pq.complete_pairs(fund)
    fund_set = set(fund)

    internal = []
    connecting = []
    for a, b in pq.arrows:
        if a not in fund_set:
            continue
        if b in fund_set:
            internal.append((a, b, 0))
        else:
            base = Pt(b.slice - L, b.vertex, True)
            assert base in fund_set, "arrow leaves the fundamental copy by more than one period"
            connecting.append((a, base, 1))

    labels: dict[tuple[Pt, Pt], str] = {}
    arrows = []
    for k, (a, base_dst, shift) in enumerate(sorted(internal + connecting)):
        label = f"a{k}"
        actual_dst = Pt(base_dst.slice + shift * L, base_dst.vertex, True)
        labels[(a, actual_dst)] = label
        arrows.append(PArrow(label, _point_name(a), _point_name(base_dst), shift))

    relations = _standard_relations(pq, fund, labels, L)
    return QuiverPresentation(
        points=tuple(_point_name(p) for p in fund),
        arrows=tuple(arrows),
        relations=tuple(relations),
        periodic=True,
        meta={
            "complete_morphisms": [(_point_name(p), _point_name(q)) for p, q in complete],
            "fundamental": [_point_name(p) for p in fund],
        },
    )


def _standard_relations(pq: ProjectiveQuiver, fund, base_labels, L) -> list[Relation]:
    """Zero relations on minimal vanishing paths and commutativity relations
    on minimal parallel pairs, for paths starting in the base copy."""
    # unroll the labelled arrows over enough nu-copies
    node_set = set(pq.nodes)
    arrow_label: dict[tuple[Pt, Pt], str] = {}
    for (a, b), lab in base_labels.items():
        for k in range(0, 4):
            ka = Pt(a.slice + k * L, a.vertex, True)
            kb = Pt(b.slice + k * L, b.vertex, True)
            if ka in node_set and kb in node_set:
                arrow_label[(ka, kb)] = lab
    out_arrows: dict[Pt, list[Pt]] = {}
    for a, b in arrow_label:
        out_arrows.setdefault(a, []).append(b)

    zeros: list[ZeroRel] = []
    nonzero_paths: dict[tuple[Pt, Pt], list[tuple[Pt, ...]]] = {}

    def explore(path: list[Pt]):
        p = path[0]
        if len(path) > 1:
            nonzero_paths.setdefault((p, path[-1]), []).append(tuple(path))
        if len(path) - 1 > L + 1:
            return
        for nxt in sorted(out_arrows.get(path[-1], ())):
            cand = path + [nxt]
            if pq.path_nonzero(cand):
                explore(cand)
            else:
                if len(cand) == 2 or pq.path_nonzero(cand[1:]):
                    zeros.append(ZeroRel(tuple(arrow_label[(u, v)] for u, v in zip(cand, cand[1:]))))

    for p in sorted(fund):
        explore([p])

    commutes: set[CommuteRel] = set()
    for (p, q), paths in sorted(nonzero_paths.items()):
        if len(paths) < 2:
            continue
        for u, v in itertools.combinations(sorted(paths), 2):
            if u[1] != v[1] and u[-2] != v[-2]:
                lu = tuple(arrow_label[(a, b)] for a, b in zip(u, u[1:]))
                lv = tuple(arrow_label[(a, b)] for a, b in zip(v, v[1:]))
                commutes.add(CommuteRel(*sorted((lu, lv))))

    # deduplicate zero relations (translates yield identical label paths)
    seen = set()
    uniq_zeros = []
    for z in zeros:
        if z.path not in seen:
            seen.add(z.path)
            uniq_zeros.append(z)
    return uniq_zeros + sorted(commutes, key=lambda r: (r.lhs, r.rhs))


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
    hom(p, g q) summed over the group, on orbit representatives."""
    _require_configuration(config)
    tree = config.tree
    L = loewy_number(tree)
    R = group.action(tree).period
    window = build_window(tree, config, -1, R + 2 * L + 2)
    key, refusal = _orbit_map(group, window)
    if refusal is not None:
        raise NotAdmissible(f"{group.name(tree)} is not admissible: {refusal}")

    # one orbit key per projective orbit, in the order the orbits are met
    reps = list(dict.fromkeys(key[Pt(i, x, True)] for i, x in config.lifts(0, R - 1)))
    orbits = {q: [t for t in window.projectives if key[t] == q] for q in reps}
    matrix: dict[tuple[Pt, Pt], int] = {}
    for p in reps:
        hom = starting_function(tree, p, window)
        for q in reps:
            matrix[(p, q)] = sum(hom[t] for t in orbits[q])
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
        out = []
        for flavor, cyc in self.cycles():
            for i, p in enumerate(cyc):
                out.append((p, cyc[(i + 1) % len(cyc)], flavor))
        return out


def validate_brauer(q: BrauerQuiver) -> None:
    counts = {p: 0 for p in q.points}
    cycles = q.cycles()
    for _, cyc in cycles:
        if len(set(cyc)) != len(cyc):
            raise InvalidBrauer("a cycle passes through a point twice")
        for p in cyc:
            if p not in counts:
                raise InvalidBrauer(f"cycle point {p} is not a quiver point")
            counts[p] += 1
    limit = (1, 2) if q.reduced else (2, 2)
    for p, c in counts.items():
        if not (limit[0] <= c <= limit[1]):
            raise InvalidBrauer(f"point {p} lies on {c} cycles")
    for (f1, c1), (f2, c2) in itertools.combinations(cycles, 2):
        if len(set(c1) & set(c2)) > 1:
            raise InvalidBrauer("two cycles share more than one point")
    # the cycle graph must be a tree
    edges = sum(
        1
        for (f1, c1), (f2, c2) in itertools.combinations(cycles, 2)
        if set(c1) & set(c2)
    )
    if edges != len(cycles) - 1:
        raise InvalidBrauer("cycle-intersection graph is not a tree")
    sets = [set(c) for _, c in cycles]
    if len(reach([0], lambda k: (j for j, cj in enumerate(sets) if sets[k] & cj))) != len(sets):
        raise InvalidBrauer("cycle-intersection graph is not connected")


# -- pedigrees to Brauer quivers and back


def _pedigree_nodes(p):
    """Assign stable node ids by tree position; the root is 'r'."""
    nodes = {}

    def walk(node, ident):
        nodes[ident] = node
        if node.beta:
            walk(node.beta, ident + "b")
        if node.alpha:
            walk(node.alpha, ident + "a")

    walk(p, "r")
    return nodes


def brauer_from_pedigree(pedigree) -> BrauerQuiver:
    """Close the maximal alpha- and beta-paths of a pedigree into cycles;
    points missing a cycle of one flavor receive a loop of that flavor."""
    if pedigree.size < 2:
        raise TooSmall("the one-point case is the double loop; excluded")
    nodes = _pedigree_nodes(pedigree)
    alpha_next = {}
    beta_prev = {}
    for ident, node in nodes.items():
        if node.alpha:
            alpha_next[ident] = ident + "a"
        if node.beta:
            beta_prev[ident] = ident + "b"

    def chains(step: dict[str, str]) -> list[list[str]]:
        starts = [i for i in nodes if i not in {v for v in step.values()}]
        out = []
        for s in starts:
            chain = [s]
            while chain[-1] in step:
                chain.append(step[chain[-1]])
            out.append(chain)
        return out

    alpha_cycles = [tuple(c) for c in chains(alpha_next)]
    # beta arrows run child -> parent, so cycles read the chains deepest-first
    beta_cycles = [
        tuple(reversed(chain))
        for chain in chains({parent: child for parent, child in beta_prev.items()})
    ]
    bq = BrauerQuiver(
        points=tuple(sorted(nodes)),
        alpha_cycles=tuple(sorted(alpha_cycles)),
        beta_cycles=tuple(sorted(beta_cycles)),
    )
    validate_brauer(bq)
    return bq


def pedigree_from_brauer(q: BrauerQuiver, omega) -> "Pedigree":
    """Rebuild the pedigree of all self-avoiding walks from omega that use
    alpha-arrows forward and beta-arrows backward."""
    from .classify import Pedigree

    validate_brauer(q)
    if q.reduced:
        raise InvalidBrauer("walk reconstruction expects the unreduced quiver")
    if omega not in q.points:
        raise InvalidBrauer(f"{omega} is not a point of the quiver")
    alpha_next = {}
    beta_prev = {}
    for a, b, flavor in q.arrows():
        if flavor == "alpha":
            alpha_next[a] = b
        else:
            beta_prev[b] = a

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
        kids = children[p]
        return Pedigree(
            beta=build(kids["beta"]) if "beta" in kids else None,
            alpha=build(kids["alpha"]) if "alpha" in kids else None,
        )

    return build(omega)


# -- presentations of (exceptional) Brauer quiver algebras


def _cycle_label(flavor: str, src, dst) -> str:
    return f"{flavor[0]}:{src}>{dst}"


def _zeta(q: BrauerQuiver, point, flavor: str, cyc: tuple) -> tuple[str, ...]:
    k = cyc.index(point)
    order = [cyc[(k + j) % len(cyc)] for j in range(len(cyc))] + [point]
    return tuple(_cycle_label(flavor, a, b) for a, b in zip(order, order[1:]))


def exceptional_cycle_presentation(q: BrauerQuiver, cycle: tuple, m: int) -> QuiverPresentation:
    """Presentation of the Brauer-quiver algebra with one exceptional cycle:
    mixed length-two paths vanish and the two cycle paths at each point
    agree, the exceptional one raised to the m-th power.  m = 1 is the plain
    Brauer-quiver algebra."""
    validate_brauer(q)
    cycles = q.cycles()
    assert any(tuple(cycle) == c for _, c in cycles), "cycle must belong to the quiver"
    arrows = tuple(
        PArrow(_cycle_label(flavor, a, b), str(a), str(b), 0) for a, b, flavor in q.arrows()
    )
    relations: list[Relation] = []
    in_arrows: dict[object, list[tuple[object, str]]] = {p: [] for p in q.points}
    out_arrows: dict[object, list[tuple[object, str]]] = {p: [] for p in q.points}
    for a, b, flavor in q.arrows():
        out_arrows[a].append((b, flavor))
        in_arrows[b].append((a, flavor))
    for p in q.points:
        for (a, fin) in in_arrows[p]:
            for (b, fout) in out_arrows[p]:
                if fin != fout:
                    relations.append(
                        ZeroRel((_cycle_label(fin, a, p), _cycle_label(fout, p, b)))
                    )
    exc = tuple(cycle)
    for p in q.points:
        containing = [(flavor, c) for flavor, c in cycles if p in c]
        assert len(containing) == 2
        (f1, c1), (f2, c2) = containing
        z1, z2 = _zeta(q, p, f1, c1), _zeta(q, p, f2, c2)
        if exc in (c1, c2) and m > 1:
            z_exc, z_other = (z1, z2) if c1 == exc else (z2, z1)
            relations.append(PowerCommuteRel(z_exc, m, z_other))
        else:
            relations.append(CommuteRel(*sorted((z1, z2))))
    return QuiverPresentation(
        points=tuple(str(p) for p in q.points),
        arrows=arrows,
        relations=tuple(relations),
        meta={"exceptional_cycle": [str(p) for p in cycle], "multiplicity": m},
    )


def exceptional_cover(q: BrauerQuiver, cycle: tuple, m: int) -> BrauerQuiver:
    """The Z/m-cover: the exceptional cycle unrolls m-fold, every other
    cycle lifts to m disjoint copies."""
    validate_brauer(q)
    cycles = q.cycles()
    special = tuple(cycle)

    def lift_point(p, j):
        return (p, j % m)

    alpha, beta = [], []
    for flavor, cyc in cycles:
        dest = alpha if flavor == "alpha" else beta
        if cyc == special:
            big = []
            for j in range(m):
                big.extend(lift_point(p, j) for p in cyc)
            dest.append(tuple(big))
        else:
            for j in range(m):
                dest.append(tuple(lift_point(p, j) for p in cyc))
    points = tuple(sorted({p for c in alpha + beta for p in c}, key=str))
    lifted = BrauerQuiver(points, tuple(sorted(alpha)), tuple(sorted(beta)))
    validate_brauer(lifted)
    return lifted


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
    host = None
    for flavor, cyc in cycles:
        pairs = list(zip(cyc, cyc[1:] + (cyc[0],)))
        if (src, dst) in pairs:
            host = (flavor, cyc)
            break
    if host is None:
        raise NoSpecialArrow(f"{q.special} is not an arrow of the quiver")
    flavor, cyc = host
    if len(cyc) < 3:
        raise NoSpecialArrow("a special arrow needs a cycle of length at least three")
    on_two = {p for f, c in cycles for p in c if sum(p in cc for _, cc in cycles) > 1}
    if src in on_two or dst in on_two:
        raise NoSpecialArrow("the endpoints of a special arrow must have order two")

    # rotate so the cycle reads (dst=c0, c1, ..., ct, src); contraction glues
    # src onto c0 and turns the special arrow into the loop gamma
    k = cyc.index(dst)
    ordered = [cyc[(k + j) % len(cyc)] for j in range(len(cyc))]
    assert ordered[-1] == src
    c0, *mid = ordered[:-1]
    t = len(mid)

    def pname(p):
        return "c0" if p in (c0, src) else str(p)

    gamma = PArrow("gamma", "c0", "c0", 0)
    ring = [c0] + mid + [c0]
    ring_arrows = [
        PArrow(f"al{i}", pname(a), pname(b), 0)
        for i, (a, b) in enumerate(zip(ring, ring[1:]), start=1)
    ]
    other_arrows = []
    other_cycles = []
    for f2, c2 in cycles:
        if c2 == cyc:
            continue
        other_cycles.append((f2, c2))
        pairs = list(zip(c2, c2[1:] + (c2[0],)))
        for a, b in pairs:
            other_arrows.append(PArrow(_cycle_label(f2, a, b), pname(a), pname(b), 0))
    arrows = tuple([gamma] + ring_arrows + other_arrows)
    points = tuple(sorted({a.src for a in arrows} | {a.dst for a in arrows}))

    ring_labels = tuple(a.label for a in ring_arrows)

    def zeta_bar(p) -> tuple[str, ...]:
        """Socle path around the contracted cycle, gamma inserted at c0."""
        j = ([c0] + mid).index(p)
        seq = ring_labels[j:] + ("gamma",) + ring_labels[:j]
        return seq

    by_label = {a.label: a for a in arrows}

    def relations_for(a_val: int) -> tuple[Relation, ...]:
        rels: list[Relation] = [
            ScaledCommuteRel(ring_labels, ("gamma", "gamma"), a_val),
            ZeroRel(("gamma",) * 4),
            ZeroRel((ring_labels[-1], ring_labels[0])),
        ]
        # mixed alpha/beta products vanish (gamma counts with its cycle flavor)
        flavors: dict[str, str] = {"gamma": flavor}
        for a in ring_arrows:
            flavors[a.label] = flavor
        for a in other_arrows:
            flavors[a.label] = a.label.split(":")[0]
        by_dst: dict[str, list[str]] = {}
        by_src: dict[str, list[str]] = {}
        for a in arrows:
            by_dst.setdefault(a.dst, []).append(a.label)
            by_src.setdefault(a.src, []).append(a.label)
        for p in points:
            for lin in by_dst.get(p, ()):
                for lout in by_src.get(p, ()):
                    if flavors[lin][0] != flavors[lout][0]:
                        rels.append(ZeroRel((lin, lout)))
        # socle relations away from the loop point
        zetas: dict[str, list[tuple[str, ...]]] = {}
        for p in mid:
            zetas.setdefault(pname(p), []).append(zeta_bar(p))
        for f2, c2 in other_cycles:
            for p in c2:
                k2 = c2.index(p)
                ring2 = [c2[(k2 + j) % len(c2)] for j in range(len(c2))] + [p]
                zetas.setdefault(pname(p), []).append(
                    tuple(_cycle_label(f2, a, b) for a, b in zip(ring2, ring2[1:]))
                )
        for p, zs in sorted(zetas.items()):
            if p == "c0":
                continue
            for z in zs:
                for lout in by_src.get(by_label[z[-1]].dst, ()):
                    rels.append(ZeroRel(z + (lout,)))
                for lin in by_dst.get(by_label[z[0]].src, ()):
                    rels.append(ZeroRel((lin,) + z))
            if len(zs) == 2:
                rels.append(CommuteRel(*sorted(zs)))
        return tuple(rels)

    meta = {"loop": "gamma", "contracted": [str(src), str(dst)]}
    a0 = QuiverPresentation(points, arrows, relations_for(0), meta=dict(meta, a=0))
    a1 = QuiverPresentation(points, arrows, relations_for(1), meta=dict(meta, a=1))
    return a0, a1


# ---------------------------------------------------------------------------
# isomorphism of finite presentations


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
    import networkx as nx
    from networkx.algorithms.isomorphism import DiGraphMatcher

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
