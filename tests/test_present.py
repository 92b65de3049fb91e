import itertools
import json
import re

import pytest

from helpers import orbit_by_iteration, orbit_cases, path_exists
from meshknit.classify import Pedigree, enumerate_pedigrees
from meshknit.dynkin import loewy_number, make_tree
from meshknit.errors import (
    InvalidBrauer,
    InvalidInput,
    NoSpecialArrow,
    NotFundamental,
    NotSource,
    TooSmall,
)
from meshknit.knitting import dims_on_section, fundamental_domain_points, knit_and_knot
from meshknit.mesh import ProjectiveQuiver, complete_morphisms
from meshknit.present import (
    BrauerQuiver,
    CommuteRel,
    PowerCommuteRel,
    ScaledCommuteRel,
    ZeroRel,
    brauer_from_pedigree,
    cartan_matrix,
    d3m_quotient_presentations,
    exceptional_cover,
    exceptional_cycle_presentation,
    fundamental_algebras,
    fundamental_sources,
    is_pattern_algebra,
    pedigree_from_brauer,
    presentation_isomorphic,
    quiver_of_AC,
    reflect_fundamental,
    trivial_extension_presentation,
    validate_brauer,
    _shape_defect,
    _validated_fundamental,
)
from meshknit.ztquiver import AdmissibleGroup, Configuration, Pt, equioriented_section

CHAIN_46 = [Pt(4, 1, True), Pt(5, 6, True), Pt(6, 7, True), Pt(7, 7, True),
            Pt(10, 5, True), Pt(15, 1, True), Pt(16, 1, True)]


def pattern_fund(config, section):
    return [Pt(p.slice, p.vertex, True) for p in fundamental_domain_points(config, section)]


def test_fundamental_algebras_contains_pattern_and_chain(fig4):
    from meshknit.present import _normalize_min_shift

    tree, section, _, config = fig4
    fas = fundamental_algebras(config)
    assert _normalize_min_shift(config, pattern_fund(config, section)) in fas
    assert _normalize_min_shift(config, CHAIN_46) in fas
    assert all(len(f) == 7 for f in fas)


def test_fundamental_algebra_validation_rejects_garbage(fig4):
    _, _, _, config = fig4
    with pytest.raises(NotFundamental):
        _validated_fundamental(config, [Pt(0, 7, True)] * 7)
    # transversal but disconnected: spread the points far apart
    with pytest.raises(NotFundamental):
        _validated_fundamental(
            config,
            [Pt(0, 7, True), Pt(1 + 14, 1, True), Pt(2, 1, True), Pt(3 + 14, 5, True),
             Pt(4, 1, True), Pt(5 + 14, 6, True), Pt(6, 7, True)],
        )


def _reference_between_sets(pq):
    """For each pair p != q with a path p -> q, the nodes on such paths."""
    fwd = {p: {z for z in pq.nodes if path_exists(pq, p, z)} for p in pq.nodes}
    return {
        (p, q): frozenset(z for z in fwd[p] if q in fwd[z])
        for p in pq.nodes
        for q in fwd[p]
        if q != p
    }


def _reference_offenders(pq, between, points):
    """Members cut off from the first point in the underlying graph; if
    there are none, the non-members on paths between two members."""
    members = set(points)
    seen, todo = {points[0]}, [points[0]]
    while todo:
        p = todo.pop()
        for q in pq.out_nb[p] + pq.in_nb[p]:
            if q in members and q not in seen:
                seen.add(q)
                todo.append(q)
    if seen != members:
        return members - seen
    return {z for p in points for q in points if p != q for z in between.get((p, q), ())} - members


def test_shape_defect_matches_pairwise_between_sets(configs_cache):
    """Every candidate of the fundamental-algebra search gets the verdict of
    the pairwise definition, and a rejection names one of its offenders."""
    kinds = set()
    for name in ["A2", "A3", "A4", "A5", "D4", "D5"]:  # D5 has connected non-convex sets
        for config in configs_cache(name):
            L = loewy_number(config.tree)
            pq = ProjectiveQuiver(config, 0, 3 * L - 1)
            between = _reference_between_sets(pq)
            residues = sorted(config.residues)
            for shifts in itertools.product(range(3), repeat=len(residues)):
                if min(shifts) != 0:
                    continue
                cand = tuple(sorted(Pt(i + k * L, x, True) for (i, x), k in zip(residues, shifts)))
                offenders = _reference_offenders(pq, between, cand)
                defect = _shape_defect(pq, cand)
                assert (defect is None) == (not offenders), (config, cand, defect)
                if defect is not None:
                    witness = re.search(r"(-?\d+)_(\d+)_P", defect)
                    assert Pt(int(witness[1]), int(witness[2]), True) in offenders, defect
                    kinds.add(offenders <= set(cand))
                else:
                    kinds.add(None)
    assert kinds == {None, True, False}  # accepted, disconnected and non-convex sets occur


def test_chain_is_not_a_pattern_algebra(fig4):
    tree, section, _, config = fig4
    assert is_pattern_algebra(config, pattern_fund(config, section))
    assert not is_pattern_algebra(config, CHAIN_46)


def test_chain_zero_relations(fig4):
    """The worked non-pattern chain carries the two stated zero relations."""
    _, _, _, config = fig4
    pres = quiver_of_AC(config, CHAIN_46)
    lab = pres.arrow_by_label()
    zero_pairs = set()
    for r in pres.relations:
        if isinstance(r, ZeroRel) and len(r.path) == 2:
            zero_pairs.add((lab[r.path[0]].src, lab[r.path[0]].dst, lab[r.path[1]].dst))
    assert ("4_1", "5_6", "6_7") in zero_pairs  # e* -> f* -> g*
    assert ("7_7", "10_5", "15_1") in zero_pairs  # nu^-1 a* -> nu^-1 d* -> nu^-2 b*


def test_quiver_of_ac_fig4_shape(fig4):
    tree, section, _, config = fig4
    pres = quiver_of_AC(config, pattern_fund(config, section))
    internal = sorted((a.src, a.dst) for a in pres.arrows if a.shift == 0)
    assert internal == sorted(
        [("0_7", "3_5"), ("1_1", "2_1"), ("2_1", "3_5"), ("3_5", "5_6"),
         ("4_1", "5_6"), ("5_6", "6_7")]
    )
    connecting = sorted((a.src, a.dst) for a in pres.arrows if a.shift == 1)
    assert connecting == sorted([("3_5", "1_1"), ("5_6", "4_1"), ("6_7", "0_7")])


def test_connecting_arrows_match_complete_morphisms(configs_cache, fig4):
    """Connecting arrows biject with complete morphisms over whole
    enumerations at small rank."""
    checked = 0
    for name in ["A2", "A3"]:
        tree = make_tree(name[0], int(name[1]))
        section = equioriented_section(tree)
        for config in configs_cache(name):
            for fund in fundamental_algebras(config):
                pres = quiver_of_AC(config, list(fund))
                conn = sorted((a.dst, a.src) for a in pres.arrows if a.shift == 1)
                comp = sorted(
                    (f"{p.slice}_{p.vertex}", f"{q.slice}_{q.vertex}")
                    for p, q in complete_morphisms(config, list(fund))
                )
                assert conn == comp, (name, fund)
                checked += 1
    assert checked > 10
    # and on the worked example plus one D4 configuration
    _, section, _, config = fig4
    for fund in (pattern_fund(config, section), CHAIN_46):
        pres = quiver_of_AC(config, fund)
        conn = sorted((a.dst, a.src) for a in pres.arrows if a.shift == 1)
        comp = sorted(
            (f"{p.slice}_{p.vertex}", f"{q.slice}_{q.vertex}")
            for p, q in complete_morphisms(config, fund)
        )
        assert conn == comp


def test_reflection_moves(fig4):
    _, _, _, config = fig4
    _, fund = _validated_fundamental(config, CHAIN_46)
    x = fundamental_sources(config, fund)[0]
    moved = reflect_fundamental(config, fund, x, "source")
    assert tuple(moved) != tuple(fund)
    back = reflect_fundamental(config, moved, Pt(x.slice + 7, x.vertex, True), "sink")
    assert tuple(back) == tuple(fund)
    with pytest.raises(NotSource):
        reflect_fundamental(config, fund, Pt(5, 6, True), "source")


def test_iterated_reflections_reach_a_pattern(fig4):
    _, _, _, config = fig4
    _, cur = _validated_fundamental(config, CHAIN_46)
    for _ in range(40):
        if is_pattern_algebra(config, cur):
            break
        cur = reflect_fundamental(config, cur, fundamental_sources(config, cur)[0], "source")
    assert is_pattern_algebra(config, cur)


def test_trivial_extension_two_point_cycle():
    a2 = make_tree("A", 2)
    section = equioriented_section(a2)
    config = knit_and_knot(a2, section, (1, 2))
    pres = trivial_extension_presentation(config, pattern_fund(config, section))
    assert len(pres.points) == 2
    assert sorted((a.src, a.dst) for a in pres.arrows) == sorted(
        [(pres.points[0], pres.points[1]), (pres.points[1], pres.points[0])]
    )


def test_trivial_extension_presentations_isomorphic_across_fundamentals(fig4):
    _, section, _, config = fig4
    p1 = trivial_extension_presentation(config, pattern_fund(config, section))
    p2 = trivial_extension_presentation(config, CHAIN_46)
    assert presentation_isomorphic(p1, p2)
    # and a negative control
    a2 = make_tree("A", 2)
    cfg2 = knit_and_knot(a2, equioriented_section(a2), (1, 2))
    q2 = trivial_extension_presentation(cfg2, pattern_fund(cfg2, equioriented_section(a2)))
    assert not presentation_isomorphic(p1, q2)


def test_cartan_of_trivial_extension(configs_cache):
    """Diagonal 2, off-diagonal 0 or 1 for the Nakayama quotient."""
    for name in ["A1", "A2", "A3", "A4", "D4"]:
        tree = make_tree(name[0], int(name[1]))
        L = loewy_number(tree)
        for config in configs_cache(name)[:6]:
            reps, mat = cartan_matrix(config, AdmissibleGroup(L))
            for p in reps:
                assert mat[(p, p)] == 2
                for q in reps:
                    if q != p:
                        assert mat[(p, q)] in (0, 1)


def test_cartan_against_direct_orbit_sum(fig4, configs_cache):
    """Independent summation: entries equal hom dims summed over the column's
    orbit points in a wider window, found by stepping the generator.  Cases:
    the nu^2 quotient of the A7 example and every orbit case with a
    configuration; a refused group raises NotAdmissible with its reason."""
    from meshknit.errors import NotAdmissible
    from meshknit.mesh import MeshTransporter
    from meshknit.ztquiver import build_window, is_admissible

    tree, _, _, config = fig4
    cases = [(tree, config, AdmissibleGroup(2 * loewy_number(tree)))]
    cases += [case for case in orbit_cases(configs_cache) if case[1] is not None]
    for tree, config, group in cases:
        action = group.action(tree)
        window = build_window(tree, config, -1, action.period + 3 * loewy_number(tree))
        if not is_admissible(group, window):
            refused = f"^{re.escape(group.name(tree))} is not admissible: "
            with pytest.raises(NotAdmissible, match=refused):
                cartan_matrix(config, group)
            continue
        reps, mat = cartan_matrix(config, group)
        assert len(set(reps)) == len(reps)
        assert set(reps) == {action.representative(p) for p in window.projectives}
        orbits = {q: orbit_by_iteration(group, tree, q, window.i_min, window.i_max) for q in reps}
        for p in reps:
            tr = MeshTransporter(window, p)
            for q in reps:
                assert mat[(p, q)] == sum(tr.dim(t) for t in orbits[q]), (config, group, p, q)


def test_library_entry_points_reject_non_configurations():
    """fundamental_algebras, dims_on_section, cartan_matrix and quiver_of_AC
    check C1 and C2 themselves, without an assert, and name the failed axiom."""
    tree = make_tree("A", 3)
    residues = Configuration(tree, {(0, 2), (1, 2), (2, 2)})  # hom((0,2), (1,2)) != 0
    calls = [
        fundamental_algebras,
        lambda c: dims_on_section(c, equioriented_section(tree)),
        lambda c: cartan_matrix(c, AdmissibleGroup(3)),
        lambda c: quiver_of_AC(c, [Pt(i, x, True) for i, x in sorted(c.residues)]),
    ]
    for call in calls:
        with pytest.raises(InvalidInput, match=r"^not a configuration: axiom C2 fails for "):
            call(residues)


def test_d4_fundamental_algebra_relation_split(configs_cache):
    """One D4 class yields radical-square-zero fundamental algebras, the
    other radical-cube-zero ones featuring the commutative square."""
    from meshknit.dynkin import tree_automorphisms

    def internal_shape(config, fund):
        pres = quiver_of_AC(config, list(fund))
        lab = pres.arrow_by_label()
        internal = [a for a in pres.arrows if a.shift == 0]
        composable = [
            (a.label, b.label) for a in internal for b in internal if a.dst == b.src
        ]
        zero2 = {
            (r.path[0], r.path[1])
            for r in pres.relations
            if isinstance(r, ZeroRel) and len(r.path) == 2
        }
        commutes = [
            r
            for r in pres.relations
            if isinstance(r, CommuteRel)
            and all(lab[l].shift == 0 for l in r.lhs + r.rhs)
        ]
        return all(p in zero2 for p in composable), bool(commutes)

    tree = make_tree("D", 4)
    symmetric = next(
        c
        for c in configs_cache("D4")
        if all(AdmissibleGroup(0, a).stabilizes(c) for a in tree_automorphisms(tree))
    )
    other = next(
        c
        for c in configs_cache("D4")
        if not all(AdmissibleGroup(0, a).stabilizes(c) for a in tree_automorphisms(tree))
    )
    shapes_sym = [internal_shape(symmetric, f) for f in fundamental_algebras(symmetric)]
    assert all(rad2_zero for rad2_zero, _ in shapes_sym)
    shapes_other = [internal_shape(other, f) for f in fundamental_algebras(other)]
    assert all(not rad2_zero for rad2_zero, _ in shapes_other)
    assert any(has_commute for _, has_commute in shapes_other)


# ---------------------------------------------------------------------------
# Brauer layer


def test_brauer_roundtrip_small():
    for n in range(2, 7):
        for p in enumerate_pedigrees(n):
            q = brauer_from_pedigree(p)
            validate_brauer(q)
            assert pedigree_from_brauer(q, "r") == p


def test_brauer_two_node_chain_shape():
    q = brauer_from_pedigree(Pedigree(alpha=Pedigree()))
    assert len(q.alpha_cycles) == 1 and len(q.alpha_cycles[0]) == 2
    assert len(q.beta_cycles) == 2
    assert all(len(c) == 1 for c in q.beta_cycles)


def test_brauer_one_point_rejected():
    with pytest.raises(TooSmall):
        brauer_from_pedigree(Pedigree())


def test_invalid_brauer_rejected():
    bad = BrauerQuiver(points=("x", "y"), alpha_cycles=(("x", "y"),), beta_cycles=(("x", "y"),))
    with pytest.raises(InvalidBrauer):
        validate_brauer(bad)
    with pytest.raises(InvalidBrauer):
        pedigree_from_brauer(bad, "x")


def test_brauer_walks_choose_flavor_by_base_point():
    q = BrauerQuiver(
        points=("u", "v"),
        alpha_cycles=(("u", "v"),),
        beta_cycles=(("u",), ("v",)),
    )
    validate_brauer(q)
    from_u = pedigree_from_brauer(q, "u")
    assert from_u == Pedigree(alpha=Pedigree())
    from_v = pedigree_from_brauer(q, "v")
    assert from_v == Pedigree(alpha=Pedigree())


def test_exceptional_presentation_m1_equals_plain():
    q = brauer_from_pedigree(Pedigree(alpha=Pedigree()))
    plain = exceptional_cycle_presentation(q, q.alpha_cycles[0], 1)
    assert all(not isinstance(r, PowerCommuteRel) for r in plain.relations)
    exc = exceptional_cycle_presentation(q, q.alpha_cycles[0], 3)
    powers = [r for r in exc.relations if isinstance(r, PowerCommuteRel)]
    assert len(powers) == 2 and all(r.m == 3 for r in powers)


def test_exceptional_family_cycle_plus_loop():
    """One cycle of length d with an exceptional loop of multiplicity m."""
    d, m = 3, 2
    points = tuple(f"p{i}" for i in range(d))
    q = BrauerQuiver(
        points=points,
        alpha_cycles=(points,),
        beta_cycles=tuple((p,) for p in points),
    )
    validate_brauer(q)
    pres = exceptional_cycle_presentation(q, ("p0",), m)
    powers = [r for r in pres.relations if isinstance(r, PowerCommuteRel)]
    assert len(powers) == 1 and powers[0].m == m


def test_exceptional_cover_is_plain_brauer_with_free_symmetry():
    d, m = 2, 3
    points = tuple(f"p{i}" for i in range(d))
    q = BrauerQuiver(points=points, alpha_cycles=(points,), beta_cycles=tuple((p,) for p in points))
    lifted = exceptional_cover(q, points, m)
    validate_brauer(lifted)
    assert len(lifted.points) == d * m
    # the deck transformation permutes cycles and fixes no point
    shift = {(p, j): (p, (j + 1) % m) for p, j in lifted.points}
    assert all(shift[pt] != pt for pt in lifted.points)
    cycles = {frozenset(c) for _, c in lifted.cycles()}
    for _, c in lifted.cycles():
        assert frozenset(shift[p] for p in c) in cycles


def test_d3m_quotients():
    q = BrauerQuiver(
        points=("p0", "p1", "p2"),
        alpha_cycles=(("p0", "p1", "p2"),),
        beta_cycles=(),
        reduced=True,
        special=("p2", "p0"),
    )
    a0, a1 = d3m_quotient_presentations(q)
    assert a0.points == a1.points == ("c0", "p1")
    assert [a.label for a in a0.arrows] == [a.label for a in a1.arrows]
    diff = set(a0.relations) ^ set(a1.relations)
    assert {type(r) for r in diff} == {ScaledCommuteRel}
    assert {r.a for r in diff if isinstance(r, ScaledCommuteRel)} == {0, 1}
    assert ZeroRel(("gamma",) * 4) in a0.relations and ZeroRel(("gamma",) * 4) in a1.relations


def test_d3m_requires_special_arrow():
    q = BrauerQuiver(
        points=("p0", "p1", "p2"),
        alpha_cycles=(("p0", "p1"),),
        beta_cycles=(("p1", "p2"),),
        reduced=True,
    )
    with pytest.raises(NoSpecialArrow):
        d3m_quotient_presentations(q)
    q2 = BrauerQuiver(
        points=("p0", "p1", "p2"),
        alpha_cycles=(("p0", "p1", "p2"),),
        beta_cycles=(),
        reduced=True,
        special=("p0", "p2"),
    )
    with pytest.raises(NoSpecialArrow):
        d3m_quotient_presentations(q2)


def test_three_cornered_d6_glueing_shape(configs_cache):
    """The symmetric three-cornered D6 trivial extension is three cycles
    glued along a triangle of high-degree points, each carrying its own
    extra arrows."""
    d6 = make_tree("D", 6)
    section = equioriented_section(d6)
    config = next(c for c in configs_cache("D6") if c.period() == 3)
    assert config.period() == 3
    from meshknit.classify import dn_corner_count

    h, _ = dn_corner_count(config)
    assert h == 3
    pres = trivial_extension_presentation(config, pattern_fund(config, section))
    out_deg = {p: 0 for p in pres.points}
    in_deg = {p: 0 for p in pres.points}
    for a in pres.arrows:
        out_deg[a.src] += 1
        in_deg[a.dst] += 1
    heavy = sorted(p for p in pres.points if in_deg[p] + out_deg[p] == 4)
    light = [p for p in pres.points if in_deg[p] + out_deg[p] == 2]
    assert len(heavy) == 3 and len(light) == 3
    pairs = {(a.src, a.dst) for a in pres.arrows}
    triangle = [(a, b) for (a, b) in pairs if a in heavy and b in heavy]
    assert len(triangle) == 3  # a directed three-cycle among the heavy points
    srcs = {a for a, _ in triangle}
    dsts = {b for _, b in triangle}
    assert srcs == dsts == set(heavy)
    # r, s, t > 0: each corner keeps one extra arrow in and out
    for p in heavy:
        assert in_deg[p] == 2 and out_deg[p] == 2
    # gamma-triangle composites are complete: each triangle arrow pair
    # (gamma_i after gamma_j) folds from a complete morphism upstairs
    comp = complete_morphisms(config, pattern_fund(config, section))
    assert len(comp) == 3


def test_presentation_json_schema(fig4):
    _, section, _, config = fig4
    pres = trivial_extension_presentation(config, pattern_fund(config, section))
    data = json.loads(pres.to_json())
    assert set(data) == {"points", "arrows", "relations", "periodic"}
    assert all(set(a) == {"from", "to", "label", "shift"} for a in data["arrows"])
    kinds = {r["kind"] for r in data["relations"]}
    assert kinds <= {"zero", "commute", "scaled_commute", "power_commute"}
