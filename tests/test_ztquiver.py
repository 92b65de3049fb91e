import itertools
import re

import pytest

from helpers import (
    _all_section_shapes,
    ReferenceWindow,
    count_windows,
    edge_rule_section,
    orbit_by_iteration,
    orbit_cases,
    reference_is_admissible,
    reference_period,
    reference_fold,
    reference_representative,
    reference_table_groups,
    reference_witness,
)
from meshknit import ztquiver
from meshknit.dynkin import loewy_number, make_tree, tree_automorphisms
from meshknit.errors import EmptyRange, InvalidInput, NotAdmissible, NotSink, NotSource, WindowTooSmall
from meshknit.knitting import knit_and_knot
from meshknit.mesh import projective_quiver
from meshknit.present import cartan_matrix
from meshknit.ztquiver import (
    AdmissibleGroup,
    AffineMap,
    Configuration,
    Pt,
    Section,
    _refusal,
    _twist,
    build_window,
    check_combinatorial_configuration,
    equioriented_section,
    glide_map,
    is_admissible,
    plus_admissible_enumeration,
    quotient,
    section_move,
    table_groups,
)

A2 = make_tree("A", 2)
A3 = make_tree("A", 3)
ALL_TREES = (
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + [("E", n) for n in (6, 7, 8)]
)


def test_build_window_a2_bare():
    w = build_window(A2, None, 0, 1)
    assert len(w.points) == 4
    assert set(w.arrows) == {
        (Pt(0, 1), Pt(0, 2)),
        (Pt(0, 2), Pt(1, 1)),
        (Pt(1, 1), Pt(1, 2)),
    }


def test_build_window_a2_with_projective():
    w = build_window(A2, [(0, 1)], 0, 1)
    star = Pt(0, 1, True)
    assert star in w.points and len(w.points) == 5
    assert (Pt(0, 1), star) in w.arrows
    assert (star, Pt(1, 1)) in w.arrows


def test_build_window_empty_range():
    with pytest.raises(EmptyRange):
        build_window(A2, None, 2, 1)


def test_level_increases_along_arrows(fig4):
    tree, _, _, config = fig4
    w = build_window(tree, config, 0, 8)
    for a, b in w.arrows:
        assert w.level[b] == w.level[a] + 1


def test_section_move_examples():
    s = equioriented_section(A3)
    moved = section_move(s, 1, "plus")
    assert moved.levels == (1, 0, 0)
    with pytest.raises(NotSource):
        section_move(s, 2, "plus")
    with pytest.raises(NotSink):
        section_move(s, 1, "minus")
    back = section_move(moved, 1, "minus")
    assert back == s


def test_section_move_refuses_an_unknown_direction():
    """A typed refusal that library callers may still catch as ValueError."""
    with pytest.raises(InvalidInput, match="'up'") as err:
        section_move(equioriented_section(A3), 1, "up")
    assert isinstance(err.value, ValueError)


def test_plus_admissible_enumeration():
    assert plus_admissible_enumeration(equioriented_section(A3)) == [1, 2, 3]
    # levels (2, 1, 2): first the middle vertex, then the two ends
    assert plus_admissible_enumeration(Section(A3, (1, 0, 0))) == [2, 1, 3]
    assert plus_admissible_enumeration(equioriented_section(make_tree("A", 1))) == [1]


def test_invalid_section_levels_rejected():
    """A refusal names the first canonical edge whose ends are not one level
    apart, with the level gap."""
    with pytest.raises(ValueError):
        Section(A3, (0, 1, 0))
    for levels, witness in [
        ((0, 1, 0), "vertices 1 and 2 are 3 levels apart"),
        ((0, 2, 0), "vertices 1 and 2 are 5 levels apart"),
        ((0, 0, 2), "vertices 2 and 3 are 5 levels apart"),
        ((1, 0, 1), "vertices 2 and 3 are 3 levels apart"),
    ]:
        with pytest.raises(InvalidInput, match=re.escape(f"levels {levels} do not form a section: {witness}")):
            Section(A3, levels)


def test_section_refuses_levels_that_are_not_ints():
    """A float or bool level is refused, as make_tree refuses such a rank,
    before knitting could carry it into a configuration's residues."""
    for levels, bad in [((0.5, 0.5, 0.5), "0.5"), ((True, True, True), "True"), ((1, 0, 0.0), "0.0")]:
        with pytest.raises(InvalidInput, match=f"^a section level is an int, got {re.escape(bad)}$"):
            Section(A3, levels)
    assert Section(A3, (1, 0, 0)).levels == (1, 0, 0)


@pytest.mark.parametrize("family,rank", ALL_TREES, ids=[f"{f}{n}" for f, n in ALL_TREES])
def test_level_rule_matches_edge_rule_on_every_shape(family, rank):
    tree = make_tree(family, rank)
    for levels in _all_section_shapes(tree):
        section = Section(tree, levels)
        assert (section.sources(), section.sinks()) == edge_rule_section(tree, levels), levels


@pytest.mark.parametrize("name", ["A4", "D5"])
def test_level_rule_matches_edge_rule_on_a_box(name):
    """Every slice tuple in [-2, 2]^r: the same tuples are refused, and the
    accepted ones have the same sources and sinks."""
    tree = make_tree(name[0], int(name[1]))
    accepted = 0
    for levels in itertools.product(range(-2, 3), repeat=tree.rank):
        want = edge_rule_section(tree, levels)
        if want is None:
            with pytest.raises(InvalidInput):
                Section(tree, levels)
        else:
            section = Section(tree, levels)
            assert (section.sources(), section.sinks()) == want, levels
            accepted += 1
    assert accepted > 0


@pytest.mark.parametrize("family,rank", ALL_TREES, ids=[f"{f}{n}" for f, n in ALL_TREES])
def test_plus_admissible_enumeration_moves_to_the_shift(family, rank):
    tree = make_tree(family, rank)
    for levels in _all_section_shapes(tree):
        section = Section(tree, levels)
        current = section
        for x in plus_admissible_enumeration(section):
            current = section_move(current, x, "plus")  # raises NotSource
        assert current == section.shifted(1), levels


def test_window_translation_equivariance(fig4):
    tree, _, _, config = fig4
    k = 3
    w0 = build_window(tree, config, 0, 6)
    w1 = build_window(tree, config.shifted(-k), k, 6 + k)
    shift = {Pt(p.slice + k, p.vertex, p.proj) for p in w0.points}
    assert shift == set(w1.points)
    assert {(Pt(a.slice + k, a.vertex, a.proj), Pt(b.slice + k, b.vertex, b.proj)) for a, b in w0.arrows} == set(w1.arrows)


@pytest.mark.parametrize("name,edge_index", [("A3", 0), ("A3", 1), ("D4", 0), ("D4", 2)])
def test_reorientation_gives_isomorphic_window(name, edge_index):
    """Flipping one edge shifts one component of the tree by a slice."""
    tree = make_tree(name[0], int(name[1]))
    lo, hi = tree.edges[edge_index]
    # vertices on the hi side of the removed edge
    side = {hi}
    todo = [hi]
    while todo:
        v = todo.pop()
        for w in tree.neighbors[v]:
            if {v, w} == {lo, hi} or w in side:
                continue
            side.add(w)
            todo.append(w)
    # rebuild arrows with the flipped edge, directly from the rule
    flipped = [(a, b) for a, b in tree.edges if (a, b) != (lo, hi)] + [(hi, lo)]
    span = range(0, 6)
    arrows_flipped = set()
    for i in span:
        for a, b in flipped:
            arrows_flipped.add((Pt(i, a), Pt(i, b)))
            arrows_flipped.add((Pt(i, b), Pt(i + 1, a)))

    def phi(p: Pt) -> Pt:
        return Pt(p.slice + (1 if p.vertex in side else 0), p.vertex)

    w = build_window(tree, None, 0, 5)
    for a, b in w.arrows:
        fa, fb = phi(a), phi(b)
        if 1 <= fa.slice <= 4 and 1 <= fb.slice <= 4:
            assert (fa, fb) in arrows_flipped


def test_nu_extension_is_bijective_on_projectives(fig4):
    tree, _, _, config = fig4
    lifts = config.lifts(0, 13)
    shifted = {(i - 7, x) for i, x in lifts}
    assert all(config.contains(i, x) for i, x in shifted)


def test_is_admissible_examples(fig4):
    w2 = build_window(A2, None, -4, 4)
    assert is_admissible(AdmissibleGroup(1), w2) is True
    assert is_admissible(AdmissibleGroup(0, glide=True), w2) is False
    tree, _, _, config = fig4
    w7 = build_window(tree, config, 0, 15)
    assert is_admissible(AdmissibleGroup(7), w7) is True
    with pytest.raises(WindowTooSmall):
        is_admissible(AdmissibleGroup(7), build_window(tree, config, 0, 4))


def test_quotient_za2_by_tau():
    w = build_window(A2, None, -4, 4)
    q = quotient(w, AdmissibleGroup(1))
    assert len(q.points) == 2
    assert len(q.arrows) == 2
    a, b = q.points
    assert (a, b) in q.arrows and (b, a) in q.arrows


def test_quotient_fig4_point_count(fig4):
    tree, _, _, config = fig4
    w = build_window(tree, config, 0, 15)
    q = quotient(w, AdmissibleGroup(7))
    assert sum(1 for p in q.points if not p.proj) == 49
    assert sum(1 for p in q.points if p.proj) == 7


def test_quotient_rejects_non_admissible():
    w = build_window(A2, None, -4, 4)
    with pytest.raises(NotAdmissible):
        quotient(w, AdmissibleGroup(0, glide=True))


def test_quotient_preserves_point_degrees(fig4):
    """Covering property: arrow counts at interior orbit representatives
    match the counts at any of their lifts."""
    tree, _, _, config = fig4
    w = build_window(tree, config, 0, 20)
    q = quotient(w, AdmissibleGroup(7))
    for p in q.points:
        lift = p
        if not (5 <= lift.slice <= 15):
            continue
        assert sum(a == p for a, _ in q.arrows) == len(w.out_nb[lift])
        assert sum(b == p for _, b in q.arrows) == len(w.in_nb[lift])


def test_glide_squares_to_tau():
    for n in (2, 4, 6):
        tree = make_tree("A", n)
        rho = glide_map(tree)
        for v in tree.vertices:
            i, x = rho(*rho(0, v))
            assert (i, x) == (-1, v)


def test_extended_automorphisms_preserve_arrows():
    for name in ["A3", "A4", "D4", "D5", "E6"]:
        tree = make_tree(name[0], int(name[1]))
        w = build_window(tree, None, -3, 3)
        for m in tree_automorphisms(tree):
            for a, b in w.arrows:
                ia, xa = m(a.slice, a.vertex)
                ib, xb = m(b.slice, b.vertex)
                # image arrows exist in the infinite quiver: re-derive the rule
                assert (
                    (xa, xb) in tree.edges and ib == ia
                ) or ((xb, xa) in tree.edges and ib == ia + 1)


def test_table_groups_a4(configs_cache):
    c = next(c for c in configs_cache("A4") if c.period() == 2)
    tree = make_tree("A", 4)
    groups = table_groups(tree, c, s_max=2)
    assert [g.name(tree) for g in groups] == ["tau^2", "tau^4"]


def test_table_groups_d4(configs_cache):
    tree = make_tree("D", 4)
    stable = [
        c
        for c in configs_cache("D4")
        if all(AdmissibleGroup(0, a).stabilizes(c) for a in tree_automorphisms(tree))
    ]
    assert len(stable) == 5
    names = {g.name(tree) for g in table_groups(tree, stable[0], 1)}
    assert names == {"tau^5", "tau^5*psi", "tau^5*sigma"}
    w = build_window(tree, stable[0], 0, 34)
    for g in table_groups(tree, stable[0], 1):
        assert is_admissible(g, w)


def test_table_groups_e7_and_d_rows(configs_cache):
    e7 = make_tree("E", 7)
    config = Configuration(e7, [(0, 1), (1, 1), (2, 1), (6, 6), (7, 6), (8, 6), (8, 7)])
    assert [g.name(e7) for g in table_groups(e7, config, 1)] == ["tau^17"]
    d6 = make_tree("D", 6)
    sigma_stable = [c for c in configs_cache("D6") if c.period() == 3]
    assert sigma_stable
    names = [g.name(d6) for g in table_groups(d6, sigma_stable[0], 2)]
    assert names == ["tau^3", "tau^6"]
    two_corner = next(c for c in configs_cache("D6") if sum(1 for _, x in c.residues if x >= 5) == 2)
    names = {g.name(d6) for g in table_groups(d6, two_corner, 1)}
    assert names == {"tau^9", "tau^9*psi"}


@pytest.mark.parametrize(
    "family,rank",
    [
        *(t for t in ALL_TREES if t != ("E", 8)),
        pytest.param("D", 9, marks=pytest.mark.e8),
        pytest.param("E", 8, marks=pytest.mark.e8),
    ],
)
def test_table_groups_match_the_family_table(family, rank, configs_cache):
    """Stepping by the period and fixing each twist name's first twist gives
    the groups, names and order of the per-family table on every
    configuration: every D4, E and two-cornered D_n configuration has period
    L, and the flip of D_n (n >= 5) fixes no configuration with one or three
    points over n - 1 and n."""
    tree = make_tree(family, rank)
    for config in configs_cache(f"{family}{rank}"):
        assert table_groups(tree, config, s_max=2) == reference_table_groups(tree, config, s_max=2), config


def test_a_group_has_a_twist_or_the_glide():
    """A twist with the glide is refused, not printed and applied as the glide alone."""
    a4 = make_tree("A", 4)
    with pytest.raises(InvalidInput, match="^a generator composes tau with a twist or with the glide, not both$"):
        AdmissibleGroup(3, tree_automorphisms(a4)[1], True)
    assert AdmissibleGroup(3, glide=True).name(a4) == "tau^3*rho"


def test_twists_of_each_tree():
    """Each twist name finds the first automorphism of that name in
    vertex-permutation order; even A has none, as its flip is tau^-1 rho."""
    for family, rank, want in [
        ("A", 1, {}),
        ("A", 3, {"phi": (0, 3, 2, 1)}),
        ("A", 4, {}),
        ("D", 4, {"psi": (0, 1, 2, 4, 3), "sigma": (0, 3, 2, 4, 1)}),
        ("D", 5, {"psi": (0, 1, 2, 3, 5, 4)}),
        ("E", 6, {"chi": (0, 5, 4, 3, 2, 1, 6)}),
        ("E", 7, {}),
        ("E", 8, {}),
    ]:
        tree = make_tree(family, rank)
        found = {name: twist.perm for name in ("phi", "psi", "chi", "sigma") if (twist := _twist(tree, name))}
        assert found == want, tree.name
    for rank in (2, 4, 6, 8):
        tree = make_tree("A", rank)
        flip = tree_automorphisms(tree)[1]
        for r in range(-5, 20):
            assert AdmissibleGroup(r, flip).generator_map(tree) == AdmissibleGroup(r - 1, glide=True).generator_map(tree)


def test_configuration_json_roundtrip(fig4):
    _, _, _, config = fig4
    again = Configuration.from_json(config.to_json())
    assert again == config
    assert '"period": 7' in config.to_json()


def test_table_groups_twisted_rows(configs_cache):
    """Odd A and E6 admit flip-twisted fundamental groups exactly on
    flip-stable configurations."""
    for name, twist_name in [("A5", "tau^5*phi"), ("E6", "tau^11*chi")]:
        tree = make_tree(name[0], int(name[1]))
        flip = _twist(tree, twist_name.split("*")[1])
        configs = configs_cache(name)
        stable = [c for c in configs if AdmissibleGroup(0, flip).stabilizes(c)]
        unstable = [c for c in configs if not AdmissibleGroup(0, flip).stabilizes(c)]
        assert stable and unstable
        names = [g.name(tree) for g in table_groups(tree, stable[0], 1)]
        assert twist_name in names
        assert all(twist_name not in g.name(tree) for g in table_groups(tree, unstable[0], 1))
        from meshknit.dynkin import loewy_number

        L = loewy_number(tree)
        w = build_window(tree, stable[0], 0, 4 * L + 3)
        for g in table_groups(tree, stable[0], 1):
            assert is_admissible(g, w), g.name(tree)


@pytest.mark.parametrize(
    "points,bad",
    [
        ([(0, 4), (1, 2), (2, 0)], 0),
        ([(0, 5), (1, 4), (2, 7)], 4),
        ([(0, 4), (1, -1), (2, 0)], -1),
        ([(0, 1.0), (1, 2), (2, 3)], 1.0),
        ([(0, 1), (1, 2), (2, True)], True),
    ],
)
def test_configuration_names_the_least_bad_vertex(points, bad):
    """Vertex 0, rank + 1, a negative vertex, and a float and a bool equal to
    a vertex, each the least bad one of its set, whether the residues come as
    a list or a frozenset."""
    tree = make_tree("A", 3)
    for residues in (points, points[::-1], frozenset(points)):
        with pytest.raises(InvalidInput, match=f"^bad vertex {bad} in configuration$"):
            Configuration(tree, residues)


def test_configuration_json_keeps_int_vertices():
    """A bool vertex is refused, so every configuration's JSON reads back; a
    bool slice reduces to an int mod L."""
    a1 = make_tree("A", 1)
    with pytest.raises(InvalidInput, match="^bad vertex True in configuration$"):
        Configuration(a1, [(0, True)])
    config = Configuration(a1, [(True, 1)])
    assert config.to_json() == Configuration(a1, [(0, 1)]).to_json()
    assert Configuration.from_json(config.to_json()) == config


def test_every_construction_route_gives_one_configuration(fig4):
    """The worked A7 configuration, built through the constructor, from its
    mask, from JSON, by an affine map, by tau shifts and by knitting, is one
    configuration: equal, of one hash, with the same residues, key and JSON.
    Each object decodes its residues once and keeps them."""
    tree, section, dims, config = fig4
    L = loewy_number(tree)
    routes = [
        Configuration(tree, [(i + L, x) for i, x in config.residues]),
        Configuration._of_mask(tree, config.mask),
        Configuration.from_json(config.to_json()),
        config.shifted(3).mapped(AffineMap.translation(tree, 3)),
        config.shifted(L),
        knit_and_knot(tree, section, dims),
    ]
    for other in routes:
        assert other == config and hash(other) == hash(config) and other.mask == config.mask
        assert other.residues == config.residues and other.residues is other.residues
        assert other.canonical_key() == config.canonical_key() and other.to_json() == config.to_json()
    assert config.canonical_key() == ((0, 7), (1, 1), (2, 1), (3, 5), (4, 1), (5, 6), (6, 7))


def test_configuration_refusals_are_pinned():
    """Every refusal of the constructor, the public check and the C1/C2
    requirement, byte for byte.  No three residues of A3 pass C2 and fail
    C1, so the C1 refusal is read on a one-residue mask."""
    bits = ztquiver._residue_bits(A3)
    cases = [
        (lambda: Configuration(A3, [(0.5, 1), (1, 2), (2, 3)]), "non-integer slice 0.5 in configuration"),
        (lambda: Configuration(A3, [(0, True), (1, 2), (2, 3)]), "bad vertex True in configuration"),
        (lambda: Configuration(A3, [(0, 9), (1, 2), (2, 3)]), "bad vertex 9 in configuration"),
        (lambda: Configuration(A3, [(0, 1), (3, 1), (2, 2)]), "configuration needs 3 residues, got 2"),
        (lambda: check_combinatorial_configuration(A3, [(0, 1), (0, 9)]), "(0, 9) is not a residue of A3"),
        (
            lambda: table_groups(A3, Configuration(A3, [(0, 1), (0, 2), (0, 3)])),
            "not a configuration: axiom C2 fails for Configuration(A3: (0,1),(0,2),(0,3))",
        ),
        (
            lambda: ztquiver._require_configuration(Configuration._of_mask(A3, bits[0, 1])),
            "not a configuration: axiom C1 fails for Configuration(A3: (0,1))",
        ),
    ]
    for build, text in cases:
        with pytest.raises(InvalidInput) as err:
            build()
        assert str(err.value) == text
    triples = [check_combinatorial_configuration(A3, t)[1] for t in itertools.combinations(bits, 3)]
    assert "C1" not in triples and "C2" in triples


def test_configuration_reduces_slices_mod_l():
    """Slices outside [0, L) are reduced mod L, from a list or a frozenset;
    a frozenset inside [0, L) gives an equal set."""
    tree = make_tree("A", 3)
    want = frozenset({(0, 1), (2, 2), (1, 3)})
    for residues in ([(3, 1), (-1, 2), (7, 3)], frozenset({(-3, 1), (5, 2), (1, 3)})):
        assert Configuration(tree, residues).residues == want
    assert Configuration(tree, want).residues == want
    with pytest.raises(InvalidInput, match="configuration needs 3 residues, got 2"):
        Configuration(tree, [(0, 1), (3, 1), (2, 2)])


@pytest.mark.parametrize(
    "points,bad",
    [
        ([(0.5, 1), (1, 2), (2, 3)], "0.5"),
        ([(2.5, 1), (1.5, 2), (0, 3)], "1.5"),
        ([(3.0, 1), (1, 2), (2, 3)], "3.0"),
        ([(0, 1), ("1", 2), (2, 3)], "'1'"),
        ([(0.0, 1), (1, 2), (2, 3)], "0.0"),
    ],
)
def test_configuration_names_the_least_non_integer_slice(points, bad):
    """A slice that is not an int, a float equal to an int included, is
    refused with the least one named, whether the residues come as a list
    or as a frozenset, one that equals a set inside [0, L) included."""
    tree = make_tree("A", 3)
    for residues in (points, points[::-1], frozenset(points)):
        with pytest.raises(InvalidInput, match=f"^non-integer slice {re.escape(bad)} in configuration$"):
            Configuration(tree, residues)


@pytest.mark.parametrize(
    "points,text",
    [
        ([("a", 1), (0.5, 2), (0, 3)], "non-integer slice 0.5 in configuration"),
        ([("b", 1), ("a", 2), (0, 3)], "non-integer slice 'a' in configuration"),
        ([(None, 1), ((0,), 2), (0, 3)], "non-integer slice (0,) in configuration"),
        ([(0, 1), (1, 2, 3), (2, 3)], "(1, 2, 3) is not a residue of A3"),
        ([(0, 1), 5, (2, 3, 4), "ab"], "5 is not a residue of A3"),
        ([(0, "x"), (1, 2.0), (2, 3)], "bad vertex 2.0 in configuration"),
    ],
)
def test_configuration_names_one_bad_entry_whatever_the_order(points, text):
    """An entry that is no pair, or slices or vertices of unlike types, are
    refused with one entry named, the same for the list, its reverse and a
    set: numbers come first, least first, then the rest by repr."""
    for residues in (points, points[::-1], set(points)):
        with pytest.raises(InvalidInput, match=f"^{re.escape(text)}$"):
            Configuration(A3, residues)


@pytest.mark.parametrize(
    "decoration,text",
    [
        ([(0, 7)], "bad vertex 7 in configuration"),
        ([("a", 1)], "non-integer slice 'a' in configuration"),
        ([(0, 1, 2)], "(0, 1, 2) is not a residue of A3"),
    ],
)
def test_a_raw_window_decoration_is_checked(decoration, text):
    """A raw decoration is checked as a configuration's residues are, so the
    orbit test and the quotient never meet a residue outside the tree."""
    with pytest.raises(InvalidInput, match=f"^{re.escape(text)}$"):
        build_window(A3, decoration, 0, 8)
    window = build_window(A3, [(3, 1), (-1, 3)], 0, 8)
    assert window.residues == {(0, 1), (2, 3)} and is_admissible(AdmissibleGroup(3), window)
    assert quotient(window, AdmissibleGroup(3)).projectives == (Pt(3, 1, True), Pt(5, 3, True))


def test_period_one_line_configuration():
    """The single-vertex line is a configuration of period one."""
    tree = make_tree("A", 5)
    line = Configuration(tree, {(i, 1) for i in range(5)})
    assert check_combinatorial_configuration(tree, line.residues) == (True, None)
    assert line.period() == 1


@pytest.mark.parametrize("family,rank", [t for t in ALL_TREES if t != ("E", 8)])
def test_period_matches_reference(family, rank, configs_cache):
    """The period read off the residue set equals the smallest divisor e of L
    with tau^e C = C, found by building shifted configurations."""
    configs = configs_cache(f"{family}{rank}")
    assert [c.period() for c in configs] == [reference_period(c) for c in configs]


# ---------------------------------------------------------------------------
# the closed-form group action against step-by-step iteration

def _groups(tree):
    """tau powers {0, 1, L, 2L}, each with every twist and, on even A, the glide."""
    L = loewy_number(tree)
    for r in sorted({0, 1, L, 2 * L}):
        for aut in tree_automorphisms(tree):
            yield AdmissibleGroup(r, aut)
        if tree.family == "A" and tree.rank % 2 == 0:
            yield AdmissibleGroup(r, glide=True)


def _invert_by_scan(g, tree, i, x):
    """One step of g^-1: find the vertex g sends to x."""
    for y in tree.vertices:
        j0, img = g(0, y)
        if img == x:
            return i - j0, y
    raise AssertionError("point map is not invertible")


def _steps(g, tree):
    """g and g^-1 as one-step maps on (slice, vertex)."""
    return g, lambda i, x: _invert_by_scan(g, tree, i, x)


@pytest.mark.parametrize("family,rank", ALL_TREES, ids=[f"{f}{n}" for f, n in ALL_TREES])
def test_closed_form_apply_matches_iteration(family, rank):
    tree = make_tree(family, rank)
    identity = AffineMap.translation(tree, 0)
    for group in _groups(tree):
        g = group.generator_map(tree)
        assert g.compose(g.inverse()) == identity == g.inverse().compose(g)
        for v in tree.vertices:
            p = Pt(3, v, v % 2 == 0)
            assert group.apply(tree, p, 0) == p
            for sign, step in zip((1, -1), _steps(g, tree)):
                i, x = p.slice, p.vertex
                for k in range(1, 51):
                    i, x = step(i, x)
                    assert group.apply(tree, p, sign * k) == Pt(i, x, p.proj), (group, p, k)


@pytest.mark.parametrize("tree_name", ["A3", "A4"])
def test_table_groups_refuses_a_configuration_of_another_tree(tree_name, configs_cache):
    """A configuration of another tree is refused by name: with D4's first
    configuration, A3 once raised an untyped IndexError and A4 returned
    D4's groups."""
    tree = make_tree(tree_name[0], int(tree_name[1]))
    with pytest.raises(InvalidInput, match=f"configuration belongs to D4, not to {tree_name}"):
        table_groups(tree, configs_cache("D4")[0])


@pytest.mark.parametrize("family,rank", ALL_TREES, ids=[f"{f}{n}" for f, n in ALL_TREES])
def test_orbit_key_matches_brute_force_orbits(family, rank):
    tree = make_tree(family, rank)
    lo, hi = 0, 3
    window = [Pt(i, v) for i in range(lo, hi + 1) for v in tree.vertices]
    for group in _groups(tree):
        g = group.generator_map(tree)
        # reference order d and translation T of g^d, by iteration
        images = {v: (0, v) for v in tree.vertices}
        d, smax = 0, 0
        while True:
            images = {v: g(*images[v]) for v in tree.vertices}
            d += 1
            if all(y == v for v, (_, y) in images.items()):
                break
            smax = max(smax, *(abs(j) for j, _ in images.values()))
        T = images[1][0]
        assert group.pure_period(tree) == -T
        if not T:
            continue  # finite orbits: the orbit test refuses them before any key
        # g^(q d + r) p can lie in the window only while |q T| <= hi - lo + smax
        bound = d * ((hi - lo + smax) // abs(T) + 2)
        orbit_key = group.action(tree).orbit_key
        key = {p: orbit_key[p.slice % abs(T), p.vertex] for p in window}
        for p in window:
            orbit = {p}
            for step in _steps(g, tree):
                i, x = p.slice, p.vertex
                for _ in range(bound):
                    i, x = step(i, x)
                    if lo <= i <= hi:
                        orbit.add(Pt(i, x))
            assert {q for q in window if key[q] == key[p]} == orbit, (group, p)


@pytest.mark.parametrize("family,rank", ALL_TREES, ids=[f"{f}{n}" for f, n in ALL_TREES])
def test_representative_matches_min_over_powers(family, rank):
    """For every group with infinite orbits, the orbit-key table maps each
    residue to the least orbit point of slices [0, period) that the minimum
    over the generator's powers gives, and has no other entry."""
    tree = make_tree(family, rank)
    for group in _groups(tree):
        action = group.action(tree)
        P = action.period
        if not P:
            continue
        want = {}
        for r, v in itertools.product(range(P), tree.vertices):
            least = reference_representative(action, Pt(r, v))
            want[r, v] = (least.slice, least.vertex)
        assert action.orbit_key == want, group


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_equal_groups_share_one_action(name, configs_cache):
    """table_groups builds new groups on every call; equal groups share one
    GroupAction, and with it its residue map, orbit key and failing cones."""
    config = configs_cache(name)[0]
    tree = config.tree
    first, again = (table_groups(tree, config, s_max=2) for _ in range(2))
    assert len(first) > 1
    for g, h in zip(first, again):
        assert g is not h and g == h
        action = g.action(tree)
        assert h.action(tree) is action and action.tree == tree and action.name == g.name(tree)
        assert h.action(tree).failing_cones is action.failing_cones


# ---------------------------------------------------------------------------
# the orbit map against the previous orbit test and step-by-step orbits

WITNESS = re.compile(r"(\S+) and (\S+) next to (\S+) lie in one orbit")
MOVED = re.compile(r"it maps configuration point (\S+) off the configuration")


def _parse_pt(text):
    i, x, *proj = text.split("_")
    return Pt(int(i), int(x), bool(proj))


def _check_witness(tree, group, w, refusal):
    """The named point is the least whose cone meets one orbit twice, and
    the two named cone members lie in one orbit."""
    a, b, x = map(_parse_pt, WITNESS.fullmatch(refusal).groups())
    assert a != b
    assert any({a, b} <= {x, *nbs} for nbs in (w.out_nb[x], w.in_nb[x]))
    assert b in orbit_by_iteration(group, tree, a, w.i_min, w.i_max)
    action = group.action(tree)
    for p in sorted(w.points):
        if p == x:
            break
        for nbs in (w.out_nb[p], w.in_nb[p]):
            keys = {reference_representative(action, q) for q in (p, *nbs)}
            assert len(keys) == 1 + len(nbs), (p, refusal)


def test_orbit_map_against_reference(configs_cache):
    """On three windows per case, one of exactly period + 2 slices:
    is_admissible agrees with the previous orbit test, quotient with a fold
    by band representatives, and every refusal names a witness that holds;
    a cone witness is the one the previous full scan names, also where the
    witness point lies on an edge slice of the window, whose cones are cut."""
    cones = moves = edges = 0
    for tree, config, group in orbit_cases(configs_cache):
        P = group.action(tree).period
        for lo, hi in ((0, 2 * P + 1), (-2, 3 * P + 3), (1, P + 2)):
            w = build_window(tree, config, lo, hi)
            admissible = is_admissible(group, w)
            assert admissible == reference_is_admissible(group, w), (config, group)
            if not admissible:
                refusal = _refusal(group.action(tree), w.residues, lo, hi)
                with pytest.raises(NotAdmissible) as exc:
                    quotient(w, group)
                assert str(exc.value) == f"{group.name(tree)} is not admissible: {refusal}"
                if WITNESS.fullmatch(refusal):
                    cones += 1
                    assert refusal == reference_witness(group, w), (config, group, lo, hi)
                    edges += _parse_pt(WITNESS.fullmatch(refusal)[3]).slice in (lo, hi)
                    _check_witness(tree, group, w, refusal)
                elif moved := MOVED.fullmatch(refusal):
                    moves += 1
                    i, x, _ = _parse_pt(moved[1])
                    g = group.generator_map(tree).mod(loewy_number(tree))
                    assert (i, x) in config.residues and g(i, x) not in config.residues
                else:
                    assert refusal == "its orbits are finite" and not P
                continue
            if hi - lo + 1 < 2 * P:
                with pytest.raises(WindowTooSmall):
                    quotient(w, group)
                continue
            folded = quotient(w, group)
            assert (folded.points, folded.arrows, folded.tau, folded.projectives) == reference_fold(group, w)
    assert cones and moves and edges


def test_orbit_test_refuses_an_empty_range():
    """An inverted slice range is empty, before its size is weighed, as
    ``build_window`` refuses it."""
    for group in (AdmissibleGroup(1), AdmissibleGroup(0, glide=True)):
        with pytest.raises(EmptyRange, match=r"^slice range \[5, 1\] is empty$"):
            _refusal(group.action(A2), frozenset(), 5, 1)


def _outcome(group, w, quotient_first: bool):
    """is_admissible and quotient of one group on w, in the given call order;
    a refusal as its type and text."""
    def fold():
        try:
            f = quotient(w, group)
        except (NotAdmissible, WindowTooSmall) as exc:
            return type(exc), str(exc)
        return f.points, f.arrows, f.tau, f.projectives, f.label

    if quotient_first:
        folded = fold()
        return is_admissible(group, w), folded
    return is_admissible(group, w), fold()


def test_orbit_maps_are_shared_per_window(configs_cache):
    """One window answers is_admissible and quotient for several groups, in
    either order of the groups and of the two calls, exactly as a fresh
    window answers each."""
    tree = make_tree("A", 4)
    for config in configs_cache("A4")[:3]:
        groups = [
            *table_groups(tree, config, s_max=2),
            AdmissibleGroup(0),
            AdmissibleGroup(0, glide=True),
        ]
        hi = 2 * max(g.action(tree).period for g in groups) + 1
        fresh = {g: _outcome(g, build_window(tree, config, 0, hi), False) for g in groups}
        assert any(ok for ok, _ in fresh.values()) and not all(ok for ok, _ in fresh.values())
        for order, quotient_first in ((groups, False), (groups[::-1], True)):
            w = build_window(tree, config, 0, hi)
            for g in order:
                assert _outcome(g, w, quotient_first) == fresh[g], (config, g)


def _sweep_groups(tree):
    """tau^k * twist for every twist and, on even A, tau^k * rho, for
    k in [-2L, 3L], the groups with infinite orbits."""
    L = loewy_number(tree)
    bases = [{"twist": aut} for aut in tree_automorphisms(tree)]
    if tree.family == "A" and tree.rank % 2 == 0:
        bases.append({"glide": True})
    for base in bases:
        for k in range(-2 * L, 3 * L + 1):
            group = AdmissibleGroup(k, **base)
            if group.action(tree).period:
                yield group


def _check_cone_verdict(group, w):
    """The orbit test on w's slices names the witness of the previous full
    scan of every cone of w, and the action's table of failing cones is
    empty exactly when that scan finds none."""
    scan = reference_witness(group, w)
    action = group.action(w.tree)
    assert _refusal(action, w.residues, w.i_min, w.i_max) == scan, (w.residues, group)
    assert (not action.failing_cones) == (scan is None)


def test_cone_verdict_matches_the_full_window_scan(configs_cache):
    """The cached cone verdict of a (group, tree) is the scan of every cone
    of a window, on bare windows of every tree and on the configuration
    windows of the orbit cases, the projective cones included.  The refused
    groups are the flip and the glide of even A_n, which stabilise no
    configuration."""
    refused = set()
    for family, rank in ALL_TREES:
        tree = make_tree(family, rank)
        for group in _sweep_groups(tree):
            _check_cone_verdict(group, build_window(tree, None, -1, group.action(tree).period))
            if group.action(tree).failing_cones:
                refused.add((tree.name, group.name(tree)))
    assert len(refused) == 16 and all(
        name in ("A2", "A4", "A6", "A8") and label.endswith(("phi", "rho"))
        for name, label in refused
    ), refused
    configured = 0
    for tree, config, group in orbit_cases(configs_cache):
        P = group.action(tree).period
        if config is None or not P or not group.stabilizes(config):
            continue
        configured += 1
        for lo, hi in ((-1, P), (0, 2 * P + 1)):
            _check_cone_verdict(group, build_window(tree, config, lo, hi))
    assert configured


# ---------------------------------------------------------------------------
# the window against the previous constructor

# the first brute-force configuration of E8, written out: enumerating E8 takes seconds
E8_CONFIG = [(0, 1), (1, 1), (2, 1), (11, 7), (12, 7), (13, 7), (14, 7), (14, 8)]


@pytest.mark.parametrize("family,rank", ALL_TREES)
def test_window_matches_the_previous_constructor(configs_cache, family, rank):
    """Bare and configured windows, one-slice ones among them, have the
    fields of the previous constructor, in the same order, and each point is
    one object wherever the window holds it."""
    tree = make_tree(family, rank)
    if tree.name == "E8":
        config = Configuration(tree, E8_CONFIG)
        assert check_combinatorial_configuration(tree, config.residues) == (True, None)
    else:
        config = configs_cache(tree.name, "bruteforce")[0]
    L = loewy_number(tree)
    for decoration in (None, config):
        for lo, hi in ((0, 0), (-3, -3), (L - 1, L - 1), (-1, L + 2), (2, 2 * L + 3)):
            w = build_window(tree, decoration, lo, hi)
            ref = ReferenceWindow(tree, decoration, lo, hi)
            assert w.residues == ref.residues
            assert w.points == ref.points
            assert w.arrows == ref.arrows
            assert list(w.tau.items()) == list(ref.tau.items())
            assert w.level == ref.level
            assert w.out_nb == ref.out_nb and w.in_nb == ref.in_nb  # lists in order
            assert w.projectives == ref.projectives
            assert w.order == ref.order
            own = {p: p for p in w.points}
            held = [
                *(p for arrow in w.arrows for p in arrow),
                *(p for pair in w.tau.items() for p in pair),
                *w.level,
                *(q for nbs in (w.out_nb, w.in_nb) for p, qs in nbs.items() for q in (p, *qs)),
            ]
            assert all(p is own[p] for p in held)


WINDOW_FIELDS = ("points", "arrows", "tau", "level", "out_nb", "in_nb")


@pytest.mark.parametrize("name", ["A3", "A5", "D4", "D5"])
def test_a_quotients_item_builds_no_window(name, configs_cache, monkeypatch):
    """Window, orbit test, quotient and Cartan matrix, as a perfbench
    quotients item runs them: each window is made and never built."""
    windows = count_windows(monkeypatch)
    for config in configs_cache(name)[::7]:
        tree = config.tree
        for group in table_groups(tree, config, s_max=2):
            P = abs(group.pure_period(tree))
            window = build_window(tree, config, 0, 2 * P + 1)
            assert is_admissible(group, window)
            quotient(window, group)
            cartan_matrix(config, group)
            assert windows.made[-1] == (tree, config, 0, 2 * P + 1), (config, group)
    assert windows.made and not windows.built


@pytest.mark.parametrize("first", [*WINDOW_FIELDS, "order", "projectives", "in"])
def test_reading_a_window_builds_it_once(first, configs_cache, monkeypatch):
    """Reading any of the six explicit fields, or ``order``, ``projectives``
    or membership, builds the window once; every field then stays the object
    of that build, and each point is one object across them."""
    config = configs_cache("D4")[3]
    windows = count_windows(monkeypatch)
    w = build_window(config.tree, config, -1, 7)
    assert not windows.built
    if first == "in":
        assert Pt(0, 1) in w
    else:
        getattr(w, first)
    fields = {f: getattr(w, f) for f in WINDOW_FIELDS}
    assert w.order and w.projectives and Pt(-1, 2) in w
    assert windows.built == [w]
    assert all(getattr(w, f) is fields[f] for f in WINDOW_FIELDS)
    own = {p: p for p in w.points}
    held = [*(p for arrow in w.arrows for p in arrow), *w.tau, *w.tau.values(), *w.level, *w.out_nb, *w.in_nb]
    assert all(p is own[p] for p in held)
    with pytest.raises(AttributeError, match="no attribute 'config'"):
        w.config


def test_window_refuses_a_configuration_of_another_tree(configs_cache):
    """A Configuration must belong to the window's tree; raw residues are
    taken as they are."""
    d4 = configs_cache("D4")[0]
    with pytest.raises(InvalidInput, match="does not decorate a window of A3"):
        build_window(A3, d4, 0, 4)
    raw = build_window(A3, [(0, 1), (1, 1), (2, 1)], 0, 4)
    assert raw.residues == {(0, 1), (1, 1), (2, 1)} and raw.projectives == [Pt(i, 1, True) for i in range(5)]


def test_a_configuration_is_checked_once(monkeypatch, configs_cache):
    """C1/C2 runs once for a configuration that passes, over ``table_groups``
    followed by ``cartan_matrix``; a failing one is refused on every call,
    and a configuration built from an unchecked mask is checked."""
    calls = []
    real = ztquiver._failed_axiom
    monkeypatch.setattr(ztquiver, "_failed_axiom", lambda *args: calls.append(args) or real(*args))
    config = Configuration(A3, configs_cache("A3")[1].residues)
    projective_quiver.cache_clear()  # cartan_matrix builds its projective quiver anew
    group = table_groups(A3, config)[0]
    cartan_matrix(config, group)
    table_groups(A3, config)
    assert len(calls) == 1
    unchecked = Configuration._of_mask(A3, config.mask)
    table_groups(A3, unchecked)
    assert len(calls) == 2
    bad = Configuration(A3, [(0, 1), (0, 2), (0, 3)])
    for n in (3, 4):
        with pytest.raises(InvalidInput, match="not a configuration"):
            table_groups(A3, bad)
        assert len(calls) == n
    with pytest.raises(InvalidInput, match="not a configuration"):
        cartan_matrix(bad, group)
    assert len(calls) == 5
