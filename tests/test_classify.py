import random
import re
from functools import lru_cache
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    reference_axioms,
    reference_bruteforce,
    reference_classes,
    reference_moved,
    reference_order,
    reference_pedigree_vector,
    reference_reach,
)
import meshknit
from meshknit import classify, ztquiver
from meshknit.classify import (
    Pedigree,
    check_combinatorial_configuration,
    configurations_up_to_aut,
    dn_corner_count,
    enumerate_configurations,
    enumerate_pedigrees,
    pedigree_count,
    pedigree_dimension_vector,
    pedigree_from_dims,
    _acting_maps,
    _enumerate_patterns,
    _mask_table,
    _orbit,
    _pattern_vectors,
    _section_vectors,
)
from meshknit.dynkin import loewy_number, make_tree, tree_automorphisms
from meshknit.errors import InvalidInput, NotAPedigreeVector, WrongFamily
from meshknit.knitting import _knit_knots, dims_on_section
from meshknit.ztquiver import AdmissibleGroup, Configuration, equioriented_section

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_pedigree_counts_match_oracle():
    for n in range(1, 9):
        assert pedigree_count(n) == CATALAN[n]
    assert len(enumerate_pedigrees(3)) == 5
    assert len(enumerate_pedigrees(5)) == 42


def test_pedigree_dimension_vectors_small():
    assert pedigree_dimension_vector(Pedigree()) == (1,)
    assert pedigree_dimension_vector(Pedigree(alpha=Pedigree())) == (1, 2)
    assert pedigree_dimension_vector(Pedigree(beta=Pedigree())) == (2, 1)


def test_pedigree_vectors_match_the_inorder_walk():
    """Every pedigree with 1-8 nodes keeps one vector, built from its
    subtrees', and it is the in-order walk's depths plus one."""
    for n in range(1, 9):
        for p in enumerate_pedigrees(n):
            vec = pedigree_dimension_vector(p)
            assert vec == reference_pedigree_vector(p), p
            assert pedigree_dimension_vector(p) is vec


def test_fig3_pedigree_vector():
    vecs = {pedigree_dimension_vector(p) for p in enumerate_pedigrees(7)}
    assert (1, 4, 3, 2, 4, 3, 4) in vecs


def test_pedigree_from_dims_examples():
    assert pedigree_from_dims((1,)) == Pedigree()
    fig3 = pedigree_from_dims((1, 4, 3, 2, 4, 3, 4))
    assert pedigree_dimension_vector(fig3) == (1, 4, 3, 2, 4, 3, 4)
    with pytest.raises(NotAPedigreeVector):
        pedigree_from_dims((1, 1))
    with pytest.raises(NotAPedigreeVector):
        pedigree_from_dims((2, 3))
    with pytest.raises(NotAPedigreeVector):
        pedigree_from_dims(())


def test_pedigree_roundtrip_exhaustive():
    for n in range(1, 8):
        for p in enumerate_pedigrees(n):
            assert pedigree_from_dims(pedigree_dimension_vector(p)) == p


@st.composite
def pedigrees(draw, max_size=8):
    size = draw(st.integers(min_value=1, max_value=max_size))

    def build(k):
        if k == 1:
            return Pedigree()
        b = draw(st.integers(min_value=0, max_value=k - 1))
        left = build(b) if b else None
        right = build(k - 1 - b) if k - 1 - b else None
        return Pedigree(left, right)

    return build(size)


@given(pedigrees())
@settings(max_examples=60, deadline=None)
def test_pedigree_roundtrip_property(p):
    assert pedigree_from_dims(pedigree_dimension_vector(p)) == p


def test_combinatorial_axioms(fig4):
    tree, _, _, config = fig4
    assert check_combinatorial_configuration(tree, config.residues) == (True, None)
    assert check_combinatorial_configuration(tree, set()) == (False, "C1")
    a2 = make_tree("A", 2)
    assert check_combinatorial_configuration(a2, {(0, 1), (0, 2)}) == (False, "C2")


@pytest.mark.parametrize(
    "residues, named",
    [
        ([(0, 9)], "(0, 9)"),
        ([(0.5, 1)], "(0.5, 1)"),
        ([("a", 1)], "('a', 1)"),
        ([("%d", 1)], "('%d', 1)"),
        ([(0, 1), (0, 2, 3)], "(0, 2, 3)"),
        (iter([(0, 1), (4, 0)]), "(4, 0)"),
    ],
)
def test_axioms_refuse_what_is_not_a_residue(residues, named):
    """The public check names the first entry that is not an (int, vertex)
    pair of the tree, from a list or a one-shot iterator alike."""
    with pytest.raises(InvalidInput, match=re.escape(f"{named} is not a residue of A3")):
        meshknit.check_combinatorial_configuration(make_tree("A", 3), residues)


def test_axioms_keep_their_verdicts_beside_a_bad_residue():
    """Only an input that failed before is refused: a set already failing C2
    on its least members keeps that verdict, and a float slice that reduces
    to a residue is read as before."""
    a3 = make_tree("A", 3)
    assert meshknit.check_combinatorial_configuration(a3, [(0, 1), (0, 2), (0, 9)]) == (False, "C2")
    assert meshknit.check_combinatorial_configuration(a3, [(3.0, 1)]) == (False, "C1")


def test_every_enumerated_configuration_is_combinatorial(configs_cache):
    for name in ["A4", "D4", "D5"]:
        tree = make_tree(name[0], int(name[1]))
        for config in configs_cache(name):
            assert check_combinatorial_configuration(tree, config.residues) == (True, None)


def test_configuration_counts(configs_cache):
    assert len(configs_cache("A2")) == 2
    assert len(configs_cache("A3")) == 5
    assert len(configs_cache("D4")) == 20


def test_methods_agree_small(configs_cache):
    for name in ["A1", "A2", "A3", "A4", "A5", "D4"]:
        pats = {c.residues for c in configs_cache(name, "patterns")}
        brute = {c.residues for c in configs_cache(name, "bruteforce")}
        assert pats == brute, name


@lru_cache(maxsize=None)
def _reference_bruteforce(name):
    return reference_bruteforce(make_tree(name[0], int(name[1:])))


@pytest.mark.parametrize(
    "name",
    [f"A{n}" for n in range(1, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", *(pytest.param(name, marks=pytest.mark.e8) for name in ("D9", "E8"))],
)
def test_bruteforce_matches_reference(configs_cache, name):
    """The exact-cover search, which assumes no set size, finds the sets of
    the former search for independent sets of exactly rank points.  That
    search uses no symmetry; on D9 and E8 (opt-in, 1-2 s each) it is the only
    check of the brute-force list that does not rest on tau."""
    assert {c.residues for c in configs_cache(name, "bruteforce")} == _reference_bruteforce(name)


@pytest.mark.parametrize(
    "name", [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 10)] + ["E6", "E7", "E8"]
)
def test_reach_table_commutes_with_tau(name):
    """Both lists of ``_residue_reach`` commute with tau, a rotation of the
    residue masks by rank bits: the row of (i + 1, x) is the row of (i, x)
    rotated right by rank bits.  The brute-force search rotates its tau-orbit
    representatives on this precondition."""
    tree = make_tree(name[0], int(name[1:]))
    n, m = tree.rank, loewy_number(tree) * tree.rank
    for rows in ztquiver._residue_reach(tree):
        for p in range(n, m):
            assert rows[p - n] == (rows[p] >> n | rows[p] << m - n) & (1 << m) - 1, p


@pytest.mark.parametrize(
    "name", [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7"]
)
def test_tau_representatives_partition_the_reference(name):
    """The search for the k-th vertex v_k finds exactly the reference sets
    that hold (0, v_k) and no residue of v_1 ... v_(k-1), each once, and the
    vertices come once each, the one whose residue (0, v) reaches or is
    reached by the most residues first, ties by vertex."""
    tree = make_tree(name[0], int(name[1:]))
    bits, hits = ztquiver._residue_bits(tree), reference_reach(tree)
    excluded = {x: len(hits[0, x] | {r for r in hits if (0, x) in hits[r]}) for x in tree.vertices}
    reps = classify._tau_representatives(tree)
    assert [x for x, _ in reps] == sorted(tree.vertices, key=lambda x: (-excluded[x], x))
    before = set()
    for x, masks in reps:
        sets = [frozenset(r for r, bit in bits.items() if mask & bit) for mask in masks]
        assert len(set(sets)) == len(sets), x
        expected = {e for e in _reference_bruteforce(name) if (0, x) in e and not {y for _, y in e} & before}
        assert set(sets) == expected, x
        before.add(x)


def _subsets_passing_the_axioms(tree):
    """Every subset of the fundamental domain, of any size, passing C1 and C2."""
    domain = [(i, x) for i in range(loewy_number(tree)) for x in tree.vertices]
    subsets = (
        frozenset(u for k, u in enumerate(domain) if mask >> k & 1)
        for mask in range(1 << len(domain))
    )
    return {e for e in subsets if check_combinatorial_configuration(tree, e)[0]}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bruteforce_is_every_subset_passing_the_axioms(configs_cache, n):
    """Oracle: every subset of the fundamental domain of A_n, of any size,
    that passes C1 and C2, and only those, is a brute-force configuration."""
    expected = {c.residues for c in configs_cache(f"A{n}", "bruteforce")}
    assert _subsets_passing_the_axioms(make_tree("A", n)) == expected


def test_bruteforce_follows_any_reach_relation():
    """The search and the C1/C2 check read the one reach table,
    ``ztquiver._residue_reach``, and on random reach relations among the
    residues of A3 written into it the search still finds exactly the
    subsets passing both axioms, its tau-orbit representatives each once.
    Each relation draws a row for every residue on slice 0 and rotates it to
    the other slices, so that it commutes with tau, as the real table does
    and as rotating the representatives needs.  Unlike the mesh category's,
    these relations have no duality between reaching and being reached, so a
    search that reads C1 backwards fails here.  Both read the table: a search
    that did not would keep finding the real configurations, and the random
    relations change the answer; a check that did not would disagree with
    the search there.  The sets found differ in size, so they are compared
    as sets, not by mask order."""
    tree = make_tree("A", 3)
    bits = ztquiver._residue_bits(tree)
    n, m = tree.rank, len(bits)
    reaches, reached = ztquiver._residue_reach(tree)
    saved = reaches[:], reached[:]
    real = {c.residues for c in enumerate_configurations(tree, "bruteforce")}
    rng = random.Random(0)
    changed = 0
    try:
        for trial in range(60):
            p = (0.1, 0.2, 0.3)[trial % 3]
            rows = {x: bits[0, x] | sum(1 << v for v in range(m) if rng.random() < p) for x in tree.vertices}
            for (i, x), bit in bits.items():
                reaches[bit.bit_length() - 1] = (rows[x] >> i * n | rows[x] << m - i * n) & (1 << m) - 1
            reached[:] = [sum(1 << u for u in range(m) if reaches[u] >> v & 1) for v in range(m)]
            found = [key for _, keys in classify._tau_representatives(tree) for key in keys]
            assert len(set(found)) == len(found), trial
            masks = classify._enumerate_bruteforce(tree)
            sets = {frozenset(r for r, bit in bits.items() if key & bit) for key in masks}
            assert sets == _subsets_passing_the_axioms(tree), trial
            changed += sets != real
    finally:
        reaches[:], reached[:] = saved
    assert changed


def _groups(tree):
    """tau, each graph automorphism and, for even A, the glide, as admissible groups."""
    groups = [AdmissibleGroup(1), *(AdmissibleGroup(0, aut) for aut in tree_automorphisms(tree)[1:])]
    return groups + [AdmissibleGroup(0, glide=True)] if tree.family == "A" and tree.rank % 2 == 0 else groups


@pytest.mark.parametrize(
    "name", [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 8)] + ["E6", "E7"]
)
def test_mask_check_and_moved_match_the_references(configs_cache, name):
    """On every configuration, the mask check passes as the residue-set
    reference of C1/C2 does, and ``GroupAction.moved`` names the residues
    that the reference finds through each generator's affine map."""
    tree = make_tree(name[0], int(name[1:]))
    actions = [(group, group.action(tree)) for group in _groups(tree)]
    for config in configs_cache(name):
        assert check_combinatorial_configuration(tree, config.residues) == reference_axioms(tree, config.residues)
        assert ztquiver._failed_axiom(tree, config.mask) is None
        for group, action in actions:
            assert action.moved(config.residues) == reference_moved(group, tree, config.residues), (config, group)


_bruteforce = lru_cache(maxsize=None)(lambda tree: enumerate_configurations(tree, "bruteforce"))


@st.composite
def drawn_residue_sets(draw):
    """A tree and a set of its residues, slices drawn past [0, L), of any
    size up to twice the rank; often a configuration with a few residues
    dropped or added."""
    tree = make_tree(*draw(st.sampled_from([("A", 3), ("A", 6), ("D", 4), ("D", 7), ("E", 6), ("E", 8)])))
    L = loewy_number(tree)
    residue = st.tuples(st.integers(-L, 2 * L), st.sampled_from(tree.vertices))
    drawn = draw(st.lists(residue, max_size=2 * tree.rank))
    if draw(st.booleans()):
        config = draw(st.sampled_from(_bruteforce(tree)))
        kept = draw(st.sets(st.sampled_from(sorted(config.residues))))
        drawn = drawn[: draw(st.integers(0, 2))] + sorted(kept)
    return tree, drawn


@given(drawn_residue_sets())
@settings(max_examples=200, deadline=None)
def test_mask_check_and_moved_match_the_references_on_drawn_sets(pair):
    """On residue sets of any size, configurations or not, the public check
    gives the reference's verdict, the mask check agrees, and ``moved`` names
    what the reference names."""
    tree, drawn = pair
    L, bits = loewy_number(tree), ztquiver._residue_bits(tree)
    residues = frozenset((i % L, x) for i, x in drawn)
    verdict = reference_axioms(tree, drawn)
    assert check_combinatorial_configuration(tree, drawn) == verdict
    assert ztquiver._failed_axiom(tree, sum(bits[r] for r in residues)) == verdict[1]
    for group in _groups(tree):
        assert group.action(tree).moved(residues) == reference_moved(group, tree, residues)


def test_enumerate_configurations_refuses_an_unknown_method():
    """A typed refusal that library callers may still catch as ValueError."""
    with pytest.raises(InvalidInput, match="'foo'") as err:
        enumerate_configurations(make_tree("A", 3), "foo")
    assert isinstance(err.value, ValueError)


def test_type_a_set_closed_under_tau(configs_cache):
    for name in ["A3", "A4"]:
        all_res = {c.residues for c in configs_cache(name)}
        for c in configs_cache(name):
            assert c.shifted(1).residues in all_res


def test_dn_corner_count(configs_cache):
    for config in configs_cache("D5"):
        h, high = dn_corner_count(config)
        assert h in (2, 3)
        slices = [i for i, _ in high]
        if h == 2:
            assert len(set(slices)) == 1
        else:
            assert len(set(slices)) == 3
    with pytest.raises(WrongFamily):
        dn_corner_count(configs_cache("D4")[0])
    with pytest.raises(WrongFamily):
        dn_corner_count(configs_cache("A4")[0])


@pytest.mark.parametrize(
    "residues",
    [
        [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)],  # no high point
        [(0, 4), (1, 5), (2, 1), (3, 1), (4, 1)],  # two high points on two slices
    ],
)
def test_dn_corner_count_refuses_non_configurations(residues):
    """A D5 residue set that breaks the axioms is refused with a typed error
    before the corner invariant is read."""
    config = Configuration(make_tree("D", 5), residues)
    with pytest.raises(InvalidInput, match="not a configuration"):
        dn_corner_count(config)


@pytest.mark.parametrize("tree_name,config_name", [("A3", "D4"), ("D4", "A3")])
def test_up_to_aut_refuses_configurations_of_another_tree(tree_name, config_name, configs_cache):
    """Configurations of another tree are refused by name, before any map of
    the wrong tree is applied to them."""
    tree = make_tree(tree_name[0], int(tree_name[1]))
    with pytest.raises(InvalidInput, match=f"belongs to {config_name}, not to {tree_name}"):
        configurations_up_to_aut(tree, configs_cache(config_name))


def test_three_cornered_sigma_stability_needs_triple_rank(configs_cache):
    """Configurations with period below the full modulus exist for D6 (3 | 6)
    but not for D5."""
    assert any(c.period() == 3 for c in configs_cache("D6"))
    assert all(c.period() == 7 for c in configs_cache("D5"))


def test_classes_d4(configs_cache):
    classes = configurations_up_to_aut(make_tree("D", 4), configs_cache("D4"))
    assert len(classes) == 2
    assert sorted(c.orbit_size for c in classes) == [5, 15]
    assert sum(c.orbit_size for c in classes) == 20
    sizes = {c.orbit_size: c.stabilizer_order for c in classes}
    assert sizes == {5: 6, 15: 2}


def test_classes_a2_a1(configs_cache):
    classes = configurations_up_to_aut(make_tree("A", 2), configs_cache("A2"))
    assert len(classes) == 1 and classes[0].orbit_size == 2
    classes = configurations_up_to_aut(make_tree("A", 1), configs_cache("A1"))
    assert len(classes) == 1 and classes[0].orbit_size == 1


def test_canonical_form_is_true_invariant(configs_cache):
    """Two configurations land in one class iff an acting element maps one
    to the other (brute-force orbit computation)."""
    for name in ["A4", "D4"]:
        tree = make_tree(name[0], int(name[1]))
        configs = configs_cache(name)
        maps = _acting_maps(tree)
        classes = configurations_up_to_aut(tree, configs)
        union = []
        for cls in classes:
            orbit = {
                frozenset(m(i, x) for i, x in cls.representative.residues) for _, m in maps
            }
            assert len(orbit) == cls.orbit_size
            union.extend(orbit)
        assert sorted(union, key=sorted) == sorted((c.residues for c in configs), key=sorted)
        assert len(union) == len(configs)


def test_period_examples(fig4):
    _, _, _, config = fig4
    assert config.period() == 7
    a2 = make_tree("A", 2)
    from meshknit.ztquiver import Configuration

    # both A2 configurations live on one vertex line, hence are tau-invariant
    assert Configuration(a2, {(0, 2), (1, 2)}).period() == 1
    assert any(c.period() == 2 for c in enumerate_configurations(make_tree("A", 4)))
    for name in ["A4", "D4"]:
        tree = make_tree(name[0], int(name[1]))
        L = 2 * tree.rank - 3 if name[0] == "D" else tree.rank
        for config in enumerate_configurations(tree)[:10]:
            assert L % config.period() == 0


@given(st.sets(st.tuples(st.integers(0, 2), st.integers(1, 3)), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_axioms_match_bruteforce_membership_a3(residues):
    """A size-3 residue set is a configuration of A3 iff it passes C1/C2."""
    tree = make_tree("A", 3)
    ok, _ = check_combinatorial_configuration(tree, residues)
    normalized = frozenset((i % 3, x) for i, x in residues)
    if len(normalized) != 3:
        return
    member = normalized in {c.residues for c in enumerate_configurations(tree)}
    assert ok == member


SECTION_VECTOR_TREES = [f"A{n}" for n in range(2, 8)] + [f"D{n}" for n in range(4, 8)] + ["E6", "E7"]


@pytest.mark.parametrize("name", SECTION_VECTOR_TREES)
def test_section_vectors_match_hom_dimensions(name):
    """The carpet reading gives the section vector of every configuration,
    as the hom-dimension route computes it from brute-force enumeration."""
    tree = make_tree(name[0], int(name[1:]))
    section = equioriented_section(tree)
    configs = enumerate_configurations(tree, "bruteforce")
    assert _section_vectors(tree) == {dims_on_section(c, section) for c in configs}


@pytest.mark.parametrize("name", [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 8)] + ["E6", "E7"])
def test_the_run_from_a_pass_vector_knots_the_tau_image(name):
    """For every seed vector and j < L, the run from the vector after pass j
    knots tau^j C: C's mask rotated left by j * rank bits.  In type A that
    vector is a pedigree vector again.  The patterns method skips these runs."""
    tree = make_tree(name[0], int(name[1:]))
    section = equioriented_section(tree)
    L, n = loewy_number(tree), tree.rank
    m = L * n
    pedigree_vectors = {p.vector for p in enumerate_pedigrees(n)} if tree.family == "A" else None
    for vec in _pattern_vectors(tree):
        config, _, vectors = _knit_knots(tree, section, vec)
        doubled = config.mask << m | config.mask
        for j in range(L):
            assert _knit_knots(tree, section, vectors[j])[0].mask == doubled >> m - j * n & (1 << m) - 1, (vec, j)
            assert pedigree_vectors is None or vectors[j] in pedigree_vectors, (vec, j)


def test_patterns_knit_one_run_per_tau_orbit(configs_cache, monkeypatch):
    """On A_n the patterns method knits one run per tau-orbit of the
    brute-force list: 1, 2, 3, 6, 10, 28, 63 and 190 runs on A1-A8, not the
    Catalan many pedigree vectors."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _knit_knots(*args)

    monkeypatch.setattr(classify, "_knit_knots", counted)
    counts = []
    for n in range(1, 9):
        tree = make_tree("A", n)
        calls.clear()
        masks = _enumerate_patterns(tree)
        brute = configs_cache(f"A{n}", "bruteforce")
        assert masks == {c.mask for c in brute}
        # each tau-orbit keyed by its least residue tuple
        L = loewy_number(tree)
        orbits = {min(tuple(sorted(((i + k) % L, x) for i, x in c.residues)) for k in range(L)) for c in brute}
        assert len(calls) == len(orbits)
        counts.append(len(calls))
    assert counts == [1, 2, 3, 6, 10, 28, 63, 190]


@pytest.mark.parametrize(
    "name",
    [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"],
)
def test_acting_maps_form_a_group_on_residues(name):
    """Distinct on residues and closed under composition, so one pass of
    seeds times maps closes a seed set under symmetry."""
    tree = make_tree(name[0], int(name[1:]))
    L = loewy_number(tree)

    def key(m):
        return tuple(s % L for s in m.shift), m.perm

    maps = [m for _, m in _acting_maps(tree)]
    keys = {key(m) for m in maps}
    assert len(keys) == len(maps)
    assert all(key(a.compose(b)) in keys for a in maps for b in maps)


@pytest.mark.parametrize(
    "name",
    [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"],
)
def test_index_tables_permute_as_the_acting_maps(name):
    """The encoding puts residue k = i * rank + x - 1 at bit m - 1 - k, and
    the mask table acts as the acting maps do: for each map tau^k * base,
    residue by residue, the base's image bit (the residue's own bit for the
    identity) rotated left by k * rank bits is the bit of the map's image,
    and ``_orbit`` lists those images."""
    tree = make_tree(name[0], int(name[1:]))
    L, n = loewy_number(tree), tree.rank
    m = L * n
    residues = sorted((i, x) for i in range(L) for x in tree.vertices)
    bits = ztquiver._residue_bits(tree)
    assert list(bits.items()) == [((i, x), 1 << m - 1 - (i * n + x - 1)) for i, x in residues]
    at = {bit.bit_length() - 1: r for r, bit in bits.items()}
    table = [[bits[at[p]] for p in range(m)], *_mask_table(tree)]
    for images in table:
        assert sorted(images) == sorted(bits.values())
    maps = _acting_maps(tree)
    assert len(maps) == L * len(table)
    for j, (_, mp) in enumerate(maps):
        k, b = divmod(j, len(table))
        for p, r in at.items():
            y = table[b][p]
            assert (y << k * n | y >> m - k * n) & (1 << m) - 1 == bits[mp(*r)], (j, r)
    for r in residues:
        assert _orbit(tree, bits[r]) == [bits[mp(*r)] for _, mp in maps]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_dn_counts_match_closed_form(n):
    """Both methods give (3n - 4)/n * C(2n - 3, n - 1) configurations of D_n
    (Riedtmann, class D_n, 1983): 20, 77, 294, 1122, 4290, 16445."""
    want = (3 * n - 4) * comb(2 * n - 3, n - 1) // n
    tree = make_tree("D", n)
    # not kept in configs_cache: D9 alone would hold 32890 configurations
    pats = enumerate_configurations(tree, "patterns")
    brute = enumerate_configurations(tree, "bruteforce")
    assert len(pats) == want
    assert [c.residues for c in pats] == [c.residues for c in brute]


def _positive_catalan(tree):
    """prod (h + e_i - 1) / (e_i + 1) over the exponents e_i of the tree,
    with h and the e_i read off the root system: the roots are the closure
    of the unit vectors under the reflections s_i(x) = x - (x, e_i) e_i, h
    is 2 |positive roots| / rank, and the exponents are the partition dual to
    the numbers of positive roots of each height (Kostant 1959)."""
    n = tree.rank
    adjacent = {frozenset(edge) for edge in tree.edges}

    def form(x, i):
        return 2 * x[i - 1] - sum(x[j - 1] for j in tree.vertices if frozenset((i, j)) in adjacent)

    def reflections(x):
        for i in tree.vertices:
            yield x[: i - 1] + (x[i - 1] - form(x, i),) + x[i:]

    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    positive = [x for x in ztquiver.reach(units, reflections) if min(x) >= 0]
    h = 2 * len(positive) // n
    heights = [sum(1 for x in positive if sum(x) == k) for k in range(1, h)]
    exponents = [sum(1 for c in heights if c >= j) for j in range(1, n + 1)]
    numerator = prod(h + e - 1 for e in exponents)
    denominator = prod(e + 1 for e in exponents)
    assert numerator % denominator == 0
    return numerator // denominator


@pytest.mark.parametrize(
    "name", [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 10)] + ["E6", "E7", "E8"]
)
def test_configuration_counts_are_the_positive_catalan_numbers(name):
    """Brute force finds N+(tree) = prod (h + e_i - 1) / (e_i + 1)
    configurations, the positive Catalan number of the root system
    (Fomin-Zelevinsky, "Y-systems and generalized associahedra", 2003):
    Catalan(n) on A_n, 20 on D4, 16445 on D9, 418, 2431 and 17342 on E6-E8.
    Only the counts are compared."""
    tree = make_tree(name[0], int(name[1:]))
    assert len(enumerate_configurations(tree, "bruteforce")) == _positive_catalan(tree)


def test_e7_cross_method():
    tree = make_tree("E", 7)
    pats = {c.residues for c in enumerate_configurations(tree, "patterns")}
    brute = {c.residues for c in enumerate_configurations(tree, "bruteforce")}
    assert pats == brute


def test_e8_cross_method():
    """Both methods give the same 17342 configurations, each of 8 points:
    brute force assumes no size, so this checks the count."""
    tree = make_tree("E", 8)
    pats = {c.residues for c in enumerate_configurations(tree, "patterns")}
    brute = {c.residues for c in enumerate_configurations(tree, "bruteforce")}
    assert len(pats) == 17342
    assert pats == brute
    assert {len(res) for res in brute} == {8}


def test_e7_bruteforce_needs_no_opt_in(monkeypatch):
    """E7 brute force takes well under a second and runs without any environment switch."""
    monkeypatch.delenv("MESHKNIT_ALLOW_SLOW", raising=False)
    assert len(enumerate_configurations(make_tree("E", 7), "bruteforce")) == 2431


CLASS_TREES = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 8)] + ["E6", "E7"]


@pytest.mark.parametrize("name", CLASS_TREES)
def test_classes_match_the_reference(configs_cache, name):
    """Representatives, orbit sizes and stabiliser names are those of the
    reference on residue tuples, on the full list, every third
    configuration, the reversed list and a list with duplicates.  On every
    third configuration the representative of some class of a larger tree
    is not in the list."""
    tree = make_tree(name[0], int(name[1:]))
    configs = configs_cache(name)
    for part in (configs, configs[::3], configs[::-1], configs + configs[::2]):
        got = configurations_up_to_aut(tree, part)
        assert [(c.representative.residues, c.orbit_size, c.stabilizer) for c in got] == reference_classes(
            tree, part
        )
    if len(configs) > 100:
        given = {c.residues for c in configs[::3]}
        assert any(c.representative.residues not in given for c in configurations_up_to_aut(tree, configs[::3]))


@pytest.mark.parametrize("method", ["patterns", "bruteforce"])
@pytest.mark.parametrize("name", CLASS_TREES)
def test_enumeration_order_is_the_reference_order(configs_cache, name, method):
    """Both methods list their configurations by sorted residue tuple."""
    sets = [c.residues for c in configs_cache(name, method)]
    assert sets == reference_order(set(sets))


@st.composite
def residue_set_pairs(draw):
    """A tree and two residue sets of it of one size, often sharing most members."""
    tree = make_tree(*draw(st.sampled_from([("A", 3), ("A", 6), ("D", 4), ("D", 7), ("E", 6), ("E", 8)])))
    domain = list(ztquiver._residue_bits(tree))
    a = draw(st.sets(st.sampled_from(domain), min_size=1, max_size=len(domain)))
    rest = [r for r in domain if r not in a]
    swaps = draw(st.integers(0, min(len(a), len(rest))))
    drop = draw(st.sets(st.sampled_from(sorted(a)), min_size=swaps, max_size=swaps)) if swaps else set()
    add = draw(st.sets(st.sampled_from(rest), min_size=swaps, max_size=swaps)) if swaps else set()
    return tree, frozenset(a), (a - drop) | add


@given(residue_set_pairs())
@settings(max_examples=80, deadline=None)
def test_mask_order_reverses_lexicographic_order_within_one_size(pair):
    """For residue sets of one size, the larger mask is the lexicographically
    smaller sorted residue tuple."""
    tree, a, b = pair
    bits = ztquiver._residue_bits(tree)
    mask_a, mask_b = sum(bits[r] for r in a), sum(bits[r] for r in b)
    assert len(a) == len(b)
    assert (mask_a > mask_b) == (sorted(a) < sorted(b))
    assert (mask_a == mask_b) == (a == b)
