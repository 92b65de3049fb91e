import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    period,
    _acting_maps,
)
from meshknit.dynkin import make_tree
from meshknit.errors import NotAPedigreeVector, WrongFamily

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
    assert period(config) == 7
    a2 = make_tree("A", 2)
    from meshknit.ztquiver import Configuration

    # both A2 configurations live on one vertex line, hence are tau-invariant
    assert period(Configuration(a2, {(0, 2), (1, 2)})) == 1
    assert any(period(c) == 2 for c in enumerate_configurations(make_tree("A", 4)))
    for name in ["A4", "D4"]:
        tree = make_tree(name[0], int(name[1]))
        L = 2 * tree.rank - 3 if name[0] == "D" else tree.rank
        for config in enumerate_configurations(tree)[:10]:
            assert L % period(config) == 0


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


def test_e7_cross_method():
    tree = make_tree("E", 7)
    pats = {c.residues for c in enumerate_configurations(tree, "patterns")}
    brute = {c.residues for c in enumerate_configurations(tree, "bruteforce")}
    assert pats == brute


@pytest.mark.e8
def test_e8_cross_method():
    """Opt-in (pytest -m e8): both methods give the same 17342 configurations."""
    tree = make_tree("E", 8)
    pats = {c.residues for c in enumerate_configurations(tree, "patterns")}
    brute = {c.residues for c in enumerate_configurations(tree, "bruteforce")}
    assert len(pats) == 17342
    assert pats == brute


def test_e7_bruteforce_needs_no_opt_in(monkeypatch):
    """Brute force is the fast method and runs without any environment switch."""
    monkeypatch.delenv("MESHKNIT_ALLOW_SLOW", raising=False)
    assert len(enumerate_configurations(make_tree("E", 7), "bruteforce")) == 2431
