from itertools import permutations

import pytest

from helpers import reference_extend_automorphism

from meshknit.dynkin import (
    AffineMap,
    loewy_number,
    make_tree,
    tree_automorphisms,
    tree_from_name,
)
from meshknit.errors import InvalidType
from meshknit.ztquiver import _twist


def test_loewy_table():
    assert loewy_number(make_tree("A", 7)) == 7
    assert loewy_number(make_tree("D", 5)) == 7
    assert loewy_number(make_tree("E", 8)) == 29
    assert loewy_number(make_tree("E", 6)) == 11
    assert loewy_number(make_tree("E", 7)) == 17
    for n in range(4, 9):
        assert loewy_number(make_tree("D", n)) == 2 * n - 3


def test_loewy_at_least_rank_with_equality_only_for_A():
    for family, ranks in [("A", range(1, 9)), ("D", range(4, 9)), ("E", (6, 7, 8))]:
        for n in ranks:
            t = make_tree(family, n)
            if family == "A":
                assert loewy_number(t) == n
            else:
                assert loewy_number(t) > n


def test_make_tree_shapes_and_errors():
    a1 = make_tree("A", 1)
    assert a1.edges == () and list(a1.vertices) == [1]
    e6 = make_tree("E", 6)
    assert set(e6.edges) == {(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)}
    d4 = make_tree("D", 4)
    assert set(d4.edges) == {(1, 2), (2, 3), (2, 4)}
    with pytest.raises(InvalidType):
        make_tree("D", 3)
    with pytest.raises(InvalidType):
        make_tree("E", 5)
    with pytest.raises(InvalidType):
        make_tree("A", 0)
    with pytest.raises(InvalidType):
        make_tree("F", 4)
    assert tree_from_name("D_5").rank == 5
    with pytest.raises(InvalidType):
        tree_from_name("Q3")


def test_make_tree_is_one_object_per_family_and_rank():
    """Trees are memoised, so per-tree caches and comparisons meet one object."""
    assert make_tree("D", 5) is make_tree("D", 5)
    assert make_tree(family="D", rank=5) is make_tree("D", 5) is tree_from_name("D_5")
    assert make_tree("D", 5) is not make_tree("A", 5)


@pytest.mark.parametrize("rank", [3.0, True])
def test_make_tree_refuses_a_rank_that_is_not_an_int(rank):
    """A float or bool rank equal to a valid int is refused, not taken for
    the cached tree of that int."""
    make_tree("A", int(rank))
    with pytest.raises(InvalidType, match="a rank is an int"):
        make_tree("A", rank)


def test_every_tree_is_a_tree():
    for family, ranks in [("A", range(1, 9)), ("D", range(4, 9)), ("E", (6, 7, 8))]:
        for n in ranks:
            t = make_tree(family, n)
            assert len(t.edges) == n - 1
            seen = {1}
            todo = [1]
            while todo:
                v = todo.pop()
                for w in t.neighbors[v]:
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
            assert seen == set(t.vertices)


def brute_force_automorphisms(tree):
    edge_set = {frozenset(e) for e in tree.edges}
    out = []
    for perm in permutations(tree.vertices):
        mapping = dict(zip(tree.vertices, perm))
        if all(frozenset((mapping[a], mapping[b])) in edge_set for a, b in tree.edges):
            out.append(tuple(perm))
    return sorted(out)


@pytest.mark.parametrize(
    "name,order",
    [("A1", 1), ("A2", 2), ("A5", 2), ("D4", 6), ("D5", 2), ("D6", 2), ("E6", 2), ("E7", 1), ("E8", 1)],
)
def test_automorphism_group_orders(name, order):
    tree = tree_from_name(name)
    auts = tree_automorphisms(tree)
    assert len(auts) == order
    assert sorted(a.perm[1:] for a in auts) == brute_force_automorphisms(tree)


def test_a5_generator_is_the_flip():
    tree = make_tree("A", 5)
    flip = _twist(tree, "phi")
    assert flip.perm[1:] == tuple(6 - i for i in range(1, 6))
    assert flip.order == 2


def test_d4_group_is_symmetric_on_outer_vertices():
    tree = make_tree("D", 4)
    auts = tree_automorphisms(tree)
    assert all(a.perm[2] == 2 for a in auts)
    assert {a.order for a in auts} == {1, 2, 3}
    rot = _twist(tree, "sigma")
    assert rot.order == 3
    # closed under composition and inverse
    mappings = {a.perm[1:] for a in auts}
    for a in auts:
        assert a.inverse().perm[1:] in mappings
        for b in auts:
            assert a.compose(b).perm[1:] in mappings


def test_branch_vertex_fixed():
    for name in ["D5", "D6", "D7", "E6", "E7", "E8"]:
        tree = tree_from_name(name)
        branch = tree.branch_vertex
        for aut in tree_automorphisms(tree):
            assert aut.perm[branch] == branch


def test_depth_map_follows_edges():
    for name in ["A4", "D6", "E8"]:
        tree = tree_from_name(name)
        for lo, hi in tree.edges:
            assert tree.depth[hi] == tree.depth[lo] + 1


def test_automorphism_order_and_identity():
    ident = tree_automorphisms(make_tree("A", 3))[0]
    assert ident == AffineMap.translation(make_tree("A", 3), 0) and ident.order == 1


@pytest.mark.parametrize("name", ["A1", "A2", "A5", "A6", "D4", "D5", "D8", "E6", "E7", "E8"])
def test_automorphisms_are_the_reference_extensions(name):
    """Each graph automorphism is the extension of its vertex permutation
    that the reference builds, and every permutation preserving the edges
    occurs once, in vertex-permutation order; the D4 rotation too."""
    tree = tree_from_name(name)
    want = [reference_extend_automorphism(tree, m) for m in brute_force_automorphisms(tree)]
    assert list(tree_automorphisms(tree)) == want
    if name == "D4":
        assert _twist(tree, "sigma") == reference_extend_automorphism(tree, (3, 2, 4, 1))
