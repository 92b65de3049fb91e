import pytest

from helpers import naive_hom_dim, path_exists

from meshknit.dynkin import loewy_number, make_tree, tree_automorphisms
from meshknit.errors import WindowTooSmall
from meshknit.knitting import _domain_and_window
from meshknit.mesh import (
    MeshTransporter,
    ProjectiveQuiver,
    complete_morphisms,
    hom_dim_oracle,
    nakayama,
    nu_inverse,
    precedes,
    starting_function,
)
from meshknit.ztquiver import Pt, build_window, equioriented_section, extend_automorphism

A2 = make_tree("A", 2)


def test_oracle_examples_za2():
    w = build_window(A2, None, 0, 2)
    assert hom_dim_oracle(w, Pt(0, 1), Pt(0, 2)) == 1
    assert hom_dim_oracle(w, Pt(0, 1), Pt(0, 1)) == 1
    assert hom_dim_oracle(w, Pt(0, 1), Pt(1, 1)) == 0
    with pytest.raises(WindowTooSmall):
        hom_dim_oracle(w, Pt(0, 1), Pt(9, 1))


@pytest.mark.parametrize(
    "name,config,span",
    [
        ("A3", None, 4),
        ("A2", [(0, 1), (1, 1)], 4),
        ("D4", None, 6),
        ("A2", [(0, 2), (1, 2)], 4),
    ],
)
def test_transporter_matches_naive_reference(name, config, span):
    tree = make_tree(name[0], int(name[1]))
    w = build_window(tree, config, 0, span)
    for v in tree.vertices:
        for proj in (False, True):
            x = Pt(0, v, proj)
            if x not in w.points:
                continue
            tr = MeshTransporter(w, x)
            for y in sorted(w.points):
                assert tr.dim(y) == naive_hom_dim(w, x, y), (x, y)


def test_starting_function_seed_and_support():
    tree = make_tree("A", 3)
    x = Pt(0, 2)
    table = starting_function(tree, x)
    assert table[x] == 1
    L = loewy_number(tree)
    nu_inv = nu_inverse(tree, x)
    lvl = table.window.level
    for p in table.support():
        assert lvl[x] <= lvl[p] <= lvl[nu_inv]


def test_starting_function_agrees_with_oracle_a3_five_slices():
    tree = make_tree("A", 3)
    w = build_window(tree, None, 0, 4)
    for v in tree.vertices:
        x = Pt(0, v)
        table = starting_function(tree, x, w)
        tr = MeshTransporter(w, x)
        for p in sorted(w.points):
            assert table[p] == tr.dim(p)


def _routes_agree(tree, window, source):
    table = starting_function(tree, source, window)
    tr = MeshTransporter(window, source)
    wrong = [(p, table[p], tr.dim(p)) for p in window.order if table[p] != tr.dim(p)]
    assert not wrong, (window.config, source, wrong[:3])


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6"])
def test_starting_function_agrees_with_transporter_on_configuration_windows(name, configs_cache):
    """The recurrence equals the transporter dimension at every point, from
    projective sources, on the two window shapes of the dimension-only callers.

    * cartan_matrix's ``[-1, R + 2L + 2]`` with R = L, from the lifts in
      slices [0, L): one source per nu-orbit.  The window reaches past every
      source's support, so the check is invariant under tau and one
      configuration per tau-orbit covers them all.
    * dims_on_section's window behind the equioriented section, from every
      projective of the window.  It is clipped at the section, so every
      configuration is checked (every tenth for E6).
    """
    tree = make_tree(name[0], int(name[1]))
    L = loewy_number(tree)
    section = equioriented_section(tree)
    configs = configs_cache(name)
    tau_orbits = {min(c.shifted(k).canonical_key() for k in range(L)): c for c in configs}
    for config in tau_orbits.values():
        w = build_window(tree, config, -1, 3 * L + 2)
        for i, x in config.lifts(0, L - 1):
            _routes_agree(tree, w, Pt(i, x, True))
    for config in configs[:: 10 if name == "E6" else 1]:
        _, w = _domain_and_window(config, section)
        for p in w.projectives:
            _routes_agree(tree, w, p)


def test_nakayama_examples():
    assert nakayama(A2, Pt(0, 2)) == Pt(0, 1)
    a1 = make_tree("A", 1)
    assert nakayama(a1, Pt(5, 1)) == Pt(5, 1)
    for name in ["A3", "D4", "E6"]:
        tree = make_tree(name[0], int(name[1]))
        L = loewy_number(tree)
        for v in tree.vertices:
            p = Pt(2, v)
            assert nakayama(tree, nakayama(tree, p)) == Pt(2 - (L - 1), v)
            assert nu_inverse(tree, nakayama(tree, p)) == p


def test_serre_symmetry_boundary_dimension_one():
    for name in ["A5", "D5", "E6"]:
        tree = make_tree(name[0], int(name[1]))
        for v in tree.vertices:
            x = Pt(0, v)
            table = starting_function(tree, x)
            assert table[nu_inverse(tree, x)] == 1


def test_nu_commutes_with_tau_and_tree_automorphisms():
    for name in ["A5", "D4", "D5", "E6"]:
        tree = make_tree(name[0], int(name[1]))
        for v in tree.vertices:
            p = Pt(0, v)
            assert nakayama(tree, Pt(p.slice - 3, p.vertex)) == Pt(
                nakayama(tree, p).slice - 3, nakayama(tree, p).vertex
            )
        for aut in tree_automorphisms(tree):
            m = extend_automorphism(tree, aut)
            for v in tree.vertices:
                p = Pt(0, v)
                np_ = nakayama(tree, p)
                i, x = m(p.slice, p.vertex)
                j, y = m(np_.slice, np_.vertex)
                assert nakayama(tree, Pt(i, x)) == Pt(j, y)


def test_precedes(fig4):
    w = build_window(A2, None, 0, 2)
    assert precedes(w, Pt(0, 1), Pt(0, 1))
    assert precedes(w, Pt(0, 1), Pt(1, 1))
    assert not precedes(w, Pt(1, 1), Pt(0, 1))
    tree, _, _, config = fig4
    w = build_window(tree, config, 0, 3)
    for x in w.points:
        for y in w.points:
            assert precedes(w, x, y) == path_exists(w, x, y), (x, y)


def test_projective_socle_behavior(fig4):
    tree, _, _, config = fig4
    L = loewy_number(tree)
    w = build_window(tree, config, 0, 2 * L + 2)
    c_star = Pt(1, 1, True)
    tr = MeshTransporter(w, c_star)
    socle = Pt(1 + L, 1, True)
    assert tr.dim(socle) == 1
    lvl = w.level
    for y in w.points:
        if lvl[y] > lvl[socle]:
            assert tr.dim(y) == 0, y


def test_complete_morphisms_fig4(fig4):
    tree, _, _, config = fig4
    fund = [Pt(0, 7, True), Pt(1, 1, True), Pt(2, 1, True), Pt(3, 5, True),
            Pt(4, 1, True), Pt(5, 6, True), Pt(6, 7, True)]
    pairs = complete_morphisms(config, fund)
    assert pairs == sorted(
        [
            (Pt(0, 7, True), Pt(6, 7, True)),  # the alpha string a -> g
            (Pt(1, 1, True), Pt(3, 5, True)),  # the beta string b -> d
            (Pt(4, 1, True), Pt(5, 6, True)),  # the beta string e -> f
        ]
    )


def _string_count(p):
    """Maximal alpha-paths and beta-paths of length >= 1 in a pedigree."""
    nodes = []

    def walk(node):
        nodes.append(node)
        if node.beta:
            walk(node.beta)
        if node.alpha:
            walk(node.alpha)

    walk(p)
    alpha_heads = sum(1 for n in nodes if n.alpha is not None)
    alpha_chains_len_ge2 = sum(
        1 for n in nodes if n.alpha is not None and not any(m.alpha is n for m in nodes)
    )
    beta_chains = sum(
        1 for n in nodes if n.beta is not None and not any(m.beta is n for m in nodes)
    )
    return alpha_chains_len_ge2 + beta_chains


def test_complete_morphisms_count_matches_strings(configs_cache):
    """In type A the complete morphisms are the maximal arrow strings."""
    from meshknit.classify import enumerate_pedigrees, pedigree_dimension_vector
    from meshknit.knitting import fundamental_domain_points, knit_and_knot

    for n in (2, 3, 4):
        tree = make_tree("A", n)
        section = equioriented_section(tree)
        for p in enumerate_pedigrees(n):
            config = knit_and_knot(tree, section, pedigree_dimension_vector(p))
            fund = [Pt(q.slice, q.vertex, True) for q in fundamental_domain_points(config, section)]
            assert len(complete_morphisms(config, fund)) == _string_count(p)


def test_one_point_fundamental_algebra_has_no_complete_morphisms():
    tree = make_tree("A", 1)
    from meshknit.knitting import knit_and_knot

    config = knit_and_knot(tree, equioriented_section(tree), (1,))
    assert complete_morphisms(config, [Pt(0, 1, True)]) == []


def test_basis_paths_dimension():
    tree = make_tree("D", 4)
    w = build_window(tree, None, 0, 6)
    x = Pt(0, 2)
    tr = MeshTransporter(w, x)
    # the fork-to-fork middle carries a two-dimensional hom space
    two = [p for p in sorted(w.points) if tr.dim(p) == 2]
    assert two
    paths = tr.basis_paths(two[0])
    assert len(paths) == 2
    table = starting_function(tree, x, w)
    for p in sorted(w.points):
        assert len(tr.basis_paths(p)) == table[p]


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"])
def test_translated_transporters_match_fresh_builds(name, configs_cache, monkeypatch):
    """Every node's transporter in a three-period ProjectiveQuiver equals a
    transporter built from scratch at that node: dimensions at every window
    point, matrices on every arrow and representative paths to every node;
    the hom table and arrows equal those of a one-transporter-per-node build."""
    tree = make_tree(name[0], int(name[1]))
    L = loewy_number(tree)
    configs = configs_cache(name)
    if name == "E6":
        configs = configs[:40]
    for config in configs:
        pq = ProjectiveQuiver(config, 0, 3 * L - 1)
        w = pq.window
        assert len(pq.nodes) == 3 * tree.rank
        for p in pq.nodes:
            tr, fresh = pq.transporters[p], MeshTransporter(w, p)
            assert tr.source == p
            assert all(tr.dim(q) == fresh.dim(q) for q in w.points), (config, p)
            assert all(tr.arrow_matrix.get(a) == fresh.arrow_matrix.get(a) for a in w.arrows), (config, p)
            for q in pq.nodes:
                if q != p:
                    assert tr.nonzero_path(q) == fresh.nonzero_path(q), (config, p, q)
        with monkeypatch.context() as m:  # one transporter per node, no translates
            m.setattr(
                MeshTransporter,
                "translated",
                lambda tr, k: MeshTransporter(tr.window, Pt(tr.source.slice + k, tr.source.vertex, True)),
            )
            per_node = ProjectiveQuiver(config, 0, 3 * L - 1)
        assert per_node.hom == pq.hom
        assert per_node.arrows == pq.arrows
