from itertools import combinations, product

import pytest

from helpers import (
    OnDemand,
    composite_nonzero,
    count_windows,
    eager_projective_quiver,
    naive_hom_dim,
    path_exists,
    reference_starting_function,
)

from meshknit.dynkin import loewy_number, make_tree, tree_automorphisms
from meshknit.errors import InvalidInput, WindowTooSmall
from meshknit.mesh import (
    MeshTransporter,
    ProjectiveQuiver,
    hom_dim_oracle,
    nakayama,
    nu_inverse,
    precedes,
    projective_quiver,
    starting_function,
)
from meshknit.present import complete_morphisms
from meshknit.ztquiver import (
    Configuration,
    Pt,
    _stable_support,
    build_window,
    check_combinatorial_configuration,
    equioriented_section,
)

A2 = make_tree("A", 2)
ALL_TREES = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + [("E", n) for n in (6, 7, 8)]


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
        # windows reaching well past the sources' supports (top slices 2 and 3)
        ("A2", [(0, 1), (1, 1)], 8),
        ("A3", [(0, 1), (1, 2), (2, 3)], 6),
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
    dims = starting_function(tree, x)
    assert dims[x] == 1

    def level(p):
        return 2 * p.slice + tree.depth[p.vertex]

    for p in dims:
        assert level(x) <= level(p) <= level(nu_inverse(tree, x))


def test_starting_function_agrees_with_oracle_a3_five_slices():
    """Also on the stable D4 window, where the fork-to-fork middle carries a
    two-dimensional hom space."""
    for name, span, top_dim in [("A3", 4, 1), ("D4", 6, 2)]:
        tree = make_tree(name[0], int(name[1]))
        w = build_window(tree, None, 0, span)
        values = set()
        for v in tree.vertices:
            x = Pt(0, v)
            dims = starting_function(tree, x, w)
            assert dims == reference_starting_function(tree, x, w) == MeshTransporter(w, x).dims, (name, x)
            values.update(dims.values())
        assert max(values) == top_dim


@pytest.mark.parametrize(
    "name,config,i_min,i_max",
    [
        # the windows of test_transporter_matches_naive_reference
        ("A3", None, 0, 4),
        ("A2", [(0, 1), (1, 1)], 0, 4),
        ("D4", None, 0, 6),
        ("A2", [(0, 2), (1, 2)], 0, 4),
        ("A2", [(0, 1), (1, 1)], 0, 8),
        ("A3", [(0, 1), (1, 2), (2, 3)], 0, 6),
        # raw residues, unreduced and not a configuration, on shifted windows
        ("A3", [(5, 1), (-2, 3)], -3, 4),
        ("D5", [(9, 4), (3, 5), (0, 1)], -2, 7),
        ("E6", [(1, 6), (12, 3)], 1, 10),
        # one- and two-slice windows
        ("A1", [(0, 1)], 0, 0),
        ("A4", [(0, 2), (3, 4)], 3, 3),
        ("D4", [(1, 3), (4, 1)], 1, 2),
        ("E6", None, -1, 0),
    ],
)
def test_starting_function_matches_the_dict_recurrence(name, config, i_min, i_max):
    """The walk on the int plan equals the dict recurrence over the window's
    level order (helpers.reference_starting_function) from every point of
    the window, stable sources on its first slice and projectives on its
    last included, and each value is the transporter's."""
    tree = make_tree(name[0], int(name[1]))
    w = build_window(tree, config, i_min, i_max)
    for x in sorted(w.points):
        dims = starting_function(tree, x, w)
        assert dims == reference_starting_function(tree, x, w), (name, config, x)
        assert dims == MeshTransporter(w, x).dims, (name, config, x)


@pytest.mark.parametrize("name", ["A1", "A2", "A5", "D4", "D6", "E6", "E7"])
def test_starting_function_without_a_window(name):
    """With no window, both recurrences walk the stable window of slices
    [x.slice, x.slice + L + 1], from every vertex at slices -1, 0 and 3."""
    tree = make_tree(name[0], int(name[1]))
    for i in (-1, 0, 3):
        for v in tree.vertices:
            x = Pt(i, v)
            assert starting_function(tree, x) == reference_starting_function(tree, x), (name, x)


def test_starting_function_refuses_a_window_of_another_tree():
    """A window must belong to the tree walked, as for ``QuiverWindow`` and
    ``table_groups``: a D4 window is not read as one of A3."""
    d4_window = build_window(make_tree("D", 4), None, 0, 3)
    with pytest.raises(InvalidInput, match="^the window belongs to D4, not to A3$"):
        starting_function(make_tree("A", 3), Pt(0, 1), d4_window)


def test_starting_function_builds_no_window(monkeypatch):
    """The walk reads a window's ends and residues and builds no window of its
    own: with a window and without one, it creates and builds no QuiverWindow.
    Its refusals are the dict recurrence's: a source outside the slices, off
    the tree, or projective off the decoration."""
    cases = [(make_tree("A", 3), [(0, 1), (1, 2), (2, 3)], -2, 4), (make_tree("D", 5), None, 1, 9)]
    windows = [build_window(tree, config, lo, hi) for tree, config, lo, hi in cases]
    refs = {}
    for (tree, _, lo, hi), w in zip(cases, windows):
        for i, v, proj in product((lo - 1, lo, hi, hi + 1), range(tree.rank + 2), (False, True)):
            x = Pt(i, v, proj)
            for window in (w, None):
                try:
                    refs[tree, x, window] = reference_starting_function(tree, x, window)
                except WindowTooSmall as exc:
                    refs[tree, x, window] = str(exc)
    counts = count_windows(monkeypatch)
    for (tree, x, window), want in refs.items():
        try:
            got = starting_function(tree, x, window)
        except WindowTooSmall as exc:
            got = str(exc)
        assert got == want, (tree.name, x, window)
    assert {type(want) for want in refs.values()} == {dict, str}
    assert not counts.made and not counts.built


def _routes_agree(tree, window, source):
    """The plan-based walk equals the dict recurrence it replaced, and the
    transporter at every point of the window."""
    dims = starting_function(tree, source, window)
    assert dims == reference_starting_function(tree, source, window), (window.residues, source)
    tr = MeshTransporter(window, source)
    wrong = [(p, dims.get(p, 0), tr.dim(p)) for p in window.order if dims.get(p, 0) != tr.dim(p)]
    assert not wrong and dims == tr.dims, (window.residues, source, wrong[:3])


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6"])
def test_starting_function_agrees_with_transporter_on_configuration_windows(name, configs_cache):
    """The recurrence equals the transporter dimension at every point, from
    projective sources, on a wide window and on a clipped one.

    * ``[-1, 3L + 2]``, from the lifts in slices [0, L): one source per
      nu-orbit.  The window reaches past every source's support, so the check
      is invariant under tau and one configuration per tau-orbit covers them
      all.
    * ``[-L - 1, 1]``, the slices behind the equioriented section, from every
      projective of the window.  Walks are cut off at its top, so every
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
        w = build_window(tree, config, -L - 1, 1)
        for p in w.projectives:
            _routes_agree(tree, w, p)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6"])
def test_starting_function_agrees_with_transporter_on_the_quiver_window(name, configs_cache):
    """On the window [-1, 2L + 1] of ProjectiveQuiver, from every lift in
    slices [0, L), the recurrence equals the transporter dimension at every
    point, stable points included: the tables that ``hom`` and the support
    masks read, for every configuration."""
    tree = make_tree(name[0], int(name[1]))
    L = loewy_number(tree)
    for config in configs_cache(name):
        w = build_window(tree, config, -1, 2 * L + 1)
        for i, x in config.lifts(0, L - 1):
            _routes_agree(tree, w, Pt(i, x, True))


def test_projective_quiver_is_shared_by_calls_in_a_row(configs_cache):
    """``projective_quiver`` keeps the last quiver only: an equal configuration
    gets the same object, any other a newly built quiver, even one seen two
    calls before.  Alternating the configurations of two trees, every read
    equals a fresh quiver's."""
    a3, d4 = configs_cache("A3"), configs_cache("D4")
    sequence = [a3[0], d4[0], a3[0], a3[1], a3[1], d4[1], d4[0], a3[1]]
    built = []
    previous = before = None
    for config in sequence:
        pq = projective_quiver(Configuration(config.tree, config.residues))
        if config == before:
            assert pq is previous, config
        else:
            assert not any(pq is q for q in built), config
            built.append(pq)
        assert projective_quiver(config) is pq
        fresh = ProjectiveQuiver(config)
        L = loewy_number(config.tree)
        w = build_window(config.tree, config, -2 * L, 3 * L)
        lifts = [Pt(i, x, True) for i, x in config.lifts(-L, 2 * L - 1)]
        for p in lifts:
            homs = [pq.hom(p, q) for q in w.order]
            assert homs == [fresh.hom(p, q) for q in w.order], (config, p)
            a = pq.index(p)
            support = [pq.index(q) for q, d in zip(w.order, homs) if d and q.proj]
            assert pq.support_at(a) == fresh.support_at(a) == sorted(support)
            assert pq.heads_at(a) == fresh.heads_at(a) and pq.tails_at(a) == fresh.tails_at(a)
        previous, before = pq, config


@pytest.mark.parametrize("family,rank", ALL_TREES, ids=[f"{f}{n}" for f, n in ALL_TREES])
def test_stable_support_is_the_starting_function_support(family, rank):
    """The stable support of every vertex, one walk with no window, is the
    support of starting_function from (0, vertex) on its default window."""
    tree = make_tree(family, rank)
    for v in tree.vertices:
        assert _stable_support(tree, v) == tuple(sorted(starting_function(tree, Pt(0, v)))), v


def test_configuration_check_and_nakayama_build_no_window(configs_cache, monkeypatch):
    """With the stable-support, residue-reach and nu caches cleared, the
    C1/C2 test and the Nakayama map create no QuiverWindow."""
    from meshknit import mesh, ztquiver

    configs = [configs_cache(name)[0] for name in ("A3", "D5", "E6")]
    windows = count_windows(monkeypatch)
    for cache in (ztquiver._stable_support, ztquiver._residue_reach, mesh._nu_inverse_map):
        cache.cache_clear()
    for config in configs:
        tree = config.tree
        assert check_combinatorial_configuration(tree, config.residues) == (True, None), config
        for v in tree.vertices:
            assert nakayama(tree, nu_inverse(tree, Pt(0, v))) == Pt(0, v)
    assert not windows.made and not windows.built


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
            assert starting_function(tree, x).get(nu_inverse(tree, x)) == 1


def test_nu_commutes_with_tau_and_tree_automorphisms():
    for name in ["A5", "D4", "D5", "E6"]:
        tree = make_tree(name[0], int(name[1]))
        for v in tree.vertices:
            p = Pt(0, v)
            assert nakayama(tree, Pt(p.slice - 3, p.vertex)) == Pt(
                nakayama(tree, p).slice - 3, nakayama(tree, p).vertex
            )
        for m in tree_automorphisms(tree):
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


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"])
def test_translated_transporters_match_fresh_builds(name, configs_cache):
    """ProjectiveQuiver reads every projective through the hom row of its
    residue's lift in [0, L), with the query moved down by whole periods.
    hom_dim of every pair of lifts in slices [1, 3L] equals the dimension
    read off a transporter built from scratch at the first of them, in the
    full window of those slices plus L + 2; there is exactly one row per
    residue, and hom and support_at at its lift read as the dict recurrence on
    the window [-1, 2L + 1] (helpers.reference_starting_function); and each
    row's support ends at least two levels below the top of that span, so
    its walk stopped inside it.  The lifts start
    at slice 1, not at a multiple of L."""
    tree = make_tree(name[0], int(name[1]))
    L = loewy_number(tree)
    n, depth = tree.rank, tree.depth
    configs = configs_cache(name)
    if name == "E6":
        configs = configs[:40]
    i_lo, i_hi = 1, 3 * L
    # the level of each row index, the zero slot past the span excluded
    level = [2 * (j // n - 1) + depth[j % n + 1] for j in range((2 * L + 3) * n)]
    for config in configs:
        pq = ProjectiveQuiver(config)
        nodes = [Pt(i, x, True) for i, x in config.lifts(i_lo, i_hi)]
        assert len(nodes) == 3 * tree.rank
        full = build_window(tree, config, i_lo - 1, i_hi + L + 2)
        for p in nodes:
            fresh = MeshTransporter(full, p)
            for q in nodes:
                assert pq.hom(p, q) == fresh.dim(q), (config, p, q)
        assert sorted(pq._rows) == sorted(config.residues), config
        window = build_window(tree, config, -1, 2 * L + 1)
        for i, x in sorted(config.residues):
            p = Pt(i, x, True)
            dims = reference_starting_function(tree, p, window)
            assert list(map(pq.point, pq.support_at(pq.index(p)))) == [q for q in sorted(dims) if q.proj]
            assert [pq.hom(p, q) for q in window.order] == [dims.get(q, 0) for q in window.order]
        for (i, x), row in pq._rows.items():
            assert row[len(level):] == [0], (config, i, x)  # the zero slot
            top = max(lvl for lvl, v in zip(level, row) if v)
            assert top <= max(level) - 2, (config, i, x)


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_projective_quiver_walks_once_per_residue(name, configs_cache, monkeypatch):
    """Building a ProjectiveQuiver runs mesh._walk once per residue and
    builds no QuiverWindow; reading heads_at, tails_at, path_nonzero, hom and
    support_at afterwards, over three periods, runs neither."""
    from meshknit import mesh

    configs = configs_cache(name)[:5]
    walks, walk = [], mesh._walk
    monkeypatch.setattr(mesh, "_walk", lambda *a: walks.append(a) or walk(*a))
    windows = count_windows(monkeypatch).made
    for config in configs:
        L = loewy_number(config.tree)
        pq = ProjectiveQuiver(config)
        assert len(walks) == config.tree.rank and not windows, config
        walks.clear()
        for p in (Pt(i, x, True) for i, x in config.lifts(-L, 2 * L - 1)):
            a = pq.index(p)
            assert pq.support_at(a)
            for q in map(pq.point, pq.heads_at(a)):
                assert pq.hom(p, q) == 1 and pq.path_nonzero([p, q]) and not pq.path_nonzero([p, q, p])
            assert all(pq.path_nonzero([pq.point(b), p]) for b in pq.tails_at(a))
        assert not walks and not windows, config


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_projective_quiver_refuses_other_sources(name, configs_cache):
    """hom(p, q) is for a projective p of the configuration.
    A projective at another residue, in any nu-translate, and the stable
    point under a projective of the configuration raise WindowTooSmall."""
    tree = make_tree(name[0], int(name[1]))
    L = loewy_number(tree)
    config = configs_cache(name)[0]
    pq = ProjectiveQuiver(config)
    i, x = min(config.residues)
    j, y = next((j, y) for j in range(L) for y in tree.vertices if (j, y) not in config.residues)
    assert pq.hom(Pt(i, x, True), Pt(i, x, True)) == 1
    for p in (Pt(j, y, True), Pt(j - L, y, True), Pt(j + 2 * L, y, True), Pt(i, x), Pt(i + L, x)):
        with pytest.raises(WindowTooSmall):
            pq.hom(p, Pt(p.slice + 1, p.vertex))


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_stable_points_are_not_projectives_of_the_quiver(name, configs_cache):
    """The Pt-to-index boundary refuses the stable point under a projective of
    the configuration as it refuses any other point off it: it has no index,
    so no arrows, and a chain through it is zero, while the projective over
    it keeps its arrows.  On A3 this includes {(0, 1), (1, 1), (2, 1)},
    where the arrows out of the stable 0_1 once read [1_1_P]."""
    tree = make_tree(name[0], int(name[1]))
    L = loewy_number(tree)
    configs = configs_cache(name)[:5]
    if name == "A3":
        configs = [Configuration(tree, {(0, 1), (1, 1), (2, 1)}), *configs]
    for config in configs:
        pq = ProjectiveQuiver(config)
        for i, x in config.lifts(-L, 2 * L - 1):
            proj, stable = Pt(i, x, True), Pt(i, x)
            a = pq.index(proj)
            assert pq.index(stable) is None and pq.point(a) == proj and pq.heads_at(a), (config, proj)
            for q in map(pq.point, pq.heads_at(a)):
                assert pq.path_nonzero([proj, q]) and not pq.path_nonzero([stable, q]), (config, q)
            for r in map(pq.point, pq.tails_at(a)):
                assert pq.path_nonzero([r, proj]) and not pq.path_nonzero([r, stable]), (config, r)


@pytest.mark.parametrize(
    "name,step",
    [
        *((n, 1) for n in ["A2", "A3", "A4", "A5", "D4", "D5"]),
        ("A6", 3),
        ("D6", 3),
        ("E6", 20),
        *(pytest.param(n, k, marks=pytest.mark.e8) for n, k in
          [("A7", 7), ("D7", 13), ("E6", 1), ("E7", 41), ("E8", 89)]),
    ],
)
def test_composite_rule_matches_transporter(name, step, configs_cache):
    """path_nonzero decides a chain by hom dimensions alone.  Here it is
    compared with the exact composite, pushed through natural maps of fresh
    transporters over the full window of three periods plus L + 2
    (helpers.composite_nonzero).  First on every three-node chain p -> r -> q
    with hom(p, r) and hom(r, q) nonzero, for every p in the base period and
    every r, q among the lifts to three periods.  Then on every chain the
    relation search extends: from each p in the base period along quiver
    arrows, every nonzero chain and each one-arrow extension of it, both as a
    whole chain and as the three-node chain the search asks, and the whole
    chain again after moving it by -L, L and 2L.  No nonzero chain has more
    than L arrows (present._standard_relations relies on it), and on A_n
    some configuration has one of exactly L."""
    tree = make_tree(name[0], int(name[1]))
    L = loewy_number(tree)
    i_lo, i_hi = 1, 3 * L
    longest = 0
    for config in configs_cache(name)[::step]:
        pq = ProjectiveQuiver(config)
        nodes = [Pt(i, x, True) for i, x in config.lifts(i_lo, i_hi)]
        full = build_window(tree, config, i_lo - 1, i_hi + L + 2)
        tr, memo = OnDemand(lambda p: MeshTransporter(full, p)), {}
        base = [p for p in nodes if p.slice < i_lo + L]
        for p in base:
            for r in nodes:
                if r == p or not tr[p].dim(r):
                    continue
                for q in nodes:
                    if q == r or not tr[r].dim(q):
                        continue
                    want = composite_nonzero(tr, [p, r, q], memo)
                    assert pq.path_nonzero([p, r, q]) == want, (config, p, r, q)

        def extend(chain):
            nonlocal longest
            for nxt in map(pq.point, pq.heads_at(pq.index(chain[-1]))):
                longer = chain + [nxt]
                want = composite_nonzero(tr, longer, memo)
                assert pq.path_nonzero(longer) == want, (config, longer)
                asked = [chain[0], nxt] if len(chain) == 1 else [chain[0], chain[-1], nxt]
                assert pq.path_nonzero(asked) == want, (config, longer)
                for k in (-1, 1, 2):
                    moved = [Pt(q.slice + k * L, q.vertex, True) for q in longer]
                    assert pq.path_nonzero(moved) == want, (config, longer, k)
                if want:
                    longest = max(longest, len(longer) - 1)
                    extend(longer)

        for p in base:
            extend([p])
    assert longest <= L
    assert longest == L or tree.family != "A", longest


@pytest.mark.parametrize(
    "name,step", [("A2", 1), ("A3", 1), ("A4", 1), ("A5", 1), ("A6", 1), ("D4", 1), ("D5", 1), ("D6", 1), ("E6", 5)]
)
def test_path_nonzero_memo_is_order_free_and_periodic(name, step, configs_cache):
    """Over every chain of three distinct lifts in [0, 3L) with rising
    levels, path_nonzero answers as the rule on hom does, and so does the
    nu-translate of the chain by kL, k = -1, 1, 2."""
    tree = make_tree(name[0], int(name[1]))
    L = loewy_number(tree)
    for config in configs_cache(name)[::step]:
        pq = ProjectiveQuiver(config)
        level = {p: pq.level_at(pq.index(p)) for p in (Pt(i, x, True) for i, x in config.lifts(0, 3 * L - 1))}
        nodes = sorted(level, key=level.get)
        chains = [c for c in combinations(nodes, 3) if level[c[0]] < level[c[1]] < level[c[2]]]
        rule = [bool(pq.hom(p, r) and pq.hom(r, q) and pq.hom(p, q)) for p, r, q in chains]
        assert [pq.path_nonzero(list(c)) for c in chains] == rule, config
        for k in (-1, 1, 2):
            moved = [[Pt(q.slice + k * L, q.vertex, True) for q in c] for c in chains]
            assert [pq.path_nonzero(c) for c in moved] == rule, (config, k)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"])
def test_on_demand_quiver_matches_eager_reference(name, configs_cache):
    """The on-demand ProjectiveQuiver equals the quiver computed in full
    among the lifts to three periods (helpers.eager_projective_quiver).  The
    reference cuts arrows off at both ends, so tails_at, read first and from
    the top, and heads_at are compared on its middle period, where nothing is
    cut off.  hom is compared on every pair of distinct lifts, and so are the arrows
    between them, in order; and every hom between lifts is at most 1."""
    tree = make_tree(name[0], int(name[1]))
    L = loewy_number(tree)
    configs = configs_cache(name)
    if name == "E6":
        configs = configs[:40]
    for config in configs:
        hom, arrows, out_nb, in_nb = eager_projective_quiver(config, 0, 3 * L - 1)
        assert all(d <= 1 for d in hom.values()), config
        pq = ProjectiveQuiver(config)
        nodes = [Pt(i, x, True) for i, x in config.lifts(0, 3 * L - 1)]
        middle = [p for p in nodes if L <= p.slice < 2 * L]
        top_down = list(reversed(middle))
        tails = [list(map(pq.point, pq.tails_at(pq.index(q)))) for q in top_down]
        assert tails == [in_nb[q] for q in top_down], config
        heads = {p: list(map(pq.point, pq.heads_at(pq.index(p)))) for p in nodes}
        assert [heads[p] for p in middle] == [out_nb[p] for p in middle], config
        assert {(p, q): d for p in nodes for q in nodes if q != p and (d := pq.hom(p, q))} == hom, config
        node_set = set(nodes)
        assert [(p, q) for p in nodes for q in heads[p] if q in node_set] == arrows, config
