import itertools

import pytest

from helpers import (
    _all_section_shapes,
    closure_domain,
    greedy_knit_toward,
    path_exists,
    reference_knit_knots,
    reference_knit_run,
)
from meshknit.classify import _pattern_vectors
from meshknit.dynkin import loewy_number, make_tree
from meshknit.errors import InvalidDimensionVector, InvalidInput, NotSource
from meshknit.knitting import (
    DimensionVector,
    _knit_knots,
    dims_on_section,
    fundamental_domain_points,
    knit_and_knot,
    knit_pattern,
    knit_run,
    propagate_dims,
)
from meshknit.ztquiver import (
    Pt,
    Section,
    build_window,
    equioriented_section,
    plus_admissible_enumeration,
)

A2 = make_tree("A", 2)
A7 = make_tree("A", 7)


def test_propagate_knit_example():
    d = DimensionVector(equioriented_section(A2), (1, 2))
    step = propagate_dims(d, 1)
    assert step.verdict == "knit"
    assert step.result.values == (1, 2)
    assert step.result.section.levels == (1, 0)


def test_propagate_knot_reports_configuration_point():
    # drive the worked example to its first knot at the top of the section
    d = DimensionVector(equioriented_section(A7), (1, 4, 3, 2, 4, 3, 4))
    for x in (1, 2, 3, 4, 5, 6):
        d = propagate_dims(d, x).result
    step = propagate_dims(d, 7)
    assert step.verdict == "knot"
    assert step.config_point == Pt(0, 7)
    assert step.projective_dim == 4 + 1
    assert step.result.values == d.values


def test_propagate_not_source():
    d = DimensionVector(equioriented_section(A2), (1, 2))
    with pytest.raises(NotSource):
        propagate_dims(d, 2)


def test_dimension_vector_positivity():
    with pytest.raises(InvalidDimensionVector):
        DimensionVector(equioriented_section(A2), (1, 0))


def test_knit_pattern_a2():
    pat = knit_pattern(A2, equioriented_section(A2), (1, 2))
    assert pat.projective_points == frozenset({Pt(0, 1), Pt(0, 2)})
    assert len(pat.points) == 3
    with pytest.raises(InvalidDimensionVector):
        knit_pattern(A2, equioriented_section(A2), (1, 1))


def test_a2_valid_vectors_exhaustive():
    valid = set()
    for d in itertools.product(range(1, 5), repeat=2):
        try:
            knit_pattern(A2, equioriented_section(A2), d)
            valid.add(d)
        except InvalidDimensionVector:
            pass
    assert valid == {(1, 2), (2, 1)}


def test_knit_pattern_fig4_has_seven_projectives(fig4):
    tree, section, dims, _ = fig4
    pat = knit_pattern(tree, section, dims)
    assert len(pat.projective_points) == 7
    assert len(pat.injective_points) == 7
    # one per orbit, all behind or on the section
    for v in tree.vertices:
        pros = [p for p in pat.projective_points if p.vertex == v]
        assert len(pros) == 1 and pros[0].slice <= section.slice_of(v)


def _greedy_pattern(tree, section, dims):
    budget = 6 * loewy_number(tree) * tree.rank
    projectives, dims_back = greedy_knit_toward(tree, section, dims, -1, budget)
    injectives, dims_ahead = greedy_knit_toward(tree, section, dims, 1, budget)
    return projectives, injectives, {**dims_back, **dims_ahead}


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "D4", "D5", "D6", "E6"])
def test_knit_pattern_matches_greedy_reference(name):
    """Level-ordered passes find the projectives, injectives and dimensions
    that the least-movable-orbit knitting finds, on every pattern vector."""
    tree = make_tree(name[0], int(name[1]))
    section = equioriented_section(tree)
    for dims in _pattern_vectors(tree):
        pat = knit_pattern(tree, section, dims)
        assert (pat.projective_points, pat.injective_points, pat.dims) == _greedy_pattern(
            tree, section, dims
        ), dims


STAGGERED = {"A5": (1, 0, 0, -1, -1), "D5": (1, 0, 0, -1, 0), "E6": (0, 0, 0, -1, -2, -1)}


@pytest.mark.parametrize("name,top", [("A4", 3), ("D4", 3), ("A5", 3), ("D5", 3), ("E6", 3)])
def test_knit_pattern_refuses_what_the_greedy_reference_refuses(name, top):
    """On a box of vectors and a section that is not equioriented, the L-pass
    bound refuses exactly what the greedy reference refuses within its step
    budget of 6 * L * rank.  (E6 accepts no vector with entries up to 2.)"""
    tree = make_tree(name[0], int(name[1]))
    section = Section(tree, STAGGERED.get(name, (1,) + (0,) * (tree.rank - 1)))
    refused = 0
    for dims in itertools.product(range(1, top + 1), repeat=tree.rank):
        try:
            want = _greedy_pattern(tree, section, dims)
        except InvalidDimensionVector:
            refused += 1
            with pytest.raises(InvalidDimensionVector):
                knit_pattern(tree, section, dims)
            continue
        pat = knit_pattern(tree, section, dims)
        assert (pat.projective_points, pat.injective_points, pat.dims) == want, dims
    assert 0 < refused < top**tree.rank


@pytest.mark.parametrize("name", ["A4", "A5", "D4"])
def test_accepted_vectors_are_section_vectors(name, configs_cache):
    """In a box holding every section vector, knit_pattern accepts exactly
    the section vectors of configurations, and each runs to its own
    configuration: the knot-block checks of knit_run see no other input."""
    tree = make_tree(name[0], int(name[1]))
    section = equioriented_section(tree)
    want = {dims_on_section(c, section): c for c in configs_cache(name)}
    accepted = {}
    for dims in itertools.product(range(1, max(map(max, want)) + 1), repeat=tree.rank):
        try:
            knit_pattern(tree, section, dims)
        except InvalidDimensionVector:
            continue
        accepted[dims] = knit_and_knot(tree, section, dims)
    assert accepted == want


def test_knit_run_fig4(fig4):
    tree, section, dims, config = fig4
    cfg, trace = knit_run(tree, section, dims)
    assert cfg == config
    assert trace.periodic_after == 7
    assert sorted(cfg.residues) == [(0, 7), (1, 1), (2, 1), (3, 5), (4, 1), (5, 6), (6, 7)]
    carpet = trace.carpet()
    assert "4*" in carpet and carpet.count("\n") == 6


def _trace_fields(config, trace):
    return (
        config,
        trace.section0,
        list(trace.cells.items()),
        trace.knots,
        list(trace.projective_dims.items()),
        trace.shift_vectors,
        trace.order,
        trace.periodic_after,
        trace.carpet(),
    )


def test_knit_run_takes_a_list(fig4):
    """A list vector knits as its tuple does: vector 0 is kept as a tuple, so
    the repeat after L passes is seen and periodic_after is 7, not 8."""
    tree, section, dims, config = fig4
    cfg, trace = knit_run(tree, section, list(dims))
    assert cfg == config
    assert trace.periodic_after == 7
    assert _trace_fields(cfg, trace) == _trace_fields(*knit_run(tree, section, dims))


def test_knit_run_fig4_matches_reference(fig4):
    tree, section, dims, _ = fig4
    assert _trace_fields(*knit_run(tree, section, dims)) == _trace_fields(
        *reference_knit_run(tree, section, dims)
    )


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6"])
def test_knit_run_matches_reference(name):
    """The trace built from the knit kernel's output is the one the former
    cell-by-cell loop wrote, insertion order included."""
    tree = make_tree(name[0], int(name[1]))
    section = equioriented_section(tree)
    for dims in _pattern_vectors(tree):
        assert _trace_fields(*knit_run(tree, section, dims)) == _trace_fields(
            *reference_knit_run(tree, section, dims)
        ), dims


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidDimensionVector as exc:
        return str(exc)


def _assert_one_period_matches_two(tree, section, dims) -> bool:
    """The run that knits L passes and shifts them gives the configuration,
    knots, vectors and trace of the run that knits all 2L, and refuses what
    it refuses with the same text.  Returns whether the vector is accepted."""
    got, want = _outcome(knit_run, tree, section, dims), _outcome(reference_knit_run, tree, section, dims)
    if isinstance(want, str):
        assert got == want == _outcome(knit_and_knot, tree, section, dims), dims
        return False
    assert _knit_knots(tree, section, dims) == reference_knit_knots(tree, section, dims), dims
    assert got[1] == want[1] and _trace_fields(*got) == _trace_fields(*want), dims
    return True


@pytest.mark.parametrize("name", [f"A{n}" for n in range(1, 9)] + ["D4", "D5", "D6", "D7", "E6", "E7"])
def test_one_period_run_matches_the_two_period_reference(name):
    tree = make_tree(name[0], int(name[1]))
    section = equioriented_section(tree)
    assert all(_assert_one_period_matches_two(tree, section, dims) for dims in _pattern_vectors(tree))


# E6 sections on which vertex 3, the one with three neighbours, has 1, 3, 2
# and 0 arrows in: neither, a sink, neither and a source of the section
E6_SECTIONS = [(0, 0, 0, 0, 0, 0), (0, 0, 0, -1, -1, -1), (0, 0, -1, -2, -2, -2), (0, -1, -2, -2, -2, -2)]


@pytest.mark.parametrize("name", ["A4", "D5", "E6"])
def test_one_period_run_matches_the_two_period_reference_on_every_section(name, configs_cache):
    """On every section shape (on E6, the four of ``E6_SECTIONS``): the
    section vector of every configuration, and a box of vectors, most of
    them refused."""
    tree = make_tree(name[0], int(name[1]))
    box = list(itertools.product((1, 2), repeat=tree.rank))
    for levels in E6_SECTIONS if name == "E6" else _all_section_shapes(tree):
        section = Section(tree, levels)
        vectors = [dims_on_section(c, section) for c in configs_cache(name)]
        assert all(_assert_one_period_matches_two(tree, section, dims) for dims in vectors)
        accepted = sum(_assert_one_period_matches_two(tree, section, dims) for dims in box)
        assert accepted < len(box), levels


@pytest.mark.parametrize(
    "name",
    [f"A{n}" for n in range(1, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", pytest.param("E8", marks=pytest.mark.e8)],
)
def test_pattern_vectors_pass_knit_pattern(name):
    """classify knits its own seed vectors with the unvalidated kernel: every
    one is a pattern vector, and the kernel knits it to the configuration the
    validating entry point gives."""
    tree = make_tree(name[0], int(name[1]))
    section = equioriented_section(tree)
    for dims in _pattern_vectors(tree):
        knit_pattern(tree, section, dims)  # raises unless a pattern vector
        assert _knit_knots(tree, section, dims)[0] == knit_and_knot(tree, section, dims), dims


def _assert_derived_bounds(tree, section, dims):
    """Every pattern orbit ends within L passes, that is within L - 1 slices
    of the section, and the run repeats after exactly L of its 2L passes.
    Returns the farthest end behind and ahead of the section, in slices."""
    L = loewy_number(tree)
    pat = knit_pattern(tree, section, dims)
    behind = max(section.slice_of(p.vertex) - p.slice for p in pat.projective_points)
    ahead = max(p.slice - section.slice_of(p.vertex) for p in pat.injective_points)
    assert max(behind, ahead) <= L - 1, dims
    _, trace = knit_run(tree, section, dims)
    assert trace.periodic_after == L and len(trace.shift_vectors) == 2 * L + 1, dims
    assert trace.shift_vectors[L] == trace.shift_vectors[0] == tuple(dims), dims
    return behind, ahead


@pytest.mark.parametrize(
    "name",
    [f"A{n}" for n in range(1, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", pytest.param("E8", marks=pytest.mark.e8)],
)
def test_seed_vectors_meet_the_derived_pass_bounds(name):
    """On every seed vector of the patterns method; on A_n some orbit needs
    all L passes in each direction, so the bound is reached."""
    tree = make_tree(name[0], int(name[1]))
    section = equioriented_section(tree)
    farthest = [_assert_derived_bounds(tree, section, dims) for dims in _pattern_vectors(tree)]
    if tree.family == "A":
        L = loewy_number(tree)
        assert tuple(map(max, zip(*farthest))) == (L - 1, L - 1)


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "A5", "D4"])
def test_section_vectors_meet_the_derived_pass_bounds(name, configs_cache):
    """On the section vector of every configuration on every section shape."""
    tree = make_tree(name[0], int(name[1]))
    for levels in _all_section_shapes(tree):
        section = Section(tree, levels)
        for config in configs_cache(name):
            _assert_derived_bounds(tree, section, dims_on_section(config, section))


def test_knit_and_knot_a2():
    cfg = knit_and_knot(A2, equioriented_section(A2), (1, 2))
    assert cfg.residues == frozenset({(0, 2), (1, 2)})
    assert dims_on_section(cfg, equioriented_section(A2)) == (1, 2)


def test_knit_and_knot_d4_contains_the_planted_point():
    """The one-point-extension vector places a configuration point right
    behind the new branch end."""
    d4 = make_tree("D", 4)
    from meshknit.classify import enumerate_pedigrees, pedigree_dimension_vector

    bv = pedigree_dimension_vector(enumerate_pedigrees(3)[0])
    d = tuple(bv[:2]) + (1 + bv[1], bv[2])
    cfg = knit_and_knot(d4, equioriented_section(d4), d)
    assert cfg.contains(-1, 3)


def test_knit_rejects_invalid_vector():
    with pytest.raises(InvalidDimensionVector):
        knit_and_knot(A2, equioriented_section(A2), (1, 1))


def test_dims_on_section_a1():
    a1 = make_tree("A", 1)
    cfg = knit_and_knot(a1, equioriented_section(a1), (1,))
    assert dims_on_section(cfg, equioriented_section(a1)) == (1,)


@pytest.mark.parametrize("other", ["D4", "A4", "A2"])
def test_dims_on_section_refuses_a_section_of_another_tree(other, configs_cache, monkeypatch):
    """A section of another tree is refused by name, not read as if it were
    one of the configuration's tree, before the projective quiver is asked for."""
    from meshknit import knitting

    asked = []
    monkeypatch.setattr(knitting, "projective_quiver", asked.append)
    section = equioriented_section(make_tree(other[0], int(other[1])))
    with pytest.raises(InvalidInput, match=f"section belongs to {other}, not to A3"):
        dims_on_section(configs_cache("A3")[0], section)
    assert not asked


@pytest.mark.parametrize("other", ["D4", "A3"])
def test_fundamental_domain_points_refuses_a_section_of_another_tree(other, configs_cache):
    """A section of another tree is refused by name; D4's section on an A4
    configuration once gave four points."""
    section = equioriented_section(make_tree(other[0], int(other[1])))
    with pytest.raises(InvalidInput, match=f"section belongs to {other}, not to A4"):
        fundamental_domain_points(configs_cache("A4")[0], section)


@pytest.mark.parametrize("entry", [knit_pattern, knit_run, knit_and_knot], ids=lambda f: f.__name__)
def test_knitting_refuses_a_section_of_another_tree(entry):
    """A vector on a section of another tree is refused by name before any
    pass is knitted; A3 with A4's section once reported an orbit left live."""
    a3, a4 = make_tree("A", 3), make_tree("A", 4)
    with pytest.raises(InvalidInput, match="section belongs to A4, not to A3"):
        entry(a3, equioriented_section(a4), (1, 2, 3, 4))


def test_dims_on_section_shift_invariance(fig4):
    tree, section, dims, config = fig4
    L = loewy_number(tree)
    assert dims_on_section(config.shifted(L), section) == dims
    assert dims_on_section(config, section.shifted(L)) == dims


def test_fundamental_domain_has_rank_points(fig4):
    tree, section, _, config = fig4
    domain = fundamental_domain_points(config, section)
    assert len(domain) == tree.rank
    assert sorted((p.slice, p.vertex) for p in domain) == [
        (-7, 7), (-6, 1), (-5, 1), (-4, 5), (-3, 1), (-2, 6), (-1, 7)
    ]


def _reference_domain(config, section):
    """The defining search: configuration points c off the section with a
    path from c to some section point and from some point of the Nakayama
    shift of the section to c, one path search per section vertex."""
    L = loewy_number(config.tree)
    lo = min(section.levels) - L - 1
    hi = max(section.levels) + 1
    window = build_window(config.tree, config, lo, hi)
    on, behind = section.points(), section.shifted(-L).points()
    return [
        c
        for c in (Pt(i, x) for i, x in config.lifts(lo + 1, hi))
        if c not in on
        and any(path_exists(window, c, s) for s in on)
        and any(path_exists(window, s, c) for s in behind)
    ]


@pytest.mark.parametrize("name", ["A5", "D5"])
def test_fundamental_domain_matches_reference_search(name, configs_cache):
    tree = make_tree(name[0], int(name[1]))
    sections = [Section(tree, levels) for levels in _all_section_shapes(tree)]
    for config in configs_cache(name):
        for section in sections:
            want = _reference_domain(config, section)
            assert fundamental_domain_points(config, section) == want, (config, section)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"])
def test_fundamental_domain_matches_closure(name, configs_cache):
    """The closed form equals the two-closure definition on every
    configuration and section shape (every 30th E6 configuration), with the
    section at three translates."""
    tree = make_tree(name[0], int(name[1]))
    L = loewy_number(tree)
    sections = [Section(tree, levels) for levels in _all_section_shapes(tree)]
    for config in configs_cache(name)[:: 30 if name == "E6" else 1]:
        for section in sections:
            for k in (-L - 1, 0, 1):
                shifted = section.shifted(k)
                want = closure_domain(config, shifted)
                assert fundamental_domain_points(config, shifted) == want, (config, shifted)


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "A5", "D4", "D5"])
def test_round_trips_exhaustive(name, configs_cache):
    """Round trip A (vectors) and B (configurations) over full enumerations."""
    tree = make_tree(name[0], int(name[1]))
    section = equioriented_section(tree)
    for config in configs_cache(name):
        d = dims_on_section(config, section)
        assert knit_and_knot(tree, section, d) == config
        # and the vector round-trips through its own configuration
        assert dims_on_section(knit_and_knot(tree, section, d), section) == d


def test_staggered_section_round_trip(fig4):
    """Knitting is not tied to the equioriented section."""
    tree, _, _, config = fig4
    zig = Section(tree, (1, 1, 1, 0, 0, 0, 0))
    d = dims_on_section(config, zig)
    assert knit_and_knot(tree, zig, d) == config


def test_section_homs_vanish_across_one_period(fig4):
    """No morphisms from the modules on a section to those a full Nakayama
    period ahead."""
    from meshknit.mesh import MeshTransporter
    from meshknit.ztquiver import build_window

    tree, section, _, config = fig4
    L = loewy_number(tree)
    window = build_window(tree, config, 0, 2 * L + 2)
    for v in tree.vertices:
        tr = MeshTransporter(window, section.point_of(v))
        for w in tree.vertices:
            ahead = Pt(section.slice_of(w) + L, w)
            assert tr.dim(ahead) == 0


def test_carpet_cells_equal_hom_sums(fig4):
    """Every cell of the knit run equals the summed hom dimensions from the
    configuration's projectives one period behind it, across two periods."""
    from meshknit.mesh import MeshTransporter
    from meshknit.ztquiver import build_window

    tree, section, dims, _ = fig4
    config, trace = knit_run(tree, section, dims)
    L = loewy_number(tree)
    window = build_window(tree, config, -L - 1, 3 * L + 2)
    transporters = {}
    checked = 0
    for p, val in trace.cells.items():
        if not (0 <= p.slice - section.slice_of(p.vertex) < 2 * L):
            continue
        total = 0
        for i, x in config.lifts(p.slice - L, p.slice):
            c = Pt(i, x, True)
            if c not in transporters:
                transporters[c] = MeshTransporter(window, c)
            total += transporters[c].dim(p)
        assert total == val, (p, val, total)
        checked += 1
    assert checked >= 2 * L * tree.rank


def _assert_mesh_relation_on_carpet(tree, section, dims):
    """Check a knit run against the mesh relation alone: across the mesh
    from (l, x) to (l + 1, x), the two ends sum to the middle points plus
    the projective-injective inserted at a knot."""
    _, trace = knit_run(tree, section, dims)
    order = plus_admissible_enumeration(section)
    passes = len(trace.shift_vectors) - 1
    assert trace.order == order * passes
    cells = trace.cells
    checked = 0
    for (l1, x, _), end in cells.items():
        start = cells.get(Pt(l1 - 1, x))
        if start is None:
            assert Pt(l1, x) == section.point_of(x)
            continue
        middle = [Pt(l1 - 1, y) if y > x else Pt(l1, y) for y in tree.neighbors[x]]
        assert start + end == sum(cells[m] for m in middle) + trace.projective_dims.get(
            Pt(l1 - 1, x), 0
        ), (dims, l1, x)
        checked += 1
    assert checked == passes * tree.rank


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6"])
def test_carpets_satisfy_the_mesh_relation(name):
    tree = make_tree(name[0], int(name[1]))
    section = equioriented_section(tree)
    for dims in _pattern_vectors(tree):
        _assert_mesh_relation_on_carpet(tree, section, dims)


@pytest.mark.parametrize("name,levels", [("A5", (1, 0, 0, -1, -1)), ("D5", (1, 0, 0, -1, 0))])
def test_carpets_on_a_staggered_section_satisfy_the_mesh_relation(name, levels, configs_cache):
    tree = make_tree(name[0], int(name[1]))
    section = Section(tree, levels)
    for config in configs_cache(name):
        _assert_mesh_relation_on_carpet(tree, section, dims_on_section(config, section))
