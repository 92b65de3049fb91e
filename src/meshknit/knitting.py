"""The knit-and-knot engine.

Dimension vectors propagate across sections by mesh additivity: at a source
``x`` the number ``s = -d(x) + sum of the neighbor values`` decides the move.
``s >= 1`` knits (the orbit continues with value ``s``), ``s <= 0`` knots:
the section point joins the configuration and a projective-injective of
dimension ``d(x) + 1`` is inserted, after which the orbit continues with the
old value.  Iterating through full source enumerations turns a valid vector
into a periodic carpet whose knot points form the configuration; reading
dimensions off a section of a configuration inverts the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .dynkin import DynkinTree, loewy_number
from .errors import InvalidDimensionVector, InvalidInput
from .mesh import projective_quiver
from .ztquiver import (
    Configuration,
    Pt,
    Section,
    plus_admissible_enumeration,
    section_move,
)

Vec = tuple[int, ...]


@dataclass(frozen=True)
class DimensionVector:
    """Total dimensions of the modules sitting on a section."""

    section: Section
    values: Vec

    def __post_init__(self):
        tree = self.section.tree
        if len(self.values) != tree.rank:
            raise InvalidInput(
                f"dimension vector {self.values} has {len(self.values)} entries, "
                f"{tree.name} needs {tree.rank}"
            )
        if any(v < 1 for v in self.values):
            raise InvalidDimensionVector(f"dimension vector {self.values} has entries < 1")

    def value(self, v: int) -> int:
        return self.values[v - 1]


@dataclass(frozen=True)
class PropagationStep:
    verdict: str  # "knit" | "knot"
    result: DimensionVector
    config_point: Pt | None = None
    projective_dim: int | None = None


def propagate_dims(d: DimensionVector, x: int) -> PropagationStep:
    """One knit-or-knot move at a source vertex of the section."""
    section = d.section
    new_section = section_move(section, x, "plus")  # raises NotSource
    values = list(d.values)
    s = sum(values[y - 1] for y in section.tree.neighbors[x]) - values[x - 1]  # the mesh count
    if s > 0:
        values[x - 1] = s
        return PropagationStep("knit", DimensionVector(new_section, tuple(values)))
    return PropagationStep(
        "knot",
        DimensionVector(new_section, tuple(values)),
        config_point=section.point_of(x),
        projective_dim=d.value(x) + 1,
    )


# ---------------------------------------------------------------------------
# patterns


@dataclass
class Pattern:
    """The finite Auslander-Reiten quiver of a simply connected algebra
    embedded in the stable translation quiver, with its projective points."""

    tree: DynkinTree
    section: Section
    projective_points: frozenset[Pt]
    injective_points: frozenset[Pt]
    dims: dict[Pt, int] = field(repr=False)

    @property
    def points(self) -> frozenset[Pt]:
        return frozenset(self.dims)


def _knit_toward(
    tree: DynkinTree, section: Section, dims: Vec, d: int, budget: int
) -> tuple[set[Pt], dict[Pt, int]]:
    """Knit from the section backward (``d = -1``) or forward (``d = 1``)
    until every orbit has ended; return the end points and all dimensions.

    Each pass moves every live orbit once, in the order of ``(d * level,
    vertex)``; the forward order is the one ``knit_run`` sweeps.  A pass
    moves every live orbit two levels, so the order never changes, and when
    an orbit moves from level ``l`` its live neighbours all sit at level
    ``l + d``: those at ``l - d`` came earlier in the pass.  The mesh reads
    the neighbour over ``y`` at level ``l + d``, on slice
    ``(l + d - depth(y)) / 2``; an ended neighbour that never reached it
    counts 0.
    """
    name = "forward" if d > 0 else "backward"
    depth, nbrs = tree.depth, tree.neighbors
    level = [0, *map(section.level, tree.vertices)]
    values = [0, *dims]
    recorded = {section.point_of(v): values[v] for v in tree.vertices}
    ends: set[Pt] = set()
    live = sorted(tree.vertices, key=lambda v: (d * level[v], v))
    steps = 0
    while live:
        moved = []
        for x in live:
            steps += 1
            if steps > budget:
                raise InvalidDimensionVector(f"{name} knitting does not terminate")
            l = level[x] + d
            s = sum(recorded.get(Pt((l - depth[y]) // 2, y), 0) for y in nbrs[x]) - values[x]
            if s >= 1:
                level[x] = l + d
                values[x] = s
                recorded[Pt((l + d - depth[x]) // 2, x)] = s
                moved.append(x)
            elif s == -1:
                ends.add(Pt((l - d - depth[x]) // 2, x))
            else:
                raise InvalidDimensionVector(
                    f"{name} count {s} at vertex {x}: not a pattern vector"
                )
        live = moved
    return ends, recorded


def knit_pattern(tree: DynkinTree, section: Section, dims: Vec) -> Pattern:
    """Validate a dimension vector by knitting backward, then close forward.

    Backward knitting locates the projectives (an orbit ends exactly when
    the backward count reaches -1), forward knitting the injectives; any
    other non-positive count, or failure to terminate within 6 * L * rank
    steps, rejects the vector.
    """
    DimensionVector(section, dims)  # validates positivity
    budget = 6 * loewy_number(tree) * tree.rank
    projectives, all_dims = _knit_toward(tree, section, dims, -1, budget)
    injectives, forward_dims = _knit_toward(tree, section, dims, 1, budget)
    all_dims.update(forward_dims)
    # An orbit starts on the section and only moves away from it, so it ends
    # behind the section backward and ahead of it forward.
    slice_of = section.slice_of
    assert all(p.slice <= slice_of(p.vertex) for p in projectives) and all(
        p.slice >= slice_of(p.vertex) for p in injectives
    ), "section leaves the pattern quiver"
    return Pattern(tree, section, frozenset(projectives), frozenset(injectives), all_dims)


# ---------------------------------------------------------------------------
# the knit-and-knot run


@dataclass
class KnitTrace:
    section0: Section
    order: list[int]
    cells: dict[Pt, int] = field(default_factory=dict)
    knots: list[Pt] = field(default_factory=list)
    projective_dims: dict[Pt, int] = field(default_factory=dict)
    shift_vectors: list[Vec] = field(default_factory=list)
    periodic_after: int | None = None

    def carpet(self) -> str:
        """A text rendering of the run: rows by vertex, knot points starred."""
        if not self.cells:
            return ""
        knots = set(self.knots)
        lo = min(p.slice for p in self.cells)
        hi = max(p.slice for p in self.cells)

        def cell(p: Pt) -> str:
            if p not in self.cells:
                return "    "
            return f"{self.cells[p]}{'*' if p in knots else ' '}".rjust(4)

        rows = sorted({p.vertex for p in self.cells}, reverse=True)
        span = range(lo, hi + 1)
        return "\n".join(f"v{v} |" + "".join(cell(Pt(i, v)) for i in span) for v in rows)


@lru_cache(maxsize=None)
def _sweep(section: Section) -> tuple:
    """``(index, slice, neighbour indices)`` of each vertex, in the source order."""
    slices, nbrs = section.levels, section.tree.neighbors
    order = plus_admissible_enumeration(section)
    return tuple((x - 1, slices[x - 1], tuple(y - 1 for y in nbrs[x])) for x in order)


def _knit_knots(tree: DynkinTree, section: Section, dims: Vec):
    """The sweep of ``knit_run``, on a vector that ``knit_pattern`` has accepted.

    Returns the configuration, the knots as ``(slice, vertex)`` pairs in sweep
    order, their projective dimensions, the vector after each pass (the
    section's first) and the pass after which the vector repeated.  Every pass
    raises each level by one, so each later pass starts from a translate of
    the section and the same source order is valid again.
    """
    L = loewy_number(tree)
    slices = section.levels
    sweep = _sweep(section)
    values = list(dims)
    get = values.__getitem__
    vectors, knots, knot_dims = [tuple(dims)], [], []
    detected, shift = None, 0
    while True:
        for k, slice_, nbrs in sweep:
            s = sum(map(get, nbrs)) - values[k]
            if s > 0:
                values[k] = s
            else:
                if s != -1:
                    p = Pt(slice_ + shift, k + 1)
                    raise InvalidDimensionVector(f"knot count {s} at {p}: vector is inconsistent")
                knots.append((slice_ + shift, k + 1))
                knot_dims.append(values[k] + 1)
        shift += 1
        vectors.append(tuple(values))
        if detected is None and shift >= L and vectors[shift] == vectors[shift - L]:
            detected = shift
        if detected is not None and shift >= detected + L:
            break
        if detected is None and shift >= 6 * L:
            raise InvalidDimensionVector("knit-and-knot run never became periodic")

    # Two checks that no input reaches.  A pass depends only on the vector it
    # starts from, so once the vector repeats after L passes, the next L
    # passes repeat the last L one period higher, knots included.  The
    # vectors knit_pattern accepts are the section vectors of configurations
    # (the classification behind the patterns method), and the knots of such
    # a run are the configuration's points: rank of them per period.
    def knot_block(first: int) -> frozenset[tuple[int, int]]:
        return frozenset((i, x) for i, x in knots if first <= i - slices[x - 1] < first + L)

    first = knot_block(detected - L)
    second = knot_block(detected)
    assert second == frozenset((i + L, x) for i, x in first), (
        "knot blocks fail to repeat after the dimension vector does"
    )
    assert len(first) == tree.rank, (
        f"period block holds {len(first)} knots, expected {tree.rank}"
    )
    return Configuration(tree, {(i % L, x) for i, x in first}), knots, knot_dims, vectors, detected


def knit_run(tree: DynkinTree, section: Section, dims: Vec) -> tuple[Configuration, KnitTrace]:
    """Run the knit-and-knot loop on a validated pattern vector.

    The run stops as soon as the dimension vector repeats across one full
    period of section shifts (the knot pattern then repeats too, which is
    asserted), or after the guaranteed bound of 6 * L * rank source steps.
    The trace holds the section's cells, then each pass's in sweep order.
    """
    knit_pattern(tree, section, dims)  # raises on invalid vectors
    config, knots, knot_dims, vectors, periodic_after = _knit_knots(tree, section, dims)
    order = plus_admissible_enumeration(section)
    passes = len(vectors) - 1
    cells = {section.point_of(v): dims[v - 1] for v in tree.vertices}
    for shift in range(1, passes + 1):
        cells.update((Pt(section.slice_of(x) + shift, x), vectors[shift][x - 1]) for x in order)
    pts = [Pt(i, x) for i, x in knots]
    pdims = dict(zip(pts, knot_dims))
    return config, KnitTrace(section, order * passes, cells, pts, pdims, vectors, periodic_after)


def knit_and_knot(tree: DynkinTree, section: Section, dims: Vec) -> Configuration:
    """The configuration determined by a pattern vector on a section."""
    knit_pattern(tree, section, dims)  # raises on invalid vectors
    return _knit_knots(tree, section, dims)[0]


# ---------------------------------------------------------------------------
# dimensions of the modules on a section, from the configuration


def fundamental_domain_points(config: Configuration, section: Section) -> list[Pt]:
    """Configuration points between the Nakayama shift of a section and the
    section itself (inclusive behind, exclusive on the section).

    A section is convex, so the points with a path to it are the (i, x) with
    i <= s_x, where s_x is its slice over x, and those reached from its
    tau^L-shift are the (i, x) with i >= s_x - L: the domain is the lifts
    with s_x - L <= i < s_x, one per residue.
    """
    L = loewy_number(config.tree)
    s = section.slice_of
    lifts = config.lifts(min(section.levels) - L, max(section.levels) - 1)
    return [Pt(i, x) for i, x in lifts if s(x) - L <= i < s(x)]


def dims_on_section(config: Configuration, section: Section) -> Vec:
    """Total dimensions over the section: row sums of hom from the
    projectives of the fundamental domain one Nakayama period behind it."""
    tree = config.tree
    if section.tree != tree:
        raise InvalidInput(f"the section belongs to {section.tree.name}, not to {tree.name}")
    pq = projective_quiver(config)
    fund = [Pt(c.slice, c.vertex, True) for c in fundamental_domain_points(config, section)]
    values = [sum(pq.hom(p, section.point_of(v)) for p in fund) for v in tree.vertices]
    if any(v < 1 for v in values):
        raise InvalidDimensionVector(f"section dims {values} are not all positive")
    return tuple(values)
