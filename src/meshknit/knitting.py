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

from collections.abc import Sequence
from dataclasses import dataclass, field

from .dynkin import DynkinTree, loewy_number
from .errors import InvalidDimensionVector, InvalidInput
from .mesh import starting_function
from .ztquiver import (
    Configuration,
    Pt,
    QuiverWindow,
    Section,
    build_window,
    plus_admissible_enumeration,
    reach,
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


def _mesh_count(values: Sequence[int], x: int, nbrs: tuple[int, ...]) -> int:
    """The mesh count at source ``x``: its neighbors' values minus its own."""
    return sum(values[y - 1] for y in nbrs) - values[x - 1]


def propagate_dims(d: DimensionVector, x: int) -> PropagationStep:
    """One knit-or-knot move at a source vertex of the section."""
    section = d.section
    new_section = section_move(section, x, "plus")  # raises NotSource
    s = _mesh_count(d.values, x, section.tree.neighbors[x])
    values = list(d.values)
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

    The live orbits form a moving section fragment; each step moves its
    least live sink (backward) or source (forward).  Canonical edges satisfy
    lo < hi, so the neighbor over ``y`` of a point ``(l, x)`` in direction
    ``d`` sits at slice ``l + off``: ``off = (y < x)`` forward and
    ``-(y > x)`` backward.  The mover's arrows to live neighbors all point
    along ``d``; along an edge pointing the other way the slice difference
    is ``off - d``.
    """
    name = "forward" if d > 0 else "backward"
    nbrs = {
        x: tuple((y, (y < x) if d > 0 else -(y > x)) for y in ys)
        for x, ys in tree.neighbors.items()
    }
    levels = [0, *section.levels]
    values = [0, *dims]
    live = [False] + [True] * tree.rank
    recorded = {Pt(levels[v], v): values[v] for v in tree.vertices}
    ends: set[Pt] = set()

    def can_move(x: int) -> bool:
        l = levels[x]
        for y, off in nbrs[x]:
            if live[y] and levels[y] - l != off:
                assert levels[y] - l == off - d, "live fragment lost sectional shape"
                return False
        return True

    steps = 0
    while len(ends) < tree.rank:
        steps += 1
        if steps > budget:
            raise InvalidDimensionVector(f"{name} knitting does not terminate")
        x = next(v for v in tree.vertices if live[v] and can_move(v))
        l = levels[x]
        s = sum(recorded.get(Pt(l + off, y), 0) for y, off in nbrs[x]) - values[x]
        if s >= 1:
            levels[x] = l + d
            values[x] = s
            recorded[Pt(l + d, x)] = s
        elif s == -1:
            ends.add(Pt(l, x))
            live[x] = False
        else:
            raise InvalidDimensionVector(
                f"{name} count {s} at vertex {x}: not a pattern vector"
            )
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
    for v in tree.vertices:
        lo = min(p.slice for p in projectives if p.vertex == v)
        hi = max(p.slice for p in injectives if p.vertex == v)
        assert lo <= section.slice_of(v) <= hi, "section leaves the pattern quiver"
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
        vs = sorted({p.vertex for p in self.cells}, reverse=True)
        lo = min(p.slice for p in self.cells)
        hi = max(p.slice for p in self.cells)
        lines = []
        for v in vs:
            row = []
            for i in range(lo, hi + 1):
                p = Pt(i, v)
                if p in self.cells:
                    row.append(f"{self.cells[p]}{'*' if p in knots else ' '}".rjust(4))
                else:
                    row.append("    ")
            lines.append(f"v{v} |" + "".join(row))
        return "\n".join(lines)


def knit_run(tree: DynkinTree, section: Section, dims: Vec) -> tuple[Configuration, KnitTrace]:
    """Run the knit-and-knot loop on a validated pattern vector.

    The run stops as soon as the dimension vector repeats across one full
    period of section shifts (the knot pattern then repeats too, which is
    asserted), or after the guaranteed bound of 6 * L * rank source steps.
    """
    knit_pattern(tree, section, dims)  # raises on invalid vectors
    L = loewy_number(tree)
    max_shifts = 6 * L
    # Every pass raises each level by one, so each later pass starts from a
    # translate of the section and the same source order is valid again.
    order = plus_admissible_enumeration(section)
    sweep = [(x, section.slice_of(x), tree.neighbors[x]) for x in order]
    trace = KnitTrace(section0=section, order=[])
    cells, knots, projective_dims = trace.cells, trace.knots, trace.projective_dims
    for v in tree.vertices:
        cells[section.point_of(v)] = dims[v - 1]
    trace.shift_vectors.append(dims)
    values = list(dims)

    detected: int | None = None
    shift = 0
    while True:
        for x, level, nbrs in sweep:
            s = _mesh_count(values, x, nbrs)
            if s > 0:
                values[x - 1] = s
            else:
                p = Pt(level + shift, x)
                if s != -1:
                    raise InvalidDimensionVector(f"knot count {s} at {p}: vector is inconsistent")
                knots.append(p)
                projective_dims[p] = values[x - 1] + 1
            cells[Pt(level + shift + 1, x)] = values[x - 1]
        trace.order.extend(order)
        shift += 1
        trace.shift_vectors.append(tuple(values))
        if detected is None and shift >= L and trace.shift_vectors[shift] == trace.shift_vectors[shift - L]:
            detected = shift
            trace.periodic_after = detected
        if detected is not None and shift >= detected + L:
            break
        if detected is None and shift >= max_shifts:
            raise InvalidDimensionVector("knit-and-knot run never became periodic")

    # Consistency check: once the dimension vector repeats across a period,
    # the knot pattern of the two blocks must be translates of each other.
    def knot_block(first_shift: int) -> frozenset[tuple[int, int]]:
        pts = set()
        for p in trace.knots:
            rel = p.slice - section.slice_of(p.vertex)
            if first_shift <= rel < first_shift + L:
                pts.add((p.slice, p.vertex))
        return frozenset(pts)

    first = knot_block(detected - L)
    second = knot_block(detected)
    assert second == frozenset((i + L, x) for i, x in first), (
        "knot blocks fail to repeat after the dimension vector does"
    )
    assert len(first) == tree.rank, (
        f"period block holds {len(first)} knots, expected {tree.rank}"
    )

    config = Configuration(tree, {(i % L, x) for i, x in first})
    return config, trace


def knit_and_knot(tree: DynkinTree, section: Section, dims: Vec) -> Configuration:
    """The configuration determined by a pattern vector on a section."""
    config, _ = knit_run(tree, section, dims)
    return config


# ---------------------------------------------------------------------------
# dimensions of the modules on a section, from the configuration


def fundamental_domain_points(config: Configuration, section: Section) -> list[Pt]:
    """Configuration points between the Nakayama shift of a section and the
    section itself (inclusive behind, exclusive on the section)."""
    return _domain_and_window(config, section)[0]


def _domain_and_window(config: Configuration, section: Section) -> tuple[list[Pt], QuiverWindow]:
    """The fundamental domain behind a section and the window it was found in."""
    tree = config.tree
    L = loewy_number(tree)
    lo = min(section.levels) - L - 1
    hi = max(section.levels) + 1
    window = build_window(tree, config, lo, hi)
    behind = reach(section.points(), window.in_nb.__getitem__)
    ahead = reach(section.shifted(-L).points(), window.out_nb.__getitem__)
    between = (behind & ahead) - set(section.points())
    domain = [Pt(i, x) for i, x in config.lifts(lo + 1, hi) if Pt(i, x) in between]
    assert len(domain) == tree.rank, (
        f"fundamental domain holds {len(domain)} configuration points, expected {tree.rank}"
    )
    return domain, window


def dims_on_section(config: Configuration, section: Section) -> Vec:
    """Total dimensions over the section: row sums of hom from the
    projectives of the fundamental domain one Nakayama period behind it."""
    from .classify import _require_configuration  # local to avoid an import cycle
    _require_configuration(config)
    tree = config.tree
    domain, window = _domain_and_window(config, section)
    values = [0] * tree.rank
    for c in domain:
        hom = starting_function(tree, Pt(c.slice, c.vertex, True), window)
        for v in tree.vertices:
            values[v - 1] += hom[section.point_of(v)]
    if any(v < 1 for v in values):
        raise InvalidDimensionVector(f"section dims {values} are not all positive")
    return tuple(values)
