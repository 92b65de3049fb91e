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

from .dynkin import DynkinTree, loewy_number
from .errors import InvalidDimensionVector, InvalidInput, NotSource
from .mesh import MeshTransporter, precedes
from .ztquiver import (
    Configuration,
    Pt,
    Section,
    build_window,
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


def _mesh_count(section: Section, values: Vec, x: int) -> int:
    nbrs = section.tree.neighbors[x]
    return -values[x - 1] + sum(values[y - 1] for y in nbrs)


def propagate_dims(d: DimensionVector, x: int) -> PropagationStep:
    """One knit-or-knot move at a source vertex of the section."""
    section = d.section
    if x not in section.sources():
        raise NotSource(f"vertex {x} is not a source of the section")
    s = _mesh_count(section, d.values, x)
    new_section = section_move(section, x, "plus")
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


class _Frontier:
    """A moving section fragment over a shrinking set of live orbits.

    Canonical edges always satisfy lo < hi numerically, so the predecessors
    of a point ``(l, x)`` sit at ``(l, y)`` for neighbors ``y < x`` and at
    ``(l - 1, y)`` for ``y > x``; successors mirror this.
    """

    def __init__(self, tree: DynkinTree, section: Section, values: Vec):
        self.tree = tree
        self.levels = {v: section.slice_of(v) for v in tree.vertices}
        self.values = {v: values[v - 1] for v in tree.vertices}
        self.live = set(tree.vertices)
        self.recorded: dict[Pt, int] = {
            section.point_of(v): values[v - 1] for v in tree.vertices
        }

    def _arrow_from(self, a: int, b: int) -> bool:
        """Does the fragment contain an arrow a -> b (a, b adjacent)?"""
        lo, hi = min(a, b), max(a, b)
        dl = self.levels[lo] - self.levels[hi]
        assert dl in (0, 1), "live fragment lost sectional shape"
        source = lo if dl == 0 else hi
        return a == source

    def live_sinks(self) -> list[int]:
        return [
            x
            for x in sorted(self.live)
            if all(
                not self._arrow_from(x, y)
                for y in self.tree.neighbors[x]
                if y in self.live
            )
        ]

    def live_sources(self) -> list[int]:
        return [
            x
            for x in sorted(self.live)
            if all(
                self._arrow_from(x, y)
                for y in self.tree.neighbors[x]
                if y in self.live
            )
        ]

    def predecessor_sum(self, x: int) -> int:
        l = self.levels[x]
        return sum(
            self.recorded.get(Pt(l, y) if y < x else Pt(l - 1, y), 0)
            for y in self.tree.neighbors[x]
        )

    def successor_sum(self, x: int) -> int:
        l = self.levels[x]
        return sum(
            self.recorded.get(Pt(l, y) if y > x else Pt(l + 1, y), 0)
            for y in self.tree.neighbors[x]
        )


def knit_pattern(tree: DynkinTree, section: Section, dims: Vec) -> Pattern:
    """Validate a dimension vector by knitting backward, then close forward.

    Backward knitting locates the projectives (an orbit ends exactly when
    the backward count reaches -1), forward knitting the injectives; any
    other non-positive count, or failure to terminate within 6 * L * rank
    steps, rejects the vector.
    """
    DimensionVector(section, dims)  # validates positivity
    L = loewy_number(tree)
    budget = 6 * L * tree.rank
    projectives: set[Pt] = set()
    injectives: set[Pt] = set()

    back = _Frontier(tree, section, dims)
    steps = 0
    while back.live:
        steps += 1
        if steps > budget:
            raise InvalidDimensionVector("backward knitting does not terminate")
        x = back.live_sinks()[0]
        s = back.predecessor_sum(x) - back.values[x]
        if s >= 1:
            back.levels[x] -= 1
            back.values[x] = s
            back.recorded[Pt(back.levels[x], x)] = s
        elif s == -1:
            projectives.add(Pt(back.levels[x], x))
            back.live.discard(x)
        else:
            raise InvalidDimensionVector(
                f"backward count {s} at vertex {x}: not a pattern vector"
            )

    fwd = _Frontier(tree, section, dims)
    steps = 0
    while fwd.live:
        steps += 1
        if steps > budget:
            raise InvalidDimensionVector("forward knitting does not terminate")
        x = fwd.live_sources()[0]
        s = fwd.successor_sum(x) - fwd.values[x]
        if s >= 1:
            fwd.levels[x] += 1
            fwd.values[x] = s
            fwd.recorded[Pt(fwd.levels[x], x)] = s
        elif s == -1:
            injectives.add(Pt(fwd.levels[x], x))
            fwd.live.discard(x)
        else:
            raise InvalidDimensionVector(
                f"forward count {s} at vertex {x}: not a pattern vector"
            )

    all_dims = dict(back.recorded)
    all_dims.update(fwd.recorded)
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
    r = tree.rank
    max_shifts = 6 * L
    trace = KnitTrace(section0=section, order=[])
    current = DimensionVector(section, dims)
    for v in tree.vertices:
        trace.cells[section.point_of(v)] = dims[v - 1]
    trace.shift_vectors.append(dims)

    detected: int | None = None
    shift = 0
    while True:
        for x in plus_admissible_enumeration(current.section):
            trace.order.append(x)
            step = propagate_dims(current, x)
            if step.verdict == "knot":
                s = _mesh_count(current.section, current.values, x)
                if s != -1:
                    raise InvalidDimensionVector(
                        f"knot count {s} at {step.config_point}: vector is inconsistent"
                    )
                trace.knots.append(step.config_point)
                trace.projective_dims[step.config_point] = step.projective_dim
            current = step.result
            moved = current.section.point_of(x)
            trace.cells[moved] = current.value(x)
        shift += 1
        trace.shift_vectors.append(current.values)
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


def _section_leq_point(window, section: Section, p: Pt) -> bool:
    return any(precedes(window, section.point_of(v), p) for v in section.tree.vertices)


def _point_leq_section(window, p: Pt, section: Section) -> bool:
    return any(precedes(window, p, section.point_of(v)) for v in section.tree.vertices)


def fundamental_domain_points(config: Configuration, section: Section) -> list[Pt]:
    """Configuration points between the Nakayama shift of a section and the
    section itself (inclusive behind, exclusive on the section)."""
    tree = config.tree
    L = loewy_number(tree)
    lo = min(section.levels) - L - 1
    hi = max(section.levels) + 1
    window = build_window(tree, config, lo, hi)
    nu_section = section.shifted(-L)
    section_pts = set(section.points())

    domain: list[Pt] = []
    for i, x in config.lifts(lo + 1, hi):
        c = Pt(i, x)
        if c in section_pts:
            continue
        if _point_leq_section(window, c, section) and _section_leq_point(window, nu_section, c):
            domain.append(c)
    assert len(domain) == tree.rank, (
        f"fundamental domain holds {len(domain)} configuration points, expected {tree.rank}"
    )
    return domain


def dims_on_section(config: Configuration, section: Section) -> Vec:
    """Total dimensions over the section: row sums of hom from the
    projectives of the fundamental domain one Nakayama period behind it."""
    tree = config.tree
    L = loewy_number(tree)
    domain = fundamental_domain_points(config, section)
    lo = min(section.levels) - L - 1
    hi = max(section.levels) + 1
    window = build_window(tree, config, lo, hi)

    values = [0] * tree.rank
    for c in domain:
        tr = MeshTransporter(window, Pt(c.slice, c.vertex, True))
        for v in tree.vertices:
            values[v - 1] += tr.dim(section.point_of(v))
    if any(v < 1 for v in values):
        raise InvalidDimensionVector(f"section dims {values} are not all positive")
    return tuple(values)
