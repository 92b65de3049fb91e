"""The knit-and-knot engine.

Dimension vectors propagate across sections by mesh additivity: at a source
``x`` the number ``s = -d(x) + sum of the neighbor values`` decides the move.
``s >= 1`` knits (the orbit continues with value ``s``), ``s <= 0`` knots:
the section point joins the configuration and a projective-injective of
dimension ``d(x) + 1`` is inserted, after which the orbit continues with the
old value.  One level-ordered pass, ``_knit``, serves both uses: run forward
with knots for L passes it knits one period of a periodic carpet whose knots
form the configuration; run backward and forward with a count of -1 ending
the orbit, within L passes, it validates a pattern vector and finds its
projectives and injectives.  Reading dimensions off a section of a
configuration inverts the construction.
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
    _residue_bits,
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


@lru_cache(maxsize=None)
def _sweep(section: Section, d: int) -> tuple:
    """``(index, slice, a, b, c)`` of each vertex in the source order of
    ``plus_admissible_enumeration`` (reversed for ``d = -1``, a sink order):
    a, b, c index its at most three neighbours, padded by -1, the 0 slot."""
    slices, nbrs = section.levels, section.tree.neighbors
    order = plus_admissible_enumeration(section)[::d]
    return tuple((x - 1, slices[x - 1], *[y - 1 for y in nbrs[x]], *[-1] * (3 - len(nbrs[x]))) for x in order)


def _knit(section: Section, dims: Vec, d: int, passes: int, knots: list | None = None) -> list[Vec]:
    """The vector before and after each of at most ``passes`` passes of
    ``_sweep(section, d)``, backward (``d = -1``) or forward (``d = 1``).

    Each orbit moves by its mesh count s: s >= 1 knits.  A count of -1 knots
    when a ``knots`` list is given (the run appends ``(slice, vertex, d(x) +
    1)`` and keeps the value); otherwise it ends the orbit, whose value becomes
    0, and later passes skip it until none is live.  Other counts refuse.

    One list holds every value the mesh reads, then a 0 slot.  A pass
    moves every live orbit two levels, so the order holds and, when an orbit
    moves from level l, its live neighbours sit at l + d (those from l - d
    moved earlier in the pass).  An orbit ending at level m was read there by
    each neighbour moving from m - d to m + d: earlier in this pass if it sat
    at m - d, in the pass before if it sits at m + d.  Later reads are at
    m + 2d or beyond, where the ended orbit has no point, so reading 0 is exact.
    """
    sweep, values = _sweep(section, d), [*dims, 0]
    vectors = [tuple(dims)]
    for shift in range(passes):
        for k, slice_, a, b, c in sweep:
            s = values[a] + values[b] + values[c] - values[k]
            if s > 0:
                values[k] = s
            elif s == -1 and knots is not None:
                knots.append((slice_ + shift, k + 1, values[k] + 1))
            elif s == -1:
                values[k] = 0
            elif knots is None:
                name = "forward" if d > 0 else "backward"
                raise InvalidDimensionVector(f"{name} count {s} at vertex {k + 1}: not a pattern vector")
            else:
                p = Pt(slice_ + shift, k + 1)
                raise InvalidDimensionVector(f"knot count {s} at {p}: vector is inconsistent")
        vectors.append(tuple(values[:-1]))
        if knots is None:
            sweep = [entry for entry in sweep if values[entry[0]]]
            if not sweep:
                break
    return vectors


def _pattern_runs(tree: DynkinTree, section: Section, dims: Vec) -> list[list[Vec]]:
    """Validate a dimension vector: its pass vectors backward, then forward.

    Backward knitting locates the projectives (an orbit ends exactly when
    the backward count reaches -1), forward knitting the injectives; any
    other non-positive count, or an orbit still live after L passes, rejects
    the vector.

    The bound.  The accepted vectors are the section vectors of
    configurations, each knitting the Auslander-Reiten quiver of an algebra B
    with the section as a section (Bretscher-Laser-Riedtmann 1981).  B is
    tilted of type Delta with the section as a complete slice (Ringel 1984,
    4.2): its predecessors lie on their orbits as modules of a hereditary
    algebra whose injectives are the section, its successors as modules of
    one whose projectives are.  A tau-orbit of a hereditary algebra of type
    Delta holds m_x + 1 <= h - 1 = L modules, as m_x + m_x* = h - 2 (Gabriel
    1980).  So every orbit ends within L - 1 slices of the section, within one
    period as the fundamental domain is, and its -1 comes by pass L.
    """
    if section.tree != tree:
        raise InvalidInput(f"the section belongs to {section.tree.name}, not to {tree.name}")
    DimensionVector(section, dims)  # validates positivity
    L, runs = loewy_number(tree), []
    for d, name in ((-1, "backward"), (1, "forward")):
        runs.append(_knit(section, dims, d, L))
        if any(runs[-1][-1]):
            raise InvalidDimensionVector(f"{name} knitting leaves an orbit live after {L} passes")
    return runs


def knit_pattern(tree: DynkinTree, section: Section, dims: Vec) -> Pattern:
    """The pattern of a dimension vector, built from ``_pattern_runs``."""
    slices = section.levels
    projectives, injectives, cells = set(), set(), {}
    for d, ends, vectors in zip((-1, 1), (projectives, injectives), _pattern_runs(tree, section, dims)):
        for j, vector in enumerate(vectors):
            for x, value in enumerate(vector, 1):
                if value:
                    cells[Pt(slices[x - 1] + d * j, x)] = value
                elif vectors[j - 1][x - 1]:
                    ends.add(Pt(slices[x - 1] + d * (j - 1), x))
    return Pattern(tree, section, frozenset(projectives), frozenset(injectives), cells)


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


def _knit_knots(tree: DynkinTree, section: Section, dims: Vec):
    """The knit-and-knot run of a vector that ``_pattern_runs`` has accepted:
    its configuration, its knots as ``(slice, vertex, projective dimension)``
    in sweep order, and the vector before and after each of 2L passes.

    The bound.  Such a vector is the section vector of a configuration C, and
    the vector after pass j is C's on the section moved j slices up (the hom
    sums ``dims_on_section`` reads).  nu = tau^L fixes C, so after L passes
    the vector is the start vector again; the run refuses one that is not.
    Only these L passes are knitted.  Pass j sweeps one fixed order over the
    values of its start vector and reads nothing else, so its end vector and
    its knots' vertices and projective dimensions depend on that vector
    alone, and each knot's slice is a sweep slice plus j.  By induction on j,
    pass L + j starts from vectors[L + j] = vectors[j] and repeats pass j, its
    knots L slices up: the second period is the first shifted, and the knots
    of the first L passes lift C.
    """
    L, bits = loewy_number(tree), _residue_bits(tree)
    knots: list[tuple[int, int, int]] = []
    vectors = _knit(section, dims, 1, L, knots)
    if vectors[L] != vectors[0]:
        raise InvalidDimensionVector(f"knit-and-knot run does not repeat after {L} passes")
    config = Configuration._of_mask(tree, sum({bits[i % L, x] for i, x, _ in knots}))
    if (size := config.mask.bit_count()) != tree.rank:
        raise InvalidDimensionVector(f"knit-and-knot run knots {size} residues, not {tree.rank}")
    knots += [(i + L, x, pdim) for i, x, pdim in knots]
    return config, knots, vectors + vectors[1:]


def knit_run(tree: DynkinTree, section: Section, dims: Vec) -> tuple[Configuration, KnitTrace]:
    """Run the knit-and-knot loop on a validated pattern vector: the 2L passes
    of ``_knit_knots``, the vector repeating after L.  The trace holds the
    section's cells, then each pass's in sweep order."""
    _pattern_runs(tree, section, dims)  # raises on invalid vectors
    config, knots, vectors = _knit_knots(tree, section, dims)
    order = plus_admissible_enumeration(section)
    passes = len(vectors) - 1
    cells = {section.point_of(v): dims[v - 1] for v in tree.vertices}
    for shift in range(1, passes + 1):
        cells.update((Pt(section.slice_of(x) + shift, x), vectors[shift][x - 1]) for x in order)
    pdims = {Pt(i, x): pdim for i, x, pdim in knots}
    return config, KnitTrace(section, order * passes, cells, list(pdims), pdims, vectors, passes // 2)


def knit_and_knot(tree: DynkinTree, section: Section, dims: Vec) -> Configuration:
    """The configuration determined by a pattern vector on a section."""
    _pattern_runs(tree, section, dims)  # raises on invalid vectors
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
    if section.tree != config.tree:
        raise InvalidInput(f"the section belongs to {section.tree.name}, not to {config.tree.name}")
    L = loewy_number(config.tree)
    s = section.slice_of
    lifts = config.lifts(min(section.levels) - L, max(section.levels) - 1)
    return [Pt(i, x) for i, x in lifts if s(x) - L <= i < s(x)]


def dims_on_section(config: Configuration, section: Section) -> Vec:
    """Total dimensions over the section: sums of the hom rows of the
    projectives of the fundamental domain one Nakayama period behind it, each
    read at the section point's index in the row."""
    tree, fund = config.tree, fundamental_domain_points(config, section)  # checks the section's tree
    pq, n = projective_quiver(config), tree.rank
    rows = [pq.row(Pt(c.slice, c.vertex, True)) for c in fund]
    at = [(section.slice_of(v), v - 1) for v in tree.vertices]
    values = [sum(r[j] for first, r in rows if 0 <= (j := (s - first) * n + x) < len(r)) for s, x in at]
    if any(v < 1 for v in values):
        raise InvalidDimensionVector(f"section dims {values} are not all positive")
    return tuple(values)
