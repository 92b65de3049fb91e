"""Finite windows of the stable translation quiver of a Dynkin tree.

Points live on ``Z x T0``.  A canonical edge ``(lo, hi)`` of the tree induces
arrows ``(i, lo) -> (i, hi)`` and ``(i, hi) -> (i+1, lo)`` for every slice
``i``; the translation tau shifts ``(i, x)`` to ``(i-1, x)``.  A configuration
decorates the quiver with one projective-injective point ``c*`` over each of
its points ``c``, with arrows ``c -> c*`` and ``c* -> tau^{-1} c``.

Nothing infinite is ever materialized: all operations act on explicit
windows ``[i_min, i_max]`` of slices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import starmap
from typing import Callable, Iterable, NamedTuple, TypeVar

from .dynkin import (
    DynkinTree,
    TreeAutomorphism,
    flip_automorphism,
    loewy_number,
    make_tree,
    tree_automorphisms,
)
from .errors import EmptyRange, InvalidInput, NotAdmissible, NotSink, NotSource
from .errors import UndefinedTau, WindowTooSmall, WrongFamily

Residue = tuple[int, int]
T = TypeVar("T")


def reach(starts: Iterable[T], step: Callable[[T], Iterable[T]]) -> set[T]:
    """Everything reachable from ``starts`` by repeatedly applying ``step``,
    the starts included."""
    seen = set(starts)
    todo = list(seen)
    while todo:
        for q in step(todo.pop()):
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return seen


class Pt(NamedTuple):
    """A point of the translation quiver; ``proj`` marks the added c*."""

    slice: int
    vertex: int
    proj: bool = False

    def __str__(self) -> str:
        tag = "_P" if self.proj else ""
        return f"{self.slice}_{self.vertex}{tag}"


# ---------------------------------------------------------------------------
# configurations


class Configuration:
    """A tau^L-periodic point set, stored by fundamental-domain residues.

    ``residues`` is a frozenset of ``(i, x)`` with ``0 <= i < L``; the
    unfolded set is ``{(i + k L, x) : k in Z}``.  Construction checks only
    size and range; the combinatorial axioms are verified on demand by
    :func:`meshknit.classify.check_combinatorial_configuration`.
    """

    def __init__(self, tree: DynkinTree, residues: Iterable[Residue]):
        L = loewy_number(tree)
        res = frozenset((i % L, x) for i, x in residues)
        for i, x in res:
            if x not in tree.vertices:
                raise InvalidInput(f"bad vertex {x} in configuration")
        if len(res) != tree.rank:
            raise InvalidInput(f"configuration needs {tree.rank} residues, got {len(res)}")
        self.tree = tree
        self.residues = res

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Configuration)
            and self.tree == other.tree
            and self.residues == other.residues
        )

    def __hash__(self) -> int:
        return hash((self.tree, self.residues))

    def __repr__(self) -> str:
        pts = ",".join(f"({i},{x})" for i, x in sorted(self.residues))
        return f"Configuration({self.tree.name}: {pts})"

    @property
    def modulus(self) -> int:
        return loewy_number(self.tree)

    def contains(self, i: int, x: int) -> bool:
        return (i % self.modulus, x) in self.residues

    def lifts(self, i_min: int, i_max: int) -> list[Residue]:
        """All unfolded points with slice in [i_min, i_max]."""
        L = self.modulus
        out = []
        for i, x in self.residues:
            j = i + ((i_min - i) // L) * L
            while j < i_min:
                j += L
            while j <= i_max:
                out.append((j, x))
                j += L
        return sorted(out)

    def shifted(self, k: int) -> "Configuration":
        """tau^k of the configuration (slices drop by k)."""
        return self.mapped(AffineMap.translation(self.tree, -k))

    def mapped(self, point_map: AffineMap) -> "Configuration":
        return Configuration(self.tree, starmap(point_map, self.residues))

    def period(self) -> int:
        """Smallest e >= 1 with tau^e C = C; always a divisor of L."""
        L = self.modulus
        for e in sorted(d for d in range(1, L + 1) if L % d == 0):
            if self.shifted(e).residues == self.residues:
                return e
        return L

    def canonical_key(self) -> tuple:
        return tuple(sorted(self.residues))

    def to_json(self) -> str:
        data = {
            "tree": {"family": self.tree.family, "rank": self.tree.rank},
            "period": self.modulus,
            "points": [list(p) for p in sorted(self.residues)],
        }
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Configuration":
        data = json.loads(text)
        try:
            tree = make_tree(data["tree"]["family"], int(data["tree"]["rank"]))
            points = {(int(i), int(x)) for i, x in data["points"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed configuration JSON: {type(exc).__name__} {exc}") from None
        return Configuration(tree, points)


def _as_residues(tree: DynkinTree, config) -> frozenset[Residue] | None:
    """Accept a Configuration, a raw residue iterable, or None."""
    if config is None:
        return None
    if isinstance(config, Configuration):
        return config.residues
    L = loewy_number(tree)
    return frozenset((i % L, x) for i, x in config)


def high_vertex_count(config: Configuration) -> int:
    """Number of residues on the two fork vertices of a D-tree."""
    n = config.tree.rank
    return sum(1 for _, x in config.residues if x >= n - 1)


# ---------------------------------------------------------------------------
# windows


class QuiverWindow:
    """A finite slice ``[i_min, i_max]`` of the (decorated) translation quiver."""

    def __init__(self, tree: DynkinTree, config, i_min: int, i_max: int):
        if i_min > i_max:
            raise EmptyRange(f"slice range [{i_min}, {i_max}] is empty")
        self.tree = tree
        self.residues = _as_residues(tree, config)
        self.config = config if isinstance(config, Configuration) else None
        self.i_min = i_min
        self.i_max = i_max
        L = loewy_number(tree)
        depth = tree.depth

        pts: set[Pt] = set()
        for i in range(i_min, i_max + 1):
            for x in tree.vertices:
                pts.add(Pt(i, x))
                if self.residues is not None and (i % L, x) in self.residues:
                    pts.add(Pt(i, x, True))

        arrows: list[tuple[Pt, Pt]] = []
        for i in range(i_min, i_max + 1):
            for lo, hi in tree.edges:
                arrows.append((Pt(i, lo), Pt(i, hi)))
                if i + 1 <= i_max:
                    arrows.append((Pt(i, hi), Pt(i + 1, lo)))
        for p in sorted(pts):
            if p.proj:
                base = Pt(p.slice, p.vertex)
                arrows.append((base, p))
                succ = Pt(p.slice + 1, p.vertex)
                if succ in pts:
                    arrows.append((p, succ))

        self.points = frozenset(pts)
        self.arrows = tuple(sorted(arrows))
        self.tau = {
            Pt(i, x): Pt(i - 1, x)
            for i in range(i_min + 1, i_max + 1)
            for x in tree.vertices
        }
        self.level = {p: 2 * p.slice + depth[p.vertex] + (1 if p.proj else 0) for p in pts}
        self.out_nb: dict[Pt, list[Pt]] = {p: [] for p in pts}
        self.in_nb: dict[Pt, list[Pt]] = {p: [] for p in pts}
        for a, b in self.arrows:
            self.out_nb[a].append(b)
            self.in_nb[b].append(a)

    @cached_property
    def order(self) -> tuple[Pt, ...]:
        """The points sorted by ``(level, point)``: every arrow goes forward."""
        lvl = self.level
        return tuple(sorted(self.points, key=lambda p: (lvl[p], p)))

    @property
    def projectives(self) -> list[Pt]:
        return sorted(p for p in self.points if p.proj)

    def __contains__(self, p: Pt) -> bool:
        return p in self.points


def build_window(tree: DynkinTree, config, i_min: int, i_max: int) -> QuiverWindow:
    return QuiverWindow(tree, config, i_min, i_max)


def tau_apply(p: Pt, k: int, tree: DynkinTree | None = None, config=None) -> Pt:
    """tau^k of a point; on projectives only multiples of L are defined."""
    if not p.proj:
        return Pt(p.slice - k, p.vertex)
    if tree is None or config is None:
        raise UndefinedTau("tau of a projective point needs the configuration")
    L = loewy_number(tree)
    if k % L != 0:
        raise UndefinedTau(f"tau^{k} undefined on projective {p}")
    return Pt(p.slice - k, p.vertex, True)


# ---------------------------------------------------------------------------
# sections


@dataclass(frozen=True)
class Section:
    """A connected full subquiver meeting each tau-orbit exactly once.

    ``levels[v-1]`` is the slice of the point over vertex ``v``.  Along a
    canonical edge ``(lo, hi)`` the slices satisfy
    ``slice(lo) - slice(hi) in {0, 1}``: equality puts the arrow
    ``lo -> hi`` inside the section, a difference of one the arrow
    ``hi -> lo``.
    """

    tree: DynkinTree
    levels: tuple[int, ...]

    def __post_init__(self):
        if len(self.levels) != self.tree.rank:
            raise InvalidInput(
                f"section levels {self.levels} have {len(self.levels)} entries, "
                f"{self.tree.name} needs {self.tree.rank}"
            )
        for lo, hi in self.tree.edges:
            if self.slice_of(lo) - self.slice_of(hi) not in (0, 1):
                raise InvalidInput(f"levels {self.levels} do not form a section")

    def slice_of(self, v: int) -> int:
        return self.levels[v - 1]

    def point_of(self, v: int) -> Pt:
        return Pt(self.slice_of(v), v)

    def points(self) -> list[Pt]:
        return [self.point_of(v) for v in self.tree.vertices]

    def arrows(self) -> list[tuple[int, int]]:
        """The arrows of the section, as (source vertex, target vertex)."""
        out = []
        for lo, hi in self.tree.edges:
            if self.slice_of(lo) == self.slice_of(hi):
                out.append((lo, hi))
            else:
                out.append((hi, lo))
        return out

    def sources(self) -> list[int]:
        targets = {b for _, b in self.arrows()}
        return sorted(v for v in self.tree.vertices if v not in targets)

    def sinks(self) -> list[int]:
        starts = {a for a, _ in self.arrows()}
        return sorted(v for v in self.tree.vertices if v not in starts)

    def shifted(self, k: int) -> "Section":
        """tau^{-k} of the section: all slices rise by k."""
        return Section(self.tree, tuple(l + k for l in self.levels))


def equioriented_section(tree: DynkinTree) -> Section:
    """All points on slice 0; for A_n this is the chain 1 -> 2 -> ... -> n."""
    return Section(tree, (0,) * tree.rank)


def section_move(section: Section, x: int, direction: str) -> Section:
    """Apply s^+_x (direction 'plus', x a source) or s^-_x ('minus', x a sink)."""
    if direction == "plus":
        if x not in section.sources():
            raise NotSource(f"vertex {x} is not a source of the section")
        delta = 1
    elif direction == "minus":
        if x not in section.sinks():
            raise NotSink(f"vertex {x} is not a sink of the section")
        delta = -1
    else:
        raise ValueError(f"direction must be 'plus' or 'minus', got {direction!r}")
    levels = list(section.levels)
    levels[x - 1] += delta
    return Section(section.tree, tuple(levels))


def plus_admissible_enumeration(section: Section) -> list[int]:
    """A source order x_1, ..., x_r moving the section to tau^{-1} of itself.

    Each vertex occurs exactly once; at every step the smallest not yet
    used source is taken.  Any valid order yields the same shifted section.
    """
    order: list[int] = []
    used: set[int] = set()
    current = section
    for _ in range(section.tree.rank):
        x = next(v for v in current.sources() if v not in used)
        order.append(x)
        used.add(x)
        current = section_move(current, x, "plus")
    assert current.levels == tuple(l + 1 for l in section.levels)
    return order


# ---------------------------------------------------------------------------
# automorphisms of the translation quiver


@dataclass(frozen=True)
class AffineMap:
    """The point map ``(i, x) -> (i + shift[x], perm[x])``.

    Tau, the extended graph automorphisms, the glide and every group
    generator are of this form.  Both tuples are indexed by vertex; index 0
    is unused and holds ``(0, 0)``, so composition needs no offsets.  With
    ``modulus > 0`` image slices are reduced mod ``modulus``: the map then
    acts on residues.
    """

    shift: tuple[int, ...]
    perm: tuple[int, ...]
    modulus: int = 0

    @staticmethod
    def translation(tree: DynkinTree, t: int) -> "AffineMap":
        """tau^{-t}: every slice rises by t."""
        return AffineMap((0,) + (t,) * tree.rank, tuple(range(tree.rank + 1)))

    def __call__(self, i: int, x: int) -> Residue:
        j = i + self.shift[x]
        return (j % self.modulus if self.modulus else j), self.perm[x]

    def mod(self, modulus: int) -> "AffineMap":
        return AffineMap(self.shift, self.perm, modulus)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other."""
        return AffineMap(
            tuple(s + self.shift[y] for s, y in zip(other.shift, other.perm)),
            tuple(self.perm[y] for y in other.perm),
            self.modulus,
        )

    def _cycle(self, x: int) -> list[int]:
        cycle = [x]
        while self.perm[cycle[-1]] != x:
            cycle.append(self.perm[cycle[-1]])
        return cycle

    @property
    def order(self) -> int:
        """The order of the vertex permutation."""
        return math.lcm(*(len(self._cycle(x)) for x in range(len(self.perm))))

    def power(self, k: int) -> "AffineMap":
        """self^k for any integer k: along the cycle of x, k = q c + r steps
        shift by q times the cycle sum plus the first r shifts."""
        shift, perm = [], []
        for x in range(len(self.perm)):
            cycle = self._cycle(x)
            steps = [self.shift[y] for y in cycle]
            q, r = divmod(k, len(cycle))
            shift.append(q * sum(steps) + sum(steps[:r]))
            perm.append(cycle[r])
        return AffineMap(tuple(shift), tuple(perm), self.modulus)

    def inverse(self) -> "AffineMap":
        return self.power(-1)


def extend_automorphism(tree: DynkinTree, aut: TreeAutomorphism) -> AffineMap:
    """Extend a tree automorphism to the translation quiver.

    The per-vertex slice correction keeps every arrow an arrow; it is the
    unique extension up to composing with powers of tau.
    """
    depth = tree.depth
    kappa = (depth[aut(1)] - depth[1]) % 2
    return AffineMap(
        (0,) + tuple((depth[v] - depth[aut(v)] + kappa) // 2 for v in tree.vertices),
        (0,) + aut.mapping,
    )


def glide_map(tree: DynkinTree) -> AffineMap:
    """The glide reflection rho of Z A_{2n}; rho o rho = tau."""
    if tree.family != "A" or tree.rank % 2:
        raise WrongFamily(f"the glide reflection needs A_n with n even, got {tree.name}")
    n = tree.rank
    return AffineMap(
        (0,) + tuple(x - 1 - n // 2 for x in tree.vertices),
        (0,) + tuple(n + 1 - x for x in tree.vertices),
    )


class GroupAction:
    """The cyclic group generated by an affine map g, in closed form.

    With d the order of g's vertex permutation, g^d is the pure translation
    by T slices (g keeps arrows arrows, so g^d shifts every vertex alike),
    and g^(q d + r) is g^r followed by q T slices.  ``powers`` holds
    g^0 .. g^(d-1); ``period`` is |T|.
    """

    def __init__(self, g: AffineMap):
        self.order = g.order
        self.powers = [g.power(r) for r in range(self.order)]
        self.translation = g.power(self.order).shift[1]
        self.period = abs(self.translation)

    def apply(self, p: Pt, k: int) -> Pt:
        q, r = divmod(k, self.order)
        g = self.powers[r]
        return Pt(p.slice + g.shift[p.vertex] + q * self.translation, g.perm[p.vertex], p.proj)

    def representative(self, p: Pt, lo: int = 0) -> Pt:
        """The least point of p's orbit with slice in [lo, lo + period).

        With ``lo = 0`` this is the canonical orbit key.  A finite orbit
        (period 0) is represented by its least point.
        """
        x, P = p.vertex, self.period
        if not P:
            return min(Pt(p.slice + g.shift[x], g.perm[x], p.proj) for g in self.powers)
        return min(
            Pt(lo + (p.slice + g.shift[x] - lo) % P, g.perm[x], p.proj) for g in self.powers
        )


def twist_label(tree: DynkinTree, aut: TreeAutomorphism) -> str:
    if aut.is_identity:
        return "id"
    if aut.order == 3:
        return "sigma"
    if tree.family == "A":
        return "phi"
    if tree.family == "D":
        return "psi"
    return "chi"


@dataclass(frozen=True)
class AdmissibleGroup:
    """An infinite cyclic group generated by tau^tau_power composed with a twist.

    ``twist`` is a tree automorphism; ``glide`` selects the glide reflection
    of A_{2n} instead (the generator is then tau^tau_power o rho).
    """

    tau_power: int
    twist: TreeAutomorphism | None = None
    glide: bool = False

    def name(self, tree: DynkinTree | None = None) -> str:
        if self.glide:
            return "rho" if self.tau_power == 0 else f"tau^{self.tau_power}*rho"
        if self.twist is None or self.twist.is_identity:
            return f"tau^{self.tau_power}"
        label = twist_label(tree, self.twist) if tree is not None else "twist"
        return f"tau^{self.tau_power}*{label}"

    def generator_map(self, tree: DynkinTree) -> AffineMap:
        if self.glide:
            base = glide_map(tree)
        elif self.twist is not None:
            base = extend_automorphism(tree, self.twist)
        else:
            base = AffineMap.translation(tree, 0)
        return AffineMap.translation(tree, -self.tau_power).compose(base)

    def action(self, tree: DynkinTree) -> GroupAction:
        """The group's closed-form action on the translation quiver of ``tree``."""
        return _group_action(self, tree)

    def pure_period(self, tree: DynkinTree) -> int:
        """The translation amount R of the smallest pure power generator^k = tau^R."""
        return -self.action(tree).translation

    def apply(self, tree: DynkinTree, p: Pt, k: int = 1) -> Pt:
        return self.action(tree).apply(p, k)

    def stabilizes(self, config: Configuration) -> bool:
        return config.mapped(self.generator_map(config.tree)).residues == config.residues


@lru_cache(maxsize=None)
def _group_action(group: AdmissibleGroup, tree: DynkinTree) -> GroupAction:
    return GroupAction(group.generator_map(tree))


# ---------------------------------------------------------------------------
# the table of admissible groups


def table_groups(tree: DynkinTree, config: Configuration, s_max: int = 1) -> list[AdmissibleGroup]:
    """All admissible fundamental groups for the given configuration.

    One representative per family of the classification table, instantiated
    for ``1 <= s <= s_max``.  Twisted generators are emitted exactly when
    the twist stabilizes the configuration.
    """
    L = loewy_number(tree)
    e = config.period()
    translation_steps: list[int]
    twists: list[TreeAutomorphism] = []

    if tree.family == "A":
        translation_steps = [e]
        if tree.rank % 2 == 1 and tree.rank > 1:
            flip = flip_automorphism(tree)
            if flip is not None:
                twists.append(flip)
    elif tree.family == "D" and tree.rank == 4:
        translation_steps = [L]
        auts = [a for a in tree_automorphisms(tree) if not a.is_identity]
        for wanted_order in (2, 3):
            for a in sorted((a for a in auts if a.order == wanted_order), key=lambda a: a.mapping):
                if AdmissibleGroup(0, a).stabilizes(config):
                    twists.append(a)
                    break
    elif tree.family == "D":
        h = high_vertex_count(config)
        if h == 2:
            translation_steps = [L]
            twists.append(flip_automorphism(tree))
        else:
            translation_steps = [e]
    elif tree.family == "E" and tree.rank == 6:
        translation_steps = [L]
        twists.append(flip_automorphism(tree))
    else:
        translation_steps = [L]

    out = [AdmissibleGroup(s * r) for r in translation_steps for s in range(1, s_max + 1)]
    for twist in twists:
        if AdmissibleGroup(0, twist).stabilizes(config):
            out.extend(AdmissibleGroup(s * L, twist) for s in range(1, s_max + 1))
    return out


# ---------------------------------------------------------------------------
# admissibility and quotients


def _orbit_map(group: AdmissibleGroup, window: QuiverWindow, lo: int = 0) -> tuple:
    """The orbit test, as ``(rep, refusal)``: ``rep`` maps each window point to
    the least point of its orbit with slice in ``[lo, lo + period)``, and
    ``refusal`` is None or a reason naming a witness: the least x whose cone
    ``{x} u x+`` or ``{x} u x-`` meets one orbit twice, and the two members."""
    tree = window.tree
    action = group.action(tree)
    span = window.i_max - window.i_min + 1
    if span < action.period + 2:
        raise WindowTooSmall(
            f"window of {span} slices cannot hold a "
            f"fundamental domain of {group.name(tree)} plus margins"
        )
    g = group.generator_map(tree).mod(loewy_number(tree))
    moved = sorted(r for r in window.residues or () if g(*r) not in window.residues)
    if moved:
        return None, f"it maps configuration point {Pt(*moved[0])} off the configuration"
    if not action.period:
        return None, "its orbits are finite"  # a nontrivial power fixes every point

    rep = {p: action.representative(p, lo) for p in window.points}
    for p in sorted(window.points):
        for cone in ([p, *window.out_nb[p]], [p, *window.in_nb[p]]):
            keys = [rep[q] for q in cone]
            if len(set(keys)) < len(cone):
                j = next(j for j, k in enumerate(keys) if k in keys[:j])
                return rep, f"{cone[keys.index(keys[j])]} and {cone[j]} next to {p} lie in one orbit"
    return rep, None


def is_admissible(group: AdmissibleGroup, window: QuiverWindow) -> bool:
    """Orbit test: no orbit may meet ``{x} u x+`` or ``{x} u x-`` twice."""
    return _orbit_map(group, window)[1] is None


class FoldedQuiver:
    """The finite quotient of a window by an admissible group."""

    def __init__(self, points, arrows, tau, projectives, label):
        self.points = points
        self.arrows = arrows
        self.tau = tau
        self.projectives = projectives
        self.label = label
        self.out_nb = {p: [] for p in points}
        self.in_nb = {p: [] for p in points}
        for a, b in arrows:
            self.out_nb[a].append(b)
            self.in_nb[b].append(a)


def quotient(window: QuiverWindow, group: AdmissibleGroup) -> FoldedQuiver:
    """Fold a window by an admissible group; points become orbit representatives."""
    tree = window.tree
    period = group.action(tree).period
    span = window.i_max - window.i_min + 1
    rep, refusal = _orbit_map(group, window, window.i_min + (span - period) // 2)
    if refusal is not None:
        raise NotAdmissible(f"{group.name(tree)} is not admissible: {refusal}")
    if span < 2 * period:
        raise WindowTooSmall("quotient needs a window of at least two periods")
    points = tuple(sorted(set(rep.values())))
    arrows = tuple(sorted({(rep[a], rep[b]) for a, b in window.arrows}))
    tau = {rep[p]: rep[q] for p, q in window.tau.items()}  # well defined: G commutes with tau
    projectives = tuple(sorted({rep[p] for p in window.points if p.proj}))
    return FoldedQuiver(points, arrows, tau, projectives, f"{tree.name}/{group.name(tree)}")
