"""Finite windows of the stable translation quiver of a Dynkin tree.

Points live on ``Z x T0``.  A canonical edge ``(lo, hi)`` of the tree induces
arrows ``(i, lo) -> (i, hi)`` and ``(i, hi) -> (i+1, lo)`` for every slice
``i``; the translation tau shifts ``(i, x)`` to ``(i-1, x)``.  A configuration
decorates the quiver with one projective-injective point ``c*`` over each of
its points ``c``, with arrows ``c -> c*`` and ``c* -> tau^{-1} c``.

Nothing infinite is ever materialized.  A window ``[i_min, i_max]`` builds
its slices explicitly on the first read of its points, arrows or
neighbours, and not before; the orbit test and the quotient by an
admissible group read only the tree, the configuration's residues and the
two ends of a slice range, and fold one period of slices, so a window passed
to them is never built.

A configuration is stored as one int mask, encoded and checked here: C1/C2
reads one reach table of masks, taken from the support of hom((0, x), -) on
the stable quiver, one int walk of the knitting recurrence per vertex
(:func:`_walk`, which ``mesh`` reads too).  An admissible group acts through
one :class:`GroupAction` per (group, tree), which holds every table of the pair.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice, product, starmap
from numbers import Real
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from .dynkin import (
    AffineMap,
    DynkinTree,
    Residue,
    loewy_number,
    make_tree,
    tree_automorphisms,
)
from .errors import EmptyRange, InvalidInput, NotAdmissible, NotSink, NotSource
from .errors import WindowTooSmall, WrongFamily

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


@lru_cache(maxsize=None)
def _residue_bits(tree: DynkinTree) -> dict[Residue, int]:
    """The one encoding of residue sets, as int masks of m = L * rank bits:
    the residue ``(i, x)``, of index ``k = i * rank + x - 1``, is bit
    ``m - 1 - k``, and a set's mask is the sum of its residues' bits.  Among
    sets of one size the larger mask is the lexicographically smaller sorted
    residue tuple.  The keys, in sorted order, are the L * rank residues."""
    L, n = loewy_number(tree), tree.rank
    return {(i, x): 1 << L * n - 1 - (i * n + x - 1) for i in range(L) for x in tree.vertices}


def _set_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, highest first: its residues in sorted order."""
    while mask:
        p = mask.bit_length() - 1
        yield p
        mask ^= 1 << p


class Configuration:
    """A tau^L-periodic point set, stored by fundamental-domain residues.

    ``mask`` holds the residues ``(i, x)`` with ``0 <= i < L``
    (:func:`_residue_bits`), and ``residues`` is their frozenset, decoded once;
    the unfolded set is ``{(i + k L, x) : k in Z}``.  Construction checks only
    size and range; the combinatorial axioms are verified on demand by
    :func:`check_combinatorial_configuration`.  Every residue given is
    checked by :func:`_checked_residues`.
    A configuration is not changed after construction, so once
    :func:`_require_configuration` has passed it, it is not checked again.
    """

    _passed_axioms = False

    def __init__(self, tree: DynkinTree, residues: Iterable[Residue]):
        bits = _residue_bits(tree)
        mask = sum({bits[r] for r in _checked_residues(tree, residues)})
        if (size := mask.bit_count()) != tree.rank:
            raise InvalidInput(f"configuration needs {tree.rank} residues, got {size}")
        self.tree = tree
        self.mask = mask

    @classmethod
    def _of_mask(cls, tree: DynkinTree, mask: int) -> "Configuration":
        """A configuration from a mask the library built, of the tree's rank; nothing is checked."""
        config = cls.__new__(cls)
        config.tree, config.mask = tree, mask
        return config

    @cached_property
    def residues(self) -> frozenset[Residue]:
        return frozenset(self.canonical_key())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Configuration)
            and self.tree == other.tree
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.tree, self.mask))

    def __repr__(self) -> str:
        pts = ",".join(f"({i},{x})" for i, x in self.canonical_key())
        return f"Configuration({self.tree.name}: {pts})"

    @property
    def modulus(self) -> int:
        return loewy_number(self.tree)

    def contains(self, i: int, x: int) -> bool:
        return bool(self.mask & _residue_bits(self.tree).get((i % self.modulus, x), 0))

    def lifts(self, i_min: int, i_max: int) -> list[Residue]:
        """All unfolded points with slice in [i_min, i_max]."""
        L = self.modulus
        # i_min + (i - i_min) % L is the least lift of slice i at or above i_min
        return sorted((j, x) for i, x in self.residues for j in range(i_min + (i - i_min) % L, i_max + 1, L))

    def shifted(self, k: int) -> "Configuration":
        """tau^k of the configuration (slices drop by k)."""
        return self.mapped(AffineMap.translation(self.tree, -k))

    def mapped(self, point_map: AffineMap) -> "Configuration":
        return Configuration(self.tree, starmap(point_map, self.residues))

    def period(self) -> int:
        """Smallest e >= 1 with tau^e C = C; always a divisor of L.  For e
        dividing L, that holds when the mask repeats every e * rank bits."""
        L, n, mask = self.modulus, self.tree.rank, self.mask
        return next(e for e in range(1, L + 1) if L % e == 0 and mask >> e * n == mask % (1 << (L - e) * n))

    def canonical_key(self) -> tuple:
        at = list(_residue_bits(self.tree))  # at[k]: the residue at bit m - 1 - k; highest first is sorted
        return tuple(at[~p] for p in _set_bits(self.mask))

    def to_json(self) -> str:
        data = {
            "tree": {"family": self.tree.family, "rank": self.tree.rank},
            "period": self.modulus,
            "points": [list(p) for p in self.canonical_key()],
        }
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Configuration":
        try:
            data = json.loads(text)
            tree = make_tree(data["tree"]["family"], _json_int(data["tree"]["rank"]))
            points = {(_json_int(i), _json_int(x)) for i, x in data["points"]}
            period = _json_int(data.get("period", loewy_number(tree)))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed configuration JSON: {type(exc).__name__} {exc}") from None
        if period != loewy_number(tree):
            raise InvalidInput(f"period {period} is not L = {loewy_number(tree)} of {tree.name}")
        return Configuration(tree, points)


def _json_int(value) -> int:
    """A JSON integer; floats, booleans and strings are refused, not rounded."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not a JSON integer")
    return value


def _least(values: list):
    """The least of ``values`` whatever order they come in: numbers by value
    (then type name) first, then anything else by repr, so unlike types
    never meet in a comparison."""
    return min(values, key=lambda v: (0, v, type(v).__name__) if isinstance(v, Real) else (1, 0, repr(v)))


def _checked_residues(tree: DynkinTree, entries: Iterable) -> list[Residue]:
    """The residues ``(i mod L, x)`` of raw entries, the one check of a
    configuration's residues and of a raw window decoration.  It refuses an
    entry that is no tuple or list of two, then a slice that is not an int,
    then a vertex that is not an int (a bool included) of the tree, each time
    naming the least offender (:func:`_least`); a bool slice is reduced as
    the int it is."""
    entries = list(entries)
    if bad := [e for e in entries if not isinstance(e, (tuple, list)) or len(e) != 2]:
        raise InvalidInput(f"{_least(bad)!r} is not a residue of {tree.name}")
    if bad := [i for i, _ in entries if not isinstance(i, int)]:
        raise InvalidInput(f"non-integer slice {_least(bad)!r} in configuration")
    if bad := [x for _, x in entries if type(x) is not int or x not in tree.vertices]:
        raise InvalidInput(f"bad vertex {_least(bad)} in configuration")
    L = loewy_number(tree)
    return [(i % L, x) for i, x in entries]


def _as_residues(tree: DynkinTree, config) -> frozenset[Residue]:
    """The residues of a Configuration or a checked raw residue iterable; none for None."""
    if config is None:
        return frozenset()
    if isinstance(config, Configuration):
        return config.residues
    return frozenset(_checked_residues(tree, config))


# ---------------------------------------------------------------------------
# the combinatorial axioms C1 and C2


@lru_cache(maxsize=None)
def _plan(tree: DynkinTree, span: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The stable points (i, x) of ``span`` slices from 0 in level order, as
    (index ``i * rank + x - 1``, level, in-neighbour indices, tau-index), and
    their levels.  Index ``span * rank`` stays 0: it pads and is tau of slice 0."""
    n, depth, size = tree.rank, tree.depth, span * tree.rank
    ins: list[list[int]] = [[] for _ in range(size)]
    for i, (lo, hi) in product(range(span), tree.edges):
        ins[i * n + hi - 1].append(i * n + lo - 1)
        if i + 1 < span:
            ins[(i + 1) * n + lo - 1].append(i * n + hi - 1)
    level = [2 * (j // n) + depth[j % n + 1] for j in range(size)]
    order = sorted(range(size), key=level.__getitem__)
    pad = [ins[j] + [size] * (3 - len(ins[j])) for j in range(size)]
    steps = [(j, level[j], *pad[j], j - n if j >= n else size) for j in order]
    return steps, [level[j] for j in order]


def _walk(tree: DynkinTree, span: int, cut: set[int], s: int, x: int) -> list[int]:
    """hom((s, x), -) by index on a plan, then the zero slot, for slice offset
    s (all 0 past the span), under one bit per point: ``cut`` holds tau^-1 c
    for the points c of a decoration, where c* cancels the tau-subtraction."""
    steps, levels = _plan(tree, span)
    vals = [0] * (span * tree.rank + 1)
    if s < span:
        vals[s * tree.rank + x - 1] = 1
        top = 2 * s + tree.depth[x]  # the highest level holding a nonzero value
        for j, lvl, a, b, c, t in islice(steps, bisect_right(levels, top), None):
            if lvl > top + 1:
                break
            v = vals[a] + vals[b] + vals[c] - (0 if j in cut else vals[t])
            if v > 0:
                vals[j], top = v, lvl
    return vals


@lru_cache(maxsize=None)
def _stable_support(tree: DynkinTree, vertex: int) -> tuple[Pt, ...]:
    """The support of hom((0, vertex), -) on the stable quiver Z Delta, once
    per tree: one walk on slices [0, L + 1], with no window."""
    n, row = tree.rank, _walk(tree, loewy_number(tree) + 2, set(), 0, vertex)
    return tuple(Pt(j // n, j % n + 1) for j, d in enumerate(row) if d)


@lru_cache(maxsize=None)
def _residue_reach(tree: DynkinTree) -> tuple[list[int], list[int]]:
    """The one reach table, read by C1/C2 and the brute-force search: for the
    residue at each bit position, the masks of what it reaches (what its homs
    can hit, itself included) and of what reaches it."""
    L, bits = loewy_number(tree), _residue_bits(tree)
    reaches, reached = [0] * len(bits), [0] * len(bits)
    for x in tree.vertices:
        support = _stable_support(tree, x)
        # distinct lifts of one residue never see each other: path lengths
        # inside a hom support stay below L, a full period away needs 2L
        assert not any(p.vertex == x and p.slice > 0 and p.slice % L == 0 for p in support)
        for i in range(L):
            source = bits[i, x]
            for target in {bits[(i + p.slice) % L, p.vertex] for p in support}:
                reaches[source.bit_length() - 1] |= target
                reached[target.bit_length() - 1] |= source
    return reaches, reached


def _failed_axiom(tree: DynkinTree, mask: int) -> str | None:
    """The first of C2 (no member reaches another) and C1 (every residue
    reaches a member) that the residue set ``mask`` fails, or None.  By
    periodicity one fundamental domain of test points suffices for C1, one of
    sources for C2."""
    reaches, reached = _residue_reach(tree)
    covered = 0
    for p in _set_bits(mask):
        if reaches[p] & mask & ~(1 << p):
            return "C2"
        covered |= reached[p]
    return None if covered == (1 << len(reached)) - 1 else "C1"


def check_combinatorial_configuration(tree: DynkinTree, residues) -> tuple[bool, str | None]:
    """Verify axioms C1 and C2 on a periodic residue set.

    Returns ``(True, None)`` or ``(False, "C1" | "C2")`` naming the first axiom
    that fails, and refuses an entry that is no residue.  The residues are
    read in sorted order, and a set whose members before its first
    non-residue already fail C2 keeps that verdict.
    """
    L, bits, residues = loewy_number(tree), _residue_bits(tree), list(residues)
    reaches = _residue_reach(tree)[0]
    try:
        E = sorted({(i % L, x) for i, x in residues})
        mask = sum(bits.get(e, 0) for e in E)
        if any(reaches[bits[e].bit_length() - 1] & mask & ~bits[e] for e in E):
            return False, "C2"
    except (KeyError, TypeError, ValueError):
        for r in residues if len(residues) > 1 else ():  # refuse the first entry failing alone
            check_combinatorial_configuration(tree, [r])
        raise InvalidInput(f"{residues[0]!r} is not a residue of {tree.name}") from None
    axiom = _failed_axiom(tree, mask)
    return axiom is None, axiom


def _require_configuration(config: Configuration) -> None:
    if config._passed_axioms:
        return
    if axiom := _failed_axiom(config.tree, config.mask):
        raise InvalidInput(f"not a configuration: axiom {axiom} fails for {config}")
    config._passed_axioms = True


# ---------------------------------------------------------------------------
# windows


class QuiverWindow:
    """A finite slice ``[i_min, i_max]`` of the (decorated) translation quiver.

    Construction checks the range and the decoration and keeps the tree, the
    residues (empty with no configuration) and the two ends, which is all the
    orbit test, the quotient and ``mesh.starting_function`` read.  The
    explicit fields ``points``, ``arrows``, ``tau``, ``level``, ``out_nb`` and
    ``in_nb`` are built together on the first read of any of them.  Each
    point is built once, one ``Pt`` per (slice, vertex) and one per
    projective; the arrows, ``tau``, ``level`` and both neighbour lists hold
    those same objects.  ``arrows`` is sorted, and each neighbour list
    follows it.  A configuration must belong to ``tree``; a raw residue
    iterable is checked as a configuration's residues are, but not counted.
    """

    _BUILT = frozenset({"points", "arrows", "tau", "level", "out_nb", "in_nb"})

    def __init__(self, tree: DynkinTree, config, i_min: int, i_max: int):
        if i_min > i_max:
            raise EmptyRange(f"slice range [{i_min}, {i_max}] is empty")
        if isinstance(config, Configuration) and config.tree != tree:
            raise InvalidInput(f"{config} does not decorate a window of {tree.name}")
        self.tree = tree
        self.residues = _as_residues(tree, config)
        self.i_min = i_min
        self.i_max = i_max

    def __getattr__(self, name: str):
        # only reached while ``name`` is not yet in the instance dict
        if name not in QuiverWindow._BUILT:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._build()
        return self.__dict__[name]

    def _build(self) -> None:
        """Create the six explicit fields at once; none is read before it is set."""
        tree, i_min, i_max = self.tree, self.i_min, self.i_max
        L = loewy_number(tree)
        depth = tree.depth
        slices = range(i_min, i_max + 1)
        n = tree.rank

        stable = {(i, x): Pt(i, x) for i in slices for x in tree.vertices}
        star = {(i, x): Pt(i, x, True) for i, x in stable if (i % L, x) in self.residues}
        arrows: list[tuple[Pt, Pt]] = []
        for i in slices:
            for lo, hi in tree.edges:
                arrows.append((stable[i, lo], stable[i, hi]))
                if i < i_max:
                    arrows.append((stable[i, hi], stable[i + 1, lo]))
        for (i, x), p in star.items():
            arrows.append((stable[i, x], p))
            if i < i_max:
                arrows.append((p, stable[i + 1, x]))

        self.points = frozenset([*stable.values(), *star.values()])
        self.arrows = tuple(sorted(arrows))
        row_major = list(stable.values())
        self.tau = dict(zip(row_major[n:], row_major[:-n]))  # (i, x) -> (i - 1, x)
        self.level = {p: 2 * i + depth[x] for (i, x), p in stable.items()}
        self.level.update((p, 2 * i + depth[x] + 1) for (i, x), p in star.items())
        self.out_nb: dict[Pt, list[Pt]] = {p: [] for p in self.points}
        self.in_nb: dict[Pt, list[Pt]] = {p: [] for p in self.points}
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


# ---------------------------------------------------------------------------
# sections


@dataclass(frozen=True)
class Section:
    """A connected full subquiver meeting each tau-orbit exactly once.

    ``levels[v-1]`` is the slice of the point over vertex ``v``; its level
    ``2 * slice + depth(v)`` rises by one along every arrow of the quiver.
    The points form a section exactly when the levels of adjacent vertices
    differ by one (along a canonical edge ``(lo, hi)``, when
    ``slice(lo) - slice(hi) in {0, 1}``); each section arrow runs from the
    lower level to the higher.  A level that is not an int (a float, a bool)
    is refused.
    """

    tree: DynkinTree
    levels: tuple[int, ...]

    def __post_init__(self):
        if len(self.levels) != self.tree.rank:
            raise InvalidInput(
                f"section levels {self.levels} have {len(self.levels)} entries, "
                f"{self.tree.name} needs {self.tree.rank}"
            )
        if bad := [v for v in self.levels if type(v) is not int]:
            raise InvalidInput(f"a section level is an int, got {bad[0]!r}")
        for lo, hi in self.tree.edges:
            gap = abs(self.level(lo) - self.level(hi))
            if gap != 1:
                raise InvalidInput(
                    f"levels {self.levels} do not form a section: "
                    f"vertices {lo} and {hi} are {gap} levels apart"
                )

    def slice_of(self, v: int) -> int:
        return self.levels[v - 1]

    def level(self, v: int) -> int:
        """The level ``2 * slice + depth`` of the point over ``v``."""
        return 2 * self.levels[v - 1] + self.tree.depth[v]

    def point_of(self, v: int) -> Pt:
        return Pt(self.slice_of(v), v)

    def points(self) -> list[Pt]:
        return [self.point_of(v) for v in self.tree.vertices]

    def sources(self) -> list[int]:
        return self._turning(1)

    def sinks(self) -> list[int]:
        return self._turning(-1)

    def _turning(self, d: int) -> list[int]:
        """The vertices whose neighbours all sit one level above (d = 1) or below (d = -1)."""
        lvl, nbrs = self.level, self.tree.neighbors
        return [v for v in self.tree.vertices if all(lvl(y) == lvl(v) + d for y in nbrs[v])]

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
        raise InvalidInput(f"direction must be 'plus' or 'minus', got {direction!r}")
    levels = list(section.levels)
    levels[x - 1] += delta
    return Section(section.tree, tuple(levels))


def plus_admissible_enumeration(section: Section) -> list[int]:
    """A source order x_1, ..., x_r moving the section to tau^{-1} of itself.

    The vertices sorted by ``(level, vertex)``.  A vertex's neighbours one
    level below come earlier and have already moved up two levels when its
    turn comes, and those one level above have not moved yet: every
    neighbour then sits one level above it, so it is a source.
    """
    return sorted(section.tree.vertices, key=lambda v: (section.level(v), v))


# ---------------------------------------------------------------------------
# automorphisms of the translation quiver


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
    """The cyclic group an admissible group generates, acting on the
    translation quiver of one tree in closed form; :meth:`AdmissibleGroup.action`
    keeps one per (group, tree), and every table of the pair lives on it.

    With d the order of the generator g's vertex permutation, g^d is the pure
    translation by T slices (g keeps arrows arrows, so g^d shifts every vertex
    alike), and g^(q d + r) is g^r followed by q T slices.  ``powers`` holds
    g^0 .. g^(d-1); ``period`` is |T|; ``on_residues`` is g on residues mod L.
    ``orbit_key``, the one orbit table, maps each residue ``(slice mod period,
    vertex)`` to the least residue of its orbit; it is empty when the orbits
    are finite (period 0).
    """

    def __init__(self, group: AdmissibleGroup, tree: DynkinTree):
        g = group.generator_map(tree)
        self.name = group.name(tree)
        self.tree = tree
        self.powers = [g.power(r) for r in range(g.order)]
        self.translation = g.power(g.order).shift[1]
        self.period = abs(self.translation)
        self.on_residues = g.mod(loewy_number(tree))

    def moved(self, residues: frozenset[Residue]) -> list[Residue]:
        """The residues g maps off the set, least first; none exactly when g
        stabilizes the set, as it acts injectively."""
        g = self.on_residues
        return sorted(r for r in residues if g(*r) not in residues)

    @cached_property
    def orbit_key(self) -> dict[Residue, Residue]:
        """Residues are met in sorted order, so the first of an orbit is its
        least; g^(q d + r) moves a residue as g^r does, as g^d shifts by ±P."""
        P, key = self.period, {}
        vertices = range(1, len(self.powers[0].perm))
        for r in range(P):
            for x in vertices:
                if (r, x) not in key:
                    for g in self.powers:
                        key[(r + g.shift[x]) % P, g.perm[x]] = (r, x)
        return key

    @cached_property
    def failing_cones(self) -> tuple[tuple[Pt, Pt, Pt], ...]:
        """The stable points x with slice in [0, P) whose out-cone meets one orbit
        twice, each as ``(x, a, b)``: b is the first member of the sorted cone
        ``[x, *x+]`` whose orbit an earlier member a holds.  For a group with
        infinite orbits that moves no configuration point.

        A cone holds at most one projective, whose representative keeps
        ``proj=True``, so only the stable cones matter; they repeat every
        ``period`` slices.  As ``x- = (tau x)+`` and an arrow y -> x puts both in
        ``{y} u y+``, the out-cones of the residues ``(r, x)`` decide.  The
        successor of x over a neighbour y is on slice ``(level(x) + 1 - depth(y)) / 2``.
        """
        P, key, depth = self.period, self.orbit_key, self.tree.depth
        out = []
        for r in range(P):
            for x, nbrs in self.tree.neighbors.items():
                up = 2 * r + depth[x] + 1
                cone = [Pt(r, x), *sorted(Pt((up - depth[y]) // 2, y) for y in nbrs)]
                keys = [key[p.slice % P, p.vertex] for p in cone]
                j = next((j for j, k in enumerate(keys) if k in keys[:j]), None)
                if j is not None:
                    out.append((cone[0], cone[keys.index(keys[j])], cone[j]))
        return tuple(out)


def twist_label(tree: DynkinTree, aut: AffineMap) -> str:
    if aut.order == 1:
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

    ``twist`` is a graph automorphism of :func:`tree_automorphisms`;
    ``glide`` selects the glide reflection of A_{2n} instead (the generator
    is then tau^tau_power o rho); a group with both is refused.
    """

    tau_power: int
    twist: AffineMap | None = None
    glide: bool = False

    def __post_init__(self):
        if self.glide and self.twist is not None:
            raise InvalidInput("a generator composes tau with a twist or with the glide, not both")

    def name(self, tree: DynkinTree) -> str:
        if self.glide:
            return "rho" if self.tau_power == 0 else f"tau^{self.tau_power}*rho"
        if self.twist is None or self.twist.order == 1:
            return f"tau^{self.tau_power}"
        return f"tau^{self.tau_power}*{twist_label(tree, self.twist)}"

    def generator_map(self, tree: DynkinTree) -> AffineMap:
        if self.glide:
            base = glide_map(tree)
        elif self.twist is not None:
            base = self.twist
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
        """generator^k of p."""
        action = self.action(tree)
        q, r = divmod(k, len(action.powers))
        g = action.powers[r]
        return Pt(p.slice + g.shift[p.vertex] + q * action.translation, g.perm[p.vertex], p.proj)

    def stabilizes(self, config: Configuration) -> bool:
        return not self.action(config.tree).moved(config.residues)


@lru_cache(maxsize=None)
def _group_action(group: AdmissibleGroup, tree: DynkinTree) -> GroupAction:
    return GroupAction(group, tree)


# ---------------------------------------------------------------------------
# the table of admissible groups


def _twist(tree: DynkinTree, name: str, config: Configuration | None = None) -> AffineMap | None:
    """The first twist named ``name`` by :func:`twist_label` that fixes
    ``config`` (any, with no config), in vertex-permutation order, or None.

    A twist is a non-identity graph automorphism of finite order: its shifts
    sum to 0, as they sum to rank / d times the translation of g^d, d its
    order.  On A_2m the flip squares to tau^-1, being tau^-1 rho, so even A
    has no twist: its ``tau^r*phi`` is ``tau^(r-1)*rho``.
    """
    for aut in tree_automorphisms(tree)[1:]:
        if twist_label(tree, aut) == name and not sum(aut.shift):
            if config is None or AdmissibleGroup(0, aut).stabilizes(config):
                return aut
    return None


def table_groups(tree: DynkinTree, config: Configuration, s_max: int = 1) -> list[AdmissibleGroup]:
    """The admissible groups of the classification for the configuration,
    for ``1 <= s <= s_max``: tau^(s e), e the configuration's period (tau^k
    fixes it exactly when e divides k), then tau^(s L) g for each twist name
    in the order the tree's automorphisms first carry it, g the first twist
    of that name fixing the configuration (:func:`_twist`), if any.
    """
    if config.tree != tree:
        raise InvalidInput(f"the configuration belongs to {config.tree.name}, not to {tree.name}")
    _require_configuration(config)
    L, e, steps = loewy_number(tree), config.period(), range(1, s_max + 1)
    out = [AdmissibleGroup(s * e) for s in steps]
    for name in dict.fromkeys(twist_label(tree, a) for a in tree_automorphisms(tree)[1:]):
        if twist := _twist(tree, name, config):
            out.extend(AdmissibleGroup(s * L, twist) for s in steps)
    return out


# ---------------------------------------------------------------------------
# admissibility and quotients


def _refusal(action: GroupAction, residues, lo: int, hi: int) -> str | None:
    """The orbit test on slices [lo, hi]: None, or a reason naming a witness.

    It raises on an empty range and on fewer than period + 2 slices, then
    refuses a moved configuration point, finite orbits and a cone, in this
    order.  Failing cones repeat every P = period slices, so the least
    failing point of the range is the least entry of ``action.failing_cones``
    once moved into [lo, lo + P), where its cone lies whole in the range.
    No in-cone of a point fails first: tails sort before heads, so if p meets
    an in-neighbour w, w's out-cone fails; if two meet, (tau p)+ = p- does.
    """
    if lo > hi:
        raise EmptyRange(f"slice range [{lo}, {hi}] is empty")
    P = action.period
    if hi - lo + 1 < P + 2:
        raise WindowTooSmall(
            f"window of {hi - lo + 1} slices cannot hold a "
            f"fundamental domain of {action.name} plus margins"
        )
    if moved := action.moved(residues):
        return f"it maps configuration point {Pt(*moved[0])} off the configuration"
    if not P:
        return "its orbits are finite"  # a nontrivial power fixes every point
    cones = action.failing_cones
    if not cones:
        return None
    x, a, b = min(cones, key=lambda c: ((c[0].slice - lo) % P, c[0].vertex))
    k = lo + (x.slice - lo) % P - x.slice
    a, b, x = (Pt(p.slice + k, p.vertex) for p in (a, b, x))
    return f"{a} and {b} next to {x} lie in one orbit"


def is_admissible(group: AdmissibleGroup, window: QuiverWindow) -> bool:
    """Orbit test: no orbit may meet ``{x} u x+`` or ``{x} u x-`` twice."""
    return _refusal(group.action(window.tree), window.residues, window.i_min, window.i_max) is None


class FoldedQuiver:
    """The finite quotient of a slice range by an admissible group."""

    def __init__(self, points, arrows, tau, projectives, label):
        self.points = points
        self.arrows = arrows
        self.tau = tau
        self.projectives = projectives
        self.label = label


def _fold(action: GroupAction, residues, lo: int, hi: int) -> FoldedQuiver:
    """The quotient of slices [lo, hi] by an admissible group, each orbit
    represented by its least point in the band [b, b + P), with P the period
    and ``b = lo + (span - P) // 2``.

    A range of at least two periods holds the band and one slice either side
    of it, so every orbit of the range's points, arrows (by tail) and tau
    pairs has a member starting in the band, and one period of slices gives
    the quotient.  Representatives are read from ``orbit_key`` moved to the band.
    """
    refusal = _refusal(action, residues, lo, hi)
    if refusal is not None:
        raise NotAdmissible(f"{action.name} is not admissible: {refusal}")
    P, tree = action.period, action.tree
    if hi - lo + 1 < 2 * P:
        raise WindowTooSmall("quotient needs a window of at least two periods")
    b = lo + (hi - lo + 1 - P) // 2
    L = loewy_number(tree)
    # (slice - b, vertex) -> representative, for the band's stable points and projectives
    rep = {res: Pt(b + r, x) for res, (r, x) in action.orbit_key.items()}
    star = {(r, x): q._replace(proj=True) for (r, x), q in rep.items() if ((b + r) % L, x) in residues}
    arrows = set()
    for r in range(P):
        for s, t in tree.edges:
            arrows.add((rep[r, s], rep[r, t]))
            arrows.add((rep[r, t], rep[(r + 1) % P, s]))
    for (r, x), p in star.items():
        arrows.add((rep[r, x], p))
        arrows.add((p, rep[(r + 1) % P, x]))
    tau = {q: rep[(r - 1) % P, x] for (r, x), q in rep.items()}  # well defined: G commutes with tau
    projectives = tuple(sorted(set(star.values())))
    points = tuple(sorted({*rep.values(), *projectives}))
    return FoldedQuiver(points, tuple(sorted(arrows)), tau, projectives, f"{tree.name}/{action.name}")


def quotient(window: QuiverWindow, group: AdmissibleGroup) -> FoldedQuiver:
    """Fold a window by an admissible group; points become orbit representatives."""
    return _fold(group.action(window.tree), window.residues, window.i_min, window.i_max)
