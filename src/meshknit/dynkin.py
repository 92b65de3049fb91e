"""Canonical Dynkin trees, their numerology and graph automorphisms.

Graph automorphisms are :class:`AffineMap` point maps of the translation
quiver, the one type for tau, twists, the glide and group generators.

Canonical labelings:

* ``A_n``  -- chain ``1 - 2 - ... - n``.
* ``D_n``  -- chain ``1 - ... - (n-2)`` plus edges ``(n-2)-(n-1)`` and
  ``(n-2)-n``; the branch vertex is ``n-2``.
* ``E_n``  -- chain ``1 - ... - (n-1)`` plus ``n`` attached to vertex 3.

Edges are stored ordered ``(lo, hi)`` by vertex index; this orientation fixes
the arrow pattern of the stable translation quiver built in
:mod:`meshknit.ztquiver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import permutations

from .errors import InvalidType

FAMILIES = ("A", "D", "E")


@dataclass(frozen=True)
class DynkinTree:
    family: str
    rank: int
    edges: tuple[tuple[int, int], ...] = field(repr=False)

    def __post_init__(self):
        # every per-tree cache hashes its tree: hash the fields once.  The
        # family is left out, as str hashes differ between processes and the
        # edges already tell the trees of one rank apart.
        object.__setattr__(self, "_hash", hash((self.rank, self.edges)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def vertices(self) -> range:
        return range(1, self.rank + 1)

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        return _neighbor_map(self)

    @property
    def depth(self) -> dict[int, int]:
        """Height map d with d(hi) = d(lo) + 1 along every canonical edge.

        ``2 * slice + depth`` is the topological level of a stable point, the
        quantity that increases by one along every arrow of the translation
        quiver.
        """
        return _depth_map(self)

    @property
    def branch_vertex(self) -> int | None:
        for v in self.vertices:
            if len(self.neighbors[v]) == 3:
                return v
        return None


@lru_cache(maxsize=None)
def _neighbor_map(tree: DynkinTree) -> dict[int, tuple[int, ...]]:
    nb: dict[int, list[int]] = {v: [] for v in tree.vertices}
    for lo, hi in tree.edges:
        nb[lo].append(hi)
        nb[hi].append(lo)
    return {v: tuple(sorted(ws)) for v, ws in nb.items()}


@lru_cache(maxsize=None)
def _depth_map(tree: DynkinTree) -> dict[int, int]:
    depth = {1: 0}
    todo = [1]
    while todo:
        v = todo.pop()
        for lo, hi in tree.edges:
            if lo == v and hi not in depth:
                depth[hi] = depth[v] + 1
                todo.append(hi)
            elif hi == v and lo not in depth:
                depth[lo] = depth[v] - 1
                todo.append(lo)
    return depth


def make_tree(family: str, rank: int) -> DynkinTree:
    """The canonical tree, or raise INVALID_TYPE.

    One object per (family, rank), so per-tree caches and tree comparisons
    succeed on identity.  A rank that is not an ``int`` (a float, a bool) is
    refused before the cache could take it for the equal int."""
    if type(rank) is not int:
        raise InvalidType(f"a rank is an int, got {rank!r}")
    if family not in FAMILIES:
        raise InvalidType(f"unknown family {family!r}")
    return _canonical_tree(family, rank)


@lru_cache(maxsize=None)
def _canonical_tree(family: str, rank: int) -> DynkinTree:
    if family == "A":
        if rank < 1:
            raise InvalidType(f"A_n requires n >= 1, got {rank}")
        edges = tuple((i, i + 1) for i in range(1, rank))
    elif family == "D":
        if rank < 4:
            raise InvalidType(f"D_n requires n >= 4, got {rank}")
        edges = tuple((i, i + 1) for i in range(1, rank - 2))
        edges += ((rank - 2, rank - 1), (rank - 2, rank))
    else:
        if rank not in (6, 7, 8):
            raise InvalidType(f"E_n requires n in {{6, 7, 8}}, got {rank}")
        edges = tuple((i, i + 1) for i in range(1, rank - 1)) + ((3, rank),)
    return DynkinTree(family, rank, edges)


def tree_from_name(name: str) -> DynkinTree:
    """Parse names like ``A7`` or ``D_5``."""
    name = name.strip().replace("_", "")
    if not name or name[0].upper() not in FAMILIES or not name[1:].isdigit():
        raise InvalidType(f"cannot parse tree name {name!r}")
    return make_tree(name[0].upper(), int(name[1:]))


def loewy_number(tree: DynkinTree) -> int:
    """Coxeter number minus one: A_n -> n, D_n -> 2n-3, E6/E7/E8 -> 11/17/29."""
    if tree.family == "A":
        return tree.rank
    if tree.family == "D":
        return 2 * tree.rank - 3
    return {6: 11, 7: 17, 8: 29}[tree.rank]


Residue = tuple[int, int]


@dataclass(frozen=True)
class AffineMap:
    """The point map ``(i, x) -> (i + shift[x], perm[x])`` of the translation
    quiver (see :mod:`meshknit.ztquiver`).

    Tau, the graph automorphisms, the glide and every group generator are
    of this form.  Both tuples are indexed by vertex; index 0 is unused and
    holds ``(0, 0)``, so composition needs no offsets.  With ``modulus > 0``
    image slices are reduced mod ``modulus``: the map then acts on residues.
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

    @cached_property
    def order(self) -> int:
        """The order of the vertex permutation; the map is frozen, so it is
        counted once."""
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


def _perm(tree: DynkinTree, images: dict[int, int]) -> AffineMap:
    """The graph automorphism moving each vertex v to ``images.get(v, v)``,
    extended to the translation quiver.

    The per-vertex slice correction keeps every arrow an arrow; it is the
    unique extension up to composing with powers of tau that raises every
    level ``2 * slice + depth`` by kappa in {0, 1}.
    """
    perm = (0,) + tuple(images.get(v, v) for v in tree.vertices)
    edge_set = {frozenset(e) for e in tree.edges}
    # holds by construction: every caller passes one of the fixed symmetries
    # of tree_automorphisms and rotation_automorphism, never user input
    assert all(frozenset((perm[a], perm[b])) in edge_set for a, b in tree.edges)
    depth = tree.depth
    kappa = (depth[perm[1]] - depth[1]) % 2
    shift = (0,) + tuple((depth[v] - depth[perm[v]] + kappa) // 2 for v in tree.vertices)
    return AffineMap(shift, perm)


@lru_cache(maxsize=None)
def tree_automorphisms(tree: DynkinTree) -> tuple[AffineMap, ...]:
    """The full automorphism group of the underlying graph, each extended to
    the translation quiver.

    Identity first; order 2 for A_n (n >= 2), D_n (n >= 5) and E6, the
    symmetric group on the three outer vertices for D_4, trivial for A_1,
    E7 and E8.
    """
    n = tree.rank
    auts = [_perm(tree, {})]
    if tree.family == "A" and n >= 2:
        auts.append(_perm(tree, {v: n + 1 - v for v in tree.vertices}))
    elif tree.family == "D":
        if n == 4:
            outer = (1, 3, 4)
            for images in permutations(outer):
                if images != outer:
                    auts.append(_perm(tree, dict(zip(outer, images))))
        else:
            auts.append(_perm(tree, {n - 1: n, n: n - 1}))
    elif tree.family == "E" and n == 6:
        auts.append(_perm(tree, {1: 5, 5: 1, 2: 4, 4: 2}))
    return tuple(auts)


def flip_automorphism(tree: DynkinTree) -> AffineMap | None:
    """The canonical nontrivial involution (phi/psi/chi), if any."""
    for aut in tree_automorphisms(tree):
        if aut.order == 2:
            return aut
    return None


def rotation_automorphism(tree: DynkinTree) -> AffineMap | None:
    """The canonical 3-cycle of D_4 (1 -> 3 -> 4 -> 1)."""
    if (tree.family, tree.rank) != ("D", 4):
        return None
    return _perm(tree, {1: 3, 3: 4, 4: 1})
