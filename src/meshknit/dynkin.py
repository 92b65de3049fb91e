"""Canonical Dynkin trees, their numerology and graph automorphisms.

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

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import InvalidType

FAMILIES = ("A", "D", "E")


@dataclass(frozen=True)
class DynkinTree:
    family: str
    rank: int
    edges: tuple[tuple[int, int], ...] = field(repr=False)

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
    """Build the canonical tree, or raise INVALID_TYPE."""
    if family == "A":
        if rank < 1:
            raise InvalidType(f"A_n requires n >= 1, got {rank}")
        edges = tuple((i, i + 1) for i in range(1, rank))
    elif family == "D":
        if rank < 4:
            raise InvalidType(f"D_n requires n >= 4, got {rank}")
        edges = tuple((i, i + 1) for i in range(1, rank - 2))
        edges += ((rank - 2, rank - 1), (rank - 2, rank))
    elif family == "E":
        if rank not in (6, 7, 8):
            raise InvalidType(f"E_n requires n in {{6, 7, 8}}, got {rank}")
        edges = tuple((i, i + 1) for i in range(1, rank - 1)) + ((3, rank),)
    else:
        raise InvalidType(f"unknown family {family!r}")
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


@dataclass(frozen=True)
class TreeAutomorphism:
    """A permutation of the vertices preserving the edge set."""

    mapping: tuple[int, ...]  # mapping[v - 1] = image of vertex v

    def __call__(self, v: int) -> int:
        return self.mapping[v - 1]

    @property
    def order(self) -> int:
        n = len(self.mapping)
        k, perm = 1, list(self.mapping)
        while perm != list(range(1, n + 1)):
            perm = [self.mapping[w - 1] for w in perm]
            k += 1
        return k

    @property
    def is_identity(self) -> bool:
        return all(self(v) == v for v in range(1, len(self.mapping) + 1))

    def compose(self, other: "TreeAutomorphism") -> "TreeAutomorphism":
        """self after other."""
        return TreeAutomorphism(tuple(self(other(v)) for v in range(1, len(self.mapping) + 1)))

    def inverse(self) -> "TreeAutomorphism":
        inv = [0] * len(self.mapping)
        for v, w in enumerate(self.mapping, start=1):
            inv[w - 1] = v
        return TreeAutomorphism(tuple(inv))


def _perm(tree: DynkinTree, images: dict[int, int]) -> TreeAutomorphism:
    mapping = tuple(images.get(v, v) for v in tree.vertices)
    aut = TreeAutomorphism(mapping)
    edge_set = {frozenset(e) for e in tree.edges}
    # holds by construction: every caller passes one of the fixed symmetries
    # of tree_automorphisms and rotation_automorphism, never user input
    assert all(frozenset((aut(a), aut(b))) in edge_set for a, b in tree.edges)
    return aut


@lru_cache(maxsize=None)
def tree_automorphisms(tree: DynkinTree) -> tuple[TreeAutomorphism, ...]:
    """The full automorphism group of the underlying graph.

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
            from itertools import permutations

            outer = (1, 3, 4)
            for images in permutations(outer):
                if images != outer:
                    auts.append(_perm(tree, dict(zip(outer, images))))
        else:
            auts.append(_perm(tree, {n - 1: n, n: n - 1}))
    elif tree.family == "E" and n == 6:
        auts.append(_perm(tree, {1: 5, 5: 1, 2: 4, 4: 2}))
    return tuple(auts)


def flip_automorphism(tree: DynkinTree) -> TreeAutomorphism | None:
    """The canonical nontrivial involution (phi/psi/chi), if any."""
    for aut in tree_automorphisms(tree):
        if not aut.is_identity and aut.order == 2:
            return aut
    return None


def rotation_automorphism(tree: DynkinTree) -> TreeAutomorphism | None:
    """The canonical 3-cycle of D_4 (1 -> 3 -> 4 -> 1)."""
    if (tree.family, tree.rank) != ("D", 4):
        return None
    return _perm(tree, {1: 3, 3: 4, 4: 1})
