"""Enumeration machinery for configurations.

Type A is counted by pedigrees (Catalan many); type D and the exceptional
trees are reached by one-point extensions from the next smaller tree, and
every family can be cross-checked against a brute-force search for periodic
point sets satisfying the two combinatorial axioms

* C1 -- every point admits a nonzero morphism into the set, and
* C2 -- distinct members admit none between each other.

Both are checked in ``ztquiver``, beside ``Configuration``, on one reach
table of residue masks.  Both methods produce masks in the encoding
``ztquiver._residue_bits`` owns, the stored form of a ``Configuration``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .dynkin import AffineMap, DynkinTree, Residue, loewy_number, make_tree, tree_automorphisms
from .errors import InvalidInput, NotAPedigreeVector, WrongFamily
from .knitting import _knit_knots
from .ztquiver import Configuration, _require_configuration, _residue_bits, _residue_reach, _set_bits
from .ztquiver import equioriented_section, glide_map
from .ztquiver import check_combinatorial_configuration  # noqa: F401  (perfbench reads it here)


# ---------------------------------------------------------------------------
# pedigrees


@dataclass(frozen=True)
class Pedigree:
    """A rooted tree where every node has at most one beta- and one
    alpha-child; these are the quivers of the algebras carrying an
    equioriented section in type A."""

    beta: "Pedigree | None" = None
    alpha: "Pedigree | None" = None

    @property
    def size(self) -> int:
        return 1 + (self.beta.size if self.beta else 0) + (self.alpha.size if self.alpha else 0)

    @cached_property
    def vector(self) -> tuple[int, ...]:
        """The section dimensions (:func:`pedigree_dimension_vector`): the
        beta subtree's raised by one, 1 at the root, then the alpha
        subtree's raised by one; :func:`pedigree_from_dims` inverts it."""
        beta = tuple(d + 1 for d in self.beta.vector) if self.beta else ()
        alpha = tuple(d + 1 for d in self.alpha.vector) if self.alpha else ()
        return beta + (1,) + alpha


# the largest n with Catalan(n) <= 10**6; n = 12 holds 208012 pedigrees in 48 MB,
# about 100 MB once each has built its vector
_MAX_PEDIGREE_NODES = 13


@lru_cache(maxsize=None)
def enumerate_pedigrees(n: int) -> tuple[Pedigree, ...]:
    """All pedigrees with n nodes, ordered by beta-subtree size, then shape."""
    if n < 1:
        raise InvalidInput(f"a pedigree has at least one node, got n = {n}")
    if n > _MAX_PEDIGREE_NODES:
        raise InvalidInput(f"pedigrees are enumerated up to n = {_MAX_PEDIGREE_NODES}, got n = {n}")
    if n == 1:
        return (Pedigree(),)
    out = []
    for b in range(n):
        a = n - 1 - b
        for left in enumerate_pedigrees(b) if b else (None,):
            for right in enumerate_pedigrees(a) if a else (None,):
                out.append(Pedigree(left, right))
    return tuple(out)


def pedigree_count(n: int) -> int:
    """Independent oracle: the recursion P(n) = sum P(i) P(n-1-i), P(0) = 1."""
    table = [1]
    for m in range(1, n + 1):
        table.append(sum(table[i] * table[m - 1 - i] for i in range(m)))
    return table[n]


def pedigree_dimension_vector(p: Pedigree) -> tuple[int, ...]:
    """Dimensions of the thin walk modules along the equioriented section.

    The in-order traversal (beta subtree, node, alpha subtree) realizes the
    lexicographic order on the walks from the root; each dimension counts
    the nodes the walk passes through.  Each pedigree builds it once.
    """
    return p.vector


def pedigree_from_dims(dims) -> Pedigree:
    """Reconstruct the unique pedigree with the given section dimensions.

    The root is the unique entry equal to 1; the prefix (shifted down by
    one) is the beta subtree, the suffix the alpha subtree.
    """
    dims = tuple(dims)
    if not dims or any(d < 1 for d in dims):
        raise NotAPedigreeVector(f"{dims} is not a pedigree vector")
    ones = [i for i, d in enumerate(dims) if d == 1]
    if len(ones) != 1:
        raise NotAPedigreeVector(f"{dims} must contain the value 1 exactly once")
    k = ones[0]
    left = tuple(d - 1 for d in dims[:k])
    right = tuple(d - 1 for d in dims[k + 1 :])
    beta = pedigree_from_dims(left) if left else None
    alpha = pedigree_from_dims(right) if right else None
    return Pedigree(beta, alpha)


# ---------------------------------------------------------------------------
# the two enumeration methods


@lru_cache(maxsize=None)
def _acting_maps(tree: DynkinTree) -> tuple[tuple[str, AffineMap], ...]:
    """The finite set acting on residue sets: tau powers composed with the
    graph automorphisms; for even A the flip only lifts to the glide
    reflection, so the glide replaces it.  Listed by tau power, then by
    base map, identity first."""
    L = loewy_number(tree)
    maps = []
    if tree.family == "A" and tree.rank % 2 == 0 and tree.rank >= 2:
        bases = [("", tree_automorphisms(tree)[0]), ("rho", glide_map(tree))]
    else:
        bases = [("", aut) for aut in tree_automorphisms(tree)]
    for k in range(L):
        for tag, base in bases:
            name = f"tau^{k}{'*' + tag if tag else ''}"
            maps.append((name, AffineMap.translation(tree, -k).compose(base).mod(L)))
    return tuple(maps)


@lru_cache(maxsize=None)
def _mask_table(tree: DynkinTree) -> tuple[list[int], ...]:
    """The acting maps on residue masks (``ztquiver._residue_bits``): one
    list per base map other than the identity, the tau-free entries of
    ``_acting_maps`` after the first, each giving the image bit of the
    residue at every bit position.  A set's image is the sum of its
    residues' image bits, and tau^k moves a mask by a left rotation of
    k * rank bits, which ``_orbit`` applies."""
    maps, bits = _acting_maps(tree), _residue_bits(tree)
    # the residues in sorted order sit at the bits from the highest down
    return tuple(
        [bits[base(*r)] for r in reversed(bits)] for _, base in maps[1 : len(maps) // loewy_number(tree)]
    )


def _orbit(tree: DynkinTree, mask: int) -> list[int]:
    """The mask of each acting map's image of a residue set, in the order of
    ``_acting_maps``: each base image, rotated by 0, rank, 2 rank, ... bits."""
    n, members = tree.rank, list(_set_bits(mask))
    m = loewy_number(tree) * n
    full = (1 << m) - 1
    images = [mask, *(sum(map(table.__getitem__, members)) for table in _mask_table(tree))]
    # a right shift of the doubled mask by m - s rotates it left by s
    doubled = [y << m | y for y in images]
    return [y >> s & full for s in range(m, 0, -n) for y in doubled]


def _section_vectors(tree: DynkinTree) -> set[tuple[int, ...]]:
    """The dimension vector on the all-zero section S of every configuration.

    For A these are the pedigree vectors.  Otherwise each configuration is
    tau^k g C, for a seed C and an extended automorphism g, and has on S the
    dimensions of C on g^-1(S + k): cells of the carpet knitting C forward
    from S.  The run returns 2L passes (``knitting._knit_knots``: it knits L
    and shifts them one period up for the next L), so the carpet holds
    S + j for 0 <= j <= 2L; g^-1 shifts slices by at most 2,
    so one period of k from the least k that keeps every shift at or above S
    fits.  On S the carpet's cell (j, x) is the vector after pass j at x.
    The run of a seed that ``_seed_runs`` skips repeats a kept run from its
    pass j on, a shift of k by j that reads of one whole period of k cover."""
    if tree.family == "A":
        return set(_pattern_vectors(tree))
    L = loewy_number(tree)
    section = equioriented_section(tree)
    inverses = [aut.inverse() for aut in tree_automorphisms(tree)]
    shifts = [s for g in inverses for s in g.shift[1:]]
    k0 = -min(shifts)
    reads = [[(g.shift[v], g.perm[v] - 1) for v in tree.vertices] for g in inverses]
    out = set()
    for _, vectors in _seed_runs(tree):
        # the passes read, k + j, lie in [0, L + 3] as shifts lie in [-2, 2]
        # and L >= 5 here: inside the run's 2L passes, none wrapping
        assert 0 <= k0 + min(shifts) and k0 + L - 1 + max(shifts) < len(vectors)
        for read in reads:
            for k in range(k0, k0 + L):
                out.add(tuple(vectors[k + j][x] for j, x in read))
    return out


def _pattern_vectors(tree: DynkinTree) -> list[tuple[int, ...]]:
    """Dimension vectors seeding the patterns method, on the all-zero section.

    For A these are the pedigree vectors, one per configuration.  D_n and E_n
    extend the section vectors of the tree without vertex n - 1 (A_{n-1},
    D5, E6 or E7, its vertex n - 1 becoming n) by one point: one above the
    value at vertex n - 2, planting a configuration point right behind it."""
    n = tree.rank
    if tree.family == "A":
        return [pedigree_dimension_vector(p) for p in enumerate_pedigrees(n)]
    sub = make_tree("A" if tree.family == "D" else "D" if n == 6 else "E", n - 1)
    return sorted({sv[: n - 2] + (1 + sv[n - 3], sv[n - 2]) for sv in _section_vectors(sub)})


def _seed_runs(tree: DynkinTree):
    """``(configuration, vectors)`` of the knit-and-knot run
    (``knitting._knit_knots``) of each pattern vector, in order, that is not
    among the first L pass vectors of an earlier run."""
    L, section = loewy_number(tree), equioriented_section(tree)
    seen: set[tuple[int, ...]] = set()
    for vec in _pattern_vectors(tree):
        if vec not in seen:
            config, _, vectors = _knit_knots(tree, section, vec)
            seen.update(vectors[:L])
            yield config, vectors


def _enumerate_patterns(tree: DynkinTree) -> set[int]:
    """The masks of the seeds of ``_seed_runs`` and of all their images.

    ``_knit_knots`` shows by induction that pass j of a run depends on its
    start vector alone, so the run from vectors[j] repeats the run of C
    from pass j on and knots tau^j C, C's mask rotated left by j * rank bits.
    A skipped vector's configuration is thus a tau image of a knitted
    seed's.  ``_orbit`` lists every tau image, so closing the seeds under it
    restores the skipped configurations of every family; in type A, where
    patterns biject with configurations, that leaves one run per tau-orbit.
    One pass suffices as the acting maps form a group on residues."""
    return {image for config, _ in _seed_runs(tree) for image in _orbit(tree, config.mask)}


def _tau_representatives(tree: DynkinTree) -> list[tuple[int, list[int]]]:
    """``(v, masks)`` for each vertex v in the search order: the masks of the
    residue sets of one fundamental domain that satisfy C1 and C2, hold the
    residue (0, v) and no residue of a vertex before v.

    The sets are read off the reach table ``ztquiver._residue_reach`` alone,
    by an exact-cover search after Knuth's Algorithm X ("Dancing Links",
    2000).  It branches on the least uncovered residue, trying each
    available coverer and dropping a tried one from the later branches, so
    each set is found once; no set size is assumed.  The search order is
    ``_enumerate_bruteforce``'s: its first search starts from the fewest
    available residues, and every later search loses that vertex's residues."""
    # covered_by[p]: the residues that p reaches, which cover it (C1);
    # covers[p]: the residues reaching p, which it covers
    covered_by, covers = _residue_reach(tree)
    L, bits = loewy_number(tree), _residue_bits(tree)
    full = (1 << len(covers)) - 1
    # C2 excludes the residues a chosen one reaches and those reaching it
    excludes = [c | b for c, b in zip(covers, covered_by)]
    results: list[int] = []

    def search(uncovered: int, avail: int, key: int):
        if not uncovered:
            results.append(key)
            return
        # the least uncovered residue is the top bit; none available ends the branch
        options = covered_by[uncovered.bit_length() - 1] & avail
        while options:
            p = options.bit_length() - 1  # least residues first
            top = 1 << p
            options ^= top
            search(uncovered & ~covers[p], avail & ~excludes[p], key | top)
            avail ^= top

    at = {x: bits[0, x].bit_length() - 1 for x in tree.vertices}
    order = sorted(tree.vertices, key=lambda x: (-excludes[at[x]].bit_count(), x))
    out, removed = [], 0
    for x in order:
        p, start = at[x], len(results)
        search(full & ~covers[p], full & ~excludes[p] & ~removed, 1 << p)
        out.append((x, results[start:]))
        removed |= sum(bits[i, x] for i in range(L))
    return out


def _enumerate_bruteforce(tree: DynkinTree) -> set[int]:
    """The mask of every residue set of one fundamental domain that satisfies
    C1 and C2: the ``_tau_representatives`` and their tau images.

    The search order of the vertices is read off the reach table: the vertex
    whose residue (0, v) excludes the most residues under C2 (what it
    reaches and what reaches it) comes first, ties by vertex.  C1 needs a
    member, so every such set meets some vertex, and so meets a first vertex
    v in that order.  A tau power moves one of its points on v to (0, v) and
    keeps every vertex, so one of its tau images holds (0, v) and avoids the
    vertices before v: the search for v finds it.  tau moves a mask by a
    rotation of rank bits, and the reach table commutes with that rotation,
    so every rotation of a found set passes C1 and C2 again; the L rotations
    of the representatives are thus exactly the sets.  The rotations are
    applied here by shifts, sharing no closure with the patterns method's
    ``_orbit``."""
    n, m = tree.rank, loewy_number(tree) * tree.rank
    full = (1 << m) - 1
    found = [mask for _, masks in _tau_representatives(tree) for mask in masks]
    return {(y << s | y >> m - s) & full for y in found for s in range(0, m, n)}


def enumerate_configurations(tree: DynkinTree, method: str = "patterns") -> list[Configuration]:
    """All configurations of the tree, by knitting patterns or brute force.

    Both methods return the same set, listed by sorted residue tuple; the
    test suite cross-validates them.  Every configuration has rank
    residues, so that order is the descending order of their masks
    (``ztquiver._residue_bits``), which holds only among sets of one size.  Brute
    force reads only the axioms C1 and C2 and searches one tau image of each
    configuration (``_enumerate_bruteforce``); patterns knits only the seed
    vectors that no earlier run passed through (``_enumerate_patterns``).
    Brute force is the faster method on every tree of the README's timings.
    """
    if method == "patterns":
        masks = _enumerate_patterns(tree)
    elif method == "bruteforce":
        masks = _enumerate_bruteforce(tree)
    else:
        raise InvalidInput(f"unknown method {method!r}")
    return [Configuration._of_mask(tree, mask) for mask in sorted(masks, reverse=True)]


# ---------------------------------------------------------------------------
# corner analysis and symmetry classes


def dn_corner_count(config: Configuration) -> tuple[int, list[Residue]]:
    """Number of high points (fork vertices) per fundamental domain.

    Defined for D_n with n >= 5 only; the count is 2 or 3, two-cornered
    configurations carry both high points on one slice, three-cornered ones
    on pairwise distinct slices.
    """
    tree = config.tree
    if tree.family != "D" or tree.rank < 5:
        raise WrongFamily("corner counts are defined for D_n with n >= 5 only")
    _require_configuration(config)
    high = sorted((i, x) for i, x in config.residues if x >= tree.rank - 1)
    slices = {i for i, _ in high}
    # An invariant once the axioms hold: every D_n configuration is two- or
    # three-cornered (Riedtmann's classification of type D_n); the tests
    # check every configuration of D5 and D6.
    assert (len(high), len(slices)) in ((2, 1), (3, 3)), f"high points {high} unclassified"
    return len(high), high


@dataclass
class ConfigurationClass:
    representative: Configuration
    orbit_size: int
    stabilizer: tuple[str, ...]

    @property
    def stabilizer_order(self) -> int:
        return len(self.stabilizer)


def configurations_up_to_aut(tree: DynkinTree, configs=None) -> list[ConfigurationClass]:
    """Orbit representatives under tau shifts, graph automorphisms and (for
    even A) the glide reflection; the representative of each class is its
    lexicographically least member, the largest mask of its orbit, as every
    configuration has rank residues (``ztquiver._residue_bits``).  Classes come in the
    order of their least given member, and stabilisers name their maps in
    the order of ``_acting_maps``."""
    configs = enumerate_configurations(tree) if configs is None else list(configs)
    foreign = sorted(
        (cfg for cfg in configs if cfg.tree is not tree and cfg.tree != tree), key=Configuration.canonical_key
    )
    if foreign:
        raise InvalidInput(f"{foreign[0]} belongs to {foreign[0].tree.name}, not to {tree.name}")
    maps = _acting_maps(tree)
    seen: set[int] = set()
    out = []
    for key in sorted({cfg.mask for cfg in configs}, reverse=True):
        if key in seen:
            continue
        orbit = _orbit(tree, key)
        seen.update(orbit)
        rep = max(orbit)
        # on a list closed under the maps, the key is its orbit's maximum
        images = orbit if rep == key else _orbit(tree, rep)
        stab = tuple(name for (name, _), image in zip(maps, images) if image == rep)
        size = len(set(orbit))
        # holds for any residue set: the acting maps form a group on residues
        assert size * len(stab) == len(maps), "orbit-stabilizer mismatch"
        out.append(ConfigurationClass(Configuration._of_mask(tree, rep), size, stab))
    return out
