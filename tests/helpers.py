"""Shared test utilities, including the naive reference oracle.

``naive_hom_dim`` enumerates every path between two window points and builds
the full relation matrix (one row per ``q . mesh-sum . p`` combination),
returning path count minus rank.  It shares no code with the incremental
transporter; it anchors the oracle itself on small windows.  ``path_exists``
is a plain depth-first search, the reference for reachability.
"""

from fractions import Fraction

from meshknit.linalg import RationalEchelon


def all_paths(window, x, y):
    out = []
    target_level = window.level[y]

    def dfs(p, acc):
        if p == y:
            out.append(tuple(acc))
            return
        for q in sorted(window.out_nb[p]):
            if window.level[q] <= target_level:
                dfs(q, acc + [q])

    dfs(x, [x])
    return out


def path_exists(window, x, y) -> bool:
    """Depth-first search for a path x -> y inside the window."""
    seen = {x}
    stack = [x]
    while stack:
        p = stack.pop()
        if p == y:
            return True
        for q in window.out_nb[p]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return False


def naive_hom_dim(window, x, y) -> int:
    paths = all_paths(window, x, y)
    if not paths:
        return 0
    index = {p: i for i, p in enumerate(paths)}
    ech = RationalEchelon()
    for z in sorted(window.points):
        if z.proj:
            continue
        tz = window.tau.get(z)
        if tz is None:
            continue
        middles = [w for w in window.in_nb[z] if w in window.out_nb.get(tz, [])]
        if not middles:
            continue
        for front in all_paths(window, x, tz):
            for back in all_paths(window, z, y):
                row: dict[int, Fraction] = {}
                for w in middles:
                    whole = front + (w,) + back
                    if whole in index:
                        row[index[whole]] = row.get(index[whole], Fraction(0)) + 1
                if row:
                    ech.insert(row)
    return len(paths) - ech.rank
