"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time

from meshknit.classify import (
    check_combinatorial_configuration,
    configurations_up_to_aut,
    dn_corner_count,
    enumerate_pedigrees,
    pedigree_count,
)
from meshknit.dynkin import loewy_number, make_tree
from meshknit.knitting import dims_on_section, knit_and_knot, knit_run
from meshknit.mesh import MeshTransporter, nakayama, starting_function
from meshknit.present import (
    BrauerQuiver,
    ScaledCommuteRel,
    brauer_from_pedigree,
    cartan_matrix,
    d3m_quotient_presentations,
    pedigree_from_brauer,
    validate_brauer,
)
from meshknit.ztquiver import AdmissibleGroup, Pt, build_window, equioriented_section


def verdict(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_loewy_table():
    ok = True
    for n in range(1, 12):
        ok = ok and loewy_number(make_tree("A", n)) == n
    for n in range(4, 12):
        ok = ok and loewy_number(make_tree("D", n)) == 2 * n - 3
    ok = ok and loewy_number(make_tree("E", 6)) == 11
    ok = ok and loewy_number(make_tree("E", 7)) == 17
    ok = ok and loewy_number(make_tree("E", 8)) == 29
    verdict(1, ok, "Loewy numbers A_n=n, D_n=2n-3, E6/E7/E8=11/17/29")


def test_criterion_2_worked_a7_reproduction():
    t0 = time.time()
    tree = make_tree("A", 7)
    section = equioriented_section(tree)
    dims = (1, 4, 3, 2, 4, 3, 4)
    config, trace = knit_run(tree, section, dims)
    ok = len(config.residues) == 7
    ok = ok and trace.periodic_after == 7
    ok = ok and check_combinatorial_configuration(tree, config.residues) == (True, None)
    ok = ok and dims_on_section(config, section) == dims
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    verdict(2, ok, f"worked A7 run: 7 residues, periodic after 7, axioms, round trip ({elapsed:.2f}s)")


def test_criterion_3_d4_census(configs_cache):
    t0 = time.time()
    tree = make_tree("D", 4)
    pats = configs_cache("D4", "patterns")
    brute = configs_cache("D4", "bruteforce")
    ok = len(pats) == 20
    ok = ok and {c.residues for c in pats} == {c.residues for c in brute}
    classes = configurations_up_to_aut(tree, pats)
    ok = ok and len(classes) == 2
    ok = ok and sum(c.orbit_size for c in classes) == 20
    ok = ok and sorted(c.orbit_size for c in classes) == [5, 15]
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    verdict(3, ok, f"D4 census: 20 configurations, classes of sizes 5 and 15 ({elapsed:.2f}s)")


def test_criterion_4_type_a_counts(configs_cache):
    t0 = time.time()
    oracle = [pedigree_count(n) for n in range(9)]
    ok = oracle == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    for n in range(1, 7):
        both = [len(configs_cache(f"A{n}", m)) for m in ("patterns", "bruteforce")]
        ok = ok and both == [oracle[n], oracle[n]]
    for n in (7, 8):
        ok = ok and len(configs_cache(f"A{n}", "patterns")) == oracle[n]
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    verdict(4, ok, f"type-A counts match the Catalan oracle up to n=8 ({elapsed:.1f}s)")


def test_criterion_5_cross_method_d5_d6_e6(configs_cache):
    t0 = time.time()
    ok = True
    for name, budget in [("D5", 60.0), ("D6", 60.0), ("E6", 600.0)]:
        t1 = time.time()
        pats = {c.canonical_key() for c in configs_cache(name, "patterns")}
        brute = {c.canonical_key() for c in configs_cache(name, "bruteforce")}
        ok = ok and pats == brute
        ok = ok and (time.time() - t1) < budget
    verdict(5, ok, f"patterns == brute force for D5, D6, E6 ({time.time()-t0:.1f}s)")


def test_criterion_6_invariant_suite(configs_cache):
    t0 = time.time()
    ok = True
    # stability, size, period divisibility for every enumerated configuration
    for name in ["A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6"]:
        tree = make_tree(name[0], int(name[1]))
        L = loewy_number(tree)
        for config in configs_cache(name):
            ok = ok and len(config.residues) == tree.rank
            ok = ok and config.shifted(L) == config
            ok = ok and L % config.period() == 0
    # nu^2 = tau^(L-1) on test windows
    for name in ["A5", "D5", "E6"]:
        tree = make_tree(name[0], int(name[1]))
        L = loewy_number(tree)
        for v in tree.vertices:
            p = Pt(0, v)
            ok = ok and nakayama(tree, nakayama(tree, p)) == Pt(1 - L, v)
    # high-point counts with the slice condition, for all D5/D6 configurations
    for name in ["D5", "D6"]:
        for config in configs_cache(name):
            h, high = dn_corner_count(config)
            slices = [i for i, _ in high]
            ok = ok and h in (2, 3)
            ok = ok and (len(set(slices)) == 1 if h == 2 else len(set(slices)) == 3)
    # both knitting round trips, exhaustively at the stated scope
    for name in ["A2", "A3", "A4", "A5", "A6", "D4", "D5"]:
        tree = make_tree(name[0], int(name[1]))
        section = equioriented_section(tree)
        for config in configs_cache(name):
            d = dims_on_section(config, section)
            ok = ok and knit_and_knot(tree, section, d) == config
    verdict(6, ok, f"invariants: stability, counts, periods, nu^2, corners, round trips ({time.time()-t0:.1f}s)")


def test_criterion_7_mesh_oracle_agreement():
    t0 = time.time()
    mismatches = 0
    for name in ["A7", "D5", "E6"]:
        tree = make_tree(name[0], int(name[1]))
        L = loewy_number(tree)
        window = build_window(tree, None, 0, L + 1)
        for v in tree.vertices:
            x = Pt(0, v)
            dims = starting_function(tree, x, window)
            transporter = MeshTransporter(window, x)
            for p in window.points:
                if dims.get(p, 0) != transporter.dim(p):
                    mismatches += 1
    verdict(7, mismatches == 0, f"recurrence vs exact linear algebra: {mismatches} mismatches ({time.time()-t0:.1f}s)")


def test_criterion_8_brauer_layer(configs_cache):
    t0 = time.time()
    ok = True
    for n in range(2, 7):
        for p in enumerate_pedigrees(n):
            q = brauer_from_pedigree(p)
            validate_brauer(q)  # axioms incl. the tree condition
            ok = ok and pedigree_from_brauer(q, "r") == p
    # Cartan diagonal of the Nakayama quotient is 2 everywhere
    for name in ["A1", "A2", "A3", "A4", "D4"]:
        tree = make_tree(name[0], int(name[1]))
        L = loewy_number(tree)
        for config in configs_cache(name):
            reps, mat = cartan_matrix(config, AdmissibleGroup(L))
            ok = ok and all(mat[(p, p)] == 2 for p in reps)
            ok = ok and all(mat[(p, q)] in (0, 1) for p in reps for q in reps if p != q)
    verdict(8, ok, f"Brauer roundtrip n<=6, axioms, trivial-extension Cartan diagonal 2 ({time.time()-t0:.1f}s)")


def test_criterion_9_d3m_exceptional_layer(configs_cache):
    t0 = time.time()
    tree = make_tree("D", 6)
    sigma_stable = [c for c in configs_cache("D6") if c.period() == 3]
    ok = bool(sigma_stable)
    config = sigma_stable[0]
    reps, mat = cartan_matrix(config, AdmissibleGroup(3))
    c0 = max(reps, key=lambda p: mat[(p, p)])
    others = [p for p in reps if p != c0]
    ok = ok and mat[(c0, c0)] == 4
    ok = ok and all(mat[(c0, q)] == 2 and mat[(q, c0)] == 2 for q in others)
    ok = ok and all(mat[(q, q)] == 2 for q in others)

    q = BrauerQuiver(
        points=("p0", "p1", "p2"),
        alpha_cycles=(("p0", "p1", "p2"),),
        beta_cycles=(),
        reduced=True,
        special=("p2", "p0"),
    )
    a0, a1 = d3m_quotient_presentations(q)
    ok = ok and a0.points == a1.points and a0.arrows == a1.arrows
    diff = set(a0.relations) ^ set(a1.relations)
    ok = ok and all(isinstance(r, ScaledCommuteRel) for r in diff)
    ok = ok and {r.a for r in diff} == {0, 1}
    verdict(9, ok, f"D_3m layer: Cartan 4/2/2/2 over sigma, A(0)/A(1) differ in the scalar only ({time.time()-t0:.1f}s)")
