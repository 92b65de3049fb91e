"""Write the benchmark's committed inputs and reference digests.

    PYTHONPATH=src PYTHONHASHSEED=0 MESHKNIT_ALLOW_SLOW=1 python3 perfbench/record.py inputs
    PYTHONPATH=src PYTHONHASHSEED=0 MESHKNIT_ALLOW_SLOW=1 python3 perfbench/record.py reference

``inputs`` writes ``inputs.json``: the configurations the quotients and
present workloads sample from, the census job list with its known counts,
and the quotient strata.  ``reference`` runs every census job, every
quotient pair of every stratum, and the present items of ``PRESENT_SEEDS``
and writes the digest of each output to ``reference.json``.  Both were
recorded once, from the program as it was when the benchmark was added; a
run whose output differs from a recorded digest counts the item as failed.
"""

from __future__ import annotations

import json
import sys

import workloads
from meshknit import enumerate_configurations, table_groups
from workloads import HERE, digest, key_hash, tree_of

CONFIG_TREES = ("A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6")
CENSUS_JOBS = [
    ("A8", ["patterns", "bruteforce"]),
    ("D7", ["patterns", "bruteforce"]),
    ("E6", ["patterns", "bruteforce"]),
    ("E7", ["bruteforce"]),
]
# Catalan(8) and the D7 / E6 / E7 counts of the classification
CENSUS_COUNTS = {"A8": 1430, "D7": 1122, "E6": 418, "E7": 2431}
# (tree, group): every tree, both s = 1 and s = 2, the nu-quotient tau^L of
# each tree, and each twist (phi, psi, sigma); one round takes ~10 s at the
# commit that added the benchmark
QUOTIENT_STRATA = [
    ("A3", "tau^1"), ("A3", "tau^3"), ("A3", "tau^3*phi"), ("A3", "tau^6*phi"),
    ("A4", "tau^4"), ("A4", "tau^8"), ("A5", "tau^5"),
    ("D4", "tau^5"), ("D4", "tau^5*psi"), ("D4", "tau^5*sigma"), ("D5", "tau^7"),
]
PRESENT = {"trees": ["A6", "D5", "D6", "E6"], "per_round": 3}
PRESENT_SEEDS = range(16)
PRESENT_ITEMS = 240


def record_inputs() -> None:
    configs = {}
    for name in CONFIG_TREES:
        found = enumerate_configurations(tree_of(name), "bruteforce")
        configs[name] = [sorted(c.residues) for c in found]
    strata = []
    for name, group in QUOTIENT_STRATA:
        tree = tree_of(name)
        pairs = []
        for ci, config in enumerate(enumerate_configurations(tree, "bruteforce")):
            pairs += [
                [ci, gi] for gi, g in enumerate(table_groups(tree, config, s_max=2)) if g.name(tree) == group
            ]
        strata.append({"tree": name, "group": group, "pairs": pairs})
    data = {
        "configurations": configs,
        "census": {"jobs": CENSUS_JOBS, "counts": CENSUS_COUNTS},
        "quotients": {"strata": strata},
        "present": PRESENT,
    }
    (HERE / "inputs.json").write_text(json.dumps(data, separators=(",", ":")) + "\n")


def record_reference() -> None:
    inputs = workloads.load_inputs()
    items = []
    census = workloads.Census(inputs)
    items += next(census.rounds(0))
    quotients = workloads.Quotients(inputs)
    items += [quotients.item(s, pair) for s in quotients.strata for pair in s["pairs"]]
    pres = workloads.Present(inputs)
    for seed in PRESENT_SEEDS:
        rounds = pres.rounds(seed)
        todo = []
        while len(todo) < PRESENT_ITEMS:
            todo += next(rounds)
        items += todo
    reference = {}
    for n, item in enumerate(items):
        h = key_hash(item.key)
        if h in reference:
            continue
        canon, problems = item.check(item.run())
        if problems:
            sys.exit(f"{item.key}: {problems}")
        reference[h] = digest(canon)
        if n % 200 == 0:
            print(f"{n}/{len(items)}", file=sys.stderr, flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, sort_keys=True, indent=0) + "\n")


if __name__ == "__main__":
    {"inputs": record_inputs, "reference": record_reference}[sys.argv[1]]()
