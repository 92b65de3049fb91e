"""The three benchmark workloads: census, quotients and present.

A workload turns a seed into rounds of items.  An item is one unit of
public-API work plus the checks on its output.  ``Item.run`` is the timed
part; ``Item.check`` runs afterwards, untimed, and returns the canonical
output (hashed into the item digest) and a list of problems.

Every call into the library goes through a module attribute looked up at
call time (``knitting.knit_and_knot``, not an imported name), so that the
tracer's patches in :mod:`tracer` see the benchmark's own calls too.

Rounds have a fixed composition and the seed only picks members and order,
so every run measures the same mix of work:

* census -- the fixed job list; the seed orders the jobs.
* quotients -- one (configuration, group) pair from each of the strata in
  ``inputs.json``; the seed picks the configuration within a stratum.
* present -- ``per_round`` items per tree; the seed picks configuration and
  section shape.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import meshknit
from meshknit import classify, dotio, dynkin, knitting, present, ztquiver
from meshknit.ztquiver import Configuration, Pt, Section

HERE = Path(__file__).resolve().parent


def digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def key_hash(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:12]


def tree_of(name: str) -> dynkin.DynkinTree:
    return dynkin.make_tree(name[0], int(name[1:]))


def residues_text(residues) -> str:
    return ";".join(f"{i}.{x}" for i, x in sorted(residues))


@dataclass
class Item:
    """One unit of timed work.

    ``weight`` is the number of verified results the item stands for: one
    per configuration in census, one otherwise.
    """

    key: str
    weight: int
    run: Callable[[], Any]
    check: Callable[[Any], tuple[Any, list[str]]]


# ---------------------------------------------------------------------------
# census


class Census:
    """Enumerate configurations by both methods and cross-check them.

    A job covers one tree: every listed method, then the symmetry classes.
    Its weight is the known number of configurations, so an item of the
    metrics is one verified configuration.
    """

    name = "census"
    tail_pct = 90.0
    trace_rounds = 1

    def __init__(self, inputs: dict):
        spec = inputs["census"]
        self.jobs = [(name, tuple(methods)) for name, methods in spec["jobs"]]
        self.counts = spec["counts"]

    def warm_up(self) -> None:
        # fill the per-tree lru_cache tables (pedigrees, hom supports) that
        # every later enumeration of the same tree reads
        for name, _ in self.jobs:
            tree = tree_of(name)
            classify.check_combinatorial_configuration(tree, [])
            classify.enumerate_pedigrees(tree.rank)
            classify.enumerate_pedigrees(tree.rank - 1)

    def rounds(self, seed: int):
        rng = random.Random(seed)
        while True:
            order = list(self.jobs)
            rng.shuffle(order)
            yield [self.item(name, methods) for name, methods in order]

    def item(self, name: str, methods: tuple[str, ...]) -> Item:
        tree = tree_of(name)
        want = self.counts[name]

        def run():
            by_method = {m: classify.enumerate_configurations(tree, m) for m in methods}
            classes = classify.configurations_up_to_aut(tree, by_method[methods[-1]])
            return by_method, classes

        def check(out):
            by_method, classes = out
            problems = []
            sets = {m: [c.canonical_key() for c in cs] for m, cs in by_method.items()}
            first = sets[methods[0]]
            for m, keys in sets.items():
                if len(keys) != want:
                    problems.append(f"{name} {m}: {len(keys)} configurations, expected {want}")
                if keys != first:
                    problems.append(f"{name}: {m} disagrees with {methods[0]}")
            if sum(c.orbit_size for c in classes) != want:
                problems.append(f"{name}: class orbits do not cover {want} configurations")
            canon = {
                "configs": [residues_text(k) for k in first],
                "classes": [
                    [residues_text(c.representative.residues), c.orbit_size, list(c.stabilizer)]
                    for c in classes
                ],
            }
            return canon, problems

        return Item(f"census|{name}|{'+'.join(methods)}", want, run, check)


# ---------------------------------------------------------------------------
# quotients


class Quotients:
    """Admissible groups: window, orbit test, quotient and Cartan matrix."""

    name = "quotients"
    tail_pct = 90.0
    trace_rounds = 1

    def __init__(self, inputs: dict):
        self.strata = inputs["quotients"]["strata"]
        self.configs = {
            name: [Configuration(tree_of(name), map(tuple, res)) for res in inputs["configurations"][name]]
            for name in {s["tree"] for s in self.strata}
        }

    def warm_up(self) -> None:
        stratum = self.strata[0]
        self.item(stratum, stratum["pairs"][0]).run()

    def rounds(self, seed: int):
        rng = random.Random(seed)
        while True:
            items = [self.item(s, rng.choice(s["pairs"])) for s in self.strata]
            rng.shuffle(items)
            yield items

    def item(self, stratum: dict, pair: list[int]) -> Item:
        name, group_name = stratum["tree"], stratum["group"]
        config_idx, group_idx = pair
        config = self.configs[name][config_idx]
        tree = config.tree

        def run():
            group = meshknit.table_groups(tree, config, s_max=2)[group_idx]
            period = abs(group.pure_period(tree))
            # two periods for the quotient, plus the margins the orbit test needs
            window = ztquiver.build_window(tree, config, 0, 2 * period + 1)
            admissible = ztquiver.is_admissible(group, window)
            folded = ztquiver.quotient(window, group)
            reps, matrix = present.cartan_matrix(config, group)
            return group, admissible, folded, reps, matrix

        def check(out):
            group, admissible, folded, reps, matrix = out
            problems = []
            label = group.name(tree)
            if label != group_name:
                problems.append(f"group {group_idx} is {label}, expected {group_name}")
            if not admissible:
                problems.append(f"{label} rejected on its own window")
            if len(folded.projectives) != len(reps):
                problems.append("quotient and Cartan matrix disagree on projective orbits")
            is_nu = group.tau_power == dynkin.loewy_number(tree) and group.twist is None and not group.glide
            if is_nu and any(matrix[(p, p)] != 2 for p in reps):
                problems.append("nu-quotient Cartan diagonal is not 2")
            if any(v < 0 for v in matrix.values()):
                problems.append("negative Cartan entry")
            canon = {
                "group": label,
                "points": [str(p) for p in folded.points],
                "arrows": [[str(a), str(b)] for a, b in folded.arrows],
                "tau": sorted([str(p), str(q)] for p, q in folded.tau.items()),
                "projectives": [str(p) for p in folded.projectives],
                "reps": [str(p) for p in reps],
                "cartan": [[matrix[(p, q)] for q in reps] for p in reps],
            }
            return canon, problems

        key = f"quotients|{name}|{residues_text(config.residues)}|{group_idx}"
        return Item(key, 1, run, check)


# ---------------------------------------------------------------------------
# present


def section_shapes(tree: dynkin.DynkinTree) -> list[tuple[int, ...]]:
    """Level tuples of all sections with vertex 1 on slice 0.

    Along a canonical edge (lo, hi) a section has slice(lo) - slice(hi) in
    {0, 1}; canonical trees list each edge after one of its ends is placed.
    """
    shapes = [{1: 0}]
    for lo, hi in tree.edges:
        grown = []
        for s in shapes:
            if lo in s:
                grown += [{**s, hi: s[lo]}, {**s, hi: s[lo] - 1}]
            else:
                grown += [{**s, lo: s[hi]}, {**s, lo: s[hi] + 1}]
        shapes = grown
    return sorted(tuple(s[v] for v in tree.vertices) for s in shapes)


class Present:
    """Section dimensions round trip, then the trivial-extension presentation."""

    name = "present"
    tail_pct = 90.0
    trace_rounds = 8

    def __init__(self, inputs: dict):
        spec = inputs["present"]
        self.trees = spec["trees"]
        self.per_round = spec["per_round"]
        self.configs = {
            name: [Configuration(tree_of(name), map(tuple, res)) for res in inputs["configurations"][name]]
            for name in self.trees
        }
        # the equioriented section is the one knitting starts from; skip it
        self.shapes = {
            name: [s for s in section_shapes(tree_of(name)) if any(s)] for name in self.trees
        }

    def warm_up(self) -> None:
        name = self.trees[0]
        self.item(name, 0, self.shapes[name][0]).run()

    def rounds(self, seed: int):
        rng = random.Random(seed)
        while True:
            items = [
                self.item(name, rng.randrange(len(self.configs[name])), rng.choice(self.shapes[name]))
                for name in self.trees
                for _ in range(self.per_round)
            ]
            rng.shuffle(items)
            yield items

    def item(self, name: str, config_idx: int, levels: tuple[int, ...]) -> Item:
        config = self.configs[name][config_idx]
        tree = config.tree
        section = Section(tree, tuple(levels))

        def run():
            fund = knitting.fundamental_domain_points(config, section)
            dims = knitting.dims_on_section(config, section)
            back = knitting.knit_and_knot(tree, section, dims)
            pres = present.trivial_extension_presentation(
                config, [Pt(p.slice, p.vertex, True) for p in fund]
            )
            return fund, dims, back, pres.to_json(), dotio.serialize_dot(pres)

        def check(out):
            fund, dims, back, pres_json, dot = out
            problems = []
            if back != config:
                problems.append("knit_and_knot of the section dimensions misses the configuration")
            if len(fund) != tree.rank:
                problems.append(f"fundamental domain has {len(fund)} points")
            if len(json.loads(pres_json)["points"]) != tree.rank:
                problems.append("presentation does not have one point per projective orbit")
            canon = {
                "fund": [str(p) for p in fund],
                "dims": list(dims),
                "presentation": pres_json,
                "dot": dot,
            }
            return canon, problems

        levels_text = ",".join(map(str, levels))
        key = f"present|{name}|{residues_text(config.residues)}|{levels_text}"
        return Item(key, 1, run, check)


WORKLOADS = {w.name: w for w in (Census, Quotients, Present)}


def load_inputs() -> dict:
    return json.loads((HERE / "inputs.json").read_text())


def load_reference() -> dict[str, str]:
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.exists() else {}
