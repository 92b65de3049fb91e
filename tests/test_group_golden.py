"""Golden digests of the group layer.

``group_digests.json`` pins four outputs built from graph automorphisms:

* ``tree_automorphisms`` of A1-A8, D4-D8 and E6-E8: each automorphism's
  shift and perm as a point map of the translation quiver;
* the names of ``classify._acting_maps`` on the same trees, with the
  digest of the maps themselves;
* ``table_groups(tree, config, s_max=2)`` for every configuration of A2-A6
  and D4-D6 and every 5th of E6: per configuration, the group names and the
  digest of their generator maps;
* ``configurations_up_to_aut`` of A1-A8, D4-D7 and E6-E7: per class, the
  representative, the orbit size and the stabiliser names.

A change to how these maps are represented must leave every entry as it
is.  Regenerate the file (only when an output is meant to change) with::

    PYTHONPATH=src python tests/test_group_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

from meshknit import enumerate_configurations, make_tree
from meshknit.classify import _acting_maps, configurations_up_to_aut
from meshknit.dynkin import tree_automorphisms
from meshknit.ztquiver import table_groups

DIGESTS = Path(__file__).with_name("group_digests.json")
AUT_TREES = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]
GROUP_SWEEP = [("A2", 1), ("A3", 1), ("A4", 1), ("A5", 1), ("A6", 1), ("D4", 1), ("D5", 1), ("D6", 1), ("E6", 5)]
CLASS_TREES = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 8)] + ["E6", "E7"]


def _digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _tree(name: str):
    return make_tree(name[0], int(name[1:]))


def _point_map(m) -> list:
    return [list(m.shift), list(m.perm), m.modulus]


def group_digests(configs_of) -> dict:
    """The four tables, rows in enumeration order."""
    automorphisms, acting = {}, {}
    for name in AUT_TREES:
        tree = _tree(name)
        automorphisms[name] = [_point_map(aut) for aut in tree_automorphisms(tree)]
        maps = _acting_maps(tree)
        acting[name] = [[n for n, _ in maps], _digest([_point_map(m) for _, m in maps])]
    groups = {}
    for name, step in GROUP_SWEEP:
        tree = _tree(name)
        rows = []
        for config in configs_of(name)[::step]:
            found = table_groups(tree, config, s_max=2)
            maps = [_point_map(g.generator_map(tree)) for g in found]
            rows.append([repr(config), [g.name(tree) for g in found], _digest(maps)])
        groups[name] = rows
    classes = {}
    for name in CLASS_TREES:
        tree = _tree(name)
        classes[name] = [
            [repr(c.representative), c.orbit_size, list(c.stabilizer)]
            for c in configurations_up_to_aut(tree, configs_of(name))
        ]
    return {
        "tree_automorphisms": automorphisms,
        "acting_maps": acting,
        "table_groups": groups,
        "configurations_up_to_aut": classes,
    }


def test_group_layer_matches_golden_digests(configs_cache):
    want = json.loads(DIGESTS.read_text())
    got = group_digests(configs_cache)
    assert got.keys() == want.keys()
    for table in want:
        assert got[table].keys() == want[table].keys(), table
        for name in want[table]:
            assert len(got[table][name]) == len(want[table][name]), (table, name)
            for g, w in zip(got[table][name], want[table][name]):
                assert g == w, (table, name, g, w)


if __name__ == "__main__":
    def configs_of(name):
        return enumerate_configurations(_tree(name))

    digests = group_digests(configs_of)
    # one row a line
    DIGESTS.write_text(
        "{\n"
        + ",\n".join(
            f" {json.dumps(table)}: {{\n"
            + ",\n".join(
                f"  {json.dumps(name)}: [\n"
                + ",\n".join(f"   {json.dumps(row)}" for row in rows)
                + "\n  ]"
                for name, rows in tables.items()
            )
            + "\n }"
            for table, tables in digests.items()
        )
        + "\n}\n"
    )
    rows = sum(len(v) for t in digests.values() for v in t.values())
    print(f"wrote {rows} rows to {DIGESTS}", file=sys.stderr)
