"""Golden digests of the hom-dimension readers.

``hom_digests.json`` pins three outputs that read hom dimensions from the
projectives of k(Z Delta_C):

* ``dims_on_section`` on every section shape (``_all_section_shapes``) of
  every configuration of A1-A5 and D4, and of every 5th configuration of D5
  and A6: per configuration, the digest of the list of dimension vectors;
* ``cartan_matrix`` for every ``table_groups(tree, config, s_max=2)`` group
  of A2-A5, D4 and D5, of every 5th configuration of A6 and D6 and of every
  20th of E6: per (configuration, group), the digest of the representatives
  and every matrix entry;
* the ``NotAdmissible`` text ``cartan_matrix`` gives for each case of
  ``helpers.orbit_cases`` that has a configuration and is refused.

A change to where these dimensions are computed must leave every entry as
it is.  Regenerate the file (only when an output is meant to change) with::

    PYTHONPATH=src python tests/test_hom_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

from helpers import orbit_cases

from meshknit import enumerate_configurations, make_tree
from meshknit.errors import NotAdmissible
from meshknit.knitting import dims_on_section
from meshknit.present import _all_section_shapes, cartan_matrix
from meshknit.ztquiver import Section, table_groups

DIGESTS = Path(__file__).with_name("hom_digests.json")
SECTION_SWEEP = [("A1", 1), ("A2", 1), ("A3", 1), ("A4", 1), ("A5", 1), ("D4", 1), ("D5", 5), ("A6", 5)]
CARTAN_SWEEP = [
    ("A2", 1), ("A3", 1), ("A4", 1), ("A5", 1), ("D4", 1), ("D5", 1), ("A6", 5), ("D6", 5), ("E6", 20),
]


def _digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def hom_digests(configs_of) -> dict:
    """The three tables, rows in enumeration order."""
    sections = {}
    for name, step in SECTION_SWEEP:
        tree = make_tree(name[0], int(name[1:]))
        shapes = [Section(tree, levels) for levels in _all_section_shapes(tree)]
        sections[name] = [
            [repr(config), _digest([dims_on_section(config, s) for s in shapes])]
            for config in configs_of(name)[::step]
        ]
    cartan = {}
    for name, step in CARTAN_SWEEP:
        tree = make_tree(name[0], int(name[1:]))
        rows = []
        for config in configs_of(name)[::step]:
            for group in table_groups(tree, config, s_max=2):
                reps, matrix = cartan_matrix(config, group)
                entries = [[str(p), str(q), v] for (p, q), v in sorted(matrix.items())]
                rows.append([repr(config), group.name(tree), _digest([list(map(str, reps)), entries])])
        cartan[name] = rows
    refusals = []
    for tree, config, group in orbit_cases(configs_of):
        if config is None:
            continue
        try:
            cartan_matrix(config, group)
        except NotAdmissible as exc:
            refusals.append([repr(config), group.name(tree), str(exc)])
    return {"dims_on_section": sections, "cartan_matrix": cartan, "refusals": refusals}


def test_hom_readers_match_golden_digests(configs_cache):
    want = json.loads(DIGESTS.read_text())
    got = hom_digests(configs_cache)
    assert got["refusals"] == want["refusals"]
    for table in ("dims_on_section", "cartan_matrix"):
        assert got[table].keys() == want[table].keys(), table
        for name in want[table]:
            assert len(got[table][name]) == len(want[table][name]), (table, name)
            for g, w in zip(got[table][name], want[table][name]):
                assert g == w, (table, name, g, w)


if __name__ == "__main__":
    def configs_of(name):
        return enumerate_configurations(make_tree(name[0], int(name[1:])))

    digests = hom_digests(configs_of)
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    rows = sum(len(v) for t in ("dims_on_section", "cartan_matrix") for v in digests[t].values())
    print(f"wrote {rows} digests and {len(digests['refusals'])} refusals to {DIGESTS}", file=sys.stderr)
