"""Golden digests of the periodic and folded presentations.

For every fundamental algebra of every configuration of A2-A5 and D4, and of
every 5th configuration of D5, ``presentation_digests.json`` holds the sha256
of ``quiver_of_AC(...).to_json()`` followed by
``trivial_extension_presentation(...).to_json()``.  A change to how the
projective quiver is stored or searched must leave every digest as it is.

Regenerate the file (only when a presentation is meant to change) with::

    PYTHONPATH=src python tests/test_presentation_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

from meshknit import enumerate_configurations, make_tree
from meshknit.present import fundamental_algebras, quiver_of_AC, trivial_extension_presentation

DIGESTS = Path(__file__).with_name("presentation_digests.json")
SWEEP = [("A2", 1), ("A3", 1), ("A4", 1), ("A5", 1), ("D4", 1), ("D5", 5)]


def presentation_digests(configs_of) -> dict[str, list[list[str]]]:
    """Per tree, one [configuration, fundamental algebra, digest] per algebra,
    in enumeration order."""
    out = {}
    for name, step in SWEEP:
        rows = []
        for config in configs_of(name)[::step]:
            for fund in fundamental_algebras(config):
                text = quiver_of_AC(config, fund).to_json()
                text += trivial_extension_presentation(config, fund).to_json()
                digest = hashlib.sha256(text.encode()).hexdigest()
                rows.append([repr(config), " ".join(f"{p.slice}_{p.vertex}" for p in fund), digest])
        out[name] = rows
    return out


def test_presentations_match_golden_digests(configs_cache):
    want = json.loads(DIGESTS.read_text())
    got = presentation_digests(configs_cache)
    assert got.keys() == want.keys()
    for name in want:
        assert len(got[name]) == len(want[name]), name
        for g, w in zip(got[name], want[name]):
            assert g == w, (name, g, w)


if __name__ == "__main__":
    def configs_of(name):
        return enumerate_configurations(make_tree(name[0], int(name[1:])))

    digests = presentation_digests(configs_of)
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {DIGESTS}", file=sys.stderr)
