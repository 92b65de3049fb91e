"""Golden digests of the Brauer layer.

For every pedigree of n = 2-6 nodes, in enumeration order,
``brauer_digests.json`` holds one sha256 per n of:

- ``repr(brauer_from_pedigree(p))``;
- ``repr(pedigree_from_brauer(q, x))`` from every point x;
- for n <= 5, every cycle and m = 1-3: ``exceptional_cycle_presentation``
  as JSON and DOT, then ``repr(exceptional_cover(...))``;
- the reduced quiver (loops dropped) with each of its arrows as the special
  arrow: both ``d3m_quotient_presentations`` outputs as JSON and DOT.

A refusal is recorded as ``Type: message``.  A rewrite of the Brauer layer
must leave every digest as it is.

Regenerate the file (only when an output is meant to change) with::

    PYTHONPATH=src python tests/test_brauer_golden.py
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from meshknit.classify import enumerate_pedigrees
from meshknit.dotio import serialize_dot
from meshknit.errors import MeshknitError
from meshknit.present import (
    brauer_from_pedigree,
    d3m_quotient_presentations,
    exceptional_cover,
    exceptional_cycle_presentation,
    pedigree_from_brauer,
)

DIGESTS = Path(__file__).with_name("brauer_digests.json")
SIZES = range(2, 7)
PRESENTED_UP_TO = 5


def _pres_text(pres) -> str:
    return pres.to_json() + serialize_dot(pres)


def _outcome(render, call, *args) -> str:
    try:
        return render(call(*args))
    except MeshknitError as exc:
        return f"{type(exc).__name__}: {exc}"


def _pedigree_texts(p, n: int):
    q = brauer_from_pedigree(p)
    yield repr(q)
    for x in q.points:
        yield _outcome(repr, pedigree_from_brauer, q, x)
    if n <= PRESENTED_UP_TO:
        for _, cyc in q.cycles():
            for m in (1, 2, 3):
                yield _outcome(_pres_text, exceptional_cycle_presentation, q, cyc, m)
                yield _outcome(repr, exceptional_cover, q, cyc, m)
    reduced = dataclasses.replace(
        q,
        alpha_cycles=tuple(c for c in q.alpha_cycles if len(c) > 1),
        beta_cycles=tuple(c for c in q.beta_cycles if len(c) > 1),
        reduced=True,
    )
    for a, b, _ in reduced.arrows():
        special = dataclasses.replace(reduced, special=(a, b))
        yield _outcome(lambda pair: "".join(map(_pres_text, pair)), d3m_quotient_presentations, special)


def brauer_digests() -> dict[str, str]:
    out = {}
    for n in SIZES:
        h = hashlib.sha256()
        for p in enumerate_pedigrees(n):
            for text in _pedigree_texts(p, n):
                h.update(text.encode() + b"\n")
        out[str(n)] = h.hexdigest()
    return out


def test_brauer_layer_matches_golden_digests():
    assert brauer_digests() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    digests = brauer_digests()
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
