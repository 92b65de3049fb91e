"""Deterministic DOT rendering of windows, folded quivers and presentations.

Projective points are drawn as boxes, relations as dashed constraint edges
labelled by their kind.  Output is sorted, so byte-identical across runs.
"""

from __future__ import annotations

from .errors import UnsupportedObject
from .present import QuiverPresentation
from .ztquiver import FoldedQuiver, QuiverWindow


def _quiver_dot(name: str, q: QuiverWindow | FoldedQuiver, tau=()) -> str:
    """Points, arrows and then the given tau-translates of a window or a
    folded quiver."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for p in sorted(q.points):
        shape = "box" if p.proj else "ellipse"
        lines.append(f'  "{p}" [shape={shape}];')
    for a, b in sorted(q.arrows):
        lines.append(f'  "{a}" -> "{b}";')
    for p, t in sorted(tau):
        lines.append(f'  "{p}" -> "{t}" [style=dotted, constraint=false, label="tau"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _presentation_dot(pres: QuiverPresentation) -> str:
    lines = ["digraph presentation {", "  rankdir=LR;"]
    for p in sorted(pres.points):
        lines.append(f'  "{p}" [shape=box];')
    for a in sorted(pres.arrows, key=lambda a: a.label):
        extra = f' [label="{a.label}"]' if a.shift == 0 else f' [label="{a.label} (nu^-1)", style=bold]'
        lines.append(f'  "{a.src}" -> "{a.dst}"{extra};')
    by_label = pres.arrow_by_label()
    for r in sorted(pres.relations, key=repr):
        fields = vars(r)
        path = fields.get("path") or fields["lhs"]
        arg = f" a={r.a}" if "a" in fields else f" m={r.m}" if "m" in fields else ""
        s, t = by_label[path[0]].src, by_label[path[-1]].dst
        lines.append(f'  "{s}" -> "{t}" [style=dashed, constraint=false, label="{r.kind}{arg}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_dot(obj) -> str:
    """Render a window, folded quiver or presentation as DOT text."""
    if isinstance(obj, QuiverWindow):
        return _quiver_dot("window", obj)
    if isinstance(obj, FoldedQuiver):
        return _quiver_dot(f'"{obj.label}"', obj, obj.tau.items())
    if isinstance(obj, QuiverPresentation):
        return _presentation_dot(obj)
    raise UnsupportedObject(f"cannot render a {type(obj).__name__} as DOT")
