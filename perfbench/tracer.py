"""Spans around the public functions of each meshknit layer.

The tracer wraps functions from outside the library.  A module-level
function is replaced in every ``meshknit`` module that binds it, because the
modules import each other's functions (``knitting`` binds ``section_move``,
``classify`` binds ``knit_and_knot``); a method is replaced on its class.

Each call records a span: name, parent span, item id, start and end.  Spans
live in compact arrays and are written once, by :meth:`Tracer.write`.  Self
time is a span's duration minus the durations of its direct child spans
(calls are nested, one thread, so children never overlap).

Besides calls and self time, hooks read arguments and return values for the
exact counts an optimisation would move: group-action steps (sum of |k| in
``apply``), rank-increasing echelon inserts, distinct (window, source) keys
among transporter builds, configurations per knit-and-knot call, and
relations per presentation.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("knitting", "ztquiver", "mesh", "linalg", "classify", "present", "dotio")


def _enumerate_name(args, kwargs) -> str:
    method = kwargs.get("method", args[1] if len(args) > 1 else "patterns")
    return f"classify.enumerate.{method}"


# (module, attribute path, span name or function of the call's arguments,
#  name of its call count)
SPECS = [
    ("knitting", "knit_run", "knitting.knit_run", "calls"),
    ("knitting", "knit_pattern", "knitting.knit_pattern", "calls"),
    ("knitting", "propagate_dims", "knitting.propagate_dims", "calls"),
    ("knitting", "knit_and_knot", "knitting.knit_and_knot", "calls"),
    ("knitting", "dims_on_section", "knitting.dims_on_section", "calls"),
    ("knitting", "fundamental_domain_points", "knitting.fundamental_domain_points", "calls"),
    ("ztquiver", "section_move", "ztquiver.section_move", "calls"),
    ("ztquiver", "plus_admissible_enumeration", "ztquiver.plus_admissible_enumeration", "calls"),
    ("ztquiver", "AdmissibleGroup.apply", "ztquiver.apply", "calls"),
    ("ztquiver", "is_admissible", "ztquiver.is_admissible", "calls"),
    ("ztquiver", "quotient", "ztquiver.quotient", "calls"),
    ("ztquiver", "table_groups", "ztquiver.table_groups", "calls"),
    ("ztquiver", "build_window", "ztquiver.build_window", "calls"),
    ("classify", "enumerate_configurations", _enumerate_name, "calls"),
    ("classify", "configurations_up_to_aut", "classify.up_to_aut", "calls"),
    ("mesh", "MeshTransporter.__init__", "mesh.transporter", "builds"),
    ("mesh", "ProjectiveQuiver.__init__", "mesh.projective_quiver", "calls"),
    ("mesh", "ProjectiveQuiver.path_nonzero", "mesh.path_nonzero", "calls"),
    ("mesh", "precedes", "mesh.precedes", "calls"),
    ("mesh", "starting_function", "mesh.starting_function", "calls"),
    ("linalg", "RationalEchelon.insert", "linalg.insert", "calls"),
    ("present", "trivial_extension_presentation", "present.trivial_extension", "calls"),
    ("present", "quiver_of_AC", "present.quiver_of_AC", "calls"),
    ("present", "cartan_matrix", "present.cartan_matrix", "calls"),
    ("dotio", "serialize_dot", "dotio.serialize_dot", "calls"),
]
SPAN_NAMES = [
    name
    for _, _, spec_name, _ in SPECS
    for name in (
        [spec_name]
        if isinstance(spec_name, str)
        else ["classify.enumerate.patterns", "classify.enumerate.bruteforce"]
    )
]
COUNT_NAMES = {spec[2]: spec[3] for spec in SPECS if isinstance(spec[2], str)}
# counts the hooks below accumulate
HOOK_COUNTS = (
    "ztquiver.apply.steps",
    "mesh.transporter.window_points",
    "linalg.insert.useful",
    "classify.enumerate.patterns.configs",
    "present.relations",
)
ITEM = "item"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.{COUNT_NAMES.get(name, 'calls')}"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: "count" for name in HOOK_COUNTS})
    units.update({
        "mesh.transporter.distinct_keys": "count",
        "mesh.transporter.distinct_ratio": "ratio",
        "linalg.insert.useful_ratio": "ratio",
        "classify.knit_yield": "ratio",
    })
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.slowdown"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.names = [ITEM] + SPAN_NAMES
        self.name_id = {n: k for k, n in enumerate(self.names)}
        self.span_name = array("H")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.item_keys: list[str] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.transporter_keys: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1])
        self.item.append(len(self.item_keys) - 1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def begin_item(self, key: str) -> None:
        self.item_keys.append(key)
        self.start[self._open(0)] = perf_counter()

    def end_item(self) -> None:
        idx = self.stack.pop()
        self.end[idx] = perf_counter()

    def _wrap(self, fn, name, hook):
        fixed_id = self.name_id[name] if isinstance(name, str) else None
        tracer = self

        def wrapper(*args, **kwargs):
            name_id = fixed_id if fixed_id is not None else tracer.name_id[name(args, kwargs)]
            idx = tracer._open(name_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks: exact counts from arguments and return values

    def _on_apply(self, args, kwargs, result):
        k = kwargs.get("k", args[3] if len(args) > 3 else 1)
        self.counts["ztquiver.apply.steps"] += abs(k)

    def _on_insert(self, args, kwargs, result):
        self.counts["linalg.insert.useful"] += bool(result)

    def _on_transporter(self, args, kwargs, result):
        transporter = args[0]
        window = transporter.window
        self.counts["mesh.transporter.window_points"] += len(window.points)
        self.transporter_keys.add(
            (len(self.item_keys) - 1, window.tree, window.residues, window.i_min, window.i_max,
             transporter.source)
        )

    def _on_enumerate(self, args, kwargs, result):
        if _enumerate_name(args, kwargs) == "classify.enumerate.patterns":
            self.counts["classify.enumerate.patterns.configs"] += len(result)

    def _on_presentation(self, args, kwargs, result):
        self.counts["present.relations"] += len(result.relations)

    # -- installing

    def install(self) -> None:
        hooks = {
            "ztquiver.apply": self._on_apply,
            "linalg.insert": self._on_insert,
            "mesh.transporter": self._on_transporter,
            "present.trivial_extension": self._on_presentation,
        }
        loaded = [m for n, m in sorted(sys.modules.items()) if n == "meshknit" or n.startswith("meshknit.")]
        for module_name, path, name, _ in SPECS:
            module = importlib.import_module(f"meshknit.{module_name}")
            hook = self._on_enumerate if callable(name) else hooks.get(name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(original, name, hook))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, name, hook)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results

    def self_times(self) -> dict[str, float]:
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = defaultdict(float)
        names = self.names
        for i in range(n):
            totals[names[self.span_name[i]]] += end[i] - start[i] - child[i]
        return totals

    def metrics(self) -> dict[str, float]:
        calls = defaultdict(int)
        for name_id in self.span_name:
            calls[self.names[name_id]] += 1
        self_s = self.self_times()
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.{COUNT_NAMES.get(name, 'calls')}"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for key in HOOK_COUNTS:
            out[key] = self.counts[key]
        builds = calls["mesh.transporter"]
        out["mesh.transporter.distinct_keys"] = len(self.transporter_keys)
        out["mesh.transporter.distinct_ratio"] = len(self.transporter_keys) / builds if builds else 0.0
        inserts = calls["linalg.insert"]
        out["linalg.insert.useful_ratio"] = self.counts["linalg.insert.useful"] / inserts if inserts else 0.0
        knits = calls["knitting.knit_and_knot"]
        out["classify.knit_yield"] = (
            self.counts["classify.enumerate.patterns.configs"] / knits if knits else 0.0
        )
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".")[0] == module
            )
        out["trace.spans"] = len(self.start)
        return out

    def write(self, path: Path, header: dict) -> None:
        """Write ``<path>.json`` (layout and names) and ``<path>.bin`` (the arrays)."""
        arrays = [
            ("span_name", self.span_name), ("parent", self.parent), ("item", self.item),
            ("start", self.start), ("end", self.end),
        ]
        layout = [{"field": f, "typecode": a.typecode, "itemsize": a.itemsize} for f, a in arrays]
        meta = dict(header, spans=len(self.start), names=self.names, items=self.item_keys,
                    byteorder=sys.byteorder, layout=layout)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1))
        with open(path.with_suffix(".bin"), "wb") as fh:
            for _, a in arrays:
                a.tofile(fh)
