"""Command line surface.

Every subcommand is a thin wrapper over library calls: exit 0 on success,
2 on malformed input, 3 on semantically infeasible requests.  Enumerations
stream one JSON document per line so large runs can be consumed
incrementally.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from importlib import resources

from . import classify, knitting, mesh, present
from .dotio import serialize_dot
from .dynkin import flip_automorphism, loewy_number, rotation_automorphism, tree_automorphisms, tree_from_name
from .errors import InvalidInput, InvalidType, MeshknitError, UnknownExample
from .ztquiver import (
    AdmissibleGroup,
    Configuration,
    Pt,
    Section,
    build_window,
    equioriented_section,
    quotient,
)


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidInput(f"{what}: {text!r} is not an integer") from None


def _ints(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated integers of a CLI field."""
    return tuple(_int(v, what) for v in text.split(","))


def _parse_point(text: str) -> Pt:
    parts = text.split(",")
    if len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] not in ("p", "P")):
        raise InvalidType(f"cannot parse point {text!r}; expected i,x or i,x,p")
    return Pt(*(_int(v, f"point {text!r}") for v in parts[:2]), len(parts) == 3)


def _parse_group(tree, text: str) -> AdmissibleGroup:
    text = text.strip()
    if text == "rho":
        return AdmissibleGroup(0, glide=True)
    if not text.startswith("tau^"):
        raise InvalidType(f"cannot parse group {text!r}")
    body = text[4:]
    twist = None
    glide = False
    if "*" in body:
        power, name = body.split("*", 1)
        if name == "rho":
            glide = True
        elif name == "sigma":
            twist = rotation_automorphism(tree)
        elif name in ("phi", "psi", "chi"):
            twist = flip_automorphism(tree)
        else:
            raise InvalidType(f"unknown twist {name!r}")
        if twist is None and not glide:
            raise InvalidType(f"tree {tree.name} has no twist {name!r}")
    else:
        power = body
    return AdmissibleGroup(_int(power, f"group {text!r}"), twist, glide)


def _load_config(path: str) -> Configuration:
    with open(path, "r", encoding="utf-8") as fh:
        return Configuration.from_json(fh.read())


def _cmd_dynkin(args) -> int:
    tree = tree_from_name(args.tree)
    if args.action == "info":
        print(
            json.dumps(
                {
                    "family": tree.family,
                    "rank": tree.rank,
                    "loewy": loewy_number(tree),
                    "aut_order": len(tree_automorphisms(tree)),
                },
                sort_keys=True,
            )
        )
    return 0


def _cmd_knit(args) -> int:
    tree = tree_from_name(args.tree)
    if args.section != "equi":
        levels = _ints(args.section, "--section")
        section = Section(tree, levels)
    else:
        section = equioriented_section(tree)
    dims = _ints(args.dims, "--dims")
    config, trace = knitting.knit_run(tree, section, dims)
    if args.emit == "carpet":
        print(trace.carpet())
        print(f"# periodic after {trace.periodic_after} section shifts")
    else:
        print(config.to_json())
    return 0


def _cmd_configs(args) -> int:
    needed = "file" if args.action == "check" else "tree"
    if getattr(args, needed) is None:
        raise InvalidInput(f"configs {args.action} needs --{needed}")
    if args.action == "check":
        config = _load_config(args.file)
        ok, axiom = classify.check_combinatorial_configuration(config.tree, config.residues)
        print(json.dumps({"ok": ok, "violated": axiom}))
        return 0 if ok else 2
    tree = tree_from_name(args.tree)
    configs = classify.enumerate_configurations(tree, args.method)
    if args.up_to_aut:
        for cls in classify.configurations_up_to_aut(tree, configs):
            print(
                json.dumps(
                    {
                        "representative": json.loads(cls.representative.to_json()),
                        "orbit_size": cls.orbit_size,
                        "stabilizer": list(cls.stabilizer),
                    },
                    sort_keys=True,
                )
            )
    else:
        for config in configs:
            print(config.to_json())
    return 0


def _cmd_pedigree(args) -> int:
    for p in classify.enumerate_pedigrees(args.n):
        vec = classify.pedigree_dimension_vector(p)
        print(json.dumps({"dims": list(vec)}))
    return 0


def _cmd_mesh(args) -> int:
    tree = tree_from_name(args.tree)
    src = _parse_point(args.src)
    dst = _parse_point(args.dst)
    config = _load_config(args.config) if args.config else None
    lo = min(src.slice, dst.slice) - 1
    hi = max(src.slice, dst.slice) + 1
    window = build_window(tree, config, lo, hi)
    print(mesh.hom_dim_oracle(window, src, dst))
    return 0


def _cmd_present(args) -> int:
    config = _load_config(args.config)
    classify._require_configuration(config)
    if args.fundamental == "auto":
        section = equioriented_section(config.tree)
        fund = [
            Pt(p.slice, p.vertex, True)
            for p in knitting.fundamental_domain_points(config, section)
        ]
    else:
        algebras = present.fundamental_algebras(config)
        if not (args.fundamental.isdecimal() and int(args.fundamental) < len(algebras)):
            raise InvalidInput(
                f"--fundamental must be 'auto' or an index in [0, {len(algebras)}), "
                f"got {args.fundamental!r}"
            )
        fund = list(algebras[int(args.fundamental)])
    if args.quotient == "nu":
        pres = present.trivial_extension_presentation(config, fund)
    else:
        pres = present.quiver_of_AC(config, fund)
    print(pres.to_json() if args.out == "json" else serialize_dot(pres))
    return 0


def _cmd_quotient(args) -> int:
    tree = tree_from_name(args.tree)
    config = _load_config(args.config) if args.config else None
    group = _parse_group(tree, args.group)
    bounds = _ints(args.range, "--range")
    if len(bounds) != 2:
        raise InvalidInput(f"--range must be two slices lo,hi, got {args.range!r}")
    lo, hi = bounds
    window = build_window(tree, config, lo, hi)
    folded = quotient(window, group)
    if args.out == "dot":
        print(serialize_dot(folded))
    else:
        print(
            json.dumps(
                {
                    "points": [str(p) for p in folded.points],
                    "arrows": [[str(a), str(b)] for a, b in folded.arrows],
                    "projectives": [str(p) for p in folded.projectives],
                },
                sort_keys=True,
            )
        )
    return 0


# ---------------------------------------------------------------------------
# reproduction of the worked examples against golden files


def _golden(name: str) -> dict:
    text = resources.files("meshknit").joinpath("golden", name).read_text()
    return json.loads(text)


def reproduce(example_id: str) -> tuple[bool, list[str]]:
    """Re-run a worked example and diff it against the stored golden data."""
    lines = []
    ok = True

    def check(label: str, got, want) -> None:
        nonlocal ok
        good = got == want
        ok = ok and good
        lines.append(f"{'PASS' if good else 'FAIL'} {label}: got {got!r}, want {want!r}")

    if example_id == "fig4-a7":
        gold = _golden("fig4_a7.json")
        tree = tree_from_name("A7")
        section = equioriented_section(tree)
        dims = tuple(gold["dims"])
        config, trace = knitting.knit_run(tree, section, dims)
        check("configuration", json.loads(config.to_json()), gold["config"])
        check("periodic_after", trace.periodic_after, gold["periodic_after"])
        check("round_trip_dims", list(knitting.dims_on_section(config, section)), gold["dims"])
        dot = serialize_dot(build_window(tree, config, 0, 7))
        check("dot_sha256", hashlib.sha256(dot.encode()).hexdigest(), gold["dot_sha256"])
    elif example_id == "d4-census":
        gold = _golden("d4_census.json")
        tree = tree_from_name("D4")
        configs = classify.enumerate_configurations(tree, "patterns")
        brute = classify.enumerate_configurations(tree, "bruteforce")
        check("total", len(configs), gold["total"])
        check("methods_agree", {c.residues for c in configs} == {c.residues for c in brute}, True)
        classes = classify.configurations_up_to_aut(tree, configs)
        check("classes", len(classes), gold["classes"])
        check("orbit_sizes", sorted(c.orbit_size for c in classes), gold["orbit_sizes"])
    elif example_id == "d3m-cartan":
        gold = _golden("d3m_cartan.json")
        tree = tree_from_name("D6")
        configs = [c for c in classify.enumerate_configurations(tree) if c.period() == 3]
        check("sigma_stable_found", bool(configs), True)
        reps, mat = present.cartan_matrix(configs[0], AdmissibleGroup(3))
        main = max(reps, key=lambda p: mat[(p, p)])
        other = [p for p in reps if p != main]
        entries = [mat[(main, main)]] + sorted(mat[(main, q)] for q in other)
        entries += sorted(mat[(q, main)] for q in other) + sorted(mat[(q, q)] for q in other)
        check("cartan_pattern", entries, gold["cartan_pattern"])
        from .present import BrauerQuiver, d3m_quotient_presentations

        q = BrauerQuiver(
            points=("p0", "p1", "p2"),
            alpha_cycles=(("p0", "p1", "p2"),),
            beta_cycles=(),
            reduced=True,
            special=("p2", "p0"),
        )
        a0, a1 = d3m_quotient_presentations(q)
        diff = {r.kind for r in set(a0.relations) ^ set(a1.relations)}
        check("relation_diff_kinds", sorted(diff), gold["relation_diff_kinds"])
    elif example_id == "brauer-roundtrip":
        gold = _golden("brauer_roundtrip.json")
        failures = 0
        for n in range(2, gold["max_n"] + 1):
            for p in classify.enumerate_pedigrees(n):
                q = present.brauer_from_pedigree(p)
                present.validate_brauer(q)
                if present.pedigree_from_brauer(q, "r") != p:
                    failures += 1
        check("roundtrip_failures", failures, 0)
    else:
        raise UnknownExample(f"unknown example {example_id!r}")
    return ok, lines


def _cmd_reproduce(args) -> int:
    ok, lines = reproduce(args.example)
    for line in lines:
        print(line)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="meshknit")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("dynkin", help="tree facts")
    p.add_argument("action", choices=["info"])
    p.add_argument("tree")
    p.set_defaults(func=_cmd_dynkin)

    p = sub.add_parser("knit", help="run the knit-and-knot algorithm")
    p.add_argument("--tree", required=True)
    p.add_argument("--section", default="equi")
    p.add_argument("--dims", required=True)
    p.add_argument("--emit", choices=["config", "carpet"], default="config")
    p.set_defaults(func=_cmd_knit)

    p = sub.add_parser("configs", help="enumerate or check configurations")
    p.add_argument("action", choices=["enumerate", "check"])
    p.add_argument("--tree")
    p.add_argument("--method", choices=["patterns", "bruteforce"], default="patterns")
    p.add_argument("--up-to-aut", action="store_true")
    p.add_argument("--out", choices=["jsonl"], default="jsonl")
    p.add_argument("--file")
    p.set_defaults(func=_cmd_configs)

    p = sub.add_parser("pedigree", help="enumerate pedigrees as dimension vectors")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_pedigree)

    p = sub.add_parser("mesh", help="hom dimension between two points")
    p.add_argument("action", choices=["homdim"])
    p.add_argument("--tree", required=True)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("present", help="quiver-with-relations presentations")
    p.add_argument("--config", required=True)
    p.add_argument("--fundamental", default="auto")
    p.add_argument("--quotient", choices=["nu", "none"], default="nu")
    p.add_argument("--out", choices=["json", "dot"], default="json")
    p.set_defaults(func=_cmd_present)

    p = sub.add_parser("quotient", help="fold a window by an admissible group")
    p.add_argument("--tree", required=True)
    p.add_argument("--config")
    p.add_argument("--group", required=True)
    p.add_argument("--range", required=True)
    p.add_argument("--out", choices=["dot", "json"], default="json")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("reproduce", help="re-run a worked example against golden data")
    p.add_argument("example")
    p.set_defaults(func=_cmd_reproduce)

    return top


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except MeshknitError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_status
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
