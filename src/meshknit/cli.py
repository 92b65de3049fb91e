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
    _failed_axiom,
    _fold,
    _require_configuration,
    build_window,
    equioriented_section,
    twist_label,
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
        elif name in ("sigma", "phi", "psi", "chi"):
            twist = rotation_automorphism(tree) if name == "sigma" else flip_automorphism(tree)
            # each twist goes by the one name AdmissibleGroup.name prints
            if twist is None or twist_label(tree, twist) != name:
                raise InvalidType(f"tree {tree.name} has no twist {name!r}")
        else:
            raise InvalidType(f"unknown twist {name!r}")
    else:
        power = body
    return AdmissibleGroup(_int(power, f"group {text!r}"), twist, glide)


def _load_config(path: str) -> Configuration:
    with open(path, "r", encoding="utf-8") as fh:
        return Configuration.from_json(fh.read())


def _load_config_of(tree, path: str) -> Configuration:
    """``--config`` of a command that also takes ``--tree``: a configuration
    of that tree that satisfies the axioms."""
    config = _load_config(path)
    if config.tree != tree:
        raise InvalidInput(
            f"--config holds a configuration of {config.tree.name}, not of {tree.name}"
        )
    _require_configuration(config)
    return config


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
        axiom = _failed_axiom(config.tree, config.mask)
        print(json.dumps({"ok": axiom is None, "violated": axiom}))
        return 0 if axiom is None else 2
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
    config = _load_config_of(tree, args.config) if args.config else None
    for p in (src, dst):
        if p.vertex not in tree.vertices:
            raise InvalidInput(f"point {p} has no vertex {p.vertex} in {tree.name}")
        if p.proj and not (config and config.contains(p.slice, p.vertex)):
            raise InvalidInput(
                f"projective point {p} needs ({p.slice},{p.vertex}) in the configuration"
            )
    print(_homdim(tree, config, src, dst))
    return 0


def _homdim(tree, config, src: Pt, dst: Pt) -> int:
    """dim hom(src, dst); 0 with no window unless dst is 0 to 2L levels (2 *
    slice + depth, +1 at a projective) above src.  Every arrow raises the
    level by one.  k(Z Delta_C) is selfinjective, so a nonzero src -> dst stays
    nonzero into some projective-injective d* that dst embeds in (or is), and
    hom(src, d*) pairs nondegenerately with hom(d* - L, src) into the socle
    hom(d* - L, d*): d* is at most 2L levels above src, and dst too."""
    depth = tree.depth
    rise = 2 * (dst.slice - src.slice) + depth[dst.vertex] + dst.proj - depth[src.vertex] - src.proj
    if not 0 <= rise <= 2 * loewy_number(tree):
        return 0
    window = build_window(tree, config, min(src.slice, dst.slice) - 1, max(src.slice, dst.slice) + 1)
    return mesh.hom_dim_oracle(window, src, dst)


def _cmd_present(args) -> int:
    config = _load_config(args.config)
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
    config = _load_config_of(tree, args.config) if args.config else None
    group = _parse_group(tree, args.group)
    bounds = _ints(args.range, "--range")
    if len(bounds) != 2:
        raise InvalidInput(f"--range must be two slices lo,hi, got {args.range!r}")
    folded = _fold(group.action(tree), config.residues if config else frozenset(), *bounds)
    if args.out == "dot":
        print(serialize_dot(folded))
        return 0
    points = [str(p) for p in folded.points]
    projectives = [str(p) for p in folded.projectives]
    arrows = [[str(a), str(b)] for a, b in folded.arrows]
    print(json.dumps({"points": points, "arrows": arrows, "projectives": projectives}, sort_keys=True))
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
        check("methods_agree", configs == brute, True)
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
        q = present.BrauerQuiver(
            points=("p0", "p1", "p2"),
            alpha_cycles=(("p0", "p1", "p2"),),
            beta_cycles=(),
            reduced=True,
            special=("p2", "p0"),
        )
        a0, a1 = present.d3m_quotient_presentations(q)
        diff = {r.kind for r in set(a0.relations) ^ set(a1.relations)}
        check("relation_diff_kinds", sorted(diff), gold["relation_diff_kinds"])
    elif example_id == "brauer-roundtrip":
        gold = _golden("brauer_roundtrip.json")
        failures = 0
        for n in range(2, gold["max_n"] + 1):
            for p in classify.enumerate_pedigrees(n):
                q = present.brauer_from_pedigree(p)
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
        # argparse gives an empty list where a value was the separator "--"
        for name, value in vars(args).items():
            if isinstance(value, list):
                raise InvalidInput(f"{name}: '--' is not a value")
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
