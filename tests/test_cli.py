import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshknit
from helpers import count_windows, orbit_cases, reference_fold, reference_is_admissible, reference_witness
from meshknit.classify import check_combinatorial_configuration, enumerate_configurations
from meshknit.cli import run
from meshknit.dotio import serialize_dot
from meshknit.errors import MeshknitError, UnsupportedObject
from meshknit.ztquiver import FoldedQuiver, Pt, _fold, build_window, equioriented_section
from meshknit.dynkin import loewy_number, make_tree
from meshknit.knitting import knit_and_knot


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dynkin_info(capsys):
    code, out, _ = run_capture(capsys, ["dynkin", "info", "E8"])
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 8 and data["loewy"] == 29 and data["aut_order"] == 1


def test_knit_config_output(capsys):
    code, out, _ = run_capture(
        capsys, ["knit", "--tree", "A7", "--section", "equi", "--dims", "1,4,3,2,4,3,4"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["points"] == [[0, 7], [1, 1], [2, 1], [3, 5], [4, 1], [5, 6], [6, 7]]


def test_knit_carpet_output(capsys):
    code, out, _ = run_capture(
        capsys,
        ["knit", "--tree", "A7", "--dims", "1,4,3,2,4,3,4", "--emit", "carpet"],
    )
    assert code == 0
    assert "periodic after 7" in out
    assert "*" in out


def test_knit_invalid_vector_exit_3(capsys):
    code, _, err = run_capture(capsys, ["knit", "--tree", "A2", "--dims", "1,1"])
    assert code == 3
    assert "INVALID_DIMENSION_VECTOR" in err


def test_bad_tree_exit_2(capsys):
    code, _, err = run_capture(capsys, ["dynkin", "info", "Z9"])
    assert code == 2
    assert "INVALID_TYPE" in err


def test_configs_enumerate_stream(capsys):
    code, out, _ = run_capture(capsys, ["configs", "enumerate", "--tree", "D4"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 20
    assert all(json.loads(l)["period"] == 5 for l in lines)


def test_configs_up_to_aut(capsys):
    code, out, _ = run_capture(capsys, ["configs", "enumerate", "--tree", "D4", "--up-to-aut"])
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines() if l.strip()]
    assert sorted(d["orbit_size"] for d in lines) == [5, 15]


def test_configs_check(tmp_path, capsys):
    tree = make_tree("A", 2)
    config = knit_and_knot(tree, equioriented_section(tree), (1, 2))
    good = tmp_path / "good.json"
    good.write_text(config.to_json())
    code, out, _ = run_capture(capsys, ["configs", "check", "--file", str(good)])
    assert code == 0 and json.loads(out)["ok"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"tree": {"family": "A", "rank": 2}, "period": 2, "points": [[0, 1], [0, 2]]})
    )
    code, out, _ = run_capture(capsys, ["configs", "check", "--file", str(bad)])
    assert code == 2 and json.loads(out)["violated"] == "C2"


def test_pedigree_stream(capsys):
    code, out, _ = run_capture(capsys, ["pedigree", "-n", "3"])
    assert code == 0
    lines = [json.loads(l)["dims"] for l in out.splitlines() if l.strip()]
    assert len(lines) == 5
    assert [1, 2, 3] in lines and [3, 2, 1] in lines


def test_mesh_homdim(capsys):
    code, out, _ = run_capture(
        capsys, ["mesh", "homdim", "--tree", "D4", "--from", "0,2", "--to", "1,2"]
    )
    assert code == 0
    assert out.strip() == "2"
    code, out, _ = run_capture(
        capsys, ["mesh", "homdim", "--tree", "D4", "--from", "0,2", "--to", "3,2"]
    )
    assert code == 0
    assert out.strip() == "0"


def test_mesh_homdim_projective_points(tmp_path, capsys):
    """A projective point needs its residue in the configuration; without
    one, or with a configuration that lacks it, the error names the point."""
    path = tmp_path / "c.json"
    path.write_text(A3_CONFIG)  # (i, 3) for every i
    homdim = ["mesh", "homdim", "--tree", "A3", "--to", "2,3"]
    code, out, _ = run_capture(capsys, homdim + ["--from", "0,3,p", "--config", str(path)])
    assert (code, out.strip()) == (0, "1")
    for extra in ([], ["--config", str(path)]):
        code, _, err = run_capture(capsys, homdim + ["--from", "0,2,p"] + extra)
        assert code == 2
        assert err.startswith("error[INVALID_INPUT]: projective point 0_2_P "), err


@pytest.mark.parametrize("far", [10**9, -(10**9)])
def test_mesh_homdim_far_apart_builds_no_window(capsys, monkeypatch, far):
    """10**9 slices apart in either direction, hom is 0, answered without a
    window (a window over the distance would not fit in memory)."""
    from meshknit import cli

    monkeypatch.setattr(cli, "build_window", None)
    argv = ["mesh", "homdim", "--tree", "A2", "--from", "0,1", f"--to={far},1"]
    assert run_capture(capsys, argv)[:2] == (0, "0\n")


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "A5", "D4"])
def test_mesh_homdim_band_matches_the_full_window(name, configs_cache):
    """The band answer of ``meshknit mesh homdim`` equals the transporter on
    one window 2L + 5 slices either side of the source, for every source in
    slices [0, L), stable or projective, and every target up to 2L + 4 slices
    away; without a configuration and with the first one.  Some target sits
    on the band's top edge, 2L levels up."""
    from meshknit.cli import _homdim
    from meshknit.mesh import MeshTransporter

    tree = make_tree(name[0], int(name[1]))
    L = loewy_number(tree)
    far = 2 * L + 4
    level = lambda p: 2 * p.slice + tree.depth[p.vertex] + p.proj
    top = 0
    for config in (None, configs_cache(name)[0]):
        for src in sorted(p for p in build_window(tree, config, 0, L - 1).points):
            full = build_window(tree, config, src.slice - far - 1, src.slice + far + 1)
            tr = MeshTransporter(full, src)
            for dst in sorted(p for p in full.points if abs(p.slice - src.slice) <= far):
                assert _homdim(tree, config, src, dst) == tr.dim(dst), (config, src, dst)
                if tr.dim(dst):
                    top = max(top, level(dst) - level(src))
    assert top == 2 * L


def test_present_json_and_dot(tmp_path, capsys):
    tree = make_tree("A", 3)
    config = knit_and_knot(tree, equioriented_section(tree), (1, 2, 3))
    path = tmp_path / "c.json"
    path.write_text(config.to_json())
    code, out, _ = run_capture(capsys, ["present", "--config", str(path), "--quotient", "nu"])
    assert code == 0
    data = json.loads(out)
    assert len(data["points"]) == 3
    code, out, _ = run_capture(
        capsys, ["present", "--config", str(path), "--quotient", "none", "--out", "dot"]
    )
    assert code == 0
    assert out.startswith("digraph")


def test_quotient_command(capsys):
    code, out, _ = run_capture(
        capsys,
        ["quotient", "--tree", "A2", "--group", "tau^1", "--range=-4,4", "--out", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["points"]) == 2
    code, _, err = run_capture(
        capsys,
        ["quotient", "--tree", "A2", "--group", "rho", "--range=-4,4"],
    )
    assert code == 3
    witness = "-4_1 and -4_2 next to -4_1 lie in one orbit"
    assert err == f"error[NOT_ADMISSIBLE]: rho is not admissible: {witness}\n"


def _fold_outcome(tree, config, group, lo, hi):
    """What ``meshknit quotient`` prints for a range, or the error it raises."""
    try:
        folded = _fold(group.action(tree), config.residues if config else frozenset(), lo, hi)
    except MeshknitError as err:
        return type(err).__name__, str(err)
    return folded.points, folded.arrows, folded.projectives, serialize_dot(folded)


def _reference_outcome(tree, config, group, lo, hi):
    """The same, from the window of the whole range: its size, the previous
    orbit test, the previous full cone scan and the band fold of every
    window point, arrow and tau pair."""
    w = build_window(tree, config, lo, hi)
    span, P, name = hi - lo + 1, group.action(tree).period, group.name(tree)
    if span < P + 2:
        size = f"window of {span} slices cannot hold a fundamental domain of {name} plus margins"
        return "WindowTooSmall", size
    if not reference_is_admissible(group, w):
        if moved := config and group.action(tree).moved(config.residues):
            reason = f"it maps configuration point {Pt(*moved[0])} off the configuration"
        else:
            reason = reference_witness(group, w) if P else "its orbits are finite"
        assert reason is not None
        return "NotAdmissible", f"{name} is not admissible: {reason}"
    if span < 2 * P:
        return "WindowTooSmall", "quotient needs a window of at least two periods"
    points, arrows, tau, projectives = reference_fold(group, w)
    folded = FoldedQuiver(points, arrows, tau, projectives, f"{tree.name}/{name}")
    return points, arrows, projectives, serialize_dot(folded)


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "D4"])
def test_quotient_range_window_matches_the_whole_range(name, configs_cache):
    """``meshknit quotient`` folds, or refuses, a range as the references do
    on the window of the whole range: every orbit-test case of the tree
    (table groups up to s = 2, twists, glides and refused groups; every 4th
    on A4, every 8th on D4), at three offsets and every span from 1 to
    4P + 2.  Folds and size refusals occur, and refusals by the orbit test
    on every tree but D4, whose cases are all table groups."""
    cases = [c for c in orbit_cases(configs_cache) if c[0].name == name]
    kinds = set()
    for tree, config, group in cases[:: {"A4": 4, "D4": 8}.get(name, 1)]:
        P = group.action(tree).period
        for lo in (-P - 3, 0, 5):
            for hi in range(lo, lo + 4 * P + 2):
                got = _fold_outcome(tree, config, group, lo, hi)
                assert got == _reference_outcome(tree, config, group, lo, hi), (config, group, lo, hi)
                kinds.add(got[0] if isinstance(got[0], str) else "fold")
    assert kinds == {"fold", "WindowTooSmall", *(["NotAdmissible"] if name != "D4" else [])}, kinds


@pytest.mark.parametrize("bounds", ["0,1000000000", "-1000000000,0"])
def test_quotient_of_a_huge_range_builds_no_window(capsys, monkeypatch, bounds):
    """10**9 slices up or down, A2 by tau^2 folds to its four points, and no
    window is built (the whole range would not fit in memory)."""
    windows = count_windows(monkeypatch)
    argv = ["quotient", "--tree", "A2", "--group", "tau^2", f"--range={bounds}", "--out", "json"]
    code, out, _ = run_capture(capsys, argv)
    assert code == 0 and len(json.loads(out)["points"]) == 4
    assert not windows.made


def test_twist_names_are_the_printed_labels(capsys):
    """A twist is accepted only under the name the quotient label prints:
    phi on A, psi on D, chi on E6, sigma on D4."""
    def quotient_of(tree, group, hi):
        return run_capture(
            capsys, ["quotient", "--tree", tree, "--group", group, f"--range=0,{hi}", "--out", "dot"]
        )

    code, out, _ = quotient_of("D5", "tau^7*psi", 29)
    assert code == 0 and out.startswith('digraph "D5/tau^7*psi"')
    for tree, group, hi in [("A3", "tau^3*phi", 13), ("E6", "tau^11*chi", 45), ("D4", "tau^5*sigma", 31)]:
        code, out, _ = quotient_of(tree, group, hi)
        assert code == 0 and out.startswith(f'digraph "{tree}/{group}"')
    for tree, wrong in [("D5", "phi"), ("D5", "chi"), ("A3", "psi"), ("E6", "phi"), ("D5", "sigma")]:
        code, _, err = quotient_of(tree, f"tau^7*{wrong}", 29)
        assert code == 2 and err == f"error[INVALID_TYPE]: tree {tree} has no twist {wrong!r}\n"


def test_reproduce_all_examples(capsys):
    for example in ["fig4-a7", "d4-census", "d3m-cartan", "brauer-roundtrip"]:
        code, out, _ = run_capture(capsys, ["reproduce", example])
        assert code == 0, (example, out)
        assert "FAIL" not in out
    code, _, err = run_capture(capsys, ["reproduce", "nope"])
    assert code == 2
    assert "UNKNOWN_EXAMPLE" in err


def test_dot_is_deterministic_and_typed():
    tree = make_tree("A", 2)
    w = build_window(tree, None, 0, 1)
    assert serialize_dot(w) == serialize_dot(build_window(tree, None, 0, 1))
    text = serialize_dot(w)
    assert text.count("->") == 3 and text.count("ellipse") == 4
    config = knit_and_knot(tree, equioriented_section(tree), (1, 2))
    with pytest.raises(UnsupportedObject):
        serialize_dot(config)
    wc = build_window(tree, config, 0, 2)
    assert 'shape=box' in serialize_dot(wc)


def test_knit_with_explicit_section(capsys):
    code, out, _ = run_capture(
        capsys, ["knit", "--tree", "A3", "--section", "1,0,0", "--dims", "2,1,2"]
    )
    assert code == 0
    assert json.loads(out)["tree"] == {"family": "A", "rank": 3}


NO_RANK = json.dumps({"tree": {"family": "A"}, "period": 2, "points": [[0, 1], [1, 2]]})


def a3_file(points, rank=3) -> str:
    tree = {"family": "A", "rank": rank}
    return json.dumps({"tree": tree, "period": 3, "points": [list(p) for p in points]})


# an A3 configuration with three fundamental algebras
A3_POINTS = [(0, 3), (1, 3), (2, 3)]
A3_CONFIG = a3_file(A3_POINTS)
# violates C2: hom((0,2), (1,2)) is nonzero
A3_NOT_A_CONFIG = a3_file([(0, 2), (1, 2), (2, 2)])
D4_CONFIG = json.dumps(
    {"tree": {"family": "D", "rank": 4}, "period": 5, "points": [[0, 1], [1, 1], [2, 3], [2, 4]]}
)

MALFORMED = [
    pytest.param(["knit", "--tree", "A3", "--dims", "1,2"], None, id="knit-short-dims"),
    pytest.param(["pedigree", "-n", "0"], None, id="pedigree-zero"),
    # past n = 13 (Catalan(14) > 10**6) enumeration refuses before recursing
    pytest.param(["pedigree", "-n", "14"], None, id="pedigree-14"),
    pytest.param(["pedigree", "-n", "5000"], None, id="pedigree-5000"),
    pytest.param(["pedigree", "-n", str(10**30)], None, id="pedigree-1e30"),
    pytest.param(["configs", "enumerate"], None, id="enumerate-no-tree"),
    pytest.param(["configs", "check", "--file"], NO_RANK, id="check-no-rank"),
    pytest.param(
        ["quotient", "--tree", "A3", "--group", "rho", "--range=-4,4"], None, id="glide-odd-a"
    ),
    pytest.param(
        ["knit", "--tree", "A3", "--section", "0,0", "--dims", "1,2,3"], None,
        id="knit-short-section",
    ),
    pytest.param(
        ["present", "--fundamental", "9", "--config"], A3_CONFIG,
        id="present-fundamental-too-large",
    ),
    pytest.param(
        ["present", "--fundamental=-1", "--config"], A3_CONFIG, id="present-fundamental-negative"
    ),
    pytest.param(["present", "--config"], A3_NOT_A_CONFIG, id="present-not-a-configuration"),
    pytest.param(
        ["configs", "check", "--file"], a3_file([(0, 3), (1, 3), (2, 9)]), id="check-bad-vertex"
    ),
    pytest.param(["present", "--config"], a3_file([(0, 3), (1, 3)]), id="present-two-residues"),
    pytest.param(
        ["knit", "--tree", "A3", "--section", "0,2,0", "--dims", "1,2,3"], None, id="knit-not-a-section"
    ),
    pytest.param(
        ["quotient", "--tree", "A2", "--group", "tau^1", "--range", "0"], None, id="quotient-one-slice"
    ),
    pytest.param(
        ["quotient", "--tree", "A2", "--group", "tau^1", "--range=5,1"], None, id="quotient-inverted-range"
    ),
    pytest.param(["knit", "--tree", "A3", "--dims", "1,x,3"], None, id="knit-non-integer-dims"),
    pytest.param(
        ["mesh", "homdim", "--tree", "D4", "--from", "0,a", "--to", "1,2"], None,
        id="homdim-non-integer-point",
    ),
    pytest.param(
        ["quotient", "--tree", "A2", "--group", "tau^x", "--range=-4,4"], None,
        id="quotient-non-integer-power",
    ),
    pytest.param(
        ["mesh", "homdim", "--tree", "D4", "--from", "0,2,p", "--to", "1,2"], None,
        id="homdim-projective-without-config",
    ),
    # a vertex outside the tree has no level to bound the band by
    pytest.param(
        ["mesh", "homdim", "--tree", "A2", "--from", "0,0", "--to", "1,1"], None, id="homdim-bad-vertex"
    ),
    pytest.param(["present", "--config"], "not json", id="present-not-json"),
    pytest.param(
        ["configs", "check", "--file"],
        json.dumps({"tree": {"family": "A", "rank": 2}, "period": 99, "points": [[0, 1], [1, 1]]}),
        id="check-wrong-period",
    ),
    # --config must be a configuration of --tree
    pytest.param(
        ["quotient", "--tree", "A3", "--group", "tau^4", "--range=0,12", "--config"], D4_CONFIG,
        id="quotient-d4-config-on-a3",
    ),
    pytest.param(
        ["quotient", "--tree", "D4", "--group", "tau^6", "--range=0,14", "--config"], A3_CONFIG,
        id="quotient-a3-config-on-d4",
    ),
    pytest.param(
        ["mesh", "homdim", "--tree", "D4", "--from", "0,1", "--to", "2,1", "--config"], A3_CONFIG,
        id="homdim-a3-config-on-d4",
    ),
    pytest.param(
        ["quotient", "--tree", "A3", "--group", "tau^3", "--range=0,8", "--config"],
        A3_NOT_A_CONFIG, id="quotient-not-a-configuration",
    ),
    pytest.param(
        ["mesh", "homdim", "--tree", "A3", "--from", "0,2,p", "--to", "2,2,p", "--config"],
        A3_NOT_A_CONFIG, id="homdim-not-a-configuration",
    ),
    # each would load as a configuration if the field were passed through int()
    pytest.param(["configs", "check", "--file"], a3_file(A3_POINTS, 3.7), id="check-float-rank"),
    pytest.param(["configs", "check", "--file"], a3_file([(0, 1)], True), id="check-bool-rank"),
    pytest.param(["configs", "check", "--file"], a3_file(A3_POINTS, "3"), id="check-string-rank"),
    pytest.param(["present", "--config"], a3_file([(0, 3), (1, 3), (2.9, 3)]), id="float-point"),
    pytest.param(["present", "--config"], a3_file([(0, 3), (True, 3), (2, 3)]), id="bool-point"),
    pytest.param(["present", "--config"], a3_file([(0, 3), (1, 3), ("2", 3)]), id="string-point"),
    # argparse hands a command an empty list where the value is "--"
    pytest.param(["pedigree", "-n=--"], None, id="pedigree-separator-value"),
    pytest.param(["dynkin", "info", "--", "--"], None, id="dynkin-separator-tree"),
]


def with_file(tmp_path, argv, file_text, name="c.json"):
    if file_text is None:
        return argv
    path = tmp_path / name
    path.write_text(file_text)
    return argv + [str(path)]


@pytest.mark.parametrize("argv,file_text", MALFORMED)
def test_malformed_input_is_a_typed_error(tmp_path, capsys, argv, file_text):
    code, _, err = run_capture(capsys, with_file(tmp_path, argv, file_text))
    assert code == 2
    assert err.startswith("error[") and "Traceback" not in err


def test_config_must_fit_the_tree_and_the_axioms(tmp_path, capsys):
    """quotient and mesh homdim name a configuration of another tree, and the
    failed axiom of a residue set that is not a configuration."""
    cases = [
        (["quotient", "--tree", "A3", "--group", "tau^4", "--range=0,12"], D4_CONFIG,
         "--config holds a configuration of D4, not of A3"),
        (["mesh", "homdim", "--tree", "D4", "--from", "0,1", "--to", "2,1"], A3_CONFIG,
         "--config holds a configuration of A3, not of D4"),
        (["quotient", "--tree", "A3", "--group", "tau^3", "--range=0,8"], A3_NOT_A_CONFIG,
         "not a configuration: axiom C2 fails"),
        (["mesh", "homdim", "--tree", "A3", "--from", "0,2,p", "--to", "2,2,p"], A3_NOT_A_CONFIG,
         "not a configuration: axiom C2 fails"),
    ]
    for argv, text, message in cases:
        code, out, err = run_capture(capsys, with_file(tmp_path, argv + ["--config"], text))
        assert (code, out) == (2, "")
        assert err.startswith(f"error[INVALID_INPUT]: {message}"), err


def test_a_bad_vertex_exits_2_naming_the_least(tmp_path, capsys):
    for points, bad in (([(0, 4), (1, 2), (2, 0)], 0), ([(0, 5), (1, -2), (2, 4)], -2)):
        argv = with_file(tmp_path, ["present", "--config"], a3_file(points))
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error[INVALID_INPUT]: bad vertex {bad} in configuration"), err


def test_present_checks_the_configuration_axioms(tmp_path, capsys):
    """Over all 84 three-point residue sets of A3, present succeeds exactly
    on the five configurations and names the failed axiom otherwise."""
    tree = make_tree("A", 3)
    universe = [(i, x) for i in range(3) for x in tree.vertices]
    path = tmp_path / "c.json"
    accepted = set()
    for points in itertools.combinations(universe, 3):
        path.write_text(a3_file(points))
        code, out, err = run_capture(capsys, ["present", "--config", str(path)])
        if code == 0:
            accepted.add(frozenset(points))
            continue
        _, axiom = check_combinatorial_configuration(tree, points)
        assert code == 2 and "Traceback" not in err, (points, err)
        assert err.startswith("error[INVALID_INPUT]") and f"axiom {axiom} fails" in err, err
    assert accepted == {c.residues for c in enumerate_configurations(tree)}
    assert len(accepted) == 5


def test_malformed_input_exit_codes_survive_python_O(tmp_path, capsys):
    """Validation must not rest on assert: under python -O every malformed
    case exits as it does without it."""
    argvs = [
        with_file(tmp_path, case.values[0], case.values[1], f"{case.id}.json") for case in MALFORMED
    ]
    plain = [run_capture(capsys, argv)[0] for argv in argvs]
    script = (
        "import contextlib, io, json, sys\n"
        "from meshknit.cli import run\n"
        "assert not __debug__\n"
        "codes = []\n"
        "for argv in json.load(sys.stdin):\n"
        "    sink = io.StringIO()\n"
        "    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        "        codes.append(run(argv))\n"
        "print(json.dumps(codes))\n"
    )
    src = str(Path(meshknit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        input=json.dumps(argvs), capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == plain == [2] * len(MALFORMED)


# ---------------------------------------------------------------------------
# fuzzing the command line

FUZZ_TREES = ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6", "Z9", "A0", "D3", "E9", "E", "a3", ""]
FUZZ_INT = st.integers(-8, 8)
FUZZ_INTS = st.lists(FUZZ_INT, min_size=0, max_size=7).map(lambda vs: ",".join(map(str, vs)))
FUZZ_POINT = st.builds(
    lambda i, x, p: f"{i},{x}{p}", FUZZ_INT, st.integers(-1, 8), st.sampled_from(["", ",p", ",q", ","])
)
FUZZ_GROUP = st.one_of(
    st.sampled_from(["rho", "tau", "tau^", "sigma", "tau^1*", "tau^x"]),
    st.builds(
        lambda k, twist: f"tau^{k}{twist}",
        FUZZ_INT,
        st.sampled_from(["", "*rho", "*sigma", "*phi", "*psi", "*chi", "*nu"]),
    ),
)
FUZZ_JUNK = st.sampled_from(["", "x", "-", "--", "1,", ",", "--help", "-n", "1,,2"])


def _fuzz_files(directory) -> list[str]:
    """Paths to small configuration files: valid ones of several trees, a
    non-configuration and malformed ones."""
    texts = [
        A3_CONFIG,
        A3_NOT_A_CONFIG,
        NO_RANK,
        "not json",
        "[]",
        "7",
        "{}",
        a3_file([(0, 3), (1, 3)]),
        a3_file([(0, 3), (1, 3), (2, 9)]),
        a3_file([]),
        json.dumps({"tree": {"family": "A", "rank": 3}, "points": [[0]]}),
        json.dumps({"tree": {"family": "A", "rank": 3}, "points": [[0, 1, 2]]}),
        json.dumps({"tree": {"family": "A", "rank": 3}, "points": "x"}),
        json.dumps({"tree": {"family": "A", "rank": 3}, "points": None}),
        json.dumps({"tree": {"family": "A", "rank": 3}, "points": [["a", 1]]}),
        json.dumps({"tree": "A3", "points": [[0, 3]]}),
        json.dumps({"tree": {"family": "Z", "rank": 3}, "points": [[0, 1]]}),
        json.dumps({"tree": {"family": "E", "rank": 9}, "points": [[0, 1]]}),
        json.dumps({"tree": {"family": "A", "rank": 0}, "points": []}),
        json.dumps({"tree": {"family": "A", "rank": -2}, "points": [[0, 1]]}),
        json.dumps({"tree": {"family": "D", "rank": 3}, "points": [[0, 1]]}),
        json.dumps({"tree": {"family": "A", "rank": 3.5}, "points": [[0, 1]]}),
    ]
    for name in ["A1", "A2", "D4", "E6"]:
        tree = make_tree(name[0], int(name[1]))
        texts.append(enumerate_configurations(tree)[-1].to_json())
    paths = []
    for k, text in enumerate(texts):
        path = directory / f"fuzz{k}.json"
        path.write_text(text)
        paths.append(str(path))
    return paths + [str(directory / "missing.json"), str(directory)]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    return _fuzz_files(tmp_path_factory.mktemp("fuzz"))


def _fuzz_argv(draw, files):
    """An argv of one real subcommand with a random subset of its flags,
    sometimes with a junk word inserted."""
    tree = st.sampled_from(FUZZ_TREES)
    file = st.sampled_from(files)
    commands = {
        "dynkin": ([st.just("info"), tree], {}),
        "knit": ([], {
            "--tree": tree,
            "--section": st.one_of(st.just("equi"), FUZZ_INTS),
            "--dims": FUZZ_INTS,
            "--emit": st.sampled_from(["config", "carpet"]),
        }),
        "configs": ([st.sampled_from(["enumerate", "check"])], {
            "--tree": tree,
            "--method": st.sampled_from(["patterns", "bruteforce"]),
            "--up-to-aut": None,
            "--file": file,
        }),
        "pedigree": ([], {"-n": st.one_of(FUZZ_INT.map(str), FUZZ_JUNK)}),
        "mesh": ([st.just("homdim")], {
            "--tree": tree, "--from": FUZZ_POINT, "--to": FUZZ_POINT, "--config": file,
        }),
        "present": ([], {
            "--config": file,
            "--fundamental": st.one_of(st.just("auto"), FUZZ_INT.map(str), FUZZ_JUNK),
            "--quotient": st.sampled_from(["nu", "none"]),
            "--out": st.sampled_from(["json", "dot"]),
        }),
        "quotient": ([], {
            "--tree": tree,
            "--config": file,
            "--group": FUZZ_GROUP,
            "--range": st.one_of(FUZZ_INTS, FUZZ_JUNK),
            "--out": st.sampled_from(["dot", "json"]),
        }),
        "reproduce": ([st.sampled_from(["fig4-a7", "d4-census", "d3m-cartan", "brauer-roundtrip", "x"])], {}),
    }
    verb = draw(st.sampled_from(sorted(commands)))
    positional, flags = commands[verb]
    argv = [verb] + [draw(s) for s in positional]
    for flag, value in flags.items():
        if draw(st.integers(0, 4)) == 0:  # most runs keep a flag, so some succeed
            continue
        if value is None:
            argv.append(flag)
        elif draw(st.booleans()):  # a value starting with '-' parses only this way
            argv.append(f"{flag}={draw(value)}")
        else:
            argv += [flag, draw(value)]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(FUZZ_JUNK))
    return argv


@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_cli_fuzz_exits_0_2_or_3(fuzz_files, data):
    """Any argv of real subcommands, flags, trees up to E6, small integers,
    group strings and small valid or malformed files ends in exit 0, 2 or 3
    and raises nothing."""
    argv = data.draw(st.composite(_fuzz_argv)(fuzz_files), label="argv")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = run(argv)
    assert code in (0, 2, 3), (argv, sink.getvalue()[-500:])
    assert "Traceback" not in sink.getvalue()
