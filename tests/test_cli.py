import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meshknit
from meshknit.classify import check_combinatorial_configuration, enumerate_configurations
from meshknit.cli import run
from meshknit.dotio import serialize_dot
from meshknit.errors import UnsupportedObject
from meshknit.ztquiver import build_window, equioriented_section
from meshknit.dynkin import make_tree
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


def a3_file(points) -> str:
    tree = {"family": "A", "rank": 3}
    return json.dumps({"tree": tree, "period": 3, "points": [list(p) for p in points]})


# an A3 configuration with three fundamental algebras
A3_CONFIG = a3_file([(0, 3), (1, 3), (2, 3)])
# violates C2: hom((0,2), (1,2)) is nonzero
A3_NOT_A_CONFIG = a3_file([(0, 2), (1, 2), (2, 2)])

MALFORMED = [
    pytest.param(["knit", "--tree", "A3", "--dims", "1,2"], None, id="knit-short-dims"),
    pytest.param(["pedigree", "-n", "0"], None, id="pedigree-zero"),
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
    pytest.param(["knit", "--tree", "A3", "--dims", "1,x,3"], None, id="knit-non-integer-dims"),
    pytest.param(
        ["mesh", "homdim", "--tree", "D4", "--from", "0,a", "--to", "1,2"], None,
        id="homdim-non-integer-point",
    ),
    pytest.param(
        ["quotient", "--tree", "A2", "--group", "tau^x", "--range=-4,4"], None,
        id="quotient-non-integer-power",
    ),
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
