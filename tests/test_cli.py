import json

import pytest

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
    assert "NOT_ADMISSIBLE" in err


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
# an A3 configuration with three fundamental algebras
A3_CONFIG = json.dumps({"tree": {"family": "A", "rank": 3}, "period": 3, "points": [[0, 3], [1, 3], [2, 3]]})


@pytest.mark.parametrize(
    "argv,file_text",
    [
        (["knit", "--tree", "A3", "--dims", "1,2"], None),
        (["pedigree", "-n", "0"], None),
        (["configs", "enumerate"], None),
        (["configs", "check", "--file"], NO_RANK),
        (["quotient", "--tree", "A3", "--group", "rho", "--range=-4,4"], None),
        (["knit", "--tree", "A3", "--section", "0,0", "--dims", "1,2,3"], None),
        (["present", "--fundamental", "9", "--config"], A3_CONFIG),
        (["present", "--fundamental=-1", "--config"], A3_CONFIG),
    ],
    ids=[
        "knit-short-dims",
        "pedigree-zero",
        "enumerate-no-tree",
        "check-no-rank",
        "glide-odd-a",
        "knit-short-section",
        "present-fundamental-too-large",
        "present-fundamental-negative",
    ],
)
def test_malformed_input_is_a_typed_error(tmp_path, capsys, argv, file_text):
    if file_text is not None:
        path = tmp_path / "c.json"
        path.write_text(file_text)
        argv = argv + [str(path)]
    code, _, err = run_capture(capsys, argv)
    assert code == 2
    assert err.startswith("error[") and "Traceback" not in err
