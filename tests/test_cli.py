import ast
import json
from pathlib import Path

import pytest

import arrfan
from arrfan.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def a2_file(tmp_path, capsys):
    path = str(tmp_path / "a2.json")
    code, _ = run(capsys, "catalog", "A_2", "--out", path)
    assert code == 0
    return path


def test_verify_exit_codes(tmp_path, capsys, a2_file):
    code, out = run(capsys, "verify", a2_file)
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"] == {"crystallographic": True, "simplicial": True}

    bad = write(tmp_path, "bad.json", {"rank": 2, "positive_covectors": [[1, 0], [0, 1], [2, 1]]})
    code, out = run(capsys, "verify", bad)
    assert code == 10
    report = json.loads(out)
    assert report["verdicts"]["crystallographic"] is False
    assert "1/2" in report["witnesses"]["coordinates"]

    nonsimp = write(
        tmp_path,
        "ns.json",
        {"rank": 3, "positive_covectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 3]]},
    )
    code, out = run(capsys, "verify", nonsimp)
    assert code == 11

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    code, _ = run(capsys, "verify", str(broken))
    assert code == 2


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys, a2_file):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    # roots reads a fan, verify an arrangement, plot sniffs either
    for command in ("roots", "verify", "plot"):
        code, _ = run(capsys, command, str(deep))
        assert code == 2
    fan_path = str(tmp_path / "fan.json")
    assert run(capsys, "fan", a2_file, "--out", fan_path)[0] == 0
    code, _ = run(capsys, "restrict", fan_path, "--subspace", "[" * 5000 + "]" * 5000)
    assert code == 2


def test_absurd_rank_is_a_lattice_span_verdict(tmp_path, capsys):
    # fewer covectors than the rank cannot span Z^r: exit 10 before the
    # rank-length all-ones Smith form is ever built
    huge = write(tmp_path, "huge.json", {"rank": 10**30, "positive_covectors": []})
    assert (tmp_path / "huge.json").read_text() == (
        '{"rank": 1000000000000000000000000000000, "positive_covectors": []}'
    )
    assert run(capsys, "verify", huge) == (10, "")


def test_verify_non_simplicial_chamber_behind_a_simplicial_seed(tmp_path, capsys):
    # the seed chamber, the positive orthant, is simplicial; a neighbour is not
    path = write(
        tmp_path, "neg3.json",
        {"rank": 3, "positive_covectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]},
    )
    code, out = run(capsys, "verify", path)
    assert code == 11
    assert json.loads(out)["verdicts"] == {"simplicial": False, "crystallographic": None}


# stdout of `verify` on these exact file bytes, recorded from the former
# Fraction-inverse integrality test (chamber index, root, coordinates)
_PINNED_WITNESSES = [
    (
        {"rank": 2, "positive_covectors": [[1, 0], [0, 1], [1, 2]]},
        '{"command":"verify","input_digest":"sha256:4d92e0a62117475d4bd5d570f7cc6fc771f6c9221'
        '06d437dc06b6414c7563044","outputs":{},"verdicts":{"crystallographic":false,'
        '"simplicial":true},"witnesses":{"chamber":2,"coordinates":["1/2","1/2"],"root":[0,1]}}',
    ),
    (
        {"rank": 3, "positive_covectors": [[0, 0, 1], [2, 1, -2], [2, 1, 3], [3, 1, -2]]},
        '{"command":"verify","input_digest":"sha256:075832406b77c96536a586d6a7f5482c1e8201869'
        '5489cd3c98840ffe7da70a4","outputs":{},"verdicts":{"crystallographic":false,'
        '"simplicial":true},"witnesses":{"chamber":1,"coordinates":["1/5","0","1/5"],'
        '"root":[0,0,1]}}',
    ),
]


@pytest.mark.parametrize("obj,expected", _PINNED_WITNESSES)
def test_verify_witness_is_pinned(tmp_path, capsys, obj, expected):
    assert run(capsys, "verify", write(tmp_path, "neg.json", obj)) == (10, expected + "\n")


def test_no_assert_statements_in_library():
    # asserts vanish under python -O; invariants raise CertificationError
    src = Path(arrfan.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)], path.name


def test_fan_roots_pipe_closure(tmp_path, capsys, a2_file):
    fan_path = str(tmp_path / "fan.json")
    code, out = run(capsys, "fan", a2_file, "--out", fan_path)
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["rays"] == 6
    assert report["verdicts"]["strongly_symmetric"] is True

    back_path = str(tmp_path / "back.json")
    code, _ = run(capsys, "roots", fan_path, "--out", back_path)
    assert code == 0
    with open(a2_file, "rb") as f1, open(back_path, "rb") as f2:
        assert f1.read() == f2.read()


def test_determinism(tmp_path, capsys, a2_file):
    fan_path = str(tmp_path / "fan.json")
    outs = []
    for _ in range(2):
        code, out = run(capsys, "fan", a2_file, "--out", fan_path)
        assert code == 0
        with open(fan_path) as fh:
            outs.append((out, fh.read()))
    assert outs[0] == outs[1]


def test_star_and_bad_cone(tmp_path, capsys, a2_file):
    fan_path = str(tmp_path / "fan.json")
    run(capsys, "fan", a2_file, "--out", fan_path)
    code, out = run(capsys, "star", fan_path, "--cone", "0")
    assert code == 0
    assert json.loads(out)["verdicts"]["rank"] == 1
    code, _ = run(capsys, "star", fan_path, "--cone", "0,5")
    assert code == 3


def test_surface_commands(tmp_path, capsys, a2_file):
    fan_path = str(tmp_path / "fan.json")
    run(capsys, "fan", a2_file, "--out", fan_path)

    code, out = run(capsys, "surface", "graph", fan_path)
    assert code == 0
    assert json.loads(out)["verdicts"]["weights"] == [-1] * 6

    code, out = run(capsys, "surface", "triangulations", "--count", "6")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["count"] == 14
    assert len(report["witnesses"]["items"]) == 14
    assert all("weights" in item and "diagonals" in item for item in report["witnesses"]["items"])

    code, out = run(capsys, "surface", "divisor", fan_path)
    assert code == 0
    verdict = json.loads(out)["verdicts"]
    assert verdict["formula"] == "Y1 ~ D2 + D3, Y1^2 = 0"

    code, out = run(capsys, "surface", "picard", fan_path)
    assert code == 0
    assert json.loads(out)["verdicts"] == {"picard_rank": 4, "verified": True}

    quad = write(tmp_path, "quad.json", {"weights": [0, 0, 0, 0]})
    code, _ = run(capsys, "surface", "divisor", quad)
    assert code == 10

    out_fan = str(tmp_path / "quadfan.json")
    code, _ = run(capsys, "surface", "from-weights", quad, "--out", out_fan)
    assert code == 0
    assert len(json.loads(open(out_fan).read())["rays"]) == 4

    sym_out = str(tmp_path / "sym.json")
    code, _ = run(capsys, "surface", "symmetrize", fan_path, "--out", sym_out)
    assert code == 0
    code, _ = run(capsys, "surface", "desingularize", sym_out, "--out", str(tmp_path / "d.json"))
    assert code == 0

    bad_weights = write(tmp_path, "badw.json", {"weights": [-1, -1, -1]})
    code, _ = run(capsys, "surface", "graph", bad_weights)
    assert code == 10

    rank3 = write(
        tmp_path, "c3.json", {"rank": 3, "positive_covectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    )
    code, _ = run(capsys, "surface", "graph", rank3)
    assert code == 4


def test_insert_and_embed(tmp_path, capsys, a2_file):
    out_path = str(tmp_path / "b2fan.json")
    code, out = run(capsys, "insert", a2_file, "--hyperplane", "1,2", "--out", out_path)
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["splits"] == 2
    new_rays = {tuple(s["new_ray"]) for s in report["witnesses"]["splits"]}
    assert new_rays == {(2, -1), (-2, 1)}

    code, _ = run(capsys, "insert", a2_file, "--hyperplane", "1,1")
    assert code == 3

    b2 = write(
        tmp_path, "b2.json",
        {"rank": 2, "positive_covectors": [[0, 1], [1, 0], [1, 1], [1, 2]]},
    )
    code, out = run(capsys, "embed", b2)
    assert code == 0
    assert json.loads(out)["verdicts"]["invariant_factors"] == [1, 1]


def test_plot(tmp_path, capsys, a2_file):
    fan_path = str(tmp_path / "fan.json")
    run(capsys, "fan", a2_file, "--out", fan_path)
    svg_path = str(tmp_path / "a2.svg")
    code, _ = run(capsys, "plot", fan_path, "--out", svg_path)
    assert code == 0
    svg = open(svg_path).read()
    assert svg.count('class="ray"') == 6

    a3 = write(
        tmp_path, "a3.json", json.loads(open(a2_file).read()) | {}
    )
    code, _ = run(capsys, "catalog", "A_3", "--out", a3)
    svg3 = str(tmp_path / "a3.svg")
    code, _ = run(capsys, "plot", a3, "--out", svg3)
    assert code == 0
    assert open(svg3).read().count('class="hyperplane"') == 6

    a4 = str(tmp_path / "a4.json")
    run(capsys, "catalog", "A_4", "--out", a4)
    code, _ = run(capsys, "plot", a4)
    assert code == 4

    # byte-identical SVG across runs
    again = str(tmp_path / "again.svg")
    run(capsys, "plot", fan_path, "--out", again)
    assert open(again, "rb").read() == open(svg_path, "rb").read()


def test_polytope_poset_parabolic_autos_decompose(tmp_path, capsys, a2_file):
    code, out = run(capsys, "polytope", a2_file, "--out", str(tmp_path / "p.json"))
    assert code == 0
    assert json.loads(out)["verdicts"] == {"normal_fan_verified": True, "vertices": 6}

    code, out = run(capsys, "poset", a2_file)
    assert code == 0
    assert json.loads(out)["verdicts"] == {"covers": 6, "flats": 5}

    code, out = run(capsys, "parabolic", a2_file, "--cone", "0")
    assert code == 0
    assert json.loads(out)["verdicts"]["rank"] == 1

    fan_path = str(tmp_path / "fan.json")
    run(capsys, "fan", a2_file, "--out", fan_path)
    code, out = run(capsys, "autos", fan_path)
    assert code == 0
    assert json.loads(out)["verdicts"]["order"] == 12

    code, out = run(capsys, "decompose", a2_file)
    assert code == 0
    assert json.loads(out)["verdicts"]["factors"] == 1


def test_restrict_command(tmp_path, capsys):
    b2 = write(
        tmp_path, "b2.json",
        {"rank": 2, "positive_covectors": [[0, 1], [1, 0], [1, 1], [1, 2]]},
    )
    code, out = run(capsys, "restrict", b2, "--subspace", "[[1,0]]")
    assert code == 0
    assert json.loads(out)["verdicts"]["rank"] == 1
    code, _ = run(capsys, "restrict", b2, "--subspace", "[[1,3]]")
    assert code == 3


def test_catalog_sporadic_dir(tmp_path, capsys):
    # user-supplied arrangements resolve by file name after the built-ins
    custom = {"rank": 2, "positive_covectors": [[0, 1], [1, 0], [1, 1]]}
    (tmp_path / "myarr.json").write_text(json.dumps(custom))
    out_path = str(tmp_path / "out.json")
    code, _ = run(
        capsys, "catalog", "myarr", "--sporadic-dir", str(tmp_path), "--out", out_path
    )
    assert code == 0
    assert json.loads(open(out_path).read())["positive_covectors"] == [[0, 1], [1, 0], [1, 1]]
    code, _ = run(capsys, "catalog", "nothere", "--sporadic-dir", str(tmp_path))
    assert code == 3


@pytest.mark.parametrize("count", ["2", "13", "x"])
def test_triangulation_count_is_bounded_at_parse_time(capsys, count):
    with pytest.raises(SystemExit) as e:
        main(["surface", "triangulations", "--count", count])
    assert e.value.code == 2
    assert "from 3 to 12" in capsys.readouterr().err


def test_catalog_ngon_outside_bound_is_a_bad_reference(capsys):
    code, _ = run(capsys, "catalog", "ngon:13:0")
    assert code == 3
    code, _ = run(capsys, "catalog", "ngon:12:0")
    assert code == 0


def test_roots_of_fan_missing_a_cone_is_a_verdict(tmp_path, capsys):
    code, _ = run(capsys, "catalog", "A_3", "--out", str(tmp_path / "a3.json"))
    assert code == 0
    fan_path = str(tmp_path / "fan.json")
    run(capsys, "fan", str(tmp_path / "a3.json"), "--out", fan_path)
    obj = json.loads(Path(fan_path).read_text())
    obj["max_cones"].pop()
    code, out = run(capsys, "roots", write(tmp_path, "missing.json", obj))
    assert code == 10 and out == ""


def test_roots_of_a5_fan_file(tmp_path, capsys):
    """The 720 chambers of A_5, imported as a fan file, give back the catalog arrangement."""
    a5 = str(tmp_path / "a5.json")
    fan_path = str(tmp_path / "a5.fan.json")
    roots_path = str(tmp_path / "a5.roots.json")
    assert run(capsys, "catalog", "A_5", "--out", a5)[0] == 0
    assert run(capsys, "fan", a5, "--out", fan_path)[0] == 0
    assert len(json.loads(Path(fan_path).read_text())["max_cones"]) == 720
    code, out = run(capsys, "roots", fan_path, "--out", roots_path)
    assert code == 0
    assert json.loads(out.splitlines()[0])["verdicts"] == {"hyperplanes": 15, "rank": 5}
    assert Path(roots_path).read_bytes() == Path(a5).read_bytes()
