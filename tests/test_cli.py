import argparse
import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import arrfan
from arrfan import cli
from arrfan.cli import build_parser, main
from arrfan.commands import canonical_json
from arrfan.errors import ArrfanError


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


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int() digit limit")
def test_integer_past_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    # json.loads raises a plain ValueError for an integer of more than 4,300 digits
    huge = tmp_path / "huge.json"
    huge.write_text('{"rank": 2, "positive_covectors": [[' + "1" * 5000 + ", 1]]}")
    for command in ("verify", "roots", "plot"):
        assert main([command, str(huge)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "invalid JSON" in captured.err


def test_malformed_arguments_are_parse_errors(tmp_path, capsys):
    # a zero or wrong-length hyperplane and a subspace row of the wrong width
    # are input errors (2), not verdicts on the arrangement or the fan (10)
    a3, fan = str(tmp_path / "a3.json"), str(tmp_path / "a3.fan.json")
    assert run(capsys, "catalog", "A_3", "--out", a3)[0] == 0
    assert run(capsys, "fan", a3, "--out", fan)[0] == 0
    # int() alone would read "1_0,٣" as (10, 3)
    for hyperplane in ("0,0,0", "1,0", "1_0,٣,1", "1,0,１"):
        assert run(capsys, "insert", a3, "--hyperplane", hyperplane) == (2, "")
    singular = write(tmp_path, "singular.json", {
        "rank": 2, "rays": [[-1, -2], [-1, 2], [1, 0]], "max_cones": [[0, 1], [1, 2], [0, 2]],
    })
    assert run(capsys, "restrict", singular, "--subspace", "[[1,0]]")[0] == 10
    for path, rows in ((fan, "[[1,0]]"), (fan, "[[1,0,0],[0,1]]"), (singular, "[[1,0,0]]")):
        assert run(capsys, "restrict", path, "--subspace", rows) == (2, "")


@pytest.mark.parametrize(
    "rows", ["[[1.5,0,0]]", '[["1",0,0]]', "[[true,0,0]]", "[[Infinity,0,0]]", "{}", "[0,0,1]"]
)
def test_subspace_entries_must_be_json_integers(tmp_path, capsys, rows):
    # a float, a string, a bool and a float too large for int() are no JSON integers;
    # an object and a flat vector are no list of rows
    a3, fan = str(tmp_path / "a3.json"), str(tmp_path / "a3.fan.json")
    assert run(capsys, "catalog", "A_3", "--out", a3)[0] == 0
    assert run(capsys, "fan", a3, "--out", fan)[0] == 0
    assert main(["restrict", fan, "--subspace", rows]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad row list" in captured.err and "Traceback" not in captured.err


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
    # an optional sign and ASCII digits, spaces around them allowed
    assert run(capsys, "star", fan_path, "--cone", " +0 ") == (0, out)
    for cone in ("٠", "0,１", "0_0", "0.0"):
        assert run(capsys, "star", fan_path, "--cone", cone)[0] == 2


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
    assert len(json.loads(Path(out_fan).read_text())["rays"]) == 4

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


@pytest.mark.parametrize("weights", [[0.9, 0.5, 0.2, 0.7], ["0", 0, 0, 0], [True, 0, 0, 0], 5])
def test_weights_file_of_non_integers_is_an_input_error(tmp_path, capsys, weights):
    path = write(tmp_path, "w.json", {"weights": weights})
    for argv in (["surface", "graph", path], ["surface", "from-weights", path], ["plot", path]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 'weights' must be a list of integers\n")


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
    svg = Path(svg_path).read_text()
    assert svg.count('class="ray"') == 6

    a3 = write(
        tmp_path, "a3.json", json.loads(Path(a2_file).read_text()) | {}
    )
    code, _ = run(capsys, "catalog", "A_3", "--out", a3)
    svg3 = str(tmp_path / "a3.svg")
    code, _ = run(capsys, "plot", a3, "--out", svg3)
    assert code == 0
    assert Path(svg3).read_text().count('class="hyperplane"') == 6

    a4 = str(tmp_path / "a4.json")
    run(capsys, "catalog", "A_4", "--out", a4)
    code, _ = run(capsys, "plot", a4)
    assert code == 4

    # byte-identical SVG across runs
    again = str(tmp_path / "again.svg")
    run(capsys, "plot", fan_path, "--out", again)
    assert Path(again).read_bytes() == Path(svg_path).read_bytes()


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


def test_parabolic_of_a_maximal_cone_is_a_bad_reference(capsys, a2_file):
    """A maximal cone leaves a rank-0 quotient, like restricting to the zero flat."""
    code = main(["parabolic", a2_file, "--cone", "0,1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "Traceback" not in captured.err
    assert "error: parabolic arrangement needs a cone of dimension below the rank" in captured.err


def test_parabolic_of_a_singular_star_exits_0(tmp_path, capsys):
    """A non-crystallographic arrangement whose star fan at ray 0 is singular:
    the localization is written, where building the star fan exited 10."""
    path, out = tmp_path / "a.json", tmp_path / "p.json"
    path.write_text(json.dumps({"rank": 3, "positive_covectors": [
        [0, 0, 1], [0, 1, -2], [0, 1, 0], [0, 1, 1], [1, 0, 0]]}))
    code, report = run(capsys, "parabolic", str(path), "--cone", "0", "--out", str(out))
    assert code == 0
    assert json.loads(report)["verdicts"] == {"hyperplanes": 4, "rank": 2}
    assert json.loads(out.read_text()) == {
        "rank": 2, "positive_covectors": [[0, 1], [1, -2], [1, 0], [1, 1]]}


def test_restrict_command(tmp_path, capsys):
    b2 = write(
        tmp_path, "b2.json",
        {"rank": 2, "positive_covectors": [[0, 1], [1, 0], [1, 1], [1, 2]]},
    )
    code, out = run(capsys, "restrict", b2, "--subspace", "[[1,0]]")
    assert code == 0
    assert json.loads(out)["verdicts"]["rank"] == 1
    assert main(["restrict", b2, "--subspace", "[[1,3]]"]) == 3
    assert "error: subspace is not a flat of the arrangement" in capsys.readouterr().err


def test_catalog_sporadic_dir(tmp_path, capsys):
    # user-supplied arrangements resolve by file name after the built-ins
    custom = {"rank": 2, "positive_covectors": [[0, 1], [1, 0], [1, 1]]}
    (tmp_path / "myarr.json").write_text(json.dumps(custom))
    out_path = str(tmp_path / "out.json")
    code, _ = run(
        capsys, "catalog", "myarr", "--sporadic-dir", str(tmp_path), "--out", out_path
    )
    assert code == 0
    assert json.loads(Path(out_path).read_text())["positive_covectors"] == [[0, 1], [1, 0], [1, 1]]
    code, _ = run(capsys, "catalog", "nothere", "--sporadic-dir", str(tmp_path))
    assert code == 3
    # a name's file that cannot be read is an input error, not a traceback
    (tmp_path / "E_6.json").mkdir()
    code = main(["catalog", "E_6", "--sporadic-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: cannot read {tmp_path / 'E_6.json'}: ")


@pytest.mark.parametrize("count", ["2", "13", "x", "٥", "５", "1_0", "1" * 5000])
def test_triangulation_count_is_bounded_at_parse_time(capsys, count):
    with pytest.raises(SystemExit) as e:
        main(["surface", "triangulations", "--count", count])
    assert e.value.code == 2
    assert "from 3 to 12" in capsys.readouterr().err


def test_catalog_ngon_outside_bound_is_a_bad_reference(capsys):
    code, _ = run(capsys, "catalog", "ngon:13:0")
    assert code == 3
    # names take ASCII digits only, and a number past int()'s digit limit is no name
    huge = "1" * 5000
    for name in ("A_٣", "B_３", "ngon:٨:0", "ngon:8:0\n", "A_" + huge, "ngon:8:" + huge):
        assert run(capsys, "catalog", name) == (3, "")
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


def test_a_missing_property_is_reported_with_its_own_witness(tmp_path, capsys):
    """P^2's fan fails central symmetry first, but `roots` reports the hyperplane
    and cone that break strong symmetry; the one singular cone fails smoothness
    first, but `autos` reports completeness, naming the lowest facet in one
    cone; a fan with a one-ray cone names that cone."""
    p2 = write(tmp_path, "p2.json", {"rank": 2, "rays": [[-1, -1], [0, 1], [1, 0]],
                                     "max_cones": [[1, 2], [0, 1], [0, 2]]})
    one_cone = write(tmp_path, "cone.json", {"rank": 2, "rays": [[1, 0], [1, 2]],
                                             "max_cones": [[0, 1]]})
    low = write(tmp_path, "low.json", {"rank": 2, "rays": [[-1, -1], [0, 1], [1, 0]],
                                       "max_cones": [[1, 2], [0]]})
    assert main(["roots", p2]) == 10
    assert capsys.readouterr().err.startswith(
        "error: fan is not strongly symmetric (witness: {'property': "
        "'strongly_symmetric', 'hyperplane': (0, 1), 'cone': ((-1, -1), (0, 1))})\n")
    assert main(["autos", one_cone]) == 10
    assert capsys.readouterr().err.startswith(
        "error: fan is not complete (witness: {'property': 'complete', 'facet': ((1, 0),)})\n")
    assert main(["autos", low]) == 10
    assert capsys.readouterr().err.startswith(
        "error: fan is not complete (witness: {'property': 'complete', 'cone': ((-1, -1),)})\n")


F1_FAN = {"rank": 2, "rays": [[-1, 1], [0, -1], [0, 1], [1, 0]],
          "max_cones": [[2, 3], [0, 2], [0, 1], [1, 3]]}


@pytest.mark.parametrize("argv, obj, code, err", [
    (["roots"], {"rank": 2, "rays": [[0, 0], [1, 0]], "max_cones": [[0, 1]]}, 2, "zero ray"),
    (["roots"], {"rank": 2, "rays": [[0, 1], [2, 0]], "max_cones": [[0, 1]]}, 2,
     "ray (2, 0) is not primitive"),
    (["roots"], {"rank": 2, "rays": [[0, 1], [1, 0]], "max_cones": [[0, 2]]}, 2,
     "bad ray index 2"),
    # F_1's fan is complete and smooth but not centrally symmetric
    (["surface", "divisor"], F1_FAN, 10, "graph is not centrally symmetric"),
    (["surface", "picard"], F1_FAN, 10, "graph is not centrally symmetric"),
    (["surface", "from-weights"], {"weights": [1, 2, 2, 1, 3]}, 10,
     "weights (1, 2, 2, 1, 3) wind around more than once"),
])
def test_rejected_input_exits_with_its_code_and_message(tmp_path, capsys, argv, obj, code, err):
    assert main(argv + [write(tmp_path, "in.json", obj)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == f"error: {err}"


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


# every leaf command: its argv on A_2 ({arr}: arrangement, {fan}: its fan file),
# the name its report line carries, and whether it takes --out and writes the file
_LEAF_COMMANDS = [
    (["verify", "{arr}"], "verify", False),
    (["catalog", "A_2"], "catalog", True),
    (["fan", "{arr}"], "fan", True),
    (["roots", "{fan}"], "roots", True),
    (["polytope", "{arr}"], "polytope", True),
    (["star", "{fan}", "--cone", "0"], "star", True),
    (["restrict", "{fan}", "--subspace", "[[1,0]]"], "restrict", True),
    (["poset", "{arr}"], "poset", True),
    (["parabolic", "{arr}", "--cone", "0"], "parabolic", True),
    (["insert", "{arr}", "--hyperplane", "1,2"], "insert", True),
    (["autos", "{fan}"], "autos", True),
    (["embed", "{arr}"], "embed", True),
    (["decompose", "{arr}"], "decompose", True),
    (["plot", "{fan}"], "plot", True),
    (["surface", "graph", "{fan}"], "surface.graph", True),
    (["surface", "from-weights", "{fan}"], "surface.from-weights", True),
    (["surface", "symmetrize", "{fan}"], "surface.symmetrize", True),
    (["surface", "desingularize", "{fan}"], "surface.desingularize", True),
    (["surface", "divisor", "{fan}"], "surface.divisor", True),
    (["surface", "picard", "{fan}"], "surface.picard", False),
    (["surface", "triangulations", "--count", "5"], "surface.triangulations", True),
]


def _leaf_reports(parser):
    """The report name of every leaf command the parser accepts."""
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    names = set()
    for sub in subs.choices.values():
        report = sub.get_default("report")
        names |= {report} if report else _leaf_reports(sub)
    return names


def test_report_cases_cover_every_command():
    assert _leaf_reports(build_parser()) == {name for _, name, _ in _LEAF_COMMANDS}


@pytest.mark.parametrize("argv,name,writes", _LEAF_COMMANDS, ids=[c[1] for c in _LEAF_COMMANDS])
def test_report_line_of_every_command(tmp_path, capsys, a2_file, argv, name, writes):
    fan_path = str(tmp_path / "a2.fan.json")
    assert run(capsys, "fan", a2_file, "--out", fan_path)[0] == 0
    argv = [a.format(arr=a2_file, fan=fan_path) for a in argv]
    out_path = tmp_path / "out"
    if writes:
        argv += ["--out", str(out_path)]
    code, out = run(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert out == canonical_json(report) + "\n"
    assert report["command"] == name
    assert report["outputs"] == ({"out": str(out_path)} if writes else {})
    assert out_path.exists() == writes
    if not writes:  # --out is rejected at parse time rather than ignored
        with pytest.raises(SystemExit) as e:
            main([*argv, "--out", str(out_path)])
        assert e.value.code == 2


@pytest.mark.parametrize("argv", [["catalog", "A_2"], ["plot", "{fan}"]])
def test_catalog_and_plot_print_the_document_without_out(tmp_path, capsys, a2_file, argv):
    fan_path = str(tmp_path / "a2.fan.json")
    assert run(capsys, "fan", a2_file, "--out", fan_path)[0] == 0
    code, out = run(capsys, *[a.format(fan=fan_path) for a in argv])
    assert code == 0
    if argv[0] == "catalog":
        assert out == Path(a2_file).read_text()
    else:
        assert out.startswith("<?xml") and out.rstrip().endswith("</svg>")
        assert '"command"' not in out


@pytest.mark.parametrize("target", ["missing-dir/x.json", "."])
@pytest.mark.parametrize(
    "argv", [["fan", "{arr}"], ["catalog", "A_2"], ["plot", "{fan}"], ["surface", "graph", "{fan}"]]
)
def test_unwritable_out_is_an_input_error(tmp_path, capsys, a2_file, argv, target):
    """A --out path in a missing directory, or a directory, exits 2 with no report."""
    fan_path = str(tmp_path / "a2.fan.json")
    assert run(capsys, "fan", a2_file, "--out", fan_path)[0] == 0
    out = str(tmp_path / target)
    code = main([*(a.format(arr=a2_file, fan=fan_path) for a in argv), "--out", out])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: cannot write {out}: ")


def _outcome_of_main(capsys, argv):
    """Exit code, stdout and stderr (without the timing line) of main(argv)."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, re.sub(r"# elapsed_ms=[0-9.]+\n", "", captured.err)


def _variants(argv):
    """Command lines around one valid argv: help, missing and bad arguments."""
    words = argv[:2] if argv[0] == "surface" else argv[:1]
    rest = argv[len(words):]
    yield argv
    yield [*words, "-h"]
    yield words
    yield [*words, *("missing.json" if a.endswith(".json") else a for a in rest)]
    yield [*argv, "--bogus"]
    yield [*argv, "extra"]
    for option in ("--count", "--cone", "--subspace"):
        if option in argv:
            yield [*words, *("x" if a == argv[argv.index(option) + 1] else a for a in rest)]


def test_main_builds_only_the_named_command():
    for argv, name, _ in _LEAF_COMMANDS:
        assert _leaf_reports(build_parser(argv[:2])) == {name}
    for words in (["-h"], ["nope"], ["surface"], ["surface", "nope"]):
        assert _leaf_reports(build_parser(words)) == _leaf_reports(build_parser())


@pytest.mark.parametrize("argv,name,writes", _LEAF_COMMANDS, ids=[c[1] for c in _LEAF_COMMANDS])
def test_one_command_parser_matches_the_full_parser(
    monkeypatch, tmp_path, capsys, a2_file, argv, name, writes
):
    """Help, usage and error texts, outputs and exit codes are those of the
    whole grammar, and a valid command line builds the one command's parser."""
    fan_path = str(tmp_path / "a2.fan.json")
    assert run(capsys, "fan", a2_file, "--out", fan_path)[0] == 0
    argv = [a.format(arr=a2_file, fan=fan_path) for a in argv]
    monkeypatch.chdir(tmp_path)
    built = []
    leaf_parser = cli.build_parser
    for i, variant in enumerate(_variants(argv)):
        built.clear()
        monkeypatch.setattr(cli, "build_parser", lambda w=(): built.append(list(w)) or leaf_parser(w))
        leaf = _outcome_of_main(capsys, variant)
        if i == 0:
            assert leaf[0] == 0 and built == [argv[:2]]
        monkeypatch.setattr(cli, "build_parser", lambda w=(): leaf_parser())
        assert leaf == _outcome_of_main(capsys, variant), variant


@pytest.mark.parametrize("argv", [["-h"], [], ["nope"], ["surface"], ["surface", "-h"],
                                  ["surface", "nope"], ["--out", "x", "fan"]])
def test_top_level_errors_and_help_use_the_full_parser(monkeypatch, capsys, argv):
    leaf = _outcome_of_main(capsys, argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda w=(): full())
    assert leaf == _outcome_of_main(capsys, argv)
    # the usage lists every command of the group
    group = "{graph,from-weights," if argv[:1] == ["surface"] else "{verify,catalog,fan,"
    assert group in leaf[1] + leaf[2]


# the exit-code table of the README, by error class
_README_EXIT_CODES = {
    "InputFormatError": 2,
    "MalformedFanError": 2,
    "BadReferenceError": 3,
    "UnsupportedRankError": 4,
    "LatticeSpanError": 10,
    "NonPointedError": 10,
    "NotCrystallographicError": 10,
    "NotSmoothError": 10,
    "NotCompleteError": 10,
    "NotStronglySymmetricError": 10,
    "DoesNotCloseError": 10,
    "OrientationError": 10,
    "CertificationError": 10,
    "ValueError": 10,
    "NotSimplicialError": 11,
}


@pytest.mark.parametrize(
    "error", [*ArrfanError.__subclasses__(), ValueError], ids=lambda cls: cls.__name__
)
def test_exit_code_table(monkeypatch, capsys, a2_file, error):
    """Each error class a command raises exits with its documented code.

    A class added without an entry in the table fails here.
    """
    import arrfan.arrangement

    def load_arrangement(data):
        raise error("injected")

    monkeypatch.setattr(arrfan.arrangement, "load_arrangement", load_arrangement)
    code = main(["verify", a2_file])
    captured = capsys.readouterr()
    assert code == _README_EXIT_CODES[error.__name__]
    assert captured.out == ""
    assert captured.err.startswith("error: injected\n")


def test_an_interrupt_exits_130_without_a_traceback(monkeypatch, capsys, a2_file):
    import arrfan.arrangement

    def load_arrangement(data):
        raise KeyboardInterrupt

    monkeypatch.setattr(arrfan.arrangement, "load_arrangement", load_arrangement)
    code = main(["verify", a2_file])
    captured = capsys.readouterr()
    assert (code, captured.out) == (130, "")
    assert captured.err.startswith("error: interrupted\n# elapsed_ms=")


def test_a_type_error_is_not_a_verdict(monkeypatch, capsys, a2_file):
    import arrfan.arrangement

    def load_arrangement(data):
        raise TypeError("internal")

    monkeypatch.setattr(arrfan.arrangement, "load_arrangement", load_arrangement)
    with pytest.raises(TypeError, match="internal"):
        main(["verify", a2_file])
    assert capsys.readouterr().out == ""


_BASE = {"arrfan", "arrfan.errors", "arrfan.intlinalg", "arrfan.commands"}


# `python -m arrfan.cli argv...`, then the modules it loaded beyond the
# interpreter's start-up (which may import anything, depending on site-packages)
_RUN_AS_MAIN = """
import json, runpy, sys
before, code = set(sys.modules), None
try:
    runpy.run_module("arrfan.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
print(json.dumps([code, sorted(set(sys.modules) - before)]), file=sys.stderr)
"""


def _checkout_env():
    """The environment with this checkout's arrfan first on the import path."""
    src = str(Path(arrfan.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _fresh(tmp_path, script, *argv):
    """Run `python -c script argv...` in tmp_path with this checkout's arrfan."""
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=tmp_path, env=_checkout_env(), capture_output=True, text=True,
    )


def _imports_of(tmp_path, *argv):
    """The modules a CLI command loads, in a fresh interpreter."""
    proc = _fresh(tmp_path, _RUN_AS_MAIN, *argv)
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(loaded)


_ARR = {"commands.arrangements", "arrangement"}
# the fan-file side: no command but `roots` and `restrict` load `arrangement`
_FANS = {"commands.fans", "fan"}
_SURFACES = {"commands.surfaces", "fan", "surface"}


_IMPORT_CASES = [
    (["catalog", "A_2"], _ARR),
    (["verify", "a2.json"], _ARR),
    (["fan", "a2.json"], _ARR | {"fan"}),
    (["poset", "a2.json"], _ARR | {"poset"}),
    (["roots", "a2.fan.json"], _FANS | {"arrangement"}),
    (["surface", "graph", "a2.fan.json"], _SURFACES),
    (["plot", "a2.json"], {"commands.fans", "arrangement", "svgplot"}),
    (["parabolic", "a2.json", "--cone", "0"], _ARR | {"fan", "poset"}),
    (["embed", "a2.json"], _ARR | {"polytope"}),
    (["polytope", "a2.json"], _ARR | {"polytope"}),
    (["decompose", "a2.json"], _ARR),
    (["insert", "a2.json", "--hyperplane", "1,2"], _ARR | {"fan", "fanmaps"}),
    (["star", "a2.fan.json", "--cone", "0"], _FANS | {"fanmaps"}),
    (["restrict", "a2.fan.json", "--subspace", "[[1,0]]"],
     _FANS | {"fanmaps", "arrangement", "poset"}),
    (["autos", "a2.fan.json"], _FANS | {"fanmaps"}),
    (["plot", "a2.fan.json"], _FANS | {"surface", "svgplot"}),
    (["surface", "from-weights", "a2.fan.json"], {"commands.surfaces", "fan"}),
    (["surface", "symmetrize", "a2.fan.json"], _SURFACES),
    (["surface", "desingularize", "a2.fan.json"], _SURFACES),
    (["surface", "divisor", "a2.fan.json"], _SURFACES),
    (["surface", "picard", "a2.fan.json"], _SURFACES),
    (["surface", "triangulations", "--count", "6"], {"commands.surfaces", "surface"}),
]


def test_import_cases_cover_every_command():
    cases = {".".join(argv[:2]) if argv[0] == "surface" else argv[0] for argv, _ in _IMPORT_CASES}
    assert cases == _leaf_reports(build_parser())


@pytest.mark.parametrize("argv,extra", _IMPORT_CASES)
def test_each_command_imports_only_its_modules(tmp_path, capsys, argv, extra):
    # a subprocess, since pytest itself has imported inspect and every module
    run(capsys, "catalog", "A_2", "--out", str(tmp_path / "a2.json"))
    run(capsys, "fan", str(tmp_path / "a2.json"), "--out", str(tmp_path / "a2.fan.json"))
    loaded = _imports_of(tmp_path, *argv)
    # under -m the CLI runs as __main__, so arrfan.cli is never imported
    assert {m for m in loaded if m.split(".")[0] == "arrfan"} == _BASE | {
        f"arrfan.{m}" for m in extra
    }
    if "a2.fan.json" in argv and argv[0] not in ("roots", "restrict"):
        assert "arrfan.arrangement" not in loaded
    assert not loaded & {"dataclasses", "inspect"}
    # the report's digest comes from the builtin SHA-256: hashlib would load OpenSSL
    assert not loaded & {"hashlib", "_hashlib"}
    # only plotting computes with fractions; a witness of non-integrality would too
    if argv[0] != "plot":
        assert "fractions" not in loaded


# `python -m arrfan.cli argv...` in an interpreter built without the builtin
# SHA-256 module; prints whether hashlib was loaded
_WITHOUT_BUILTIN_SHA256 = """
import runpy, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
try:
    runpy.run_module("arrfan.cli", run_name="__main__", alter_sys=True)
finally:
    print("hashlib" in sys.modules, file=sys.stderr)
"""


def test_digest_falls_back_to_hashlib(tmp_path):
    obj, expected = _PINNED_WITNESSES[0]
    write(tmp_path, "neg.json", obj)
    proc = _fresh(tmp_path, _WITHOUT_BUILTIN_SHA256, "verify", "neg.json")
    assert (proc.returncode, proc.stdout) == (10, expected + "\n")
    assert proc.stderr.splitlines()[-1] == "True"


def _program(tmp_path, *args, stdout=subprocess.PIPE):
    """Run `python args...` in tmp_path with this checkout's arrfan, as a shell
    runs it: without PYTHONUNBUFFERED, stdout into a pipe is block-buffered,
    so output left unflushed at exit is lost.  Returns bytes."""
    env = _checkout_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env, stdout=stdout,
                          stderr=subprocess.PIPE)


def _no_elapsed(err: str) -> str:
    return re.sub(r"^# elapsed_ms=[0-9.]+\n", "", err, flags=re.M)


# one command line per exit code, run through the program entry and in process
_EXITS = [
    (["fan", "a2.json", "--out", "a2.fan.json"], 0),
    (["verify", "missing.json"], 2),
    (["verify", "a2.json", "--out", "x.json"], 2),  # a usage error, from argparse
    (["catalog", "X_2"], 3),
    (["surface", "graph", "c3.json"], 4),
    (["insert", "a2.json", "--hyperplane", "3,1"], 10),
    (["verify", "neg3.json"], 11),
]


@pytest.mark.parametrize("argv,expected", _EXITS, ids=[" ".join(argv) for argv, _ in _EXITS])
def test_program_entry_gives_mains_output_and_code(tmp_path, capsys, monkeypatch, argv, expected):
    """`python -m arrfan.cli` ends its process after its exit handlers and a
    flush, with main's stdout bytes, stderr (less timing), files and code."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "catalog", "A_2", "--out", "a2.json")
    write(tmp_path, "c3.json", {"rank": 3, "positive_covectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    write(tmp_path, "neg3.json",
          {"rank": 3, "positive_covectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]})
    proc = _program(tmp_path, "-m", "arrfan.cli", *argv)
    written = sorted((f.name, f.read_bytes()) for f in tmp_path.iterdir())
    for f in tmp_path.glob("*.fan.json"):
        f.unlink()
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    assert proc.returncode == code == expected
    assert proc.stdout == captured.out.encode()
    assert _no_elapsed(proc.stderr.decode()) == _no_elapsed(captured.err)
    assert written == sorted((f.name, f.read_bytes()) for f in tmp_path.iterdir())


# exit handlers registered before the CLI runs as __main__, as coverage's are
_HANDLER_THEN_MAIN = """
import atexit, runpy, sys
atexit.register(print, "handler ran", file=sys.stderr)
runpy.run_module("arrfan.cli", run_name="__main__", alter_sys=True)
"""


def test_exit_handlers_registered_before_the_program_run_once(tmp_path, capsys):
    run(capsys, "catalog", "A_2", "--out", str(tmp_path / "a2.json"))
    proc = _program(tmp_path, "-c", _HANDLER_THEN_MAIN, "insert", "a2.json", "--hyperplane", "3,1")
    assert proc.returncode == 10
    assert proc.stderr.decode().splitlines().count("handler ran") == 1


def test_report_into_a_closed_pipe_fails_as_the_interpreter_reports(tmp_path, capsys):
    """A flush that fails leaves the exit to the interpreter: its message on
    stderr and exit code 120, as without the program's own exit."""
    run(capsys, "catalog", "A_2", "--out", str(tmp_path / "a2.json"))
    read, write_end = os.pipe()
    os.close(read)
    try:
        proc = _program(tmp_path, "-m", "arrfan.cli", "verify", "a2.json", stdout=write_end)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 120
    assert "Exception ignored in: <_io.TextIOWrapper name='<stdout>'" in err
    assert "BrokenPipeError" in err


def _fuzz_documents():
    """The documents the CLI fuzz test mutates, by the kind of file each is."""
    from arrfan.arrangement import arrangement_to_json, catalog
    from arrfan.fan import fan_from_arrangement, fan_to_json

    return [
        ("arrangement", arrangement_to_json(catalog("A_2"))),
        ("arrangement", arrangement_to_json(catalog("B_2"))),
        ("fan", fan_to_json(fan_from_arrangement(catalog("A_2")))),
        ("weights", {"weights": [-1, -1, -1, -1, -1, -1]}),
    ]


# the commands that read a fan file also read a weights file and an arrangement,
# as its chamber fan; `roots` reads fan files only
_READS_A_FAN = [
    ["star", "{path}", "--cone={cone}"], ["restrict", "{path}", "--subspace={subspace}"],
    ["autos", "{path}"], ["plot", "{path}"],
    *(["surface", name, "{path}"]
      for name in ("graph", "from-weights", "symmetrize", "desingularize", "divisor", "picard")),
]
_FUZZ_COMMANDS = {
    "arrangement": [*([name, "{path}"] for name in ("verify", "fan", "polytope", "poset",
                                                    "embed", "decompose")),
                    ["parabolic", "{path}", "--cone={cone}"],
                    ["insert", "{path}", "--hyperplane={hyperplane}"], *_READS_A_FAN],
    "fan": [["roots", "{path}"], *_READS_A_FAN],
    "weights": _READS_A_FAN,
}
_REPLACEMENTS = st.sampled_from([0, 1, -1, 3, 0.5, "1", True, False, None, [], [1, 0], 2**80])


def _slots(node):
    """Every (container, key) of a JSON document, outermost first."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return []
    return [(node, k) for k in keys] + [slot for k in keys for slot in _slots(node[k])]


@st.composite
def _mutated_documents(draw):
    """A document with up to two mutations: an entry dropped, duplicated or
    replaced, the rank changed, or the document nested in another.  Replacing
    is the likeliest, as it most often leaves a document that commands read."""
    kind, doc = draw(st.sampled_from(_fuzz_documents()))
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["drop", "duplicate", "replace", "replace", "replace", "rank",
                                    "nest"]))
        slots = _slots(doc)
        if how == "nest" or not slots:
            doc = draw(st.sampled_from([[doc], {"document": doc}]))
        elif how == "rank" and isinstance(doc, dict) and "rank" in doc:
            doc["rank"] = draw(st.integers(-1, 4))
        else:
            container, key = draw(st.sampled_from(slots))
            if how == "drop":
                del container[key]
            elif how == "duplicate" and isinstance(container, list):
                container.insert(key, json.loads(json.dumps(container[key])))
            else:
                container[key] = draw(_REPLACEMENTS)
    return kind, doc


_OPTION_TEXT = st.text(alphabet="0123456789,-[] ", max_size=8)


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(_mutated_documents(),
       st.one_of(st.sampled_from(["0", "1", "0,1", "2", "-1", ""]), _OPTION_TEXT),
       st.one_of(st.sampled_from(["[[1,0]]", "[[0,1]]", "[[1,1]]", "[]", "[[1,0],[0,1]]",
                                  "[[1.0,0]]", "[[true,0]]", "{}"]), _OPTION_TEXT),
       st.one_of(st.sampled_from(["1,2", "1,1", "1,0", "0,0", "3,1", "2"]), _OPTION_TEXT))
def test_mutated_inputs_exit_with_a_documented_code(tmp_path_factory, case, cone, subspace,
                                                    hyperplane):
    """Every command that reads a mutated A_2, B_2, A_2-fan or weights file, with
    drawn --cone, --subspace and --hyperplane strings, exits with a code of the
    README's table and raises nothing out of `main`."""
    kind, doc = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    for words in _FUZZ_COMMANDS[kind]:
        argv = [w.format(path=path, cone=cone, subspace=subspace, hyperplane=hyperplane)
                for w in words]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4, 10, 11), (argv, doc)
