"""bench/ladder.py on one rung: the file it writes and the child it measures."""
import importlib.util
import json
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parent.parent / "bench" / "ladder.py"


def _ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode, before = True, sys.dont_write_bytecode
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


def test_ladder_writes_one_line_per_rung(tmp_path, capsys):
    ladder = _ladder()
    argv = ["--only", "^(verify A_3|roots A_5 fan file)$", "--no-tier1",
            "--label", "one", "--out-dir", str(tmp_path)]
    assert ladder.main(argv) == 0
    text = (tmp_path / "BENCH_one.json").read_text()
    data = json.loads(text)
    assert data["label"] == "one" and data["tier1"] is None and data["runs_per_rung"] == 3
    assert [(r["command"], r["input"]) for r in data["rungs"]] == [
        ("verify", "A_3"), ("roots", "A_5 fan file")]
    for rung in data["rungs"]:
        assert rung["exit"] == [0] and len(rung["runs_s"]) == 3
        assert rung["median_s"] > 0 and rung["spread_s"] >= 0
        # the child's own peak, not that of this larger process
        assert 5 < rung["peak_rss_mb"] < 40
    assert [json.loads(line.rstrip(",")) for line in text.splitlines()[-4:-2]] == data["rungs"]


def test_ladder_rungs_follow_the_ladder():
    ladder = _ladder()
    rungs = ladder.rungs()
    assert len(rungs) == len(set(rungs)) == 24 * 5 + 4 + 6 + 4 + 2
    assert ("polytope", "A_7", False) in rungs and ("verify", "A_8", False) in rungs
    assert {name for _, name, fan in rungs if fan} == {"A_5", "A_6", "A_7"}
    assert [(name, fan) for cmd, name, fan in rungs if cmd == "restrict"] == [
        ("A_5", True), ("A_6", True), ("A_7", True), ("A_6", False)]
    assert [(name, fan) for cmd, name, fan in rungs if cmd == "parabolic"] == [
        ("A_6", False), ("D_5", False)]
