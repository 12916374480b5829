import json
import re
from pathlib import Path

import pytest

from opmatch.instances import parse_instance
from opmatch.matcher import MatchStats, match_all

from shapes import SHAPES, main

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", list(SHAPES))
def test_shape_takes_its_route(routes, name):
    # each catalogue instance reaches the route it names, with the answer it
    # names; CI compares the same instances with the naive matcher
    shape = SHAPES[name]
    inst = shape.build()
    stats = MatchStats()
    got = match_all(inst.text, inst.pattern, inst.k, inst.mode, stats=stats)
    if isinstance(shape.answer, int):
        assert len(got) == shape.answer
    else:
        assert got == list(shape.answer)
    windows = len(inst.text) - len(inst.pattern) + 1
    chunks = routes.calls("match_chunk")
    decided = routes.calls("_decide_window")
    if shape.route in ("candidates", "codes", "dense-together"):
        # no chunk slides: a window neither decided alone nor in a chunk
        # decided together is ruled out before
        assert not chunks and stats.prefiltered == windows - len(decided) - routes.owned()
    if shape.route == "candidates":
        assert decided and not routes.calls("_code_starts")
    elif shape.route == "codes":
        assert stats.code_ruled_out > 0
    elif shape.route == "dense-together":
        assert routes.owned() + len(decided) == windows
        # the chunks certify all but a few windows: at most 5% get the patience pass
        assert routes.owned() > 0 and 20 * routes.decided_alone() <= windows
    else:
        assert shape.route in ("direct", "dynstring") and chunks
        assert (stats.dyn_scans > 0) == (shape.route == "dynstring")


def test_each_shape_is_written_as_an_instance_file(capsys):
    assert main([]) == 0
    assert capsys.readouterr().out.split() == list(SHAPES)
    for name, shape in SHAPES.items():
        assert main([name]) == 0
        assert parse_instance(capsys.readouterr().out) == shape.build()
    assert main(["no-such-shape"]) == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_committed_ab_file_has_a_stamp_and_equal_sides(path):
    # a committed ``tests/abtime.py --json`` run: the stamp says where it ran,
    # and on every row the two trees gave the same answer and counters
    data = json.loads(path.read_text())
    stamp = data["stamp"]
    assert isinstance(stamp["python"], str) and stamp["python"]
    assert isinstance(stamp["nproc"], int) and stamp["nproc"] >= 1
    assert stamp["affinity"] and all(isinstance(cpu, int) for cpu in stamp["affinity"])
    rounds = stamp["rounds"]
    assert isinstance(rounds, int) and rounds >= 1
    for side in ("parent", "change"):
        assert re.fullmatch("[0-9a-f]{64}", stamp[f"{side}_sha256"]), side
    assert data["rows"]
    for row in data["rows"]:
        parent, change = row["parent"], row["change"]
        assert parent["answer_sha256"] == change["answer_sha256"], row["shape"]
        assert parent["stats"] == change["stats"], row["shape"]
        for times in (parent, change):
            assert 0 < times["q1_ms"] <= times["median_ms"] <= times["q3_ms"], row["shape"]
        assert row["ratio"] == pytest.approx(change["median_ms"] / parent["median_ms"])
        assert 0 <= row["wins"] <= rounds and row["verdict"] in ("", "slower"), row["shape"]
