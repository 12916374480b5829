import pytest

from opmatch.instances import parse_instance
from opmatch.matcher import MatchStats, match_all

from shapes import SHAPES, main


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
