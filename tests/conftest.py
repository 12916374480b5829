from typing import Any, NamedTuple

import pytest

from opmatch import matcher


class Call(NamedTuple):
    name: str
    args: tuple
    result: Any


class RouteRecorder:
    """Logs, in call order, each call ``match_all`` makes to the functions
    that pick and run a chunk's route: the block prefilter
    (``_candidate_starts``), the comparison-code filter (``_code_starts``),
    the sliding path (``match_chunk``) and a window decided alone
    (``_decide_window``). Each call runs the real function."""

    NAMES = ("_candidate_starts", "_code_starts", "match_chunk", "_decide_window")

    def __init__(self, monkeypatch):
        self.log: list[Call] = []
        for name in self.NAMES:
            monkeypatch.setattr(matcher, name, self._recorded(name, getattr(matcher, name)))

    def _recorded(self, name, fn):
        def recorded(*args):
            result = fn(*args)
            self.log.append(Call(name, args, result))
            return result

        return recorded

    def calls(self, name: str) -> list[Call]:
        return [call for call in self.log if call.name == name]

    def lengths(self, name: str) -> list[int]:
        """The length of the chunk or window each call to ``name`` got."""
        return [len(call.args[0]) for call in self.calls(name)]


@pytest.fixture
def routes(monkeypatch):
    return RouteRecorder(monkeypatch)
