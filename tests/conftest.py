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
    the sliding path (``match_chunk``), a run of dense chunks decided
    together (``_decide_dense_chunk``) and a window decided alone
    (``_decide_window``). A call that one of them makes to another, such as
    the patience pass that a chunk decided together leaves to
    ``_decide_window``, goes to ``inner`` instead. Each call runs the real
    function."""

    NAMES = ("_candidate_starts", "_code_starts", "match_chunk", "_decide_dense_chunk", "_decide_window")

    def __init__(self, monkeypatch):
        self.log: list[Call] = []
        self.inner: list[Call] = []
        self._depth = 0
        for name in self.NAMES:
            monkeypatch.setattr(matcher, name, self._recorded(name, getattr(matcher, name)))

    def _recorded(self, name, fn):
        def recorded(*args):
            self._depth += 1
            try:
                result = fn(*args)
            finally:
                self._depth -= 1
            (self.inner if self._depth else self.log).append(Call(name, args, result))
            return result

        return recorded

    def calls(self, name: str) -> list[Call]:
        return [call for call in self.log if call.name == name]

    def owned(self) -> int:
        """The windows that the runs of chunks decided together own."""
        return sum(call.args[2] for call in self.calls("_decide_dense_chunk"))

    def decided_alone(self) -> int:
        """The windows that ``_decide_window`` decided, inside a chunk decided
        together or not."""
        return len(self.calls("_decide_window")) + sum(call.name == "_decide_window" for call in self.inner)

    def lengths(self, name: str) -> list[int]:
        """The length of the chunk or window each call to ``name`` got."""
        return [len(call.args[0]) for call in self.calls(name)]


@pytest.fixture
def routes(monkeypatch):
    return RouteRecorder(monkeypatch)
